//! The result line parses as JSON and names every metric; the metric
//! catalogue, `BENCHMARK.json` and `perfbench/metrics.json` agree.

use std::collections::BTreeMap;

use topick_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use topick_perfbench::workloads::Workload;

/// A parsed JSON value (objects keep their keys sorted).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }
}

/// A strict recursive-descent JSON parser: the whole input must be one
/// value.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at {}", p.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i).copied() {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.string()? else {
                        unreachable!()
                    };
                    self.eat(b':')?;
                    let v = self.value()?;
                    if m.insert(k.clone(), v).is_some() {
                        return Err(format!("duplicate key {k}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(a));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string(),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                let leading_zero = text.trim_start_matches('-').starts_with("0")
                    && text.trim_start_matches('-').len() > 1
                    && !text.trim_start_matches('-')[1..].starts_with(['.', 'e', 'E']);
                if leading_zero {
                    return Err(format!("leading zero in {text}"));
                }
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text}"))
            }
            _ => Err(format!("unexpected input at {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<Json, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(Json::Str(out));
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.i + 1).copied().ok_or("bad escape")?;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        _ => return Err(format!("unsupported escape at {}", self.i)),
                    });
                    self.i += 2;
                }
                Some(c) if c < 0x20 => return Err("control character in string".into()),
                Some(_) => {
                    let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("read {path}: {e}"));
    Parser::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn outcome(catalogue: &[(&'static str, &'static str)]) -> Outcome {
    Outcome {
        attempted: 40,
        failed: 0,
        metrics: catalogue
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| (name, 0.125 + i as f64 * 1e-7))
            .collect(),
    }
}

#[test]
fn parser_rejects_what_json_rejects() {
    for bad in [
        "{",
        "{\"a\": 1,}",
        "[1 2]",
        "01",
        "{\"a\": 1} x",
        "\"\u{1}\"",
        "NaN",
    ] {
        assert!(Parser::parse(bad).is_err(), "{bad:?} parsed");
    }
    assert_eq!(
        Parser::parse(" [1.5e3, -2, \"x\"] ").unwrap().arr().len(),
        3
    );
}

#[test]
fn result_line_is_one_json_object_naming_every_metric() {
    for catalogue in [&END_TO_END[..], &PER_LAYER[..]] {
        let line = outcome(catalogue).result_line(catalogue);
        assert!(!line.contains('\n'));
        let doc = Parser::parse(&line).expect("result line is JSON");
        assert_eq!(doc.keys(), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), &Json::Bool(true));
        assert_eq!(doc.get("attempted"), &Json::Num(40.0));
        assert_eq!(doc.get("failed"), &Json::Num(0.0));
        let metrics = doc.get("metrics");
        assert_eq!(metrics.keys().len(), catalogue.len());
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let m = metrics.get(name);
            assert_eq!(m.keys(), ["unit", "value"]);
            assert_eq!(m.get("unit").str(), unit);
            // Values keep every digit.
            assert_eq!(m.get("value"), &Json::Num(0.125 + i as f64 * 1e-7));
        }
    }
}

#[test]
fn failures_make_the_result_incorrect() {
    let mut o = outcome(&END_TO_END);
    o.failed = 2;
    let doc = Parser::parse(&o.result_line(&END_TO_END)).expect("result line is JSON");
    assert_eq!(doc.get("correct"), &Json::Bool(false));
    assert_eq!(doc.get("failed"), &Json::Num(2.0));
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let bench = load("../BENCHMARK.json");
    let listed = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    };
    let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn layer_map_names_only_catalogued_metrics() {
    let map = load("metrics.json");
    let e2e: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let mut mapped = Vec::new();
    for l in map.get("layers").arr() {
        for m in l.get("metrics").arr() {
            assert!(
                layer.contains(&m.str()),
                "{} is not a per-layer metric",
                m.str()
            );
            mapped.push(m.str());
        }
        for mv in l.get("moves").arr() {
            for m in mv.get("end_to_end").arr() {
                assert!(
                    e2e.contains(&m.str()),
                    "{} is not an end-to-end metric",
                    m.str()
                );
            }
            for w in mv.get("workloads").arr() {
                assert!(
                    workloads.contains(&w.str()),
                    "{} is not a workload",
                    w.str()
                );
            }
        }
    }
    mapped.sort_unstable();
    let mut all = layer.clone();
    all.sort_unstable();
    assert_eq!(mapped, all, "every per-layer metric belongs to one layer");
    for w in map.get("workloads").arr() {
        assert!(workloads.contains(&w.get("name").str()));
    }
}
