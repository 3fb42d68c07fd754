//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Serves one workload in whole passes for up to `--seconds` (at least one
//! pass), checks every pass, prints each metric with its unit and provenance, and
//! ends with one JSON result line. With `--trace 1` each untraced pass is
//! followed by a traced one and the result line holds the per-layer split.

use std::collections::BTreeMap;
use std::error::Error;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use topick_perfbench::clock::{calibrate, thread_cpu, REFERENCE_CALIBRATION_MS};
use topick_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use topick_perfbench::run::{serve, Pass, Setup};
use topick_perfbench::stats::{median, nearest_rank, sorted, tail, Tail};
use topick_perfbench::trace::Tracer;
use topick_perfbench::workloads::Workload;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Set-ups are timed back to back, each followed by a calibration kernel,
/// for this long before the first pass, so the median of a set-up of a few
/// microseconds rests on many samples.
const SETUP_SECONDS: f64 = 1.0;

/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = "perfbench/traces";

const USAGE: &str = "usage: perfbench --workload <long-decode|chat-cluster|tokens-evict> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let catalogue: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", outcome.result_line(catalogue));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: CORRECTNESS FAILURE: {} failed checks",
                    outcome.failed
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sets up and serves one pass.
fn pass(args: &Args, tracer: Option<&mut Tracer>) -> Result<Pass, Box<dyn Error>> {
    Ok(serve(Setup::new(args.workload, args.seed)?, tracer)?)
}

/// The factor that rescales CPU time measured beside `calibration_ms`
/// samples to the reference host's speed.
fn speed_scale(calibration_ms: &[f64]) -> f64 {
    REFERENCE_CALIBRATION_MS / median(calibration_ms)
}

fn run(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_parallelism={} commit={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        commit()
    );
    let mut setup_s = Vec::new();
    let mut setup_calibration_ms = Vec::new();
    let setups = Instant::now();
    while setups.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = thread_cpu();
        drop(std::hint::black_box(Setup::new(w, args.seed)?));
        setup_s.push((thread_cpu() - t).as_secs_f64());
        setup_calibration_ms.push(calibrate());
    }
    let setup = SetupTime {
        raw_s: median(&setup_s),
        scale: speed_scale(&setup_calibration_ms),
        samples: setup_s.len(),
    };
    // Whole passes (an untraced and, when tracing, a traced one) while
    // another would still end within --seconds; always at least one.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    while passes.is_empty() || start.elapsed() + longest <= budget {
        let t = Instant::now();
        passes.push(pass(args, None)?);
        if args.trace {
            let mut tracer = Tracer::new(&w.serving_config().accel);
            let p = pass(args, Some(&mut tracer))?;
            traced.push((p, tracer));
        }
        longest = longest.max(t.elapsed());
    }

    let all: Vec<&Pass> = passes.iter().chain(traced.iter().map(|(p, _)| p)).collect();
    let attempted: usize = all.iter().map(|p| p.requests.len()).sum();
    let (failures, check_ms) = check(w, &all);
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    // A request can fail more than one check; count at most every request.
    let failed = failures.len().min(attempted);
    let failed_ratio = failed as f64 / attempted as f64;
    println!(
        "failed_requests_ratio = {failed_ratio} ({failed} failed of {attempted} requests over {} passes)",
        all.len()
    );
    let ok_ratio = 1.0 - failed_ratio;
    let (metrics, notes) = if args.trace {
        let (metrics, notes) = per_layer(&passes, &traced, check_ms);
        let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", w.name(), args.seed);
        std::fs::create_dir_all(TRACE_DIR)?;
        std::fs::write(&path, traced[0].1.to_json_lines())?;
        println!(
            "trace: {} traced passes; spans of the first written to {path}",
            traced.len()
        );
        println!(
            "trace: model.synth, core.quant and accel.engine spans are a same-shape replay of \
             each step's attention calls (same profile, context, dim and precision, own draws), \
             not the engine's own calls; a step's self time is its wall time minus that replay; \
             layers {} does not load read 0",
            w.name()
        );
        (metrics, notes)
    } else {
        end_to_end(&passes, &setup, ok_ratio)?
    };
    let catalogue: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in catalogue {
        let note = notes.get(name).map_or("", String::as_str);
        println!("{name} = {} {unit}  {note}", metrics[name]);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

type Metrics = BTreeMap<&'static str, f64>;
type Notes = BTreeMap<&'static str, String>;

/// Run-level checks, returning every failure and the milliseconds the
/// reference-token check took: each request of each pass finished exactly
/// once at its token target; every pass (traced or not) gives the same
/// modeled figures and served tokens; real tokens match
/// `reference_generate`.
fn check(w: Workload, all: &[&Pass]) -> (Vec<String>, f64) {
    let first = all[0];
    let mut failures: Vec<String> = all.iter().flat_map(|p| p.failures.clone()).collect();
    for p in &all[1..] {
        if p.modeled != first.modeled {
            failures.push(format!(
                "modeled figures differ between passes: {:?} vs {:?}",
                first.modeled, p.modeled
            ));
        }
        if p.served != first.served {
            failures.push("served tokens differ between passes".to_string());
        }
    }
    let mut check_ms = 0.0;
    if !first.served.is_empty() {
        // A fresh mirror holds the same model (it is built from the same
        // seed), so the served passes need not be kept alive for this.
        let reference = w.mirror(&w.serving_config());
        let t = Instant::now();
        for req in &first.requests {
            if reference.reference_generate(req) != first.served[&req.id] {
                failures.push(format!(
                    "request {}: tokens differ from reference_generate",
                    req.id
                ));
            }
        }
        check_ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "token check: {} requests compared with reference_generate in {check_ms:.1} ms",
            first.requests.len()
        );
    }
    (failures, check_ms)
}

/// Median set-up CPU time and the speed scale measured beside it.
struct SetupTime {
    raw_s: f64,
    scale: f64,
    samples: usize,
}

/// CPU-time figures of one untraced pass, rescaled to reference speed.
struct HostFigures {
    tokens_per_s: f64,
    step_ms_p50: f64,
    step_tail: Tail,
    scale: f64,
}

impl HostFigures {
    fn of(p: &Pass) -> Result<Self, Box<dyn Error>> {
        let scale = speed_scale(&p.calibration_ms);
        let steps = sorted(p.step_cpu_ms.clone());
        let raw_tail = tail(&steps).ok_or("too few steps for a tail")?;
        Ok(Self {
            tokens_per_s: p.tokens as f64 / (p.loop_cpu_s * scale),
            step_ms_p50: nearest_rank(&steps, 50.0) * scale,
            step_tail: Tail {
                value: raw_tail.value * scale,
                ..raw_tail
            },
            scale,
        })
    }
}

fn end_to_end(
    passes: &[Pass],
    setup: &SetupTime,
    ok_ratio: f64,
) -> Result<(Metrics, Notes), Box<dyn Error>> {
    let host: Vec<HostFigures> = passes
        .iter()
        .map(HostFigures::of)
        .collect::<Result<_, _>>()?;
    let over_passes = |f: fn(&HostFigures) -> f64| median(&host.iter().map(f).collect::<Vec<_>>());
    let scale = over_passes(|h| h.scale);
    println!(
        "host speed: calibration kernel ran at {scale:.4} of reference speed over the \
         passes (median of per-pass medians), {:.4} over the set-ups; unscaled: \
         cpu_tokens_per_s {} step_cpu_ms_p50 {} setup_s {}",
        setup.scale,
        over_passes(|h| h.tokens_per_s * h.scale),
        over_passes(|h| h.step_ms_p50 / h.scale),
        setup.raw_s,
    );
    let m = &passes[0].modeled;
    let metrics = Metrics::from([
        ("setup_s", setup.raw_s * setup.scale),
        ("cpu_tokens_per_s", over_passes(|h| h.tokens_per_s)),
        ("step_cpu_ms_p50", over_passes(|h| h.step_ms_p50)),
        ("step_cpu_ms_tail", over_passes(|h| h.step_tail.value)),
        ("peak_rss_mb", peak_rss_mb()?),
        ("ok_requests_ratio", ok_ratio),
        ("modeled_tokens_per_s", m.throughput),
        ("modeled_ttft_p50_ms", m.ttft_p50_ms),
        ("modeled_ttft_tail_ms", m.ttft_tail.value),
        ("modeled_itl_p50_ms", m.itl_p50_ms),
        ("modeled_itl_tail_ms", m.itl_tail.value),
        ("modeled_slo_attainment", m.slo_attainment),
        ("v_reduction", m.v_reduction),
    ]);
    let label = |t: &Tail, of: &str| format!("p{:.2} of {} {of}", t.percentile, t.samples);
    let at_reference = "thread CPU time at reference speed";
    let over = format!("{at_reference}, median of {} passes", passes.len());
    let notes = Notes::from([
        (
            "setup_s",
            format!("{at_reference}, median of {} set-ups", setup.samples),
        ),
        ("cpu_tokens_per_s", over.clone()),
        ("step_cpu_ms_p50", over.clone()),
        (
            "step_cpu_ms_tail",
            format!("{}, {over}", label(&host[0].step_tail, "steps per pass")),
        ),
        ("peak_rss_mb", "VmHWM of this process".to_string()),
        ("ok_requests_ratio", "1 - failed_requests_ratio".to_string()),
        ("modeled_ttft_tail_ms", label(&m.ttft_tail, "requests")),
        ("modeled_itl_tail_ms", label(&m.itl_tail, "token gaps")),
    ]);
    Ok((metrics, notes))
}

fn per_layer(passes: &[Pass], traced: &[(Pass, Tracer)], check_ms: f64) -> (Metrics, Notes) {
    let mut metrics: Metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = traced
                .iter()
                .map(|(p, _)| p.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            (name, median(&values))
        })
        .collect();
    metrics.insert("token_backed.check_ms", check_ms);
    let overheads: Vec<f64> = passes
        .iter()
        .zip(traced)
        .map(|(u, (t, _))| (t.loop_s - u.loop_s) * 1e3)
        .collect();
    metrics.insert("trace.overhead_ms", median(&overheads));
    let computed = "computed from ServingReport::prune, not timed".to_string();
    let notes = Notes::from([
        ("accel.engine.kv_bytes_per_token", computed.clone()),
        ("accel.engine.kept_share", computed),
        (
            "accel.serve.self_ms",
            "step wall minus replayed kernel children".to_string(),
        ),
        (
            "cluster.self_ms",
            "ClusterEngine::step wall minus replayed kernel children".to_string(),
        ),
        (
            "token_backed.check_ms",
            "reference_generate, outside the serving loop".to_string(),
        ),
        (
            "trace.overhead_ms",
            "traced minus untraced serving-loop wall".to_string(),
        ),
    ]);
    (metrics, notes)
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
