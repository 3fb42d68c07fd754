//! Serve-trace record/replay: freeze any serving run into a line-oriented
//! JSON artifact, and replay it to a bit-identical schedule. Every run is
//! a [`ClusterEngine`]; a 1-shard round-robin cluster is schedule-identical
//! to a bare [`ServingEngine`](super::ServingEngine), so one driver serves
//! single-engine and sharded traces alike.
//!
//! A [`Trace`] holds three things: a [`TraceMeta`] snapshot of everything
//! that shaped the schedule (engine sizing, scheduling policy, preemption
//! and retention, sharding, routing, stealing, thread count, step bound),
//! the originating [`ServingRequest`]s in enqueue order, and the typed
//! [`ClusterEvent`] stream the run emitted. Because every layer of the
//! engine is deterministic, that snapshot is sufficient: rebuilding the
//! cluster from the meta and re-enqueueing the recorded requests in
//! recorded order reproduces routing, admission, preemption and stealing
//! decision for decision.
//!
//! The correctness anchor is the **fixed point**: record a run, replay
//! it, record the replay — the two traces' digests (an FNV-1a over the
//! typed event stream) are identical. `tests/serving.rs` pins this across
//! scenarios, policies, routers, stealing, retention and `threads > 1`,
//! and a checked-in golden trace under `tests/data/` keeps it honest
//! against format drift.
//!
//! The on-disk format is line-oriented JSON (one flat object per line:
//! one meta line, one line per request, one per event, one digest
//! footer), hand-rolled in the spirit of `topick_bench::json` — no serde,
//! no crates.io. Line orientation keeps traces diffable, greppable and
//! appendable, the same shape production serving stacks use for request
//! logs.

use std::fmt;
use std::path::Path;

use super::cluster::{ClusterEngine, ClusterEvent, ClusterReport};
use super::events::ServeEvent;
use super::policy::PolicyKind;
use super::queue::ServingRequest;
use super::router::RoutingKind;
use super::{AdmissionConfig, PreemptionConfig, ServingConfig};
use crate::config::{AccelConfig, AccelMode};

/// Errors from recording, serializing, parsing or replaying a trace.
#[derive(Debug)]
pub enum TraceError {
    /// The trace text could not be parsed (message includes the line).
    Parse(String),
    /// Reading or writing the trace file failed.
    Io(String),
    /// Rebuilding or driving the engine during record/replay failed.
    Serve(super::ServeError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(msg) => write!(f, "trace parse error: {msg}"),
            Self::Io(msg) => write!(f, "trace io error: {msg}"),
            Self::Serve(e) => write!(f, "trace replay error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<super::ServeError> for TraceError {
    fn from(e: super::ServeError) -> Self {
        Self::Serve(e)
    }
}

/// Everything that shaped a recorded run's schedule, snapshotted so the
/// run can be rebuilt from the trace alone.
///
/// The accelerator is captured as `(mode, threshold)` and rebuilt through
/// [`AccelConfig::paper`] — traces snapshot the paper hardware
/// configuration, which is what every engine in this workspace runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Originating scenario name, when the workload came from the
    /// scenario registry (informational; replay uses the recorded
    /// requests, never regenerates).
    pub scenario: Option<String>,
    /// The seed the scenario was generated with.
    pub scenario_seed: u64,
    /// Accelerator pipeline variant.
    pub mode: AccelMode,
    /// Pruning threshold.
    pub threshold: f64,
    /// Scheduler policy name ([`PolicyKind::name`]).
    pub policy: String,
    /// Batch slot limit.
    pub max_batch: usize,
    /// Batch KV token budget.
    pub max_batch_tokens: usize,
    /// KV page size in tokens.
    pub page_size: usize,
    /// Whether copy-on-write prefix caching was on.
    pub prefix_cache: bool,
    /// Whether preemption was enabled.
    pub preemption: bool,
    /// Re-prefill charge factor.
    pub reprefill_factor: f64,
    /// Eviction budget per admission step.
    pub max_evictions_per_step: usize,
    /// Retention policy, as its display string (`none` | pages | fraction).
    pub retention: String,
    /// Prompt-prefill charge factor.
    pub prefill_factor: f64,
    /// Per-step chunked-prefill budget in pages (`0` = unlimited, the
    /// pre-chunking lump behavior).
    pub prefill_chunk_pages: usize,
    /// Host-tier capacity in pages (`0` = no host tier, the drop-and-
    /// re-prefill behavior).
    pub host_pages: usize,
    /// Host-tier copy-back charge factor (meaningful when `host_pages >
    /// 0`).
    pub swap_cost_factor: f64,
    /// Cross-shard page transfer charge factor (`0` = shipping off).
    pub ship_cost_factor: f64,
    /// Whether admission rejected queued requests with already-blown TTFT
    /// deadlines.
    pub reject_expired_ttft: bool,
    /// Attention heads per request per step.
    pub heads: usize,
    /// FC/FFN weight bytes streamed per step.
    pub weight_bytes: u64,
    /// Base seed of the synthetic per-request workloads.
    pub seed: u64,
    /// Accelerator clock in Hz.
    pub clock_hz: f64,
    /// Shard count (`1` is the single-engine schedule).
    pub shards: usize,
    /// Routing policy name.
    pub routing: String,
    /// Whether work stealing was on.
    pub stealing: bool,
    /// Worker threads the cluster stepped shards on.
    pub threads: usize,
    /// The `run_to_completion` step bound.
    pub max_steps: usize,
}

impl TraceMeta {
    /// Snapshots a serving configuration plus the policy driving it, for
    /// a 1-shard round-robin run. Layer cluster shape on with
    /// [`for_cluster`](Self::for_cluster) and scenario provenance with
    /// [`for_scenario`](Self::for_scenario).
    #[must_use]
    pub fn new(cfg: &ServingConfig, policy: &str) -> Self {
        debug_assert_eq!(
            Some(&cfg.accel),
            AccelConfig::paper(cfg.accel.mode, cfg.accel.threshold)
                .ok()
                .as_ref(),
            "traces snapshot the paper accelerator configuration"
        );
        Self {
            scenario: None,
            scenario_seed: 0,
            mode: cfg.accel.mode,
            threshold: cfg.accel.threshold,
            policy: policy.to_string(),
            max_batch: cfg.admission.max_batch,
            max_batch_tokens: cfg.admission.max_batch_tokens,
            page_size: cfg.admission.page_size,
            prefix_cache: cfg.admission.prefix_cache,
            preemption: cfg.preemption.enabled,
            reprefill_factor: cfg.preemption.reprefill_factor,
            max_evictions_per_step: cfg.preemption.max_evictions_per_step,
            retention: cfg.preemption.retention.to_string(),
            prefill_factor: cfg.prefill_factor,
            prefill_chunk_pages: cfg.prefill_chunk_pages,
            host_pages: cfg.host_pages,
            swap_cost_factor: cfg.swap_cost_factor,
            ship_cost_factor: cfg.ship_cost_factor,
            reject_expired_ttft: cfg.reject_expired_ttft,
            heads: cfg.heads,
            weight_bytes: cfg.weight_bytes,
            seed: cfg.seed,
            clock_hz: cfg.clock_hz,
            shards: 1,
            routing: RoutingKind::RoundRobin.name().to_string(),
            stealing: false,
            threads: 1,
            max_steps: 10_000,
        }
    }

    /// Records the cluster shape of the run (shard count, routing,
    /// stealing, worker threads).
    #[must_use]
    pub fn for_cluster(
        mut self,
        shards: usize,
        routing: &str,
        stealing: bool,
        threads: usize,
    ) -> Self {
        self.shards = shards.max(1);
        self.routing = routing.to_string();
        self.stealing = stealing;
        self.threads = threads.max(1);
        self
    }

    /// Records which scenario (and seed) generated the workload.
    #[must_use]
    pub fn for_scenario(mut self, name: &str, seed: u64) -> Self {
        self.scenario = Some(name.to_string());
        self.scenario_seed = seed;
        self
    }

    /// Overrides the `run_to_completion` step bound.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Rebuilds the serving configuration this meta snapshotted.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] if the threshold or retention string
    /// cannot be reconstructed.
    pub fn serving_config(&self) -> Result<ServingConfig, TraceError> {
        let accel = AccelConfig::paper(self.mode, self.threshold)
            .map_err(|e| TraceError::Parse(format!("invalid accel snapshot: {e}")))?;
        let retention = self.retention.parse().map_err(|e| {
            TraceError::Parse(format!("invalid retention '{}': {e}", self.retention))
        })?;
        let mut cfg = ServingConfig::new(accel);
        cfg.admission = AdmissionConfig {
            max_batch: self.max_batch,
            max_batch_tokens: self.max_batch_tokens,
            page_size: self.page_size,
            prefix_cache: self.prefix_cache,
        };
        cfg.preemption = PreemptionConfig {
            enabled: self.preemption,
            reprefill_factor: self.reprefill_factor,
            max_evictions_per_step: self.max_evictions_per_step,
            retention,
        };
        cfg.prefill_factor = self.prefill_factor;
        cfg.prefill_chunk_pages = self.prefill_chunk_pages;
        cfg.host_pages = self.host_pages;
        cfg.swap_cost_factor = self.swap_cost_factor;
        cfg.ship_cost_factor = self.ship_cost_factor;
        cfg.reject_expired_ttft = self.reject_expired_ttft;
        cfg.heads = self.heads;
        cfg.weight_bytes = self.weight_bytes;
        cfg.seed = self.seed;
        cfg.clock_hz = self.clock_hz;
        Ok(cfg)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// FNV-1a digest over the *typed* event stream — every variant tag and
/// field, not the rendered text — so two traces agree on the digest
/// exactly when they describe the same schedule.
#[must_use]
pub fn digest_events(events: &[ClusterEvent]) -> u64 {
    let mut h = FNV_OFFSET;
    for event in events {
        match *event {
            ClusterEvent::Shard { shard_id, event } => {
                h = fnv(h, 1);
                h = fnv(h, shard_id as u64);
                match event {
                    ServeEvent::Enqueued { id, step } => {
                        h = fnv(h, 1);
                        h = fnv(h, id);
                        h = fnv(h, step as u64);
                    }
                    ServeEvent::Admitted {
                        id,
                        step,
                        context,
                        cached_tokens,
                    } => {
                        h = fnv(h, 2);
                        h = fnv(h, id);
                        h = fnv(h, step as u64);
                        h = fnv(h, context as u64);
                        h = fnv(h, cached_tokens as u64);
                    }
                    ServeEvent::TokenGenerated {
                        id,
                        step,
                        context,
                        generated,
                    } => {
                        h = fnv(h, 3);
                        h = fnv(h, id);
                        h = fnv(h, step as u64);
                        h = fnv(h, context as u64);
                        h = fnv(h, generated as u64);
                    }
                    ServeEvent::Preempted {
                        id,
                        step,
                        generated,
                        retained_tokens,
                        dropped_tokens,
                    } => {
                        h = fnv(h, 4);
                        h = fnv(h, id);
                        h = fnv(h, step as u64);
                        h = fnv(h, generated as u64);
                        h = fnv(h, retained_tokens as u64);
                        h = fnv(h, dropped_tokens as u64);
                    }
                    ServeEvent::Finished {
                        id,
                        step,
                        generated,
                    } => {
                        h = fnv(h, 5);
                        h = fnv(h, id);
                        h = fnv(h, step as u64);
                        h = fnv(h, generated as u64);
                    }
                    ServeEvent::PrefillChunk {
                        id,
                        step,
                        built_tokens,
                        remaining_tokens,
                    } => {
                        h = fnv(h, 6);
                        h = fnv(h, id);
                        h = fnv(h, step as u64);
                        h = fnv(h, built_tokens as u64);
                        h = fnv(h, remaining_tokens as u64);
                    }
                    ServeEvent::Rejected {
                        id,
                        step,
                        overdue_steps,
                    } => {
                        h = fnv(h, 7);
                        h = fnv(h, id);
                        h = fnv(h, step as u64);
                        h = fnv(h, overdue_steps as u64);
                    }
                    ServeEvent::SwappedOut { id, step, tokens } => {
                        h = fnv(h, 8);
                        h = fnv(h, id);
                        h = fnv(h, step as u64);
                        h = fnv(h, tokens as u64);
                    }
                    ServeEvent::SwappedIn { id, step, tokens } => {
                        h = fnv(h, 9);
                        h = fnv(h, id);
                        h = fnv(h, step as u64);
                        h = fnv(h, tokens as u64);
                    }
                }
            }
            ClusterEvent::Stolen { id, from, to, step } => {
                h = fnv(h, 2);
                h = fnv(h, id);
                h = fnv(h, from as u64);
                h = fnv(h, to as u64);
                h = fnv(h, step as u64);
            }
            ClusterEvent::Shipped {
                id,
                from,
                to,
                step,
                tokens,
            } => {
                h = fnv(h, 3);
                h = fnv(h, id);
                h = fnv(h, from as u64);
                h = fnv(h, to as u64);
                h = fnv(h, step as u64);
                h = fnv(h, tokens as u64);
            }
        }
    }
    h
}

/// Accumulates a run into a [`Trace`]: the meta up front, then the
/// originating requests in enqueue order, then the event stream.
#[derive(Debug)]
pub struct TraceRecorder {
    meta: TraceMeta,
    requests: Vec<ServingRequest>,
    events: Vec<ClusterEvent>,
}

impl TraceRecorder {
    /// Starts a recorder for a run described by `meta`.
    #[must_use]
    pub fn new(meta: TraceMeta) -> Self {
        Self {
            meta,
            requests: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Records one originating request (call in enqueue order — replay
    /// re-enqueues in recorded order, which is what reproduces routing).
    pub fn request(&mut self, req: &ServingRequest) {
        self.requests.push(*req);
    }

    /// Records a batch of cluster events.
    pub fn events(&mut self, events: impl IntoIterator<Item = ClusterEvent>) {
        self.events.extend(events);
    }

    /// Seals the recording into a digested [`Trace`].
    #[must_use]
    pub fn finish(self) -> Trace {
        let digest = digest_events(&self.events);
        Trace {
            meta: self.meta,
            requests: self.requests,
            events: self.events,
            digest,
        }
    }
}

/// A frozen serving run: meta, requests, events and the event digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The configuration snapshot the run can be rebuilt from.
    pub meta: TraceMeta,
    /// Originating requests, in enqueue order.
    pub requests: Vec<ServingRequest>,
    /// The typed event stream.
    pub events: Vec<ClusterEvent>,
    /// [`digest_events`] over [`events`](Self::events) — the schedule
    /// fingerprint record/replay is compared by.
    pub digest: u64,
}

/// Builds the cluster `meta` describes, enqueues `requests` in order,
/// runs to completion and seals the whole run into a [`Trace`].
///
/// This is the one code path both *record* and *replay* go through —
/// replay is literally re-recording from the same inputs, which is what
/// makes the fixed point (`record → replay → record`, identical digests)
/// an invariant rather than a coincidence.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] if the meta's policy/routing/retention
/// strings don't name built-ins, or [`TraceError::Serve`] if the run
/// itself fails (invalid request, stalled admission, step limit).
pub fn run_recorded(
    meta: &TraceMeta,
    requests: &[ServingRequest],
) -> Result<(Trace, ClusterReport), TraceError> {
    let cfg = meta.serving_config()?;
    let policy: PolicyKind = meta
        .policy
        .parse()
        .map_err(|e: String| TraceError::Parse(format!("invalid policy '{}': {e}", meta.policy)))?;
    let routing: RoutingKind = meta.routing.parse().map_err(|e: String| {
        TraceError::Parse(format!("invalid routing '{}': {e}", meta.routing))
    })?;
    let mut cluster = ClusterEngine::builder(cfg.accel.clone())
        .config(cfg)
        .policy(policy)
        .shards(meta.shards)
        .routing(routing)
        .stealing(meta.stealing)
        .threads(meta.threads)
        .build();
    let mut recorder = TraceRecorder::new(meta.clone());
    for req in requests {
        recorder.request(req);
        cluster.enqueue(*req)?;
    }
    let report = cluster.run_to_completion(meta.max_steps)?;
    recorder.events(cluster.drain_events());
    Ok((recorder.finish(), report))
}

/// Minimal flat-JSON line builder (writer side of the trace format).
struct JsonLine(String);

impl JsonLine {
    fn new(ty: &str) -> Self {
        Self(format!("{{\"type\":\"{ty}\""))
    }

    fn str_field(mut self, key: &str, value: &str) -> Self {
        debug_assert!(
            !value.contains(['"', '\\']),
            "trace strings are registry names and never need escaping"
        );
        self.0.push_str(&format!(",\"{key}\":\"{value}\""));
        self
    }

    fn u64_field(mut self, key: &str, value: u64) -> Self {
        self.0.push_str(&format!(",\"{key}\":{value}"));
        self
    }

    fn f64_field(mut self, key: &str, value: f64) -> Self {
        // Rust's shortest-round-trip Display: parses back to the same f64.
        self.0.push_str(&format!(",\"{key}\":{value}"));
        self
    }

    fn bool_field(mut self, key: &str, value: bool) -> Self {
        self.0.push_str(&format!(",\"{key}\":{value}"));
        self
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// One parsed line's fields, with typed accessors that blame the line.
struct Fields {
    line_no: usize,
    fields: Vec<(String, String)>,
}

impl Fields {
    fn parse(line_no: usize, line: &str) -> Result<Self, TraceError> {
        let err = |msg: String| TraceError::Parse(format!("line {line_no}: {msg}"));
        let inner = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| err("expected a {{...}} object".to_string()))?;
        let bytes = inner.as_bytes();
        let mut fields = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b',' {
                i += 1;
                continue;
            }
            if bytes[i] != b'"' {
                return Err(err(format!("expected '\"' at byte {i}")));
            }
            i += 1;
            let key_start = i;
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' {
                    return Err(err("escape sequences are not supported".to_string()));
                }
                i += 1;
            }
            if i >= bytes.len() {
                return Err(err("unterminated key".to_string()));
            }
            let key = inner[key_start..i].to_string();
            i += 1;
            if i >= bytes.len() || bytes[i] != b':' {
                return Err(err(format!("expected ':' after key '{key}'")));
            }
            i += 1;
            let value = if i < bytes.len() && bytes[i] == b'"' {
                i += 1;
                let val_start = i;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        return Err(err("escape sequences are not supported".to_string()));
                    }
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(err("unterminated string value".to_string()));
                }
                let v = inner[val_start..i].to_string();
                i += 1;
                v
            } else {
                let val_start = i;
                while i < bytes.len() && bytes[i] != b',' {
                    i += 1;
                }
                inner[val_start..i].trim().to_string()
            };
            fields.push((key, value));
        }
        Ok(Self { line_no, fields })
    }

    fn err(&self, msg: String) -> TraceError {
        TraceError::Parse(format!("line {}: {msg}", self.line_no))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn str_field(&self, key: &str) -> Result<&str, TraceError> {
        self.get(key)
            .ok_or_else(|| self.err(format!("missing field '{key}'")))
    }

    fn parse_field<T: std::str::FromStr>(&self, key: &str) -> Result<T, TraceError> {
        self.str_field(key)?
            .parse()
            .map_err(|_| self.err(format!("field '{key}' is not a valid value")))
    }
}

impl Trace {
    /// Renders the trace as line-oriented JSON: one meta line, one line
    /// per request, one per event, one digest footer.
    #[must_use]
    pub fn render(&self) -> String {
        let m = &self.meta;
        let mut meta_line = JsonLine::new("meta").u64_field("version", 1);
        if let Some(scenario) = &m.scenario {
            meta_line = meta_line
                .str_field("scenario", scenario)
                .u64_field("scenario_seed", m.scenario_seed);
        }
        meta_line = meta_line
            .str_field("mode", m.mode.name())
            .f64_field("threshold", m.threshold)
            .str_field("policy", &m.policy)
            .u64_field("max_batch", m.max_batch as u64)
            .u64_field("max_batch_tokens", m.max_batch_tokens as u64)
            .u64_field("page_size", m.page_size as u64)
            .bool_field("prefix_cache", m.prefix_cache)
            .bool_field("preemption", m.preemption)
            .f64_field("reprefill_factor", m.reprefill_factor)
            .u64_field("max_evictions_per_step", m.max_evictions_per_step as u64)
            .str_field("retention", &m.retention)
            .f64_field("prefill_factor", m.prefill_factor);
        // Rendered only when finite, so pre-chunking traces (and the
        // checked-in goldens) keep their exact bytes.
        if m.prefill_chunk_pages != 0 {
            meta_line = meta_line.u64_field("prefill_chunk_pages", m.prefill_chunk_pages as u64);
        }
        // Tiered-KV and rejection knobs render only when they left their
        // defaults, keeping pre-tiering traces (and the checked-in
        // goldens) byte-exact.
        if m.host_pages != 0 {
            meta_line = meta_line
                .u64_field("host_pages", m.host_pages as u64)
                .f64_field("swap_cost_factor", m.swap_cost_factor);
        }
        if m.ship_cost_factor != 0.0 {
            meta_line = meta_line.f64_field("ship_cost_factor", m.ship_cost_factor);
        }
        if m.reject_expired_ttft {
            meta_line = meta_line.bool_field("reject_expired_ttft", true);
        }
        let mut out = meta_line
            .u64_field("heads", m.heads as u64)
            .u64_field("weight_bytes", m.weight_bytes)
            .u64_field("seed", m.seed)
            .f64_field("clock_hz", m.clock_hz)
            .u64_field("shards", m.shards as u64)
            .str_field("routing", &m.routing)
            .bool_field("stealing", m.stealing)
            .u64_field("threads", m.threads as u64)
            .u64_field("max_steps", m.max_steps as u64)
            .finish();
        out.push('\n');
        for r in &self.requests {
            let mut line = JsonLine::new("request")
                .u64_field("id", r.id)
                .u64_field("prompt_len", r.prompt_len as u64)
                .u64_field("max_new_tokens", r.max_new_tokens as u64)
                .u64_field("priority", u64::from(r.priority))
                .u64_field("client_id", r.client_id)
                .u64_field("arrival_step", r.arrival_step)
                .u64_field("prefix_tag", r.prefix_tag)
                .u64_field("prefix_len", r.prefix_len as u64);
            // Deadlines render only when declared, keeping deadline-free
            // traces byte-identical to the pre-SLO format.
            if let Some(d) = r.ttft_deadline {
                line = line.u64_field("ttft_deadline", d);
            }
            if let Some(d) = r.itl_deadline {
                line = line.u64_field("itl_deadline", d);
            }
            out.push_str(&line.finish());
            out.push('\n');
        }
        for event in &self.events {
            out.push_str(&render_event(*event));
            out.push('\n');
        }
        out.push_str(
            &JsonLine::new("digest")
                .u64_field("requests", self.requests.len() as u64)
                .u64_field("events", self.events.len() as u64)
                .u64_field("value", self.digest)
                .finish(),
        );
        out.push('\n');
        out
    }

    /// Parses a trace rendered by [`render`](Self::render), verifying the
    /// digest footer against the recomputed event digest.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] on malformed lines, unknown kinds,
    /// missing meta/footer, or a digest/count mismatch (a truncated or
    /// edited trace).
    pub fn parse(text: &str) -> Result<Self, TraceError> {
        let mut meta: Option<TraceMeta> = None;
        let mut requests = Vec::new();
        let mut events = Vec::new();
        let mut footer: Option<(u64, u64, u64)> = None;
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let line_no = idx + 1;
            if footer.is_some() {
                return Err(TraceError::Parse(format!(
                    "line {line_no}: content after the digest footer"
                )));
            }
            let fields = Fields::parse(line_no, line)?;
            match fields.str_field("type")? {
                "meta" => {
                    if meta.is_some() {
                        return Err(fields.err("duplicate meta line".to_string()));
                    }
                    meta = Some(parse_meta(&fields)?);
                }
                "request" => {
                    if meta.is_none() {
                        return Err(fields.err("request before the meta line".to_string()));
                    }
                    requests.push(parse_request(&fields)?);
                }
                "event" => {
                    if meta.is_none() {
                        return Err(fields.err("event before the meta line".to_string()));
                    }
                    events.push(parse_event(&fields)?);
                }
                "digest" => {
                    footer = Some((
                        fields.parse_field("requests")?,
                        fields.parse_field("events")?,
                        fields.parse_field("value")?,
                    ));
                }
                other => {
                    return Err(fields.err(format!("unknown line type '{other}'")));
                }
            }
        }
        let meta = meta.ok_or_else(|| TraceError::Parse("missing meta line".to_string()))?;
        let (req_count, event_count, digest) =
            footer.ok_or_else(|| TraceError::Parse("missing digest footer".to_string()))?;
        if req_count != requests.len() as u64 || event_count != events.len() as u64 {
            return Err(TraceError::Parse(format!(
                "footer counts ({req_count} requests, {event_count} events) do not match the \
                 trace body ({} requests, {} events) — truncated trace?",
                requests.len(),
                events.len()
            )));
        }
        let recomputed = digest_events(&events);
        if recomputed != digest {
            return Err(TraceError::Parse(format!(
                "digest mismatch: footer says {digest}, events hash to {recomputed}"
            )));
        }
        Ok(Self {
            meta,
            requests,
            events,
            digest,
        })
    }

    /// Writes the rendered trace to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        std::fs::write(path.as_ref(), self.render())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))
    }

    /// Loads and parses a trace from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the file cannot be read, or
    /// [`TraceError::Parse`] as [`parse`](Self::parse) would.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::parse(&text)
    }

    /// Replays the trace: rebuilds the run from the meta, re-enqueues the
    /// recorded requests in recorded order, runs to completion and
    /// re-records. The returned trace's digest equals this trace's digest
    /// — the fixed point the subsystem is anchored on.
    ///
    /// # Errors
    ///
    /// As [`run_recorded`].
    pub fn replay(&self) -> Result<(Trace, ClusterReport), TraceError> {
        run_recorded(&self.meta, &self.requests)
    }

    /// Localizes the first schedule divergence between two traces:
    /// `None` when the event streams are identical, otherwise a
    /// human-readable report quoting the first differing event with a few
    /// events of leading context. This is what `topick trace diff` prints
    /// and what digest-mismatch failure messages embed, so a bare "digests
    /// differ" names the exact scheduling decision that moved.
    #[must_use]
    pub fn diff(&self, other: &Trace) -> Option<String> {
        if self.events == other.events {
            return None;
        }
        let mut out = String::new();
        if self.meta != other.meta {
            out.push_str("note: trace metas differ — the runs were configured differently\n");
        }
        if self.requests.len() != other.requests.len() {
            out.push_str(&format!(
                "note: request counts differ ({} vs {})\n",
                self.requests.len(),
                other.requests.len()
            ));
        }
        let idx = self
            .events
            .iter()
            .zip(&other.events)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| self.events.len().min(other.events.len()));
        out.push_str(&format!(
            "event streams diverge at event {idx} ({} vs {} events total)\n",
            self.events.len(),
            other.events.len()
        ));
        const CONTEXT: usize = 3;
        for (i, event) in self
            .events
            .iter()
            .enumerate()
            .take(idx)
            .skip(idx.saturating_sub(CONTEXT))
        {
            out.push_str(&format!("  = [{i}] {}\n", render_event(*event)));
        }
        match self.events.get(idx) {
            Some(event) => out.push_str(&format!("  < [{idx}] {}\n", render_event(*event))),
            None => out.push_str(&format!("  < [{idx}] (stream ends)\n")),
        }
        match other.events.get(idx) {
            Some(event) => out.push_str(&format!("  > [{idx}] {}\n", render_event(*event))),
            None => out.push_str(&format!("  > [{idx}] (stream ends)\n")),
        }
        Some(out)
    }
}

fn render_event(event: ClusterEvent) -> String {
    match event {
        ClusterEvent::Shard { shard_id, event } => {
            let base = |kind: &str, id: u64, step: usize| {
                JsonLine::new("event")
                    .str_field("kind", kind)
                    .u64_field("shard", shard_id as u64)
                    .u64_field("id", id)
                    .u64_field("step", step as u64)
            };
            match event {
                ServeEvent::Enqueued { id, step } => base("enqueued", id, step).finish(),
                ServeEvent::Admitted {
                    id,
                    step,
                    context,
                    cached_tokens,
                } => base("admitted", id, step)
                    .u64_field("context", context as u64)
                    .u64_field("cached_tokens", cached_tokens as u64)
                    .finish(),
                ServeEvent::TokenGenerated {
                    id,
                    step,
                    context,
                    generated,
                } => base("token", id, step)
                    .u64_field("context", context as u64)
                    .u64_field("generated", generated as u64)
                    .finish(),
                ServeEvent::Preempted {
                    id,
                    step,
                    generated,
                    retained_tokens,
                    dropped_tokens,
                } => base("preempted", id, step)
                    .u64_field("generated", generated as u64)
                    .u64_field("retained_tokens", retained_tokens as u64)
                    .u64_field("dropped_tokens", dropped_tokens as u64)
                    .finish(),
                ServeEvent::Finished {
                    id,
                    step,
                    generated,
                } => base("finished", id, step)
                    .u64_field("generated", generated as u64)
                    .finish(),
                ServeEvent::PrefillChunk {
                    id,
                    step,
                    built_tokens,
                    remaining_tokens,
                } => base("prefill_chunk", id, step)
                    .u64_field("built_tokens", built_tokens as u64)
                    .u64_field("remaining_tokens", remaining_tokens as u64)
                    .finish(),
                ServeEvent::Rejected {
                    id,
                    step,
                    overdue_steps,
                } => base("rejected", id, step)
                    .u64_field("overdue_steps", overdue_steps as u64)
                    .finish(),
                ServeEvent::SwappedOut { id, step, tokens } => base("swapped_out", id, step)
                    .u64_field("tokens", tokens as u64)
                    .finish(),
                ServeEvent::SwappedIn { id, step, tokens } => base("swapped_in", id, step)
                    .u64_field("tokens", tokens as u64)
                    .finish(),
            }
        }
        ClusterEvent::Stolen { id, from, to, step } => JsonLine::new("event")
            .str_field("kind", "stolen")
            .u64_field("id", id)
            .u64_field("from", from as u64)
            .u64_field("to", to as u64)
            .u64_field("step", step as u64)
            .finish(),
        ClusterEvent::Shipped {
            id,
            from,
            to,
            step,
            tokens,
        } => JsonLine::new("event")
            .str_field("kind", "shipped")
            .u64_field("id", id)
            .u64_field("from", from as u64)
            .u64_field("to", to as u64)
            .u64_field("step", step as u64)
            .u64_field("tokens", tokens as u64)
            .finish(),
    }
}

fn parse_meta(f: &Fields) -> Result<TraceMeta, TraceError> {
    let version: u64 = f.parse_field("version")?;
    if version != 1 {
        return Err(f.err(format!("unsupported trace version {version}")));
    }
    let mode: AccelMode = f.str_field("mode")?.parse().map_err(|e: String| f.err(e))?;
    Ok(TraceMeta {
        scenario: f.get("scenario").map(str::to_string),
        scenario_seed: match f.get("scenario") {
            Some(_) => f.parse_field("scenario_seed")?,
            None => 0,
        },
        mode,
        threshold: f.parse_field("threshold")?,
        policy: f.str_field("policy")?.to_string(),
        max_batch: f.parse_field("max_batch")?,
        max_batch_tokens: f.parse_field("max_batch_tokens")?,
        page_size: f.parse_field("page_size")?,
        prefix_cache: f.parse_field("prefix_cache")?,
        preemption: f.parse_field("preemption")?,
        reprefill_factor: f.parse_field("reprefill_factor")?,
        max_evictions_per_step: f.parse_field("max_evictions_per_step")?,
        retention: f.str_field("retention")?.to_string(),
        prefill_factor: f.parse_field("prefill_factor")?,
        prefill_chunk_pages: match f.get("prefill_chunk_pages") {
            Some(_) => f.parse_field("prefill_chunk_pages")?,
            None => 0,
        },
        host_pages: match f.get("host_pages") {
            Some(_) => f.parse_field("host_pages")?,
            None => 0,
        },
        // Absent with no host tier; the parsed meta still carries the
        // engine default so rebuild → snapshot round-trips.
        swap_cost_factor: match f.get("swap_cost_factor") {
            Some(_) => f.parse_field("swap_cost_factor")?,
            None => ServingConfig::DEFAULT_SWAP_COST_FACTOR,
        },
        ship_cost_factor: match f.get("ship_cost_factor") {
            Some(_) => f.parse_field("ship_cost_factor")?,
            None => 0.0,
        },
        reject_expired_ttft: match f.get("reject_expired_ttft") {
            Some(_) => f.parse_field("reject_expired_ttft")?,
            None => false,
        },
        heads: f.parse_field("heads")?,
        weight_bytes: f.parse_field("weight_bytes")?,
        seed: f.parse_field("seed")?,
        clock_hz: f.parse_field("clock_hz")?,
        shards: f.parse_field("shards")?,
        routing: f.str_field("routing")?.to_string(),
        stealing: f.parse_field("stealing")?,
        threads: f.parse_field("threads")?,
        max_steps: f.parse_field("max_steps")?,
    })
}

fn parse_request(f: &Fields) -> Result<ServingRequest, TraceError> {
    Ok(ServingRequest {
        id: f.parse_field("id")?,
        prompt_len: f.parse_field("prompt_len")?,
        max_new_tokens: f.parse_field("max_new_tokens")?,
        priority: f.parse_field("priority")?,
        client_id: f.parse_field("client_id")?,
        arrival_step: f.parse_field("arrival_step")?,
        prefix_tag: f.parse_field("prefix_tag")?,
        prefix_len: f.parse_field("prefix_len")?,
        ttft_deadline: match f.get("ttft_deadline") {
            Some(_) => Some(f.parse_field("ttft_deadline")?),
            None => None,
        },
        itl_deadline: match f.get("itl_deadline") {
            Some(_) => Some(f.parse_field("itl_deadline")?),
            None => None,
        },
    })
}

fn parse_event(f: &Fields) -> Result<ClusterEvent, TraceError> {
    let kind = f.str_field("kind")?;
    if kind == "stolen" {
        return Ok(ClusterEvent::Stolen {
            id: f.parse_field("id")?,
            from: f.parse_field("from")?,
            to: f.parse_field("to")?,
            step: f.parse_field("step")?,
        });
    }
    if kind == "shipped" {
        return Ok(ClusterEvent::Shipped {
            id: f.parse_field("id")?,
            from: f.parse_field("from")?,
            to: f.parse_field("to")?,
            step: f.parse_field("step")?,
            tokens: f.parse_field("tokens")?,
        });
    }
    let shard_id: usize = f.parse_field("shard")?;
    let id: u64 = f.parse_field("id")?;
    let step: usize = f.parse_field("step")?;
    let event = match kind {
        "enqueued" => ServeEvent::Enqueued { id, step },
        "admitted" => ServeEvent::Admitted {
            id,
            step,
            context: f.parse_field("context")?,
            cached_tokens: f.parse_field("cached_tokens")?,
        },
        "token" => ServeEvent::TokenGenerated {
            id,
            step,
            context: f.parse_field("context")?,
            generated: f.parse_field("generated")?,
        },
        "preempted" => ServeEvent::Preempted {
            id,
            step,
            generated: f.parse_field("generated")?,
            retained_tokens: f.parse_field("retained_tokens")?,
            dropped_tokens: f.parse_field("dropped_tokens")?,
        },
        "finished" => ServeEvent::Finished {
            id,
            step,
            generated: f.parse_field("generated")?,
        },
        "prefill_chunk" => ServeEvent::PrefillChunk {
            id,
            step,
            built_tokens: f.parse_field("built_tokens")?,
            remaining_tokens: f.parse_field("remaining_tokens")?,
        },
        "rejected" => ServeEvent::Rejected {
            id,
            step,
            overdue_steps: f.parse_field("overdue_steps")?,
        },
        "swapped_out" => ServeEvent::SwappedOut {
            id,
            step,
            tokens: f.parse_field("tokens")?,
        },
        "swapped_in" => ServeEvent::SwappedIn {
            id,
            step,
            tokens: f.parse_field("tokens")?,
        },
        other => return Err(f.err(format!("unknown event kind '{other}'"))),
    };
    Ok(ClusterEvent::Shard { shard_id, event })
}

/// Loads a recorded trace and turns it back into a runnable open-loop
/// workload: the recorded requests (arrivals included) plus the meta to
/// rebuild the engine around them — consumable like any scenario's
/// request stream, or replayed outright via [`run`](Self::run).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReplay {
    trace: Trace,
}

impl TraceReplay {
    /// Wraps an already-parsed trace.
    #[must_use]
    pub fn new(trace: Trace) -> Self {
        Self { trace }
    }

    /// Loads a trace file recorded by [`Trace::save`].
    ///
    /// # Errors
    ///
    /// As [`Trace::load`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Ok(Self::new(Trace::load(path)?))
    }

    /// The recorded run's configuration snapshot.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.trace.meta
    }

    /// The recorded open-loop workload, in enqueue order.
    #[must_use]
    pub fn requests(&self) -> &[ServingRequest] {
        self.trace.requests.as_slice()
    }

    /// The underlying trace (events, digest and all).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Replays the recorded run and re-records it, verifying the fixed
    /// point: the fresh trace's digest must equal the recorded digest.
    ///
    /// # Errors
    ///
    /// As [`run_recorded`], plus [`TraceError::Parse`] if the replayed
    /// schedule diverges from the recording (an engine behavior change —
    /// exactly what the golden-trace regression exists to catch).
    pub fn run(&self) -> Result<(Trace, ClusterReport), TraceError> {
        let (trace, report) = self.trace.replay()?;
        if trace.digest != self.trace.digest {
            let detail = self
                .trace
                .diff(&trace)
                .unwrap_or_else(|| "(event streams compare equal; digest scheme drift?)".into());
            return Err(TraceError::Parse(format!(
                "replay diverged from the recording: recorded digest {}, replayed {}\n{detail}",
                self.trace.digest, trace.digest
            )));
        }
        Ok((trace, report))
    }
}

#[cfg(test)]
mod tests {
    use super::super::policy::RetentionPolicy;
    use super::super::scenario::{Scenario, SharedPrefixChat};
    use super::*;

    fn sample_meta() -> TraceMeta {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap();
        let cfg = SharedPrefixChat::default().serving_config(accel);
        TraceMeta::new(&cfg, "fifo").for_scenario("shared-prefix-chat", 11)
    }

    fn one_of_each_event() -> Vec<ClusterEvent> {
        vec![
            ClusterEvent::Shard {
                shard_id: 0,
                event: ServeEvent::Enqueued { id: 7, step: 0 },
            },
            ClusterEvent::Shard {
                shard_id: 1,
                event: ServeEvent::Admitted {
                    id: 7,
                    step: 2,
                    context: 128,
                    cached_tokens: 96,
                },
            },
            ClusterEvent::Shard {
                shard_id: 1,
                event: ServeEvent::PrefillChunk {
                    id: 7,
                    step: 2,
                    built_tokens: 64,
                    remaining_tokens: 64,
                },
            },
            ClusterEvent::Shard {
                shard_id: 2,
                event: ServeEvent::TokenGenerated {
                    id: 7,
                    step: 3,
                    context: 129,
                    generated: 1,
                },
            },
            ClusterEvent::Shard {
                shard_id: 3,
                event: ServeEvent::Preempted {
                    id: 7,
                    step: 4,
                    generated: 2,
                    retained_tokens: 48,
                    dropped_tokens: 83,
                },
            },
            ClusterEvent::Shard {
                shard_id: 0,
                event: ServeEvent::Finished {
                    id: 7,
                    step: 9,
                    generated: 5,
                },
            },
            ClusterEvent::Stolen {
                id: 9,
                from: 2,
                to: 0,
                step: 5,
            },
            ClusterEvent::Shard {
                shard_id: 1,
                event: ServeEvent::SwappedOut {
                    id: 7,
                    step: 6,
                    tokens: 83,
                },
            },
            ClusterEvent::Shard {
                shard_id: 1,
                event: ServeEvent::SwappedIn {
                    id: 7,
                    step: 7,
                    tokens: 83,
                },
            },
            ClusterEvent::Shard {
                shard_id: 2,
                event: ServeEvent::Rejected {
                    id: 11,
                    step: 8,
                    overdue_steps: 3,
                },
            },
            ClusterEvent::Shipped {
                id: 9,
                from: 0,
                to: 3,
                step: 8,
                tokens: 96,
            },
        ]
    }

    #[test]
    fn every_event_variant_round_trips_through_the_line_format() {
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.request(
            &ServingRequest::new(7, 128, 5)
                .with_priority(3)
                .with_client(2)
                .with_shared_prefix(0xDEAD_BEEF, 96)
                .arriving_at(4)
                .with_ttft_deadline(20)
                .with_itl_deadline(4),
        );
        recorder.events(one_of_each_event());
        let trace = recorder.finish();
        let text = trace.render();
        let parsed = Trace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        // Serialize → parse → serialize is byte-stable, not merely
        // structurally equal.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn meta_round_trips_including_retention_and_cluster_shape() {
        let accel = AccelConfig::paper(AccelMode::Blocking, 0.125).unwrap();
        let mut cfg = SharedPrefixChat::default().serving_config(accel);
        cfg.preemption =
            PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.75));
        cfg.prefill_chunk_pages = 2;
        let meta = TraceMeta::new(&cfg, "priority-aging")
            .for_cluster(4, "prefix-affinity", true, 4)
            .with_max_steps(2048);
        let trace = TraceRecorder::new(meta.clone()).finish();
        let parsed = Trace::parse(&trace.render()).unwrap();
        assert_eq!(parsed.meta, meta);
        // The rebuilt serving config matches the one we snapshotted.
        assert_eq!(parsed.meta.serving_config().unwrap(), cfg);
    }

    #[test]
    fn diff_localizes_the_first_diverging_event() {
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.events(one_of_each_event());
        let a = recorder.finish();
        // Identical streams: no diff.
        assert_eq!(a.diff(&a), None);
        // Perturb one event mid-stream.
        let mut events = one_of_each_event();
        let ClusterEvent::Shard {
            event: ServeEvent::TokenGenerated { context, .. },
            ..
        } = &mut events[3]
        else {
            panic!("event 3 should be the token generation");
        };
        *context += 1;
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.events(events);
        let b = recorder.finish();
        assert_ne!(a.digest, b.digest);
        let report = a.diff(&b).unwrap();
        assert!(report.contains("diverge at event 3"), "{report}");
        assert!(report.contains("< [3]"), "{report}");
        assert!(report.contains("> [3]"), "{report}");
        assert!(report.contains("\"context\":129"), "{report}");
        assert!(report.contains("\"context\":130"), "{report}");
        // A strict prefix diverges where the shorter stream ends.
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.events(one_of_each_event().into_iter().take(2));
        let short = recorder.finish();
        let report = a.diff(&short).unwrap();
        assert!(report.contains("diverge at event 2"), "{report}");
        assert!(report.contains("> [2] (stream ends)"), "{report}");
    }

    #[test]
    fn tampered_traces_are_rejected() {
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.events(one_of_each_event());
        let trace = recorder.finish();
        let text = trace.render();
        // Dropping an event line breaks the footer counts.
        let truncated: Vec<&str> = text
            .lines()
            .filter(|l| !l.contains("\"kind\":\"stolen\""))
            .collect();
        assert!(Trace::parse(&truncated.join("\n")).is_err());
        // Editing an event field breaks the digest.
        let edited = text.replace("\"retained_tokens\":48", "\"retained_tokens\":64");
        assert!(matches!(
            Trace::parse(&edited),
            Err(TraceError::Parse(msg)) if msg.contains("digest mismatch")
        ));
        // Garbage and missing pieces are parse errors, not panics.
        assert!(Trace::parse("not json").is_err());
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("{\"type\":\"meta\",\"version\":9}").is_err());
    }

    #[test]
    fn record_replay_record_is_a_fixed_point_on_a_small_run() {
        let requests = SharedPrefixChat::default().generate(11);
        let meta = sample_meta();
        let (first, _) = run_recorded(&meta, &requests).unwrap();
        let (second, report) = first.replay().unwrap();
        assert_eq!(first.digest, second.digest);
        assert_eq!(first.events, second.events);
        assert_eq!(report.shards.len(), 1);
        assert!(report.tokens_generated() > 0);
        // And the parsed form replays identically too.
        let reparsed = Trace::parse(&first.render()).unwrap();
        let (third, _) = TraceReplay::new(reparsed).run().unwrap();
        assert_eq!(third.digest, first.digest);
    }
}
