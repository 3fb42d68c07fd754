//! One pass of a workload: set it up, serve it to completion step by step,
//! and keep what the metrics and checks need. A pass is traced when given
//! a [`Tracer`].

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use topick_accel::{
    ClusterEngine, ClusterEvent, ClusterReport, KvPager, ServeError, ServeEvent, ServingConfig,
    ServingEngine, ServingReport, ServingRequest, StepReport, TokenBackedBatch,
};
use topick_core::PruneStats;

use crate::clock::{calibrate, thread_cpu};
use crate::stats::{kv_bytes_per_token, mean, nearest_rank, sorted, tail, Tail};
use crate::trace::{names, Tracer};
use crate::workloads::Workload;

/// The engine a workload is served by.
#[derive(Debug)]
enum Server {
    Engine(Box<ServingEngine>),
    Cluster(ClusterEngine),
}

impl Server {
    fn enqueue(&mut self, req: ServingRequest) -> Result<(), ServeError> {
        match self {
            Self::Engine(e) => e.enqueue(req),
            Self::Cluster(c) => c.enqueue(req).map(drop),
        }
    }

    /// One step: its modeled cycles (the critical shard's on a cluster)
    /// and batch size, or `None` once drained.
    fn step(&mut self) -> Result<Option<(u64, usize)>, ServeError> {
        Ok(match self {
            Self::Engine(e) => e.step()?.map(|r| (r.total_cycles(), r.batch)),
            Self::Cluster(c) => c.step()?.map(|r| (r.critical_cycles, r.batch)),
        })
    }

    /// The serving events recorded since the last drain, shard tags dropped.
    fn drain(&mut self) -> Vec<ServeEvent> {
        match self {
            Self::Engine(e) => e.drain_events(),
            Self::Cluster(c) => c
                .drain_events()
                .into_iter()
                .filter_map(|e| match e {
                    ClusterEvent::Shard { event, .. } => Some(event),
                    ClusterEvent::Stolen { .. } | ClusterEvent::Shipped { .. } => None,
                })
                .collect(),
        }
    }

    fn pagers(&self) -> Vec<&KvPager> {
        match self {
            Self::Engine(e) => vec![e.kv_pager()],
            Self::Cluster(c) => (0..c.shard_count())
                .map(|i| c.shard(i).kv_pager())
                .collect(),
        }
    }

    /// Every shard's report, plus the cluster's on a cluster.
    fn reports(&self) -> (Vec<ServingReport>, Option<ClusterReport>) {
        match self {
            Self::Engine(e) => (vec![e.report()], None),
            Self::Cluster(c) => {
                let r = c.report();
                (r.shards.clone(), Some(r))
            }
        }
    }

    fn step_name(&self) -> &'static str {
        match self {
            Self::Engine(_) => names::STEP,
            Self::Cluster(_) => names::CLUSTER_STEP,
        }
    }
}

/// A workload ready to serve: its requests enqueued (and registered with
/// the token-backed mirror, where there is one).
#[derive(Debug)]
pub struct Setup {
    workload: Workload,
    requests: Vec<ServingRequest>,
    server: Server,
    mirror: Option<TokenBackedBatch>,
}

impl Setup {
    /// Generates the workload's requests from `seed`, builds its engine
    /// and enqueues them: everything the benchmark counts as set-up.
    ///
    /// # Errors
    ///
    /// Propagates enqueue and registration refusals.
    pub fn new(workload: Workload, seed: u64) -> Result<Self, ServeError> {
        let requests = workload.requests(seed);
        let (server, mut mirror) = match workload {
            Workload::LongDecode => (Server::Engine(Box::new(workload.engine())), None),
            Workload::ChatCluster => (Server::Cluster(workload.cluster()), None),
            Workload::TokensEvict => {
                let engine = workload.engine();
                let mirror = workload.mirror(engine.config());
                (Server::Engine(Box::new(engine)), Some(mirror))
            }
        };
        let mut server = server;
        for req in &requests {
            if let Some(m) = mirror.as_mut() {
                m.register(req)?;
            }
            server.enqueue(*req)?;
        }
        let events = server.drain();
        if let Some(m) = mirror.as_mut() {
            m.apply_all(&events);
        }
        Ok(Self {
            workload,
            requests,
            server,
            mirror,
        })
    }
}

/// The modeled (cycle-derived) end-to-end figures of a pass at the
/// engine's clock: deterministic for a seed.
#[derive(Debug, PartialEq)]
pub struct Modeled {
    /// Generated tokens per simulated second.
    pub throughput: f64,
    /// Median simulated time from arrival to first token.
    pub ttft_p50_ms: f64,
    /// Tail of the same.
    pub ttft_tail: Tail,
    /// Median simulated gap between a request's consecutive tokens.
    pub itl_p50_ms: f64,
    /// Tail of the same.
    pub itl_tail: Tail,
    /// Share of requests sent that met their TTFT and ITL deadlines.
    pub slo_attainment: f64,
    /// Context tokens attended over V rows fetched.
    pub v_reduction: f64,
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Requests sent.
    pub requests: Vec<ServingRequest>,
    /// Wall seconds of the serving loop (calibration and, when traced,
    /// replay excluded).
    pub loop_s: f64,
    /// CPU seconds of the serving loop, excluding the same.
    pub loop_cpu_s: f64,
    /// Tokens generated.
    pub tokens: usize,
    /// CPU milliseconds of each step, plus its `apply_all` when a
    /// token-backed mirror runs.
    pub step_cpu_ms: Vec<f64>,
    /// CPU milliseconds of the calibration kernel run after each step.
    pub calibration_ms: Vec<f64>,
    /// The modeled figures.
    pub modeled: Modeled,
    /// One line per request that failed a check.
    pub failures: Vec<String>,
    /// Tokens each request was served by the mirror (empty without one).
    pub served: BTreeMap<u64, Vec<usize>>,
    /// Per-layer figures of a traced pass.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Per-request bookkeeping from the event stream.
#[derive(Debug, Default)]
struct Seen {
    token_steps: Vec<usize>,
    finished: Vec<usize>,
    rejected: bool,
}

/// Serves a set-up workload to completion, tracing when `tracer` is given.
///
/// # Errors
///
/// Propagates engine and replay errors.
pub fn serve(setup: Setup, mut tracer: Option<&mut Tracer>) -> Result<Pass, ServeError> {
    let Setup {
        workload,
        requests,
        mut server,
        mut mirror,
    } = setup;
    let mut step_cpu_ms = Vec::new();
    let mut cycles = Vec::new();
    let mut batches = Vec::new();
    let mut seen: BTreeMap<u64, Seen> = BTreeMap::new();
    let mut replay_s = 0.0;
    let mut calibration_ms = Vec::new();
    let mut calibration_wall_s = 0.0;
    // CPU time of the calibration kernels and the replay, left out of
    // `loop_cpu_s`.
    let mut overhead_cpu = Duration::ZERO;
    let start = Instant::now();
    let cpu_start = thread_cpu();
    loop {
        let c0 = thread_cpu();
        let t0 = Instant::now();
        let Some((step_cycles, batch)) = server.step()? else {
            break;
        };
        let t1 = Instant::now();
        let events = server.drain();
        let t2 = Instant::now();
        if let Some(m) = mirror.as_mut() {
            m.apply_all(&events);
        }
        let t3 = Instant::now();
        let c3 = thread_cpu();
        step_cpu_ms.push((c3 - c0).as_secs_f64() * 1e3);
        calibration_ms.push(calibrate());
        calibration_wall_s += t3.elapsed().as_secs_f64();
        overhead_cpu += thread_cpu() - c3;
        cycles.push(step_cycles);
        batches.push(batch as f64);
        if let Some(tr) = tracer.as_deref_mut() {
            let step_span = tr.record(server.step_name(), t0, t1, None, None);
            if mirror.is_some() {
                tr.record(names::APPLY_ALL, t2, t3, None, None);
            }
            tr.sample_pagers(server.pagers().into_iter());
            let replay_start = Instant::now();
            let replay_cpu = thread_cpu();
            for e in &events {
                let call = match *e {
                    ServeEvent::TokenGenerated { id, context, .. } => Some((id, context)),
                    ServeEvent::PrefillChunk {
                        id,
                        built_tokens,
                        remaining_tokens,
                        ..
                    } => Some((id, built_tokens + remaining_tokens)),
                    _ => None,
                };
                if let Some((id, ctx)) = call {
                    tr.replay(step_span, id, ctx)?;
                }
            }
            replay_s += replay_start.elapsed().as_secs_f64();
            overhead_cpu += thread_cpu() - replay_cpu;
        }
        for e in events {
            match e {
                ServeEvent::TokenGenerated { id, step, .. } => {
                    seen.entry(id).or_default().token_steps.push(step);
                }
                ServeEvent::Finished { id, generated, .. } => {
                    seen.entry(id).or_default().finished.push(generated);
                }
                ServeEvent::Rejected { id, .. } => seen.entry(id).or_default().rejected = true,
                _ => {}
            }
        }
    }
    let loop_s = start.elapsed().as_secs_f64() - replay_s - calibration_wall_s;
    let loop_cpu_s = (thread_cpu() - cpu_start - overhead_cpu).as_secs_f64();
    let cfg = workload.serving_config();
    let (reports, cluster) = server.reports();
    let tokens: usize = reports.iter().map(|r| r.tokens_generated).sum();

    // Modeled times: a request's TTFT spans the steps from its arrival
    // through the step that produced its first token; an inter-token gap
    // spans the steps after one token through the step of the next.
    let mut prefix = vec![0u64; cycles.len() + 1];
    for (i, c) in cycles.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let ms = |from: usize, to: usize| (prefix[to + 1] - prefix[from]) as f64 / cfg.clock_hz * 1e3;
    let mut ttft = Vec::new();
    let mut itl = Vec::new();
    let mut attained = 0usize;
    let mut failures = Vec::new();
    let mut served = BTreeMap::new();
    for req in &requests {
        let s = seen.remove(&req.id).unwrap_or_default();
        let ok = !s.rejected
            && s.finished == [req.max_new_tokens]
            && s.token_steps.len() == req.max_new_tokens;
        if !ok {
            failures.push(format!(
                "request {}: rejected {}, finished {:?}, {} of {} tokens",
                req.id,
                s.rejected,
                s.finished,
                s.token_steps.len(),
                req.max_new_tokens
            ));
        }
        let arrival = usize::try_from(req.arrival_step).expect("arrival step fits usize");
        let mut on_time = ok;
        if let Some(&first) = s.token_steps.first() {
            ttft.push(ms(arrival, first));
            on_time &= req
                .ttft_deadline
                .is_none_or(|d| (first + 1 - arrival) as u64 <= d);
        }
        for pair in s.token_steps.windows(2) {
            itl.push(ms(pair[0] + 1, pair[1]));
            on_time &= req
                .itl_deadline
                .is_none_or(|d| (pair[1] - pair[0]) as u64 <= d);
        }
        attained += usize::from(on_time);
        if let Some(m) = mirror.as_ref() {
            served.insert(req.id, m.generated(req.id).unwrap_or_default().to_vec());
        }
    }
    let (ttft, itl) = (sorted(ttft), sorted(itl));
    let (Some(ttft_tail), Some(itl_tail)) = (tail(&ttft), tail(&itl)) else {
        return Err(ServeError::InvalidRequest(
            "workload too small for a tail percentile",
        ));
    };
    let mut prune = PruneStats::new(0, cfg.accel.precision.num_chunks());
    for r in &reports {
        prune.merge(&r.prune);
    }
    let modeled = Modeled {
        throughput: cluster.as_ref().map_or_else(
            || reports[0].tokens_per_second(cfg.clock_hz),
            |c| c.tokens_per_second(cfg.clock_hz),
        ),
        ttft_p50_ms: nearest_rank(&ttft, 50.0),
        ttft_tail,
        itl_p50_ms: nearest_rank(&itl, 50.0),
        itl_tail,
        slo_attainment: attained as f64 / requests.len() as f64,
        v_reduction: prune.v_reduction(),
    };

    let layers = tracer.map_or_else(BTreeMap::new, |tr| {
        let counts = Counts {
            reports: &reports,
            cluster: cluster.as_ref(),
            mirror: mirror.as_ref(),
            prune: &prune,
            tokens,
            batches: &batches,
        };
        layer_metrics(tr, &counts, &cfg)
    });

    Ok(Pass {
        requests,
        loop_s,
        loop_cpu_s,
        tokens,
        step_cpu_ms,
        calibration_ms,
        modeled,
        failures,
        served,
        layers,
    })
}

/// What a pass counted, for the per-layer split.
struct Counts<'a> {
    reports: &'a [ServingReport],
    cluster: Option<&'a ClusterReport>,
    mirror: Option<&'a TokenBackedBatch>,
    prune: &'a PruneStats,
    tokens: usize,
    batches: &'a [f64],
}

/// The per-layer metrics of a traced pass. Layers the workload does not
/// load are left out (and read 0).
fn layer_metrics(tr: &Tracer, c: &Counts<'_>, cfg: &ServingConfig) -> BTreeMap<&'static str, f64> {
    let steps: Vec<&StepReport> = c.reports.iter().flat_map(|r| &r.steps).collect();
    let total: u64 = steps.iter().map(|s| s.total_cycles()).sum();
    let share =
        |f: fn(&StepReport) -> u64| steps.iter().map(|s| f(s)).sum::<u64>() as f64 / total as f64;
    let sum = |f: fn(&ServingReport) -> f64| c.reports.iter().map(f).sum::<f64>();
    let finished = sum(|r| r.requests.len() as f64);
    let busy: Vec<f64> = c.batches.iter().copied().filter(|&b| b > 0.0).collect();
    let mut m = BTreeMap::new();
    for (ms_name, calls_name, span) in [
        ("model.synth.ms", "model.synth.calls", names::SYNTH),
        ("core.quant.ms", "core.quant.calls", names::QUANT),
        ("accel.engine.ms", "accel.engine.calls", names::ENGINE),
    ] {
        let (ms, calls) = tr.total(span);
        m.insert(ms_name, ms);
        m.insert(calls_name, calls as f64);
    }
    m.insert(
        "accel.engine.kv_bytes_per_token",
        kv_bytes_per_token(c.prune, cfg.accel.dim, &cfg.accel.precision, c.tokens),
    );
    m.insert(
        "accel.engine.kept_share",
        c.prune.kept as f64 / c.prune.tokens.max(1) as f64,
    );
    m.insert("accel.serve.batch_mean", mean(&busy));
    m.insert(
        "accel.serve.queue_wait_steps_mean",
        sum(|r| r.mean_queue_wait_steps() * r.requests.len() as f64) / finished.max(1.0),
    );
    m.insert("accel.serve.preemptions", sum(|r| r.preemptions as f64));
    m.insert("accel.serve.rejections", sum(|r| r.rejections as f64));
    m.insert("kv_pager.occupancy_mean", mean(&tr.occupancy));
    m.insert("kv_pager.fragmented_tokens_mean", mean(&tr.fragmented));
    m.insert("kv_pager.host_pages_peak", tr.host_pages_peak as f64);
    m.insert(
        "kv_pager.reprefilled_tokens",
        sum(|r| r.total_reprefilled_tokens() as f64),
    );
    m.insert(
        "kv_pager.swapped_tokens",
        sum(|r| r.total_swapped_tokens() as f64),
    );
    match c.cluster {
        None => {
            m.insert("accel.serve.self_ms", tr.self_ms(names::STEP));
            m.insert("kv_pager.prefix_hit_rate", c.reports[0].prefix_hit_rate());
            m.insert("cluster.load_imbalance", 1.0);
        }
        Some(r) => {
            m.insert("cluster.self_ms", tr.self_ms(names::CLUSTER_STEP));
            m.insert("kv_pager.prefix_hit_rate", r.prefix_hit_rate());
            m.insert("cluster.steals", r.steals as f64);
            m.insert("cluster.ships", r.ships as f64);
            m.insert("cluster.load_imbalance", r.load_imbalance());
        }
    }
    if let Some(mirror) = c.mirror {
        m.insert("token_backed.ms", tr.total(names::APPLY_ALL).0);
        m.insert(
            "token_backed.measured_build_cycles",
            mirror.measured_build_cycles() as f64,
        );
        m.insert(
            "token_backed.measured_decode_cycles",
            mirror.measured_decode_cycles() as f64,
        );
        m.insert(
            "token_backed.peak_shared_pages",
            mirror.peak_shared_pages() as f64,
        );
    }
    m.insert("modeled.weight_share", share(|s| s.weight_cycles));
    m.insert("modeled.attention_share", share(|s| s.attention_cycles));
    m.insert(
        "modeled.prefill_share",
        share(|s| s.prefill_cycles + s.reprefill_cycles + s.swap_cycles + s.ship_cycles),
    );
    m
}
