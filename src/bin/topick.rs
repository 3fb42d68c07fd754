//! `topick` — command-line driver for the Token-Picker reproduction.
//!
//! ```text
//! topick prune   [--context N] [--dim D] [--threshold T] [--seed S]
//! topick sweep   [--context N] [--dim D] [--seed S]
//! topick accel   [--context N] [--threshold T] [--seed S]
//! topick traffic [--model NAME] [--context N]
//! topick serve   [--requests N] [--batch B] [--threshold T] [--seed S] [--baseline]
//!                [--policy fifo|priority|sjf|fair|slo|all] [--preemption]
//!                [--page-size P] [--retention none|<pages>|<fraction>]
//!                [--prefix-cache] [--prefill-factor F] [--prefill-chunk PAGES]
//!                [--slo-ttft STEPS] [--slo-itl STEPS]
//!                [--shards N] [--routing rr|least|affinity] [--stealing] [--threads N]
//!                [--scenario NAME [--scenario-seed S]] [--list-scenarios]
//!                [--record PATH | --replay PATH] [--real-tokens]
//! topick trace   diff A B
//! topick help
//! ```

use std::collections::HashMap;

use token_picker::accel::{AccelConfig, AccelMode, ToPickAccelerator};
use token_picker::core::{
    PrecisionConfig, ProgressivePruner, PrunerConfig, QMatrix, QVector, ScanOrder,
};
use token_picker::model::{InstanceSampler, ModelSpec, TrafficBreakdown};

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_string(), String::new());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    flags
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    flags
        .get(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn workload(ctx: usize, dim: usize, seed: u64) -> (QVector, QMatrix, Vec<f32>) {
    let pc = PrecisionConfig::paper();
    let inst = InstanceSampler::realistic(ctx, dim).sample(seed);
    (
        QVector::quantize(&inst.query, pc),
        QMatrix::quantize_flat(inst.keys().data(), inst.dim(), pc).expect("non-empty"),
        inst.into_values(),
    )
}

fn cmd_prune(flags: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let ctx = flag(flags, "context", 512usize);
    let dim = flag(flags, "dim", 64usize);
    let thr = flag(flags, "threshold", 1e-3f64);
    let seed = flag(flags, "seed", 0u64);
    let (q, keys, _) = workload(ctx, dim, seed);
    let outcome = ProgressivePruner::new(PrunerConfig::new(thr)?).run(&q, &keys)?;
    let pc = PrecisionConfig::paper();
    println!("context {ctx}, dim {dim}, thr {thr:.1e}, seed {seed}");
    println!(
        "kept        : {}/{}",
        outcome.stats.kept, outcome.stats.tokens
    );
    println!("chunk fetches: {:?}", outcome.stats.chunk_fetches);
    println!("V reduction : {:.2}x", outcome.stats.v_reduction());
    println!("K reduction : {:.2}x", outcome.stats.k_reduction(dim, &pc));
    println!(
        "total       : {:.2}x",
        outcome.stats.total_reduction(dim, &pc)
    );
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let ctx = flag(flags, "context", 512usize);
    let dim = flag(flags, "dim", 64usize);
    let seed = flag(flags, "seed", 0u64);
    let (q, keys, _) = workload(ctx, dim, seed);
    let pc = PrecisionConfig::paper();
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "threshold", "kept", "V red", "K red", "total"
    );
    for exp in 2..=6 {
        let thr = 10f64.powi(-exp);
        let cfg = PrunerConfig::new(thr)?.with_order(ScanOrder::FirstAndReverse);
        let o = ProgressivePruner::new(cfg).run(&q, &keys)?;
        println!(
            "{:<12.0e} {:>10} {:>9.1}x {:>9.2}x {:>9.2}x",
            thr,
            o.stats.kept,
            o.stats.v_reduction(),
            o.stats.k_reduction(dim, &pc),
            o.stats.total_reduction(dim, &pc)
        );
    }
    Ok(())
}

fn cmd_accel(flags: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let ctx = flag(flags, "context", 1024usize);
    let thr = flag(flags, "threshold", 1e-3f64);
    let seed = flag(flags, "seed", 0u64);
    let (q, keys, values) = workload(ctx, 64, seed);
    println!(
        "{:<14} {:>9} {:>9} {:>11} {:>12}",
        "mode", "cycles", "kept", "DRAM KB", "energy uJ"
    );
    for (name, mode, t) in [
        ("Baseline", AccelMode::Baseline, 0.5),
        ("EstimateOnly", AccelMode::EstimateOnly, thr),
        ("OutOfOrder", AccelMode::OutOfOrder, thr),
        ("Blocking", AccelMode::Blocking, thr),
    ] {
        let accel = ToPickAccelerator::new(AccelConfig::paper(mode, t)?);
        let r = accel.run_attention(&q, &keys, token_picker::core::Rows::new(&values, 64))?;
        println!(
            "{:<14} {:>9} {:>9} {:>11.1} {:>12.2}",
            name,
            r.cycles,
            r.kept.len(),
            r.dram_stats.bytes(&accel.config().dram) as f64 / 1e3,
            r.energy.total_pj() / 1e6
        );
    }
    Ok(())
}

fn cmd_traffic(flags: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let name = flags
        .get("model")
        .map_or("opt-6.7b", String::as_str)
        .to_lowercase();
    let spec = match name.as_str() {
        "gpt2-medium" => ModelSpec::gpt2_medium(),
        "gpt2-large" => ModelSpec::gpt2_large(),
        "gpt2-xl" => ModelSpec::gpt2_xl(),
        "opt-1.3b" => ModelSpec::opt_1_3b(),
        "opt-2.7b" => ModelSpec::opt_2_7b(),
        "opt-6.7b" => ModelSpec::opt_6_7b(),
        "opt-13b" => ModelSpec::opt_13b(),
        "llama2-7b" => ModelSpec::llama2_7b(),
        "llama2-13b" => ModelSpec::llama2_13b(),
        other => return Err(format!("unknown model '{other}'").into()),
    };
    let ctx = flag(flags, "context", spec.max_context.min(2048));
    println!("{} @ context {}", spec.name, ctx);
    println!(
        "{:>6} {:>10} {:>12} {:>10}",
        "batch", "KV share", "total GB", "KV GB"
    );
    for batch in [1usize, 4, 16, 64] {
        let t = TrafficBreakdown::compute(&spec, batch, ctx);
        println!(
            "{:>6} {:>9.1}% {:>12.2} {:>10.2}",
            batch,
            100.0 * t.kv_fraction(),
            t.total() as f64 / 1e9,
            t.kv_bytes as f64 / 1e9
        );
    }
    Ok(())
}

struct ServeOpts {
    mode: AccelMode,
    threshold: f64,
    batch: usize,
    seed: u64,
    requests: u64,
    preemption: bool,
    page_size: usize,
    retention: token_picker::accel::RetentionPolicy,
    prefix_cache: bool,
    prefill_factor: f64,
    prefill_chunk: usize,
    slo_ttft: Option<u64>,
    slo_itl: Option<u64>,
    host_pages: usize,
    swap_cost: f64,
    ship_cost: f64,
    slo_reject: bool,
    shards: usize,
    routing: token_picker::accel::RoutingKind,
    stealing: bool,
    threads: usize,
    scenario: Option<token_picker::accel::ScenarioKind>,
    scenario_seed: u64,
    record: Option<String>,
}

/// The `serve` command's synthetic workload: heterogeneous shapes,
/// priorities and clients so every policy has something to differentiate
/// on; arrivals come in waves so later high-priority work can contend
/// with (and under `--preemption`, evict) earlier long-running requests.
/// Requests of one client share a page-aligned system prompt, so
/// `--prefix-cache` (and affinity routing) have real prefixes to hit.
fn serve_workload(requests: u64) -> Vec<token_picker::accel::ServingRequest> {
    use token_picker::accel::ServingRequest;
    (0..requests)
        .map(|id| {
            ServingRequest::new(id, 64 + (id as usize % 7) * 32, 4 + (id as usize % 5) * 2)
                .with_priority((id % 4) as u8)
                .with_client(id % 3)
                .with_shared_prefix(id % 3, 64)
                .arriving_at((id / 4) * 3)
        })
        .collect()
}

/// The open-loop workload a `serve` invocation runs: the selected
/// scenario's seed-derived stream, or the classic hardcoded mix.
/// `--slo-ttft`/`--slo-itl` stamp a uniform deadline onto every request,
/// overriding whatever the scenario attached.
fn serve_requests(opts: &ServeOpts) -> Vec<token_picker::accel::ServingRequest> {
    let mut reqs = match opts.scenario {
        Some(kind) => kind.build().generate(opts.scenario_seed),
        None => serve_workload(opts.requests),
    };
    if let Some(d) = opts.slo_ttft {
        for r in &mut reqs {
            *r = r.with_ttft_deadline(d);
        }
    }
    if let Some(d) = opts.slo_itl {
        for r in &mut reqs {
            *r = r.with_itl_deadline(d);
        }
    }
    reqs
}

/// Builds the `ServingConfig` the flags describe — the single source
/// both the trace-recorded cost-model run and the `--real-tokens`
/// token-backed run configure their engines from.
fn serve_config(
    opts: &ServeOpts,
) -> Result<token_picker::accel::ServingConfig, Box<dyn std::error::Error>> {
    use token_picker::accel::{PreemptionConfig, ServingConfig};

    let accel = AccelConfig::paper(opts.mode, opts.threshold)?;
    let mut cfg = match opts.scenario {
        Some(kind) => kind.build().serving_config(accel),
        None => {
            let mut cfg = ServingConfig::new(accel);
            cfg.admission.max_batch = opts.batch;
            cfg.admission.page_size = opts.page_size;
            cfg.admission.prefix_cache = opts.prefix_cache;
            cfg.prefill_factor = opts.prefill_factor;
            cfg.seed = opts.seed;
            cfg
        }
    };
    if opts.preemption {
        cfg.preemption = PreemptionConfig::enabled().with_retention(opts.retention);
    }
    cfg.prefill_chunk_pages = opts.prefill_chunk;
    // The tiered-KV knobs override whatever the scenario shipped with —
    // all of them default to "off"/bit-identical when the flags are absent.
    cfg.host_pages = opts.host_pages;
    cfg.swap_cost_factor = opts.swap_cost;
    cfg.ship_cost_factor = opts.ship_cost;
    cfg.reject_expired_ttft = opts.slo_reject;
    Ok(cfg)
}

/// Builds the trace meta describing the run the flags ask for — the
/// single source both the live run and any `--record`/`--replay` of it
/// execute through.
fn serve_meta(
    opts: &ServeOpts,
    policy: token_picker::accel::PolicyKind,
) -> Result<token_picker::accel::TraceMeta, Box<dyn std::error::Error>> {
    use token_picker::accel::TraceMeta;

    let cfg = serve_config(opts)?;
    let mut meta = TraceMeta::new(&cfg, policy.name()).for_cluster(
        opts.shards,
        opts.routing.name(),
        opts.stealing,
        opts.threads,
    );
    if let Some(kind) = opts.scenario {
        meta = meta.for_scenario(kind.name(), opts.scenario_seed);
    }
    Ok(meta)
}

/// One recorded cluster run (a single engine is the 1-shard cluster)
/// driven through the trace subsystem, so `--record` is just "save what
/// already happened".
fn serve_run(
    opts: &ServeOpts,
    policy: token_picker::accel::PolicyKind,
) -> Result<
    (
        token_picker::accel::TraceMeta,
        token_picker::accel::Trace,
        token_picker::accel::ClusterReport,
    ),
    Box<dyn std::error::Error>,
> {
    let meta = serve_meta(opts, policy)?;
    let requests = serve_requests(opts);
    let (trace, report) = token_picker::accel::serve::trace::run_recorded(&meta, &requests)?;
    Ok((meta, trace, report))
}

/// Saves the trace when `--record` asked for it.
fn save_trace(
    trace: &token_picker::accel::Trace,
    record: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = record {
        trace.save(path)?;
        println!(
            "recorded       : {} requests, {} events -> {path} (digest {:#018x})",
            trace.requests.len(),
            trace.events.len(),
            trace.digest
        );
    }
    Ok(())
}

/// Replays a recorded trace: rebuilds the run from the trace's meta,
/// re-enqueues the recorded requests, and verifies the replayed schedule
/// digest against the recording (a mismatch is an error).
fn cmd_serve_replay(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    use token_picker::accel::TraceReplay;

    let replay = TraceReplay::load(path)?;
    let meta = replay.meta().clone();
    let (trace, report) = replay.run()?;
    println!(
        "replayed {path}: scenario {}, policy {}, {} shard{} ({} thread{}), {} requests, {} events",
        meta.scenario.as_deref().unwrap_or("ad-hoc"),
        meta.policy,
        meta.shards,
        if meta.shards == 1 { "" } else { "s" },
        meta.threads,
        if meta.threads == 1 { "" } else { "s" },
        trace.requests.len(),
        trace.events.len()
    );
    println!(
        "digest         : {:#018x} (matches the recording)",
        trace.digest
    );
    print_serve_summary(&meta, &report);
    Ok(())
}

/// Prints one run's summary: the cluster-level totals, then one row per
/// shard for the numbers each shard's engine keeps for itself. A 1-shard
/// run is the bare engine, so its single row is the engine's own report.
fn print_serve_summary(
    meta: &token_picker::accel::TraceMeta,
    report: &token_picker::accel::ClusterReport,
) {
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    println!(
        "mode {:?}, policy {}, routing {}{}: {} shard{} on {} thread{}, {} requests, {} tokens in {} steps",
        meta.mode,
        report.policy,
        report.routing,
        if report.stealing { " + stealing" } else { "" },
        report.shards.len(),
        plural(report.shards.len()),
        report.threads,
        plural(report.threads),
        report.requests().count(),
        report.tokens_generated(),
        report.cluster_steps
    );
    println!(
        "total cycles   : {} (modeled makespan)",
        report.total_cycles
    );
    println!(
        "wall clock     : {:.1} ms (measured, {} thread{})",
        report.wall_seconds * 1e3,
        report.threads,
        plural(report.threads)
    );
    println!(
        "throughput     : {:.1} tokens/s",
        report.tokens_per_second(meta.clock_hz)
    );
    println!("mean TTFT      : {:.2} steps", report.mean_ttft_steps());
    println!(
        "mean queue wait: {:.2} steps",
        report.mean_queue_wait_steps()
    );
    println!("steals         : {}", report.steals);
    if meta.ship_cost_factor > 0.0 {
        println!(
            "page shipping  : {} running migrations, {} transfer cycles",
            report.ships,
            report.total_ship_cycles()
        );
    }
    println!("load imbalance : {:.2}", report.load_imbalance());
    println!("preemptions    : {}", report.preemptions());
    println!(
        "reprefill      : {} cycles",
        report.total_reprefill_cycles()
    );
    if meta.host_pages > 0 {
        println!(
            "host swap      : {} copy-back cycles ({} host pages per shard)",
            report.total_swap_cycles(),
            meta.host_pages
        );
    }
    if meta.reject_expired_ttft {
        println!(
            "rejections     : {} expired-TTFT requests",
            report.rejections()
        );
    }
    println!(
        "prefill        : {} cycles ({} prompt tokens served from the prefix cache, {:.0}% hit rate)",
        report.total_prefill_cycles(),
        report.total_prefix_hit_tokens(),
        100.0 * report.prefix_hit_rate()
    );
    if report.requests().any(|(_, r)| r.has_deadline()) {
        println!(
            "SLO            : {:.0}% deadline attainment, {:.1} good tokens/s ({} good tokens)",
            100.0 * report.deadline_attainment(),
            report.goodput_tokens_per_second(meta.clock_hz),
            report.total_good_tokens()
        );
        println!(
            "TTFT p99       : {} steps (pooled across shards)",
            report.ttft_p99_steps()
        );
    }
    println!(
        "{:>5} {:>8} {:>7} {:>12} {:>10} {:>9} {:>9} {:>8} {:>11} {:>8} {:>8} {:>10} {:>7}",
        "shard",
        "requests",
        "tokens",
        "busy cycles",
        "mean step",
        "mean TTFT",
        "mean wait",
        "KV hits",
        "reprefilled",
        "retained",
        "swapped",
        "max stall",
        "V red."
    );
    for (i, shard) in report.shards.iter().enumerate() {
        println!(
            "{:>5} {:>8} {:>7} {:>12} {:>10.0} {:>9.2} {:>9.2} {:>8} {:>11} {:>8} {:>8} {:>10} {:>6.2}x",
            i,
            shard.requests.len(),
            shard.tokens_generated,
            shard.total_cycles,
            shard.mean_step_cycles(),
            shard.mean_ttft_steps(),
            shard.mean_queue_wait_steps(),
            shard.total_prefix_hit_tokens(),
            shard.total_reprefilled_tokens(),
            shard.total_retained_tokens(),
            shard.total_swapped_tokens(),
            shard.max_prefill_stall_cycles(),
            shard.prune.v_reduction()
        );
    }
}

/// `serve --real-tokens`: the engine schedules (and charges cycles)
/// exactly as in the cost-model-only run, while a token-backed mirror
/// generates real synth-model tokens out of one shared copy-on-write
/// paged KV store. Prints the token-equivalence, physical-sharing and
/// charged-vs-measured cross-checks the mirror affords.
fn cmd_serve_real_tokens(
    opts: &ServeOpts,
    policy: token_picker::accel::PolicyKind,
) -> Result<(), Box<dyn std::error::Error>> {
    use token_picker::accel::{run_token_backed, ServingEngine};

    let cfg = serve_config(opts)?;
    let mut engine = ServingEngine::builder(cfg.accel.clone())
        .config(cfg)
        .policy(policy)
        .build();
    let requests = serve_requests(opts);
    // The CLI workload's prompts outgrow the toy spec's 256-token
    // window, so serve a toy-shaped model with a longer context.
    let mut spec = ModelSpec::toy();
    spec.max_context = 1024;
    let run = run_token_backed(&mut engine, requests.clone(), spec, opts.seed, 100_000)?;
    let report = &run.report;
    println!(
        "mode {:?}, policy {}: {} requests, {} real tokens in {} steps",
        opts.mode,
        report.policy,
        report.requests.len(),
        report.tokens_generated,
        report.steps.len()
    );
    let mut matched = 0usize;
    for req in &requests {
        let got = run
            .batch
            .generated(req.id)
            .ok_or("a request was never served")?;
        if got == run.batch.reference_generate(req).as_slice() {
            matched += 1;
        }
    }
    println!(
        "token equivalence: {matched}/{} requests byte-identical to unsharded generate",
        requests.len()
    );
    if matched != requests.len() {
        return Err("served tokens diverged from per-request generate".into());
    }
    println!(
        "shared KV pages  : {} at peak, {} after drain (page size {})",
        run.batch.peak_shared_pages(),
        run.batch.shared_pages(),
        opts.page_size
    );
    println!(
        "prefix cache     : {:.0}% admission hit rate ({} hit tokens)",
        100.0 * report.prefix_hit_rate(),
        report.total_prefix_hit_tokens()
    );
    println!(
        "cycle cross-check: charged {} vs measured {} kernel cycles (ratio {:.4})",
        run.charged_cycles(),
        run.batch.measured_cycles(),
        run.cycle_ratio()
    );
    println!("preemptions      : {}", report.preemptions);
    run.batch.validate();
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    use token_picker::accel::{PolicyKind, RetentionPolicy, RoutingKind, ScenarioKind};

    if flags.contains_key("list-scenarios") {
        println!("{:<22} description", "scenario");
        for kind in ScenarioKind::all() {
            println!("{:<22} {}", kind.name(), kind.build().description());
        }
        return Ok(());
    }

    if let Some(path) = flags.get("replay") {
        if flags.contains_key("scenario") || flags.contains_key("record") {
            return Err("--replay is mutually exclusive with --scenario and --record".into());
        }
        for shaped in [
            "policy",
            "baseline",
            "threshold",
            "batch",
            "seed",
            "requests",
            "preemption",
            "page-size",
            "retention",
            "prefix-cache",
            "prefill-factor",
            "shards",
            "routing",
            "stealing",
            "threads",
            "scenario-seed",
            "prefill-chunk",
            "slo-ttft",
            "slo-itl",
            "real-tokens",
        ] {
            if flags.contains_key(shaped) {
                return Err(format!(
                    "--{shaped} cannot be combined with --replay (the trace fixes the whole run)"
                )
                .into());
            }
        }
        return cmd_serve_replay(path);
    }

    let scenario: Option<ScenarioKind> = flags.get("scenario").map(|v| v.parse()).transpose()?;
    if scenario.is_some() {
        // A scenario fixes the engine shape it was designed against;
        // scheduling flags (--policy/--preemption/--retention/--shards/
        // --routing/--stealing/--threads) still compose with it.
        for sized in [
            "batch",
            "page-size",
            "prefix-cache",
            "prefill-factor",
            "seed",
            "requests",
        ] {
            if flags.contains_key(sized) {
                return Err(format!(
                    "--{sized} cannot be combined with --scenario (the scenario fixes the engine shape)"
                )
                .into());
            }
        }
    } else if flags.contains_key("scenario-seed") {
        return Err("--scenario-seed only takes effect with --scenario".into());
    }

    let baseline_mode = flags.contains_key("baseline");
    let retention: RetentionPolicy = flags
        .get("retention")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(RetentionPolicy::None);
    if retention != RetentionPolicy::None && !flags.contains_key("preemption") {
        return Err("--retention only takes effect with --preemption".into());
    }
    let prefix_cache = flags.contains_key("prefix-cache");
    let routing: RoutingKind = flags
        .get("routing")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(RoutingKind::RoundRobin);
    let shards = flag(flags, "shards", 1usize).max(1);
    let stealing = flags.contains_key("stealing");
    let threads = flag(flags, "threads", 1usize).max(1);
    if shards <= 1 && (flags.contains_key("routing") || stealing || flags.contains_key("threads")) {
        return Err(
            "--routing, --stealing and --threads only take effect with --shards > 1".into(),
        );
    }
    let host_pages = flag(flags, "host-pages", 0usize);
    if host_pages == 0 && flags.contains_key("swap-cost") {
        return Err("--swap-cost only takes effect with --host-pages > 0".into());
    }
    if shards <= 1 && flags.contains_key("ship-cost") {
        return Err("--ship-cost only takes effect with --shards > 1".into());
    }
    let swap_cost = flag(
        flags,
        "swap-cost",
        token_picker::accel::ServingConfig::DEFAULT_SWAP_COST_FACTOR,
    );
    let ship_cost = flag(flags, "ship-cost", 0.0f64);
    if !(0.0..=10.0).contains(&swap_cost) || !(0.0..=10.0).contains(&ship_cost) {
        return Err("--swap-cost/--ship-cost must be within [0, 10]".into());
    }
    let opts = ServeOpts {
        mode: if baseline_mode {
            AccelMode::Baseline
        } else {
            AccelMode::OutOfOrder
        },
        threshold: if baseline_mode {
            0.5
        } else {
            flag(flags, "threshold", 1e-3f64)
        },
        batch: flag(flags, "batch", 8usize),
        seed: flag(flags, "seed", 0u64),
        requests: flag(flags, "requests", 16u64),
        preemption: flags.contains_key("preemption"),
        page_size: flag(flags, "page-size", 16usize),
        retention,
        prefix_cache,
        // Prompt prefill is priced by default once the cache is on (the
        // saving is otherwise invisible), and free otherwise — matching
        // the engine's default.
        prefill_factor: flag(
            flags,
            "prefill-factor",
            if prefix_cache { 1.0 } else { 0.0 },
        ),
        shards,
        routing,
        stealing,
        prefill_chunk: flag(flags, "prefill-chunk", 0usize),
        slo_ttft: flags.get("slo-ttft").map(|v| v.parse()).transpose()?,
        slo_itl: flags.get("slo-itl").map(|v| v.parse()).transpose()?,
        host_pages,
        swap_cost,
        ship_cost,
        slo_reject: flags.contains_key("slo-reject"),
        threads,
        scenario,
        scenario_seed: flag(flags, "scenario-seed", 7u64),
        record: flags.get("record").cloned(),
    };
    let policy_flag = flags.get("policy").map_or("fifo", String::as_str);
    if opts.record.is_some() && policy_flag == "all" {
        return Err("--record requires a single --policy (not 'all')".into());
    }

    if flags.contains_key("real-tokens") {
        if shards > 1 {
            return Err("--real-tokens drives a single engine (not with --shards > 1)".into());
        }
        if opts.scenario.is_some() {
            return Err("--real-tokens uses the built-in workload (not with --scenario)".into());
        }
        if opts.record.is_some() {
            return Err(
                "--real-tokens cannot be combined with --record (the mirror drives the engine directly)"
                    .into(),
            );
        }
        if policy_flag == "all" {
            return Err("--real-tokens requires a single --policy (not 'all')".into());
        }
        let policy: PolicyKind = policy_flag.parse()?;
        return cmd_serve_real_tokens(&opts, policy);
    }

    if policy_flag == "all" {
        println!(
            "{:<20} {:>8} {:>12} {:>11} {:>10} {:>8} {:>10} {:>9} {:>11} {:>9} {:>8} {:>11}",
            "policy",
            "steps",
            "tokens/s",
            "mean TTFT",
            "mean wait",
            "steals",
            "imbalance",
            "preempts",
            "reprefill",
            "KV hits",
            "attain",
            "goodput"
        );
        for kind in PolicyKind::all() {
            let (meta, _, report) = serve_run(&opts, kind)?;
            println!(
                "{:<20} {:>8} {:>12.1} {:>11.2} {:>10.2} {:>8} {:>10.2} {:>9} {:>11} {:>9} {:>7.0}% {:>11.1}",
                report.policy,
                report.cluster_steps,
                report.tokens_per_second(meta.clock_hz),
                report.mean_ttft_steps(),
                report.mean_queue_wait_steps(),
                report.steals,
                report.load_imbalance(),
                report.preemptions(),
                report.total_reprefill_cycles(),
                report.total_prefix_hit_tokens(),
                100.0 * report.deadline_attainment(),
                report.goodput_tokens_per_second(meta.clock_hz)
            );
        }
        return Ok(());
    }

    let policy: PolicyKind = policy_flag.parse()?;
    let (meta, trace, report) = serve_run(&opts, policy)?;
    if let Some(kind) = opts.scenario {
        println!("scenario {} (seed {})", kind.name(), opts.scenario_seed);
    }
    print_serve_summary(&meta, &report);
    save_trace(&trace, opts.record.as_deref())?;
    Ok(())
}

/// `topick trace diff A B`: loads two trace files and localizes the first
/// diverging event (exit status 1 when the schedules differ, like `diff`).
fn cmd_trace(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use token_picker::accel::Trace;

    match args.first().map(String::as_str) {
        Some("diff") => {
            let (Some(path_a), Some(path_b)) = (args.get(1), args.get(2)) else {
                return Err("usage: topick trace diff <A> <B>".into());
            };
            let a = Trace::load(path_a)?;
            let b = Trace::load(path_b)?;
            println!(
                "A: {path_a} ({} requests, {} events, digest {:#018x})",
                a.requests.len(),
                a.events.len(),
                a.digest
            );
            println!(
                "B: {path_b} ({} requests, {} events, digest {:#018x})",
                b.requests.len(),
                b.events.len(),
                b.digest
            );
            match a.diff(&b) {
                None => {
                    println!("schedules identical");
                    Ok(())
                }
                Some(report) => {
                    print!("{report}");
                    Err("schedules diverge".into())
                }
            }
        }
        _ => Err("usage: topick trace diff <A> <B>".into()),
    }
}

fn usage() {
    println!("topick — Token-Picker (DAC 2024) reproduction driver");
    println!();
    println!("commands:");
    println!("  prune    run the progressive pruner on one synthetic instance");
    println!("           [--context N] [--dim D] [--threshold T] [--seed S]");
    println!("  sweep    threshold sweep on one instance");
    println!("           [--context N] [--dim D] [--seed S]");
    println!("  accel    cycle-level accelerator comparison");
    println!("           [--context N] [--threshold T] [--seed S]");
    println!("  traffic  Fig. 2-style memory traffic breakdown");
    println!("           [--model NAME] [--context N]");
    println!("  serve    continuous-batching serving engine");
    println!("           [--requests N] [--batch B] [--threshold T] [--seed S] [--baseline]");
    println!("           [--policy fifo|priority|sjf|fair|slo|all] [--preemption]");
    println!("           [--page-size P] [--retention none|<pages>|<fraction>]");
    println!("           [--prefix-cache] [--prefill-factor F] [--prefill-chunk PAGES]");
    println!("           [--slo-ttft STEPS] [--slo-itl STEPS] [--slo-reject]");
    println!("           [--host-pages N] [--swap-cost F] [--ship-cost F]");
    println!("           [--shards N] [--routing rr|least|affinity] [--stealing] [--threads N]");
    println!("           [--scenario NAME [--scenario-seed S]] [--list-scenarios]");
    println!("           [--record PATH | --replay PATH]");
    println!("           [--real-tokens]  serve real synth-model tokens from the paged KV store");
    println!("  trace    trace-file tooling");
    println!("           diff <A> <B>   localize the first diverging event of two traces");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let flags = parse_flags(&args[1.min(args.len())..]);
    let result = match cmd {
        "prune" => cmd_prune(&flags),
        "sweep" => cmd_sweep(&flags),
        "accel" => cmd_accel(&flags),
        "traffic" => cmd_traffic(&flags),
        "serve" => cmd_serve(&flags),
        "trace" => cmd_trace(&args[1..]),
        _ => {
            usage();
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
