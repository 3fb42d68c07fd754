//! The metric catalogue and the result line the benchmark ends with.

use std::collections::BTreeMap;

use topick_bench::json::{JsonObject, JsonValue};

/// End-to-end metrics, printed by an untraced run: host time (the serving
/// thread's CPU time at reference speed, see [`crate::clock`]) first, then
/// the modeled figures of the simulated 500 MHz accelerator.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("cpu_tokens_per_s", "tokens/s"),
    ("step_cpu_ms_p50", "ms"),
    ("step_cpu_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_requests_ratio", "ratio"),
    ("modeled_tokens_per_s", "tokens/s"),
    ("modeled_ttft_p50_ms", "ms"),
    ("modeled_ttft_tail_ms", "ms"),
    ("modeled_itl_p50_ms", "ms"),
    ("modeled_itl_tail_ms", "ms"),
    ("modeled_slo_attainment", "ratio"),
    ("v_reduction", "x"),
];

/// Per-layer metrics, printed by a traced run. Layers are named after the
/// crates and modules they measure.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("model.synth.ms", "ms"),
    ("model.synth.calls", "count"),
    ("core.quant.ms", "ms"),
    ("core.quant.calls", "count"),
    ("accel.engine.ms", "ms"),
    ("accel.engine.calls", "count"),
    ("accel.engine.kv_bytes_per_token", "bytes"),
    ("accel.engine.kept_share", "ratio"),
    ("accel.serve.self_ms", "ms"),
    ("accel.serve.batch_mean", "requests"),
    ("accel.serve.queue_wait_steps_mean", "steps"),
    ("accel.serve.preemptions", "count"),
    ("accel.serve.rejections", "count"),
    ("kv_pager.prefix_hit_rate", "ratio"),
    ("kv_pager.occupancy_mean", "ratio"),
    ("kv_pager.fragmented_tokens_mean", "tokens"),
    ("kv_pager.host_pages_peak", "pages"),
    ("kv_pager.reprefilled_tokens", "tokens"),
    ("kv_pager.swapped_tokens", "tokens"),
    ("cluster.self_ms", "ms"),
    ("cluster.steals", "count"),
    ("cluster.ships", "count"),
    ("cluster.load_imbalance", "ratio"),
    ("token_backed.ms", "ms"),
    ("token_backed.check_ms", "ms"),
    ("token_backed.measured_build_cycles", "cycles"),
    ("token_backed.measured_decode_cycles", "cycles"),
    ("token_backed.peak_shared_pages", "pages"),
    ("modeled.weight_share", "ratio"),
    ("modeled.attention_share", "ratio"),
    ("modeled.prefill_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// The outcome of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Requests sent, over every pass.
    pub attempted: usize,
    /// Requests that failed a check, plus failed run-level checks.
    pub failed: usize,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `catalogue` with its unit.
    ///
    /// # Panics
    ///
    /// Panics if a catalogued metric is missing or not a finite number,
    /// which would be a bug in the benchmark.
    #[must_use]
    pub fn result_line(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut metrics = JsonObject::new();
        for &(name, unit) in catalogue {
            let value = self.metrics[name];
            assert!(value.is_finite(), "metric {name} is {value}");
            metrics = metrics.field(
                name,
                JsonObject::new()
                    .field("value", JsonValue::Num(value))
                    .field("unit", unit),
            );
        }
        let doc = JsonObject::new()
            .field("correct", self.failed == 0)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics);
        // The renderer pretty-prints; string values never span lines, so
        // joining the trimmed lines gives the same document on one line.
        doc.render().lines().map(str::trim_start).collect()
    }
}
