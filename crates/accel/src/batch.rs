//! The shared half of a batched generation step's cost — the paper's
//! motivation (§2.2.1).
//!
//! In a batched generation step, the FC/FFN weights are streamed from DRAM
//! once and shared by all `B` requests, while each request streams its own
//! KV cache through the attention unit. The attention share of the step
//! therefore grows with `B`, and that is precisely the share Token-Picker
//! shrinks. This module prices the weight stream analytically at the
//! accelerator's DRAM bandwidth; the serving engine
//! ([`ServingEngine`](crate::serve::ServingEngine)) adds the measured
//! per-request attention cost on top, so every batched-step figure comes
//! from one serving run.

use crate::config::AccelConfig;

/// Accelerator cycles spent streaming `weight_bytes` of FC/FFN weights at
/// the DRAM peak bandwidth — the per-step cost every request in a batch
/// shares. Factored out so the serving engine prices steps with the same
/// model the batch simulation uses.
#[must_use]
pub fn weight_stream_cycles(accel_cfg: &AccelConfig, weight_bytes: u64) -> u64 {
    // Weights stream at peak DRAM bandwidth: bytes / (bytes-per-accel-cycle).
    let bytes_per_dram_cycle = f64::from(accel_cfg.dram.bus_bits) / 8.0
        * accel_cfg.dram.channels as f64
        / accel_cfg.dram.t_burst as f64
        * 2.0; // two transfer clocks per burst move access_bytes
    let bytes_per_accel_cycle = bytes_per_dram_cycle * accel_cfg.clock_ratio as f64;
    (weight_bytes as f64 / bytes_per_accel_cycle).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelMode;
    use crate::serve::{ServingEngine, ServingReport, ServingRequest};

    /// Serves `batch` requests of `prompt` tokens for `tokens` decode steps
    /// each, all admitted together, and returns the report. Prefill stays
    /// unpriced, so every step is one batched decode iteration: the shared
    /// weight stream plus each request's attention at its own context.
    fn serve_batch(
        accel: AccelConfig,
        weight_bytes: u64,
        heads: usize,
        batch: usize,
        prompt: usize,
        tokens: usize,
    ) -> ServingReport {
        let mut engine = ServingEngine::builder(accel)
            .weight_bytes(weight_bytes)
            .heads(heads)
            .max_batch(batch)
            .max_batch_tokens(batch * (prompt + tokens).next_multiple_of(16))
            .seed(7)
            .record_events(false)
            .build();
        for id in 0..batch as u64 {
            engine
                .enqueue(ServingRequest::new(id, prompt, tokens))
                .expect("valid request");
        }
        let report = engine.run_to_completion(tokens + 1).expect("completes");
        assert!(report.steps.iter().all(|s| s.batch == batch));
        report
    }

    fn attention_share(report: &ServingReport) -> f64 {
        report.total_attention_cycles() as f64 / report.total_cycles as f64
    }

    #[test]
    fn attention_fraction_grows_with_batch() {
        let mut prev_frac = 0.0;
        for batch in [1usize, 2, 4, 8] {
            // ~0.1B params at 16-bit.
            let r = serve_batch(AccelConfig::baseline(), 200_000_000, 4, batch, 256, 1);
            let frac = attention_share(&r);
            assert!(
                frac > prev_frac,
                "batch {batch}: fraction {frac} not growing"
            );
            prev_frac = frac;
        }
    }

    #[test]
    fn topick_speedup_grows_with_batch() {
        let tp_cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap();
        let mut prev_speedup = 0.0;
        for batch in [1usize, 4, 16] {
            // `heads` covers all layers x heads of a request (the attention
            // work one request contributes per step).
            let base = serve_batch(AccelConfig::baseline(), 50_000_000, 64, batch, 512, 1);
            let tp = serve_batch(tp_cfg.clone(), 50_000_000, 64, batch, 512, 1);
            let speedup = base.total_cycles as f64 / tp.total_cycles as f64;
            assert!(
                speedup > prev_speedup,
                "batch {batch}: speedup {speedup} not growing (prev {prev_speedup})"
            );
            prev_speedup = speedup;
        }
        // At large batch the step is attention-dominated; speedup should be
        // a solid fraction of the pure-attention speedup (>1.5x).
        assert!(prev_speedup > 1.5, "large-batch speedup {prev_speedup}");
    }

    #[test]
    fn weight_streaming_cost_scales_with_bytes() {
        let cfg = AccelConfig::baseline();
        let small = serve_batch(cfg.clone(), 1_000_000, 2, 1, 128, 1).steps[0];
        let large = serve_batch(cfg.clone(), 10_000_000, 2, 1, 128, 1).steps[0];
        assert_eq!(small.weight_cycles, weight_stream_cycles(&cfg, 1_000_000));
        assert!(large.weight_cycles > 9 * small.weight_cycles);
        assert_eq!(small.attention_cycles, large.attention_cycles);
    }

    #[test]
    fn one_request_run_aggregates_every_decode_step() {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap();
        let r = serve_batch(accel, 0, 2, 1, 32, 4);
        // One attention simulation per decode step, at the request's
        // context that step: the prompt plus the tokens generated so far.
        let contexts: Vec<usize> = r.steps.iter().map(|s| s.context_tokens).collect();
        assert_eq!(contexts, [32, 33, 34, 35]);
        assert_eq!(r.prune.tokens, contexts.iter().sum::<usize>());
        assert_eq!(r.tokens_generated, 4);
        assert!(r.total_cycles > 0);
        // With no weights to stream, the run is its attention work.
        assert_eq!(r.total_cycles, r.total_attention_cycles());
    }

    #[test]
    fn baseline_generation_is_slower_than_topick_generation() {
        // Contexts must be long enough for out-of-order execution to have
        // something to overlap (the paper evaluates at 1024-2048); with a
        // handful of tokens per lane the round-trip latency dominates.
        let run = |mode| serve_batch(AccelConfig::paper(mode, 1e-3).unwrap(), 0, 1, 1, 256, 2);
        let base = run(AccelMode::Baseline);
        let topick = run(AccelMode::OutOfOrder);
        assert!(topick.total_cycles < base.total_cycles);
        assert!(topick.mean_step_cycles() < base.mean_step_cycles());
    }
}
