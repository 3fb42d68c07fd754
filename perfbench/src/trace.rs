//! In-memory spans for the traced run, and the same-shape kernel replay
//! that gives each serving step its child spans.
//!
//! The engines expose no span boundaries inside `step()`, so the traced run
//! re-issues every attention call a step made (known from its
//! `TokenGenerated` / `PrefillChunk` events: request id and context)
//! through the same public kernels the engine calls: `SynthInstance::generate`,
//! the query and key quantization, then `ToPickAccelerator::run_attention`,
//! on inputs of the same shape (profile, context, head dimension and
//! precision). The replay draws its own synthetic rows, not the engine's,
//! and runs after the step it mirrors; the step's self time is its wall
//! time minus its replayed children.

use std::fmt::Write as _;
use std::time::Instant;

use topick_accel::{AccelConfig, KvPager, ToPickAccelerator};
use topick_core::{CoreError, PrecisionConfig, QVector, QuantBuffer};
use topick_model::{SynthInstance, SynthProfile};

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Index of the causing span in the trace, if any.
    pub parent: Option<usize>,
    /// The request the span served, if it served one.
    pub request: Option<u64>,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span names, one per layer boundary.
pub mod names {
    /// `ServingEngine::step`.
    pub const STEP: &str = "accel.serve.step";
    /// `ClusterEngine::step`.
    pub const CLUSTER_STEP: &str = "accel.serve.cluster.step";
    /// `TokenBackedBatch::apply_all`.
    pub const APPLY_ALL: &str = "accel.serve.token_backed.apply_all";
    /// Replayed `SynthInstance::generate`.
    pub const SYNTH: &str = "model.synth";
    /// Replayed query and key quantization.
    pub const QUANT: &str = "core.quant";
    /// Replayed `ToPickAccelerator::run_attention`.
    pub const ENGINE: &str = "accel.engine";
}

/// The traced run's recorder: spans, the replay kernels, and KV pager
/// samples taken after every step.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    accel: ToPickAccelerator,
    dim: usize,
    precision: PrecisionConfig,
    key_buf: QuantBuffer,
    /// Allocated over total pages, one sample per step and shard.
    pub occupancy: Vec<f64>,
    /// Tokens lost to partly filled pages, one sample per step and shard.
    pub fragmented: Vec<f64>,
    /// Largest host-tier page count seen on any shard.
    pub host_pages_peak: usize,
}

impl Tracer {
    /// A tracer replaying kernels under the engine's accelerator config.
    #[must_use]
    pub fn new(accel: &AccelConfig) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            accel: ToPickAccelerator::new(accel.clone()),
            dim: accel.dim,
            precision: accel.precision,
            key_buf: QuantBuffer::new(),
            occupancy: Vec::new(),
            fragmented: Vec::new(),
            host_pages_peak: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span over `[start, end]`, returning its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let span = Span {
            name,
            parent,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Samples every shard's KV pager.
    pub fn sample_pagers<'a>(&mut self, pagers: impl Iterator<Item = &'a KvPager>) {
        for pager in pagers {
            let total = pager.total_pages().max(1) as f64;
            self.occupancy.push(pager.allocated_pages() as f64 / total);
            self.fragmented.push(pager.fragmented_tokens() as f64);
            self.host_pages_peak = self.host_pages_peak.max(pager.host_pages_used());
        }
    }

    /// Replays one attention call of request `id` at context `ctx` as
    /// children of span `parent`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn replay(&mut self, parent: usize, id: u64, ctx: usize) -> Result<(), CoreError> {
        let seed = id.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ (ctx as u64).rotate_left(29);
        let t0 = Instant::now();
        let inst = SynthInstance::generate(&SynthProfile::realistic(ctx, self.dim), seed);
        let t1 = Instant::now();
        let q = QVector::quantize(&inst.query, self.precision);
        let keys = self
            .key_buf
            .quantize(inst.keys().data(), self.dim, self.precision)?;
        let t2 = Instant::now();
        let result = self.accel.run_attention(&q, &keys, inst.values());
        let t3 = Instant::now();
        self.key_buf.reclaim(keys);
        std::hint::black_box(result?.cycles);
        self.record(names::SYNTH, t0, t1, Some(parent), Some(id));
        self.record(names::QUANT, t1, t2, Some(parent), Some(id));
        self.record(names::ENGINE, t2, t3, Some(parent), Some(id));
        Ok(())
    }

    /// Total milliseconds and count of the spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + 1))
    }

    /// Self time of the spans named `name`: their total minus the time of
    /// their children.
    #[must_use]
    pub fn self_ms(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(Span::ms)
            .sum();
        self.total(name).0 - children
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\":{i},\"name\":\"{}\"", s.name);
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p},\"replay\":true");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            let _ = writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topick_accel::AccelMode;

    #[test]
    fn self_time_subtracts_children() {
        let cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let mut t = Tracer::new(&cfg);
        let a = Instant::now();
        let b = a + std::time::Duration::from_millis(10);
        let step = t.record(names::STEP, a, b, None, None);
        t.replay(step, 3, 64).expect("replay runs");
        let children: Vec<(f64, usize)> = [names::SYNTH, names::QUANT, names::ENGINE]
            .iter()
            .map(|n| t.total(n))
            .collect();
        assert!(children.iter().all(|&(_, calls)| calls == 1));
        let replay: f64 = children.iter().map(|&(ms, _)| ms).sum();
        assert!((t.self_ms(names::STEP) - (10.0 - replay)).abs() < 1e-9);
        assert_eq!(t.self_ms(names::SYNTH), t.total(names::SYNTH).0);
        assert_eq!(t.to_json_lines().lines().count(), 4);
    }
}
