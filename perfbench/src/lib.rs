//! The repository benchmark: named workloads served through the crates'
//! public API, end-to-end metrics from untraced runs and a per-layer split
//! from a separate traced run. See `perfbench/README.md`.

pub mod clock;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
