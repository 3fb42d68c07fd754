//! Design-space exploration: how the ToPick speedup responds to the
//! architectural knobs — PE lane count, scoreboard depth, DRAM channels —
//! measured as a 1-request serving run.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use token_picker::accel::{AccelConfig, AccelMode, ServingEngine, ServingRequest};

/// Total cycles of one request with a 512-token prompt generating two
/// tokens over two attention heads. No FC/FFN weights are streamed, so
/// the figure is the run's attention work alone.
fn run_with(mutate: impl FnOnce(&mut AccelConfig)) -> Result<u64, Box<dyn std::error::Error>> {
    let mut accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
    mutate(&mut accel);
    let mut engine = ServingEngine::builder(accel)
        .heads(2)
        .weight_bytes(0)
        .seed(11)
        .record_events(false)
        .build();
    engine.enqueue(ServingRequest::new(0, 512, 2))?;
    Ok(engine.run_to_completion(8)?.total_cycles)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("knob sweeps (total cycles for a 2-step, 2-head run at context 512)\n");

    println!("PE lanes:");
    for lanes in [4usize, 8, 16, 32] {
        let cycles = run_with(|c| c.lanes = lanes)?;
        println!("  {lanes:>3} lanes      -> {cycles:>7} cycles");
    }

    println!("scoreboard entries per lane:");
    for sb in [1usize, 4, 8, 32] {
        let cycles = run_with(|c| c.scoreboard_entries = sb)?;
        println!("  {sb:>3} entries    -> {cycles:>7} cycles");
    }

    println!("DRAM channels:");
    for ch in [2usize, 4, 8] {
        let cycles = run_with(|c| c.dram.channels = ch)?;
        println!("  {ch:>3} channels   -> {cycles:>7} cycles");
    }

    println!();
    println!("(the paper's 16 lanes saturate 8 HBM2 channels; fewer channels starve the lanes)");
    Ok(())
}
