//! Regenerates Figure 1: the impact of model optimization on assembly
//! size, for the flat machine with an unreachable state (row 1) and the
//! hierarchical machine with a never-active composite (row 2).
//!
//! Absolute byte counts come from the `occ` toolchain's full mid-end
//! roster (see the `occ::opt` module rustdoc) and EM32 backend, not
//! GCC/x86, so they differ from the paper throughout; the shape check
//! asserts the qualitative claim, and EXPERIMENTS.md records where a
//! qualitative claim deviates.
//!
//! Run with `cargo run -p bench --bin figure1`.

use bench::{optimize_model, pct_gain, BenchError, GainRow};
use cgen::Pattern;
use umlsm::samples;

fn main() {
    if let Err(e) = run() {
        eprintln!("ERROR: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), BenchError> {
    println!("=== Figure 1: model optimizations and their impact on assembly size ===");
    println!("(generated with Nested Switch, compiled at -Os; paper numbers for GCC 4.3.2/x86)\n");

    let flat = samples::flat_unreachable();
    let row = GainRow::measure(&flat, Pattern::NestedSwitch)?;
    println!("row 1: flat machine, unreachable state S2");
    let opt = optimize_model(&flat)?;
    println!("  model: {} -> {}", summary(&flat), summary(&opt));
    println!(
        "  assembly: {} -> {} bytes   gain {:.2}%   (paper: 12669 -> 11393, 10.07%)",
        row.before,
        row.after,
        row.gain()
    );

    let hier = samples::hierarchical_never_active();
    let row = GainRow::measure(&hier, Pattern::NestedSwitch)?;
    println!("\nrow 2: hierarchical machine, never-active composite S3");
    let opt = optimize_model(&hier)?;
    println!("  model: {} -> {}", summary(&hier), summary(&opt));
    println!(
        "  assembly: {} -> {} bytes   gain {:.2}%   (paper: > 45%)",
        row.before,
        row.after,
        row.gain()
    );

    let ok1 = pct_gain(row.before, row.after) > 30.0;
    println!(
        "\nshape check: hierarchical gain {} the paper's '>45%' ballpark",
        if ok1 { "matches" } else { "MISSES" }
    );
    println!("{}", bench::driver_summary());
    Ok(())
}

fn summary(m: &umlsm::StateMachine) -> String {
    let metrics = m.metrics();
    format!(
        "{} states / {} transitions",
        metrics.states, metrics.transitions
    )
}
