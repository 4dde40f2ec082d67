//! Regenerates the §VI proposal: the two-step optimization approach,
//! comparing all four pipeline modes (baseline, compiler-only, model-only,
//! two-step) across the three patterns.
//!
//! "Compiler-level" here means the full `occ` mid-end roster at `-Os`
//! (see the `occ::opt` module rustdoc); the asserted shape — two-step
//! at least as small as either single step — is back-end-independent,
//! and EXPERIMENTS.md records the places where finer orderings are not.
//!
//! Run with `cargo run -p bench --bin twostep`.

use bench::{assembly_size, matrix, optimize_model};
use occ::OptLevel;
use umlsm::samples;

fn main() {
    println!("=== Two-step optimization (model level + compiler level) ===");
    println!("(hierarchical machine; bytes of text+rodata+data)\n");
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>12}",
        "Pattern", "baseline", "compiler -Os", "model only", "two-step"
    );
    let machine = samples::hierarchical_never_active();
    let optimized = optimize_model(&machine).unwrap_or_else(|e| {
        eprintln!("  ERROR {e}");
        std::process::exit(1);
    });
    // The four modes in column order: which machine, at which level.
    let modes = [
        (&machine, OptLevel::O0),
        (&machine, OptLevel::Os),
        (&optimized, OptLevel::O0),
        (&optimized, OptLevel::Os),
    ];
    let mut failures = 0usize;
    for arm in matrix::arms_for("hierarchical", &machine) {
        let pattern = arm.pattern;
        let cells: Result<Vec<usize>, _> = modes
            .iter()
            .map(|(m, level)| assembly_size(m, pattern, *level).map(|s| s.total()))
            .collect();
        let cells = match cells {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("  ERROR {e}");
                failures += 1;
                continue;
            }
        };
        println!(
            "{:<16} {:>12} {:>14} {:>12} {:>12}",
            pattern.label(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
        assert!(
            cells[3] <= cells[1] && cells[3] <= cells[2],
            "{pattern}: two-step must be at least as small as either single step"
        );
    }
    if failures > 0 {
        eprintln!("\n{failures} cell(s) failed — table incomplete");
        std::process::exit(1);
    }
    println!("\nshape check: two-step <= min(compiler-only, model-only) for every pattern: ok");
    println!("(the paper's point: the two levels compose — model optimization reuses the");
    println!(" compiler's optimizations as they are, and each removes waste the other cannot)");
    println!("{}", bench::driver_summary());
}
