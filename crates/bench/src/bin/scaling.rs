//! Regenerates the §III.C scaling claim: "this gain is proportional to the
//! number of removed states/transitions".
//!
//! Sweeps the number of unreachable states appended to a live core and
//! reports the size gain per pattern, compiled through the full `occ`
//! mid-end roster (see the `occ::opt` module rustdoc; qualitative
//! deviations from the paper are recorded in EXPERIMENTS.md). Run with
//! `cargo run -p bench --bin scaling`; CI's bench smoke runs the same
//! full sweep.

use bench::{matrix, GainRow};
use cgen::Pattern;
use umlsm::samples;

fn main() {
    println!("=== Scaling: gain vs number of removed (unreachable) states ===");
    println!("(compiled at -Os; gain of model optimization per pattern)\n");
    println!(
        "{:>5} {:>12} {:>12} {:>12}",
        "dead", "STT", "NestedSwitch", "StatePattern"
    );
    let mut ns_gains = Vec::new();
    let mut failures = 0usize;
    for k in [0, 1, 2, 4, 6, 8, 10, 12] {
        let machine = samples::flat_with_unreachable(k);
        let mut cells = Vec::new();
        for arm in matrix::arms_for(&format!("flat+{k}"), &machine) {
            match GainRow::measure(&arm.machine, arm.pattern) {
                Ok(row) => {
                    cells.push(format!("{:>11.1}%", row.gain()));
                    if arm.pattern == Pattern::NestedSwitch {
                        ns_gains.push(row.gain());
                    }
                }
                Err(e) => {
                    cells.push(format!("{:>12}", "ERROR"));
                    eprintln!("  ERROR: {e}");
                    failures += 1;
                }
            }
        }
        println!("{k:>5} {} {} {}", cells[0], cells[1], cells[2]);
    }
    if failures > 0 {
        eprintln!("\n{failures} cell(s) failed — sweep incomplete");
        std::process::exit(1);
    }

    let monotone = ns_gains.windows(2).all(|w| w[1] >= w[0] - 0.5);
    println!(
        "\nshape check: gain grows with removed states (NestedSwitch): {}",
        if monotone { "ok" } else { "MISS" }
    );

    // Ablation: the semantic variation point. Under completion-as-fallback
    // semantics the hierarchical machine's composite is reachable, so the
    // optimizer must not remove it and the gain collapses to (almost) zero.
    let normal = samples::hierarchical_never_active();
    let mut fallback = samples::hierarchical_never_active();
    fallback.set_semantics(umlsm::Semantics::completion_as_fallback());
    let (normal_states, fb_states) = match (
        bench::optimize_model(&normal),
        bench::optimize_model(&fallback),
    ) {
        (Ok(n), Ok(f)) => (n.metrics().states, f.metrics().states),
        (n, f) => {
            for e in [n.err(), f.err()].into_iter().flatten() {
                eprintln!("  ERROR: {e}");
            }
            std::process::exit(1);
        }
    };
    println!("\nablation (semantic variation point):");
    println!(
        "  completion-priority semantics: optimizer leaves {} of {} states",
        normal_states,
        normal.metrics().states
    );
    println!(
        "  completion-as-fallback:        optimizer leaves {} of {} states",
        fb_states,
        fallback.metrics().states
    );
    println!(
        "  shape check: fallback semantics blocks the composite removal: {}",
        if fb_states > normal_states {
            "ok"
        } else {
            "MISS"
        }
    );
    println!("{}", bench::driver_summary());
}
