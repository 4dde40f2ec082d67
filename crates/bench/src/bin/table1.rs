//! Regenerates Table I: optimization gain for the three implementation
//! patterns on the hierarchical machine of Fig. 1.
//!
//! Compiled with the full `occ` mid-end roster (see the `occ::opt`
//! module rustdoc: SCCP, GVN/CSE, store-to-load forwarding, DSE, DCE,
//! crossjumping).
//! Where the printed shape checks deviate from the paper's Table I —
//! the STT-smallest claim and the SP-vs-NS fine gain ordering — the
//! deviation is recorded and explained in EXPERIMENTS.md (entries 1
//! and 2).
//!
//! Run with `cargo run -p bench --bin table1`.

use bench::{matrix, GainRow};
use cgen::Pattern;
use umlsm::samples;

/// Paper Table I numbers (non-opt bytes, optimized bytes, rate) per
/// pattern.
fn paper_row(pattern: Pattern) -> (usize, usize, f64) {
    match pattern {
        Pattern::StateTable => (13885, 9607, 30.81),
        Pattern::NestedSwitch => (48764, 26379, 45.90),
        Pattern::StatePattern => (49863, 23663, 52.54),
    }
}

fn main() {
    let machine = samples::hierarchical_never_active();
    println!("=== Table I: optimization gain for three different patterns ===");
    println!("(hierarchical machine; compiled at -Os)\n");
    println!(
        "{:<16} {:>14} {:>14} {:>10}",
        "Pattern", "non-opt (B)", "optimized (B)", "rate"
    );
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for arm in matrix::arms_for("hierarchical", &machine) {
        let pattern = arm.pattern;
        let (pb, pa, pr) = paper_row(pattern);
        let row = match GainRow::measure(&arm.machine, pattern) {
            Ok(row) => row,
            Err(e) => {
                eprintln!("{:<16} ERROR: {e}", pattern.label());
                failures += 1;
                continue;
            }
        };
        println!(
            "{:<16} {:>14} {:>14} {:>9.2}%   (paper: {} -> {}, {:.2}%)",
            pattern.label(),
            row.before,
            row.after,
            row.gain(),
            pb,
            pa,
            pr
        );
        rows.push((pattern, row));
    }
    if failures > 0 {
        eprintln!("\n{failures} row(s) failed — table incomplete");
        std::process::exit(1);
    }

    println!("\nshape checks:");
    let stt = rows
        .iter()
        .find(|(p, _)| *p == Pattern::StateTable)
        .expect("stt row");
    let ns = rows
        .iter()
        .find(|(p, _)| *p == Pattern::NestedSwitch)
        .expect("ns row");
    let sp = rows
        .iter()
        .find(|(p, _)| *p == Pattern::StatePattern)
        .expect("sp row");
    check(
        "State Pattern largest in absolute bytes (paper: 49863 > 48764 > 13885)",
        sp.1.before > ns.1.before && sp.1.before > stt.1.before,
    );
    check(
        "every pattern gains significantly (> 10%)",
        rows.iter().all(|(_, r)| r.gain() > 10.0),
    );
    check(
        "gain order matches the paper: StatePattern > NestedSwitch > STT",
        sp.1.gain() > ns.1.gain() && ns.1.gain() > stt.1.gain(),
    );

    println!("\ndeviation notes (details + history in EXPERIMENTS.md):");
    println!("  * our STT pays one engine copy per region, so on hierarchical machines");
    println!("    it is not the absolute-smallest pattern; on the flat machine the");
    println!("    register-allocating backend restored the paper's STT-smallest claim");
    println!("    (entry 1);");
    println!("  * the fine SP-vs-NS gain ordering stays flipped vs the paper — the");
    println!("    robust half (inline-style gains beat the table-driven STT) holds");
    println!("    (entry 2).");
    println!("{}", bench::driver_summary());
}

fn check(label: &str, ok: bool) {
    println!("  [{}] {label}", if ok { "ok" } else { "MISS" });
}
