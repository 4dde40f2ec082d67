//! The bench-regression gate: measures every sample machine × pattern ×
//! level cell afresh and fails unless the snapshot text equals the
//! committed `bench_baseline.txt` line for line. Each differing fact is
//! printed as a `-` line (the baseline's) and a `+` line (the fresh
//! measurement's), so a change to any size, count, pass effect or
//! emitted instruction names itself in the log.
//!
//! Run with `cargo run --release -p bench --bin regress [-- <baseline>]`.
//! When every differing line is intended, refresh the baseline with the
//! `snapshot` binary and explain the refresh diff.

use bench::snapshot::{diff, Snapshot};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bench_baseline.txt".to_string());
    let baseline = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let current = match Snapshot::measure() {
        Ok(snap) => snap.to_text(),
        Err(e) => {
            eprintln!("measuring the snapshot failed: {e}");
            std::process::exit(1);
        }
    };
    println!("=== bench regression gate: fresh measurement (+) vs {path} (-) ===");
    let lines = diff(&baseline, &current);
    for line in &lines {
        println!("{line}");
    }
    println!("{}", bench::driver_summary());
    if !lines.is_empty() {
        eprintln!(
            "bench regression gate FAILED: {} line(s) differ",
            lines.len()
        );
        eprintln!("(if every line is an intended change, refresh the baseline:");
        eprintln!("  cargo run --release -p bench --bin snapshot -- {path})");
        std::process::exit(1);
    }
    println!(
        "bench regression gate passed: {} facts equal",
        current.lines().count()
    );
}
