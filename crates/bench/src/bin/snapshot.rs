//! Writes the bench snapshot — sizes, register-allocation counters,
//! canonical-storm counts, warm-hit flag, assembly digest and per-pass
//! mid-end statistics for every sample machine × implementation pattern
//! × optimization level, one fact per line — to `bench_baseline.txt`,
//! the baseline the `regress` gate compares against.
//!
//! Run with `cargo run --release -p bench --bin snapshot [-- <path>]`.

use bench::snapshot::Snapshot;
use occ::OptLevel;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bench_baseline.txt".to_string());
    let snap = match Snapshot::measure() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("snapshot failed: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(&path, snap.to_text()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} cells to {path}", snap.cells.len());
    for cell in &snap.cells {
        if cell.level == OptLevel::Os {
            println!("  {:<40} {:>7} bytes", cell.key, cell.total);
        }
    }
    println!("{}", bench::driver_summary());
}
