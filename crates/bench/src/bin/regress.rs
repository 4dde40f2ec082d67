//! The bench-regression gate: compares the current toolchain's snapshot
//! against the committed `bench_baseline.json` and exits nonzero on any
//! per-cell size regression beyond the tolerance — totals and the
//! `text`/`rodata` sections individually — on cell-set drift in either
//! direction (a lost baseline cell or an unbaselined new cell), on a
//! cell whose total pass runs grew beyond the tolerance (a fixed point
//! that stopped converging), on any pass whose `changes` silently
//! dropped to zero across the whole matrix, and on any cell whose
//! assembly digest differs from the baseline's (same sizes, different
//! code). A mid-end change that erodes
//! the paper's size numbers, drops coverage, slows the fixed point or
//! quietly disables a pass fails CI instead of waiting for the next
//! manual table regeneration.
//!
//! Run with `cargo run -p bench --bin regress [-- <baseline> [current]]`.
//! A current-snapshot path, when given, is compared as-is (CI passes the
//! `BENCH_PR3.json` that `bench --bin snapshot` just wrote); without one,
//! a fresh snapshot is measured in-process, and the shared driver
//! session's summary line follows the verdicts. A snapshot file that is
//! not named is never read, so one left over from an earlier run cannot
//! stand in for the measurement. A file missing any field `snapshot`
//! writes is rejected, naming the field.

use bench::snapshot::{compare, Snapshot};

fn load(path: &str) -> Snapshot {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match Snapshot::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let baseline_path = args
        .next()
        .unwrap_or_else(|| "bench_baseline.json".to_string());
    let current_path = args.next();

    let baseline = load(&baseline_path);
    let current = match &current_path {
        Some(p) => load(p),
        None => match Snapshot::measure() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("measuring current snapshot failed: {e}");
                std::process::exit(1);
            }
        },
    };

    println!(
        "=== bench regression gate: {} vs {} ===",
        current_path.as_deref().unwrap_or("<fresh measurement>"),
        baseline_path
    );
    let verdicts = compare(&baseline, &current);
    let mut regressions = 0usize;
    let mut shown = 0usize;
    for v in &verdicts {
        if v.is_regression() {
            regressions += 1;
            println!("{}", v.render());
        } else if !matches!(v, bench::snapshot::Verdict::Ok { .. }) {
            println!("{}", v.render());
            shown += 1;
        }
    }
    let ok = verdicts.len() - regressions - shown;
    println!(
        "{} checks: {ok} ok, {shown} tolerated, {regressions} regressed",
        verdicts.len()
    );
    if current_path.is_none() {
        println!("{}", bench::driver_summary());
    }
    if regressions > 0 {
        eprintln!("bench regression gate FAILED ({regressions} regressed check(s))");
        eprintln!("(if every regressed check is an intended change, refresh the baseline:");
        eprintln!("  cargo run --release -p bench --bin snapshot -- bench_baseline.json)");
        std::process::exit(1);
    }
    println!("bench regression gate passed.");
}
