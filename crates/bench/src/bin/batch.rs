//! CI batch-compile smoke: a cold and a warm pass of the in-memory
//! artifact cache over the full 48-cell benchmark matrix.
//!
//! Two timed [`occ::driver::Driver::compile_batch`] passes over
//! [`bench::matrix::batch_jobs`] through one driver session:
//!
//! 1. **cold** — a fresh driver: every cell is a real compile and
//!    nothing hits;
//! 2. **warm** — the same driver again: every cell must be a cache hit.
//!
//! The stage fails (nonzero exit) unless every cell compiles, the cold
//! pass hits nothing, and the warm pass reports a 100% hit rate and
//! beats the cold pass's machines/sec — the caching either works
//! wholesale or the gate trips. Its `cold session:` line splits the cold
//! compile into lower / opt / backend [vcode, regalloc, emit] / decode.
//!
//! Run with `cargo run --release -p bench --bin batch`.

use occ::driver::{BatchReport, Driver};

fn check(label: &str, ok: bool, failures: &mut usize) {
    println!("  [{}] {label}", if ok { "ok" } else { "FAIL" });
    if !ok {
        *failures += 1;
    }
}

fn report_pass(label: &str, report: &BatchReport, cells: usize, failures: &mut usize) {
    println!(
        "{label}: {}/{} cells in {:.1}ms ({:.0} machines/sec)",
        report.ok_count(),
        cells,
        report.wall.as_secs_f64() * 1e3,
        report.machines_per_sec()
    );
    check("every cell compiled", report.ok_count() == cells, failures);
}

fn main() {
    let jobs = match bench::matrix::batch_jobs() {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("matrix generation failed: {e}");
            std::process::exit(1);
        }
    };
    let cells = jobs.len();
    println!("=== batch-compile smoke: {cells}-cell matrix, cold vs warm ===");
    let mut failures = 0usize;
    check("matrix is the full 48 cells", cells == 48, &mut failures);

    let driver = Driver::new();
    let cold = driver.compile_batch(&jobs, 0);
    report_pass("cold pass", &cold, cells, &mut failures);
    let cold_stats = driver.stats();
    // Concurrent workers may race a duplicate compile of the same key
    // (benign, byte-identical), so misses can exceed the distinct-job
    // count but hits must stay zero on a cold cache.
    check(
        "cold pass hit nothing",
        cold_stats.hits() == 0,
        &mut failures,
    );

    let warm = driver.compile_batch(&jobs, 0);
    report_pass("warm pass", &warm, cells, &mut failures);
    let hits = driver.stats().hits() - cold_stats.hits();
    println!(
        "  {} of {} cells served from the cache ({:.0}% hit rate)",
        hits,
        cells,
        100.0 * hits as f64 / cells as f64
    );
    check("warm hit rate is 100%", hits == cells, &mut failures);
    check(
        "warm beats cold machines/sec",
        warm.machines_per_sec() > cold.machines_per_sec(),
        &mut failures,
    );

    println!("cold session:  {}", cold_stats.render());
    if failures > 0 {
        eprintln!("batch-compile smoke FAILED ({failures} check(s))");
        std::process::exit(1);
    }
    println!("batch-compile smoke passed.");
}
