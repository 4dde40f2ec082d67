//! Event-storm throughput for every machine × pattern × level cell, from
//! the shared [`occ::driver::parallel_map`] worker pool (this binary's
//! original hand-rolled pool, promoted into the driver in PR 9).
//!
//! Each cell gets two timed run-to-completion storms — one on the fast
//! engine, one on the reference oracle — plus the canonical deterministic
//! storm whose executed-instruction count joins the snapshot/regress gate
//! (reprinted here per cell so the timed and gated numbers can be read
//! side by side). Events/sec figures are informational (they move with
//! the host); the oracle column is the reference engine the fast engine
//! is measured against. A cell fails, and the run exits non-zero, when
//! the two timed storms disagree on events delivered, instructions
//! executed or extern calls made.
//!
//! Run with `cargo run --release -p bench --bin throughput`. Environment
//! knobs:
//!
//! * `BENCH_SMOKE=1` — shorten the timed storms to the canonical length
//!   (CI smoke stage);
//! * `BENCH_EVENTS=<n>` — explicit timed-storm length (a value that does
//!   not parse is an error).

use std::time::Instant;

use bench::matrix::{self, Arm};
use bench::throughput::{run_storm, CountingEnv, STORM_EVENTS};
use occ::vm::{FastVm, Vm};
use occ::OptLevel;

/// Timed-storm length when nothing overrides it: long enough to make the
/// per-storm setup noise irrelevant, short enough for a dev-loop run.
const DEFAULT_TIMED_EVENTS: usize = 8192;

struct Row {
    key: String,
    fast_eps: f64,
    oracle_eps: f64,
    dyn_insts: u64,
}

fn timed_events() -> Result<usize, String> {
    if let Some(events) = bench::env_knob("BENCH_EVENTS")? {
        return Ok(events);
    }
    if std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1") {
        return Ok(STORM_EVENTS);
    }
    Ok(DEFAULT_TIMED_EVENTS)
}

/// Measures all four levels of one machine × pattern arm (one generation
/// shared across levels, like the snapshot).
fn measure_job(arm: &Arm, events: usize) -> Result<Vec<Row>, String> {
    let generated = arm.generate().map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for level in OptLevel::all() {
        let artifact = arm.compile(level, &generated).map_err(|e| e.to_string())?;
        let key = format!("{}/{}", arm.key(), level.flag());

        let mut fast = FastVm::new(artifact.decoded(), CountingEnv::default());
        let started = Instant::now();
        let storm =
            run_storm(&mut fast, &generated.codes, events).map_err(|e| format!("{key}: {e}"))?;
        let fast_secs = started.elapsed().as_secs_f64();

        let mut oracle = Vm::new(artifact.assembly(), CountingEnv::default());
        let started = Instant::now();
        let oracle_storm =
            run_storm(&mut oracle, &generated.codes, events).map_err(|e| format!("{key}: {e}"))?;
        let oracle_secs = started.elapsed().as_secs_f64();

        // The two-engine contract of `occ::vm`, under storm load.
        let (fast_calls, oracle_calls) = (fast.env().calls, oracle.env().calls);
        if storm != oracle_storm || fast_calls != oracle_calls {
            return Err(format!(
                "{key}: engines disagree: fast engine {} events, {} dyn insts, {fast_calls} \
                 extern calls; oracle {} events, {} dyn insts, {oracle_calls} extern calls",
                storm.events, storm.dyn_insts, oracle_storm.events, oracle_storm.dyn_insts
            ));
        }

        // The gated number: the canonical storm on a fresh engine.
        let canonical = bench::throughput::canonical_storm(&artifact, &generated.codes)
            .map_err(|e| format!("{key}: {e}"))?;

        rows.push(Row {
            key,
            fast_eps: storm.events as f64 / fast_secs.max(1e-9),
            oracle_eps: storm.events as f64 / oracle_secs.max(1e-9),
            dyn_insts: canonical.dyn_insts,
        });
    }
    Ok(rows)
}

fn main() {
    let events = match timed_events() {
        Ok(events) => events,
        Err(e) => {
            eprintln!("ERROR: {e}");
            std::process::exit(2);
        }
    };
    let jobs = matrix::arms();

    // The shared worker pool (atomic job cursor + mpsc funnel) lives in
    // `occ::driver` now; `threads == 0` sizes it to the host.
    let results = occ::driver::parallel_map(&jobs, 0, |arm| measure_job(arm, events));

    let mut rows = Vec::new();
    let mut failed = false;
    for result in results {
        match result {
            Ok(mut r) => rows.append(&mut r),
            Err(e) => {
                eprintln!("cell failed: {e}");
                failed = true;
            }
        }
    }
    rows.sort_by(|a, b| a.key.cmp(&b.key));

    println!(
        "event-storm throughput ({events} timed events/cell; \
         dyn insts from the canonical {STORM_EVENTS}-event storm)"
    );
    println!(
        "  {:<40} {:>12} {:>12} {:>8} {:>12}",
        "cell", "fast ev/s", "oracle ev/s", "speedup", "dyn insts"
    );
    for r in &rows {
        println!(
            "  {:<40} {:>12.0} {:>12.0} {:>7.1}x {:>12}",
            r.key,
            r.fast_eps,
            r.oracle_eps,
            r.fast_eps / r.oracle_eps.max(1e-9),
            r.dyn_insts
        );
    }

    println!("{}", bench::driver_summary());
    if failed {
        std::process::exit(1);
    }
}
