//! Coverage-guided differential fuzz smoke over the whole toolchain.
//!
//! Runs a deterministic-seed corpus of generated machines
//! ([`umlsm::gen`]) through the full differential matrix
//! ([`bench::fuzz`]): model interpreter oracle vs `tlang` reference
//! interpreter vs compiled EM32 on both engines, every implementation
//! pattern × every optimization level, with coverage-guided event
//! sequences evolved per case. Then pits guided evolution against pure
//! random at the same budget (the coverage duel) and fails unless the
//! guided set strictly dominates.
//!
//! Exit is nonzero on any divergence or a lost duel. Knobs via
//! `FUZZ_CASES` / `FUZZ_SEED` / `FUZZ_THREADS` / `FUZZ_SECS`;
//! `FUZZ_PROMOTE=1` writes shrunk findings into `tests/regressions/`
//! for `tests/fuzz_regressions.rs` to replay forever.
//!
//! `cargo run --release -p bench --bin fuzz -- emit-samples` instead
//! re-serializes the five sample machines (with their canonical event
//! sequences) into `tests/regressions/` — the corpus seed population.
//!
//! Run with `cargo run --release -p bench --bin fuzz`.

use std::path::PathBuf;

use bench::fuzz;

/// `tests/regressions/` at the workspace root, independent of the CWD
/// the bin is launched from.
fn regressions_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/regressions")
}

fn emit_samples() {
    let dir = regressions_dir();
    std::fs::create_dir_all(&dir).expect("create tests/regressions");
    for (name, text) in fuzz::sample_regressions() {
        let path = dir.join(format!("{name}.sm"));
        std::fs::write(&path, text).expect("write regression file");
        println!("wrote {}", path.display());
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("emit-samples") {
        emit_samples();
        return;
    }

    let cfg = match fuzz::config_from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("ERROR: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "=== differential fuzz: {} cases from seed {} (3 patterns × 4 levels per case{}) ===",
        cfg.cases,
        cfg.seed,
        cfg.time_budget
            .map(|d| format!(", {}s budget", d.as_secs()))
            .unwrap_or_default()
    );
    let report = fuzz::run_fuzz(&cfg);
    println!(
        "ran {} cases / {} compiled cells / {} sequences",
        report.cases_run, report.cells, report.sequences
    );

    let promote = std::env::var("FUZZ_PROMOTE").as_deref() == Ok("1");
    for d in &report.divergences {
        eprintln!(
            "DIVERGENCE seed {} stage {}{}{}: {}",
            d.seed,
            d.stage,
            d.pattern.map(|p| format!(" {p}")).unwrap_or_default(),
            d.level.map(|l| format!(" {l}")).unwrap_or_default(),
            d.detail
        );
        eprintln!("{}", d.regression_file());
        if promote {
            let dir = regressions_dir();
            std::fs::create_dir_all(&dir).expect("create tests/regressions");
            let path = dir.join(format!("fz{:016x}.sm", d.seed));
            std::fs::write(&path, d.regression_file()).expect("write regression file");
            eprintln!("promoted to {}", path.display());
        }
    }

    let duel = match fuzz::coverage_duel(192) {
        Ok(duel) => duel,
        Err(e) => {
            eprintln!("coverage duel failed to build its cell: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "coverage duel: guided {} ops vs random {} ops at {} runs each ({} ops guided-only)",
        duel.guided, duel.random, duel.budget, duel.guided_only
    );
    println!("{}", bench::driver_summary());

    let mut failed = false;
    if !report.divergences.is_empty() {
        eprintln!(
            "fuzz smoke FAILED: {} divergence(s){}",
            report.divergences.len(),
            if promote {
                " (promoted to tests/regressions/)"
            } else {
                " (rerun with FUZZ_PROMOTE=1 to write regression files)"
            }
        );
        failed = true;
    }
    if duel.guided_only == 0 || duel.guided <= duel.random {
        eprintln!("fuzz smoke FAILED: coverage-guided evolution did not dominate pure random");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("fuzz smoke passed.");
}
