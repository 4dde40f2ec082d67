//! Regenerates the §III.C dead-code experiment: "in the dead code
//! elimination file, we have found that code related to the unreachable
//! state still exists".
//!
//! Compiles the flat machine at every optimization level and probes whether
//! the unreachable state's functions survive; then shows that model-level
//! optimization removes them before the compiler ever sees them.
//! Dead-function elimination (see the `occ::opt` module rustdoc) keeping
//! the address-taken handlers is the paper's §III.C point, at every level.
//! Run with `cargo run -p bench --bin deadcode`.

use bench::{compile_artifact, matrix, optimize_model};
use occ::OptLevel;
use umlsm::samples;

fn main() {
    println!("=== Dead code: compiler DCE vs model-level optimization ===\n");
    let machine = samples::flat_unreachable();
    let s2_functions = ["enter_S2", "exit_S2"];
    let mut failures = 0usize;

    for arm in matrix::arms_for("flat", &machine) {
        let pattern = arm.pattern;
        println!("pattern {}:", pattern.label());
        let generated = match arm.generate() {
            Ok(g) => g,
            Err(e) => {
                eprintln!("  ERROR: {e}");
                failures += 1;
                continue;
            }
        };
        for level in OptLevel::all() {
            let artifact = match arm.compile(level, &generated) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("  {:>4}: ERROR: {e}", level.flag());
                    failures += 1;
                    continue;
                }
            };
            let survivors: Vec<&str> = s2_functions
                .iter()
                .copied()
                .filter(|f| artifact.surviving_functions().iter().any(|s| s == f))
                .collect();
            let s2_bytes: usize = artifact
                .assembly()
                .function_sizes()
                .iter()
                .filter(|(name, _)| name.contains("S2"))
                .map(|(_, bytes)| *bytes)
                .sum();
            if survivors.is_empty() {
                // Inline-style patterns carry S2 as a dispatch case arm, not
                // as named functions; the byte delta below shows it is kept.
                println!(
                    "  {:>4}: total {:>6} bytes; S2 code inlined in its dispatch case — the compiler cannot prove it dead",
                    level.flag(),
                    artifact.sizes().total(),
                );
            } else {
                println!(
                    "  {:>4}: total {:>6} bytes; S2 code kept: {:?} ({} bytes) — the compiler cannot prove S2 dead",
                    level.flag(),
                    artifact.sizes().total(),
                    survivors,
                    s2_bytes
                );
            }
        }
        // Now the model-level step.
        match optimize_model(&machine)
            .and_then(|optimized| compile_artifact(&optimized, pattern, OptLevel::Os))
        {
            Ok(artifact) => {
                let any_s2 = artifact
                    .surviving_functions()
                    .iter()
                    .any(|f| f.contains("S2"));
                println!(
                    "  model-opt + -Os: total {:>6} bytes; S2 code present: {} — removed at the model level\n",
                    artifact.sizes().total(),
                    any_s2
                );
            }
            Err(e) => {
                eprintln!("  model-opt + -Os: ERROR: {e}\n");
                failures += 1;
            }
        }
    }
    println!("{}", bench::driver_summary());
    if failures > 0 {
        eprintln!("\n{failures} cell(s) failed — report incomplete");
        std::process::exit(1);
    }
}
