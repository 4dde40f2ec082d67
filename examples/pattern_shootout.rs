//! Pattern shoot-out: generate the same machine with all three
//! implementation patterns, compile at every optimization level, verify
//! identical behaviour, and print the full size matrix — Table I's
//! methodology as a reusable tool.
//!
//! Run with `cargo run --example pattern_shootout`.

use cgen::Pattern;
use occ::OptLevel;
use tlang::RecordingEnv;
use umlsm::{samples, Interp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = samples::hierarchical_never_active();
    let events = ["e1", "e2", "e1", "e2", "e3", "e4", "e1"];

    // Oracle: the model interpreter.
    let mut model = Interp::new(&machine)?;
    for e in &events {
        model.step_by_name(e)?;
    }
    let oracle = model.trace().observable();
    println!("oracle trace ({} emissions)", oracle.len());

    println!(
        "\n{:<14} {:>8} {:>8} {:>8} {:>8}   behaviour",
        "pattern", "-O0", "-O1", "-O2", "-Os"
    );
    for pattern in Pattern::all() {
        let generated = cgen::generate(&machine, pattern)?;
        let mut sizes = Vec::new();
        let mut all_match = true;
        for level in OptLevel::all() {
            let artifact = occ::compile(&generated.module, level)?;
            sizes.push(artifact.sizes().total());
            // Execute the compiled program and compare with the oracle.
            let mut vm = occ::vm::Vm::new(artifact.decoded(), RecordingEnv::new());
            vm.run("sm_init", &[])?;
            for e in &events {
                if let Some(code) = generated.codes.event_code(e) {
                    vm.run("sm_step", &[code as i32])?;
                }
            }
            let trace: Vec<(String, i64)> = vm
                .into_env()
                .calls
                .iter()
                .map(|(_, args)| {
                    (
                        generated
                            .codes
                            .signal_name(i64::from(args[0]))
                            .unwrap_or("?")
                            .to_string(),
                        i64::from(args[1]),
                    )
                })
                .collect();
            all_match &= trace == oracle;
        }
        println!(
            "{:<14} {:>8} {:>8} {:>8} {:>8}   {}",
            pattern.label(),
            sizes[0],
            sizes[1],
            sizes[2],
            sizes[3],
            if all_match { "== model" } else { "DIVERGES" }
        );
        assert!(all_match, "{pattern} diverges from the model");
    }

    println!("\nnote how -Os beats -O2 on bytes while every level preserves behaviour;");
    println!("the remaining waste (the dead composite) is only removable at the model level.");
    Ok(())
}
