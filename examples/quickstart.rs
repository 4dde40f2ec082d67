//! Quickstart: the full toolchain in one page.
//!
//! Build a UML state machine, optimize it at the model level, generate
//! code, compile it at `-Os`, run the compiled program on the EM32 VM and
//! check it behaves exactly like the model.
//!
//! Run with `cargo run --example quickstart`.

use cgen::Pattern;
use mbo::{Optimization, Optimizer};
use occ::OptLevel;
use tlang::RecordingEnv;
use umlsm::{Action, Expr, Interp, MachineBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Model: a tiny controller with a dead diagnostic state.
    let mut b = MachineBuilder::new("quickstart");
    b.variable("ticks", 0);
    let idle = b.state("Idle");
    let busy = b.state("Busy");
    let diag = b.state("Diagnostics"); // no incoming transition: dead
    let start = b.event("start");
    let stop = b.event("stop");
    b.initial(idle);
    b.on_entry(
        busy,
        vec![
            Action::assign("ticks", Expr::var("ticks").add(Expr::int(1))),
            Action::emit_arg("busy", Expr::var("ticks")),
        ],
    );
    b.on_entry(diag, vec![Action::emit("diagnostics")]);
    b.transition(idle, busy).on(start).build();
    b.transition(busy, idle).on(stop).build();
    b.transition(diag, idle).on(stop).build();
    let machine = b.finish()?;

    // 2. Model-level optimization (the paper's contribution): the user
    //    picks the optimization, the tool rewrites the model.
    let outcome = Optimizer::new()
        .select(Optimization::RemoveUnreachableStates)
        .select(Optimization::RemoveUnusedEvents)
        .check_behaviour(true)
        .optimize(&machine)?;
    println!("model optimization report:\n{}", outcome.report);
    assert!(outcome.machine.state_by_name("Diagnostics").is_none());

    // 3. Code generation (Nested Switch) + compilation at -Os, before
    //    and after model optimization. -Os runs occ's full mid-end
    //    roster — SCCP, GVN/CSE, store-to-load forwarding, DSE, DCE,
    //    crossjumping (see the occ::opt module rustdoc); where measured
    //    orderings deviate from the paper's tables, EXPERIMENTS.md is
    //    the ledger of record.
    for (label, model) in [("original ", &machine), ("optimized", &outcome.machine)] {
        let generated = cgen::generate(model, Pattern::NestedSwitch)?;
        let artifact = occ::compile(&generated.module, OptLevel::Os)?;
        println!("{label} model -> {}", artifact.sizes());
    }

    // 4. Behaviour check, end to end: model interpreter vs compiled code.
    let events = ["start", "stop", "start", "start", "stop"];
    let mut model_run = Interp::new(&machine)?;
    for e in &events {
        model_run.step_by_name(e)?;
    }

    let generated = cgen::generate(&outcome.machine, Pattern::NestedSwitch)?;
    let artifact = occ::compile(&generated.module, OptLevel::Os)?;
    let mut vm = occ::vm::Vm::new(artifact.decoded(), RecordingEnv::new());
    vm.run("sm_init", &[])?;
    for e in &events {
        if let Some(code) = generated.codes.event_code(e) {
            vm.run("sm_step", &[code as i32])?;
        }
    }
    let compiled_trace: Vec<(String, i64)> = vm
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
    assert_eq!(model_run.trace().observable(), compiled_trace);
    println!("end-to-end check: compiled trace == model trace ({compiled_trace:?})");
    Ok(())
}
