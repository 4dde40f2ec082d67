//! End-to-end integration: model interpreter ≡ generated code ≡ compiled
//! EM32 program, for every sample machine, every implementation pattern and
//! every compiler optimization level — the correctness backbone of all
//! experiments.

use std::collections::BTreeMap;

use cgen::Pattern;
use mbo::Optimizer;
use occ::OptLevel;
use umlsm::gen::GenConfig;
use umlsm::{samples, Interp, StateMachine};

fn model_trace(machine: &StateMachine, events: &[&str]) -> Vec<(String, i64)> {
    let mut interp = Interp::new(machine).expect("model starts");
    for e in events {
        interp.step_by_name(e).expect("model steps");
    }
    interp.trace().observable()
}

/// The model interpreter against the `tlang` reference interpreter and
/// both EM32 engines, every pattern × level: equal traces and final
/// states, and engines agreeing on executed instructions.
fn assert_chain(machine: &StateMachine, events: &[&str]) {
    let events: Vec<String> = events.iter().map(|e| e.to_string()).collect();
    let cells = bench::fuzz::check_full_chain(machine, &events)
        .unwrap_or_else(|e| panic!("{}: {e}", machine.name()));
    assert_eq!(cells, 12, "3 patterns × 4 levels");
}

#[test]
fn flat_machine_full_chain() {
    let m = samples::flat_unreachable();
    assert_chain(&m, &["e1", "e2", "e1", "e3"]);
    assert_chain(&m, &["e3", "e2", "e1", "e1", "e2", "e3", "e1"]);
}

#[test]
fn hierarchical_machine_full_chain() {
    let m = samples::hierarchical_never_active();
    assert_chain(&m, &["e1", "e2", "e3", "e4"]);
    assert_chain(&m, &["e2", "e1", "e2", "e4", "e3", "e1"]);
}

#[test]
fn cruise_control_full_chain() {
    let mut m = samples::cruise_control();
    m.set_variable("speed", 64);
    assert_chain(
        &m,
        &[
            "power", "set", "accel", "set", "accel", "brake", "resume", "power", "kill",
        ],
    );
}

#[test]
fn protocol_handler_full_chain() {
    let m = samples::protocol_handler();
    assert_chain(
        &m,
        &[
            "open",
            "ack",
            "data",
            "data",
            "data",
            "close",
            "downgrade",
            "ack",
            "open",
        ],
    );
}

#[test]
fn scaling_family_full_chain() {
    let m = samples::flat_with_unreachable(4);
    assert_chain(&m, &["start", "toggle", "toggle", "stop", "start"]);
}

#[test]
fn two_step_preserves_behaviour_through_the_whole_chain() {
    // The paper's proposal end to end: the optimized model behaves
    // exactly like the *original* model, and so does its generated and
    // compiled code.
    for machine in [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::protocol_handler(),
    ] {
        let events = ["e1", "e2", "e3", "e4", "open", "ack", "data", "close", "e1"];
        let optimized = Optimizer::with_all()
            .check_behaviour(true)
            .optimize(&machine)
            .expect("optimizes")
            .machine;
        assert_eq!(
            model_trace(&optimized, &events),
            model_trace(&machine, &events),
            "{}: model optimization changed behaviour",
            machine.name()
        );
        assert_chain(&optimized, &events);
    }
}

#[test]
fn optimization_levels_never_grow_code() {
    for machine in [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
    ] {
        for pattern in Pattern::all() {
            let generated = cgen::generate(&machine, pattern).expect("generates");
            let o0 = occ::compile(&generated.module, OptLevel::O0)
                .expect("compiles")
                .sizes()
                .total();
            let os = occ::compile(&generated.module, OptLevel::Os)
                .expect("compiles")
                .sizes()
                .total();
            assert!(
                os <= o0,
                "{} / {pattern}: -Os ({os}) larger than -O0 ({o0})",
                machine.name()
            );
        }
    }
}

#[test]
fn model_optimization_shrinks_every_pattern() {
    let machine = samples::hierarchical_never_active();
    let optimized = Optimizer::with_all()
        .optimize(&machine)
        .expect("optimizes")
        .machine;
    for pattern in Pattern::all() {
        let before = occ::compile(
            &cgen::generate(&machine, pattern).expect("generates").module,
            OptLevel::Os,
        )
        .expect("compiles")
        .sizes()
        .total();
        let after = occ::compile(
            &cgen::generate(&optimized, pattern)
                .expect("generates")
                .module,
            OptLevel::Os,
        )
        .expect("compiles")
        .sizes()
        .total();
        assert!(
            after < before,
            "{pattern}: expected shrink, got {before} -> {after}"
        );
    }
}

#[test]
fn new_passes_fire_on_sample_machines_at_o2() {
    // SCCP, GVN/CSE, the memory passes and CFG simplification must each
    // rewrite something on at least one sample machine at -O2 — and the
    // full machine × pattern × level matrix above proves the rewrites
    // preserve the reference trace.
    let machines = [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ];
    let mut fired: BTreeMap<&str, bool> = BTreeMap::new();
    for machine in &machines {
        for pattern in Pattern::all() {
            let generated = cgen::generate(machine, pattern).expect("generates");
            let artifact = occ::compile(&generated.module, OptLevel::O2).expect("compiles");
            let stats = artifact.pass_stats();
            for name in [
                "sccp",
                "gvn-cse",
                "cross-load-fwd",
                "dse",
                "simplify-cfg",
                "dce",
                "copy-coalesce",
                "tail-merge",
            ] {
                let st = stats.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert!(st.runs > 0, "{name} never ran on {}", machine.name());
                *fired.entry(name).or_default() |= st.changes > 0;
            }
        }
    }
    for name in [
        "sccp",
        "gvn-cse",
        "cross-load-fwd",
        "dse",
        "simplify-cfg",
        "copy-coalesce",
    ] {
        assert!(fired[name], "{name} fired on no sample machine at -O2");
    }
}

/// The corpus the two corpus tests below share: the four samples plus
/// generated machines of seeds 1–8, each original and model-optimized
/// (24 machines, 72 machine × pattern arms).
fn corpus() -> Vec<StateMachine> {
    let mut originals = vec![
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ];
    originals.extend((1..=8).map(|seed| umlsm::gen::generate(seed, &GenConfig::default())));
    originals
        .into_iter()
        .flat_map(|original| {
            let optimized = Optimizer::with_all()
                .optimize(&original)
                .expect("optimizes")
                .machine;
            [original, optimized]
        })
        .collect()
}

#[test]
fn every_rostered_pass_fires_somewhere_in_the_corpus() {
    // A pass registered at a level must rewrite something at that level
    // on this corpus, or it costs every compile and buys nothing: the
    // next pass to go idle fails here instead of running on unnoticed.
    // `dead-fn-elim` first fires on seed 8's model-optimized STT build —
    // it changes nothing on the samples alone.
    let mut tally: BTreeMap<(OptLevel, &str), (usize, usize)> = BTreeMap::new();
    for machine in &corpus() {
        for pattern in Pattern::all() {
            let generated = cgen::generate(machine, pattern).expect("generates");
            for level in [OptLevel::O1, OptLevel::O2, OptLevel::Os] {
                let artifact = occ::compile(&generated.module, level).expect("compiles");
                for p in artifact.pass_stats().passes() {
                    let (runs, changes) = tally.entry((level, p.name)).or_default();
                    *runs += p.runs;
                    *changes += p.changes;
                }
            }
        }
    }
    let idle: Vec<String> = tally
        .iter()
        .filter(|(_, (runs, changes))| *runs > 0 && *changes == 0)
        .map(|((level, name), (runs, _))| {
            format!("{name} at {}: 0 changes in {runs} runs", level.flag())
        })
        .collect();
    assert!(
        idle.is_empty(),
        "passes that never fire on the corpus:\n  {}",
        idle.join("\n  ")
    );
}

#[test]
fn o2_executes_less_than_o1_and_rarely_more_than_o0_on_the_corpus() {
    // "Optimized" must mean what it says. Every arm of the corpus runs
    // the canonical 512-event storm at -O0, -O1 and -O2. The -O2 total
    // must stay below the -O1 total, and at most `MAX_ARMS_ABOVE_O0` of
    // the 72 arms may execute more instructions at -O2 than at -O0. That
    // bound is a ratchet: lower it whenever an arm stops executing more,
    // never raise it. ROADMAP item A (rematerialization and
    // shrink-wrapping in the register allocator) takes it to 0.
    const MAX_ARMS_ABOVE_O0: usize = 9;
    let levels = [OptLevel::O0, OptLevel::O1, OptLevel::O2];
    let mut totals = [0u64; 3];
    let mut above_o0 = Vec::new();
    for machine in &corpus() {
        for pattern in Pattern::all() {
            let generated = cgen::generate(machine, pattern).expect("generates");
            let insts = levels.map(|level| {
                let artifact = occ::compile(&generated.module, level).expect("compiles");
                bench::storm::canonical_storm(&artifact, &generated.codes)
                    .expect("storms")
                    .dyn_insts
            });
            for (total, n) in totals.iter_mut().zip(insts) {
                *total += n;
            }
            if insts[2] > insts[0] {
                above_o0.push(format!(
                    "{} / {pattern}: -O0 {} -> -O2 {}",
                    machine.name(),
                    insts[0],
                    insts[2]
                ));
            }
        }
    }
    assert!(
        totals[2] < totals[1],
        "-O2 executes {} instructions over the corpus, -O1 only {}",
        totals[2],
        totals[1]
    );
    assert!(
        above_o0.len() <= MAX_ARMS_ABOVE_O0,
        "{} of 72 arms execute more at -O2 than at -O0 (at most {MAX_ARMS_ABOVE_O0}):\n  {}",
        above_o0.len(),
        above_o0.join("\n  ")
    );
}

#[test]
fn every_function_goes_through_ssa_once() {
    // `copy-coalesce` runs exactly once after each `ssa::destruct`, so
    // its run count is the number of SSA round trips: one per function
    // that reaches the backend.
    for machine in [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ] {
        for pattern in Pattern::all() {
            let generated = cgen::generate(&machine, pattern).expect("generates");
            for level in [OptLevel::O1, OptLevel::O2, OptLevel::Os] {
                let artifact = occ::compile(&generated.module, level).expect("compiles");
                let coalesce = artifact
                    .pass_stats()
                    .get("copy-coalesce")
                    .expect("copy-coalesce ran");
                assert_eq!(
                    coalesce.runs,
                    artifact.surviving_functions().len(),
                    "{} / {pattern:?} at {}",
                    machine.name(),
                    level.flag()
                );
            }
        }
    }
}

#[test]
fn cross_load_fwd_fires_on_every_stt_cell_at_o1_and_o2() {
    // Every generated handler emits load-global → test → store-global
    // context traffic; store-to-load forwarding (plus redundant-load
    // elimination) must catch some of it on *every* sample machine's STT
    // build, at both levels that run it.
    for machine in [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ] {
        let generated = cgen::generate(&machine, Pattern::StateTable).expect("generates");
        for level in [OptLevel::O1, OptLevel::O2] {
            let artifact = occ::compile(&generated.module, level).expect("compiles");
            let fwd = artifact
                .pass_stats()
                .get("cross-load-fwd")
                .expect("cross-load-fwd ran");
            assert!(
                fwd.changes > 0,
                "store-to-load forwarding must fire on {}'s STT build at {}",
                machine.name(),
                level.flag()
            );
        }
    }
}

#[test]
fn cross_block_forwarding_fires_on_every_state_pattern_cell_at_o2() {
    // The tentpole's acceptance criterion. The State Pattern is the
    // pattern block-local forwarding helps least — its call-heavy
    // handlers re-load the same context cells *across* block boundaries
    // (the region dispatcher alone re-reads the active-state field past
    // the guard block, like the naive generated C++ it stands in for).
    // The dominator-scoped available-load analysis must catch that on
    // every sample machine: the pass deletes the forwarded loads, so its
    // `insts_removed` is the direct count of loads eliminated and must
    // be nonzero — not just `changes`.
    for machine in [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ] {
        let generated = cgen::generate(&machine, Pattern::StatePattern).expect("generates");
        let artifact = occ::compile(&generated.module, OptLevel::O2).expect("compiles");
        let xfwd = artifact
            .pass_stats()
            .get("cross-load-fwd")
            .expect("cross-load-fwd ran");
        assert!(
            xfwd.insts_removed > 0,
            "cross-block forwarding must delete loads on {}'s State Pattern build \
             (changes {}, insts_removed {})",
            machine.name(),
            xfwd.changes,
            xfwd.insts_removed
        );
    }
}

#[test]
fn pass_stats_absent_at_o0() {
    let generated =
        cgen::generate(&samples::flat_unreachable(), Pattern::NestedSwitch).expect("generates");
    let artifact = occ::compile(&generated.module, OptLevel::O0).expect("compiles");
    assert!(
        artifact.pass_stats().passes().iter().all(|s| s.runs == 0),
        "-O0 must run no mid-end passes"
    );
}
