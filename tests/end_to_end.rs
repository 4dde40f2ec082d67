//! End-to-end integration: model interpreter ≡ generated code ≡ compiled
//! EM32 program, for every sample machine, every implementation pattern and
//! every compiler optimization level — the correctness backbone of all
//! experiments.

use std::collections::BTreeMap;

use cgen::{Generated, Pattern};
use mbo::Optimizer;
use occ::{vm::Vm, OptLevel};
use tlang::RecordingEnv;
use umlsm::gen::GenConfig;
use umlsm::{samples, Interp, StateMachine};

fn model_trace(machine: &StateMachine, events: &[&str]) -> Vec<(String, i64)> {
    let mut interp = Interp::new(machine).expect("model starts");
    for e in events {
        interp.step_by_name(e).expect("model steps");
    }
    interp.trace().observable()
}

fn compiled_trace(generated: &Generated, level: OptLevel, events: &[&str]) -> Vec<(String, i64)> {
    let artifact = occ::compile(&generated.module, level).expect("compiles");
    let mut vm = Vm::new(artifact.assembly(), RecordingEnv::new());
    vm.run("sm_init", &[]).expect("init runs");
    for e in events {
        if let Some(code) = generated.codes.event_code(e) {
            vm.run("sm_step", &[code as i32]).expect("step runs");
        }
    }
    vm.into_env()
        .calls
        .iter()
        .map(|(_, args)| {
            (
                generated
                    .codes
                    .signal_name(i64::from(args[0]))
                    .unwrap_or("<unknown>")
                    .to_string(),
                i64::from(args[1]),
            )
        })
        .collect()
}

fn assert_chain(machine: &StateMachine, events: &[&str]) {
    let oracle = model_trace(machine, events);
    for pattern in Pattern::all() {
        let generated = cgen::generate(machine, pattern).expect("generates");
        // Source level: the tlang reference interpreter.
        let run = cgen::run_generated(&generated, events).expect("interprets");
        assert_eq!(
            run.observable,
            oracle,
            "{} / {pattern}: generated code diverges from the model",
            machine.name()
        );
        // Machine level: compiled EM32 at every level.
        for level in OptLevel::all() {
            let trace = compiled_trace(&generated, level, events);
            assert_eq!(
                trace,
                oracle,
                "{} / {pattern} / {level}: compiled program diverges",
                machine.name()
            );
        }
    }
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
    // The paper's proposal end to end: the optimized model, generated and
    // compiled at -Os, behaves exactly like the *original* model.
    for machine in [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::protocol_handler(),
    ] {
        let events = ["e1", "e2", "e3", "e4", "open", "ack", "data", "close", "e1"];
        let oracle = model_trace(&machine, &events);
        let optimized = Optimizer::with_all()
            .check_behaviour(true)
            .optimize(&machine)
            .expect("optimizes")
            .machine;
        for pattern in Pattern::all() {
            let generated = cgen::generate(&optimized, pattern).expect("generates");
            let trace = compiled_trace(&generated, OptLevel::Os, &events);
            assert_eq!(
                trace,
                oracle,
                "{} / {pattern}: two-step pipeline changed behaviour",
                machine.name()
            );
        }
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
    // Acceptance: SCCP, LICM, GVN/CSE and terminator folding must each
    // rewrite something on at least one sample machine at -O2 — and the
    // full machine × pattern × level matrix above proves the rewrites
    // preserve the reference trace. SCCP and LICM firing on the sample
    // machines is PR 3's acceptance criterion; the STT dispatch loops are
    // LICM's designed target.
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
                "copy-prop",
                "gvn-cse",
                "store-load-fwd",
                "cross-load-fwd",
                "load-pre",
                "dse",
                "licm",
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
        "licm",
        "gvn-cse",
        "store-load-fwd",
        "cross-load-fwd",
        "dse",
        "simplify-cfg",
        "copy-coalesce",
    ] {
        assert!(fired[name], "{name} fired on no sample machine at -O2");
    }
}

#[test]
fn every_rostered_pass_fires_somewhere_in_the_corpus() {
    // A pass registered at a level must rewrite something at that level
    // on this corpus, or it costs every compile and buys nothing: the
    // next pass to go idle fails here instead of running on unnoticed.
    // The corpus is the four samples plus generated machines of seeds
    // 1–8, each original and model-optimized, × 3 patterns. `load-pre`
    // first fires on seed 3 and `dead-fn-elim` on seed 8's
    // model-optimized STT build — neither changes anything on the
    // samples alone.
    let mut machines = vec![
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ];
    machines.extend((1..=8).map(|seed| umlsm::gen::generate(seed, &GenConfig::default())));
    let mut tally: BTreeMap<(OptLevel, &str), (usize, usize)> = BTreeMap::new();
    for original in &machines {
        let optimized = Optimizer::with_all()
            .optimize(original)
            .expect("optimizes")
            .machine;
        for machine in [original, &optimized] {
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
fn licm_fires_on_every_stt_dispatch_loop_at_o2() {
    // The state-transition-table engine is the pattern whose dispatch
    // loop LICM targets: invariant table-address arithmetic recomputed
    // per iteration. It must fire on *every* sample machine's STT build.
    for machine in [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ] {
        let generated = cgen::generate(&machine, Pattern::StateTable).expect("generates");
        let artifact = occ::compile(&generated.module, OptLevel::O2).expect("compiles");
        let licm = artifact.pass_stats().get("licm").expect("licm ran");
        assert!(
            licm.changes > 0,
            "licm must hoist out of {}'s STT dispatch loop",
            machine.name()
        );
    }
}

#[test]
fn store_load_forward_fires_on_every_stt_cell_at_o2() {
    // Every generated handler emits load-global → test → store-global
    // context traffic; block-local store-to-load forwarding (plus
    // redundant-load elimination) must catch some of it on *every*
    // sample machine's STT build — the tentpole's acceptance criterion.
    for machine in [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ] {
        let generated = cgen::generate(&machine, Pattern::StateTable).expect("generates");
        let artifact = occ::compile(&generated.module, OptLevel::O2).expect("compiles");
        let slf = artifact
            .pass_stats()
            .get("store-load-fwd")
            .expect("store-load-fwd ran");
        assert!(
            slf.changes > 0,
            "store-to-load forwarding must fire on {}'s STT build",
            machine.name()
        );
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
fn licm_hoists_loads_out_of_stt_dispatch_loops() {
    // The memory-aware LICM extension: the dispatch engine reads its
    // per-state exit table through a loop-invariant rodata address every
    // iteration; that load must leave the loop even though the body
    // makes indirect guard/effect calls (rodata survives calls — no
    // callee can store to `const` data). Measured at the MIR level so
    // the hoist itself is observed, not a proxy statistic.
    use occ::cfg;
    use occ::mem::MemoryModel;
    use occ::mir::{BlockId, Inst, MirFunction};
    use occ::opt::AnalysisCtx;
    use std::collections::BTreeSet;

    fn loads_in_loop_bodies(f: &MirFunction) -> usize {
        let preds = cfg::predecessors(f);
        let dom = cfg::DomTree::compute(f, &preds);
        let mut in_loops: BTreeSet<BlockId> = BTreeSet::new();
        for lp in cfg::natural_loops(f, &dom, &preds) {
            in_loops.extend(lp.blocks());
        }
        in_loops
            .iter()
            .map(|b| {
                f.block(*b)
                    .insts
                    .iter()
                    .filter(|i| matches!(i, Inst::Load { .. }))
                    .count()
            })
            .sum()
    }

    for machine in [
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ] {
        let generated = cgen::generate(&machine, Pattern::StateTable).expect("generates");
        generated.module.check().expect("typed");
        let mut program = occ::lower::lower_module(&generated.module).expect("lowers");
        let model = MemoryModel::of(&program);
        let mut before = 0usize;
        let mut after = 0usize;
        for f in &mut program.functions {
            occ::opt::simplify_cfg(f, &mut AnalysisCtx::new(&model));
            occ::ssa::construct(f);
            // Canonicalize as the -O2 roster would before LICM runs.
            occ::opt::sccp(f, &mut AnalysisCtx::new(&model));
            occ::opt::copy_propagate(f, &mut AnalysisCtx::new(&model));
            occ::opt::gvn_cse(f, &mut AnalysisCtx::new(&model));
            before += loads_in_loop_bodies(f);
            occ::opt::licm(f, &mut AnalysisCtx::new(&model));
            after += loads_in_loop_bodies(f);
        }
        assert!(
            after < before,
            "{}: no load left a dispatch loop ({before} -> {after})",
            machine.name()
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
