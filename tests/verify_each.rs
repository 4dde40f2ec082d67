//! Whole-matrix verify-each plus a mutation smoke test of the
//! [`occ::verify`] static checker.
//!
//! The first test drives every bench cell — 4 sample machines × 3
//! implementation patterns × 4 optimization levels, the exact matrix the
//! paper's tables measure — through the mid-end with per-pass
//! verification forced on ([`occ::opt::run_pipeline_with_verify`]), so a
//! pass that breaks an SSA or memory invariant on *real* generated
//! state-machine code fails here with the pass and round named, not as
//! an unexplained trace divergence three passes later.
//!
//! The second test goes the other way: it randomly corrupts valid
//! SSA-form MIR from the same matrix (seeded, deterministic) in ways
//! that are violations *by construction* and checks the verifier
//! actually reports the expected [`occ::verify::Rule`] — the smoke test
//! that the checker has no blind spots for the corruption shapes the
//! negative unit table covers one by one.

use std::collections::BTreeSet;

use cgen::Pattern;
use occ::mem::MemoryModel;
use occ::mir::{BlockId, Inst, MirFunction, Term, VReg};
use occ::opt::{self, AnalysisCtx, VerifyMode};
use occ::verify::{self, Rule, Tier};
use occ::{lower, ssa, OptLevel};
use umlsm::gen::GenRng;
use umlsm::{samples, StateMachine};

fn machines() -> Vec<StateMachine> {
    vec![
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ]
}

/// Every machine × pattern × level cell of the bench matrix optimizes
/// cleanly under verify-each. In debug builds the pipeline hooks check
/// after every pass; the explicit final check below also covers release
/// runs (where in-pipeline verification is compiled out).
#[test]
fn bench_matrix_is_clean_under_verify_each() {
    for machine in machines() {
        for pattern in Pattern::all() {
            let generated = cgen::generate(&machine, pattern).expect("generates");
            generated.module.check().expect("checks");
            let program = lower::lower_module(&generated.module).expect("lowers");
            for level in OptLevel::all() {
                let mut p = program.clone();
                opt::run_pipeline_with_verify(&mut p, level, VerifyMode::Each);
                let vs = verify::verify_program(&p, Tier::PhiFree);
                assert!(
                    vs.is_empty(),
                    "{} / {pattern} / {level}:{}",
                    machine.name(),
                    verify::report(&vs)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mutation smoke test
// ---------------------------------------------------------------------

/// Retargets one block's terminator past the last block. Always yields
/// `target-out-of-range` when the block has successors.
fn corrupt_goto_out_of_range(f: &mut MirFunction, rng: &mut GenRng) -> Option<Rule> {
    let b = BlockId(rng.below(f.blocks.len()) as u32);
    if f.block(b).term.succs().is_empty() {
        return None;
    }
    let bogus = BlockId(f.blocks.len() as u32 + 7);
    f.block_mut(b).term = Term::Goto(bogus);
    Some(Rule::TargetOutOfRange)
}

/// Rewrites one instruction operand to a register that is defined
/// nowhere (and is out of `next_vreg` range on top).
fn corrupt_operand(f: &mut MirFunction, rng: &mut GenRng) -> Option<Rule> {
    let bogus = VReg(f.next_vreg + 100);
    let mut candidates: Vec<(BlockId, usize)> = Vec::new();
    for b in f.block_ids() {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if inst.uses().next().is_some() {
                candidates.push((b, i));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (b, i) = candidates[rng.below(candidates.len())];
    let mut first = true;
    f.block_mut(b).insts[i].map_uses(&mut |v| {
        if std::mem::take(&mut first) {
            bogus
        } else {
            v
        }
    });
    Some(Rule::UndefinedUse)
}

/// Makes a second instruction redefine an already-defined register —
/// fatal in SSA form.
fn corrupt_double_def(f: &mut MirFunction, rng: &mut GenRng) -> Option<Rule> {
    let mut defs: Vec<(BlockId, usize)> = Vec::new();
    for b in f.block_ids() {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if inst.def().is_some() {
                defs.push((b, i));
            }
        }
    }
    if defs.len() < 2 {
        return None;
    }
    let first = rng.below(defs.len());
    let second = (first + 1 + rng.below(defs.len() - 1)) % defs.len();
    let (fb, fi) = defs[first];
    let reg = f.block(fb).insts[fi].def().expect("filtered on def");
    let (sb, si) = defs[second];
    *f.block_mut(sb).insts[si]
        .def_mut()
        .expect("filtered on def") = reg;
    Some(Rule::MultipleDefs)
}

/// Retargets one φ-argument at a block that is not a predecessor of the
/// join.
fn corrupt_phi_pred(f: &mut MirFunction, rng: &mut GenRng) -> Option<Rule> {
    let mut phis: Vec<(BlockId, usize)> = Vec::new();
    for b in f.block_ids() {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if matches!(inst, Inst::Phi { .. }) {
                phis.push((b, i));
            }
        }
    }
    if phis.is_empty() {
        return None;
    }
    let (b, i) = phis[rng.below(phis.len())];
    let Inst::Phi { args, .. } = &f.block(b).insts[i] else {
        unreachable!("filtered on Phi");
    };
    let preds: BTreeSet<BlockId> = args.iter().map(|(p, _)| *p).collect();
    let non_pred = f.block_ids().find(|c| !preds.contains(c))?;
    let slot = rng.below(args.len());
    let Inst::Phi { args, .. } = &mut f.block_mut(b).insts[i] else {
        unreachable!("filtered on Phi");
    };
    args[slot].0 = non_pred;
    Some(Rule::PhiPredMismatch)
}

/// Points one block's terminator back at the entry block, which must
/// have no predecessors.
fn corrupt_entry_edge(f: &mut MirFunction, rng: &mut GenRng) -> Option<Rule> {
    let b = BlockId(rng.below(f.blocks.len()) as u32);
    f.block_mut(b).term = Term::Goto(BlockId(0));
    Some(Rule::EntryHasPred)
}

/// Seeded random corruptions of valid SSA snapshots from the bench
/// matrix: the verifier must flag each one with the rule the corruption
/// was built to break.
#[test]
fn mutation_smoke_verifier_catches_random_corruptions() {
    let machine = samples::cruise_control();
    let generated = cgen::generate(&machine, Pattern::all()[0]).expect("generates");
    generated.module.check().expect("checks");
    let program = lower::lower_module(&generated.module).expect("lowers");
    let model = MemoryModel::of(&program);
    let mut rng = GenRng::new(0xC0FFEE);
    let mut hits = 0;
    for _ in 0..96 {
        let fi = rng.below(program.functions.len());
        let mut f = program.functions[fi].clone();
        opt::simplify_cfg(&mut f, &mut AnalysisCtx::new(&model));
        ssa::construct(&mut f);
        let expected = match rng.below(5) {
            0 => corrupt_goto_out_of_range(&mut f, &mut rng),
            1 => corrupt_operand(&mut f, &mut rng),
            2 => corrupt_double_def(&mut f, &mut rng),
            3 => corrupt_phi_pred(&mut f, &mut rng),
            _ => corrupt_entry_edge(&mut f, &mut rng),
        };
        // Not every corruption applies to every function (a φ retarget
        // needs a φ); skipped draws don't count as coverage.
        let Some(expected) = expected else { continue };
        let vs = verify::verify_function(&f, Tier::Ssa);
        assert!(
            vs.iter().any(|v| v.rule == expected),
            "corruption expected {expected:?}, verifier reported:{}\n{f}",
            verify::report(&vs)
        );
        hits += 1;
    }
    assert!(
        hits >= 48,
        "mutation smoke exercised too few corruptions: {hits}"
    );
}
