//! Property tests of the core invariants:
//!
//! * guard-expression constant folding never changes evaluation results,
//! * model optimization preserves observable traces on generated machines,
//! * generated + compiled code matches the model on random event sequences.
//!
//! The folding properties draw [`EXPR_CASES`] expressions from one
//! [`GenRng`] stream each, opened at [`SEED`]; the machine properties
//! run [`gen::generate`] on [`MACHINE_SEEDS`] and draw event sequences
//! from one such stream. A failing case names its index or seed and the
//! inputs that built it.

use std::ops::RangeInclusive;

use cgen::Pattern;
use mbo::equivalence::{check_trace_equivalence, EquivConfig};
use mbo::Optimizer;
use umlsm::gen::{self, GenConfig, GenRng};
use umlsm::{Expr, Interp};

/// The state the expression and event-sequence streams start from.
const SEED: u64 = 0x853c_49e6_748f_ea9b;

/// Expressions per folding property.
const EXPR_CASES: usize = 256;

/// The [`GenConfig::tiny`] machines the machine properties check.
const MACHINE_SEEDS: RangeInclusive<u64> = 1..=48;

// ---------------------------------------------------------------------
// Expression folding
// ---------------------------------------------------------------------

/// A guard expression over `a`, `b` and `c`, at most `depth` operators
/// deep. Each level is a leaf with even odds: an integer in `-64..64`, a
/// boolean or a variable. Otherwise it is one of twelve operators over
/// expressions one level shallower, drawn left to right.
fn arb_expr(rng: &mut GenRng, depth: u32) -> Expr {
    if depth == 0 || rng.below(2) == 0 {
        return match rng.below(3) {
            0 => Expr::Int(rng.below(128) as i64 - 64),
            1 => Expr::Bool(rng.next_u64() & 1 == 1),
            _ => Expr::var(*rng.pick(&["a", "b", "c"])),
        };
    }
    let op = rng.below(12);
    let l = arb_expr(rng, depth - 1);
    match op {
        10 => return l.not(),
        11 => return l.neg(),
        _ => {}
    }
    let r = arb_expr(rng, depth - 1);
    match op {
        0 => l.add(r),
        1 => l.sub(r),
        2 => l.mul(r),
        3 => l.div(r),
        4 => l.rem(r),
        5 => l.lt(r),
        6 => l.le(r),
        7 => l.eq(r),
        8 => l.and(r),
        _ => l.or(r),
    }
}

#[test]
fn fold_preserves_evaluation() {
    let mut rng = GenRng::new(SEED);
    for case in 0..EXPR_CASES {
        let e = arb_expr(&mut rng, 4);
        let env = ["a", "b", "c"]
            .map(|v| (v.to_string(), rng.below(16) as i64 - 8))
            .into_iter()
            .collect();
        let folded = e.fold();
        assert_eq!(
            e.eval(&env),
            folded.eval(&env),
            "case #{case}: {e:?} under {env:?}"
        );
    }
}

#[test]
fn fold_is_idempotent() {
    let mut rng = GenRng::new(SEED);
    for case in 0..EXPR_CASES {
        let once = arb_expr(&mut rng, 4).fold();
        assert_eq!(once.clone().fold(), once, "case #{case}");
    }
}

// ---------------------------------------------------------------------
// Generated machines
// ---------------------------------------------------------------------

/// The optimizer preserves observable traces on generated machines, and
/// changes most of them.
#[test]
fn optimizer_preserves_behaviour() {
    let config = EquivConfig {
        exhaustive_depth: 3,
        random_sequences: 32,
        random_length: 10,
        ..EquivConfig::default()
    };
    let mut changed = 0;
    for seed in MACHINE_SEEDS {
        let machine = gen::generate(seed, &GenConfig::tiny());
        let outcome = Optimizer::with_all().optimize(&machine).expect("optimizes");
        changed += usize::from(outcome.report.changed());
        let report =
            check_trace_equivalence(&machine, &outcome.machine, &config).expect("check runs");
        assert!(
            report.equivalent,
            "seed {seed}: counterexample {:?}",
            report.counterexample
        );
    }
    assert!(
        2 * changed >= MACHINE_SEEDS.count(),
        "the optimizer changed only {changed} machines: the property barely exercises it"
    );
}

/// Generated (and source-interpreted) code matches the model on random
/// event sequences, for every pattern.
#[test]
fn generated_code_matches_model() {
    let mut rng = GenRng::new(SEED);
    for seed in MACHINE_SEEDS {
        let machine = gen::generate(seed, &GenConfig::tiny());
        let events: Vec<&str> = machine.events().map(|(_, e)| e.name.as_str()).collect();
        let len = 1 + rng.below(9);
        let seq: Vec<&str> = (0..len).map(|_| *rng.pick(&events)).collect();
        let mut model = Interp::new(&machine).expect("starts");
        for e in &seq {
            model.step_by_name(e).expect("steps");
        }
        let oracle = model.trace().observable();
        for pattern in Pattern::all() {
            let generated = cgen::generate(&machine, pattern)
                .unwrap_or_else(|e| panic!("seed {seed}: {pattern} rejects the machine: {e}"));
            let run = cgen::run_generated(&generated, &seq).expect("runs");
            assert_eq!(
                run.observable, oracle,
                "seed {seed}: {pattern} diverges on {seq:?}"
            );
        }
    }
}
