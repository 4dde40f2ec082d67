//! Behaviour-preservation checking.
//!
//! Model optimization "keeps unchanged [the model's] behavior" (§V). This
//! module checks that dynamically: two machines are compared by the
//! observable traces (signal emissions) they produce on the same event
//! sequences, using bounded-exhaustive enumeration for short sequences plus
//! seeded random sequences for depth. Run-to-completion chains are bounded
//! by [`Semantics::max_completion_chain`](umlsm::Semantics), so every probe
//! terminates — but a probe may *fault* mid-sequence (a guarded completion
//! cycle whose guard stays true hits the chain bound, or a guard fails to
//! evaluate). A fault is part of the machine's observable behaviour: the
//! two machines must fault identically, after identical observable
//! prefixes, or the sequence is a counterexample.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use umlsm::{EvalError, Interp, InterpError, StateMachine};

/// Configuration of the equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivConfig {
    /// Exhaustively test all event sequences up to this length (capped by
    /// [`max_exhaustive_sequences`](Self::max_exhaustive_sequences)).
    pub exhaustive_depth: usize,
    /// Upper bound on the number of exhaustively enumerated sequences.
    pub max_exhaustive_sequences: usize,
    /// Number of random sequences to test on top.
    pub random_sequences: usize,
    /// Length of each random sequence.
    pub random_length: usize,
    /// RNG seed (fixed for reproducibility).
    pub seed: u64,
}

impl Default for EquivConfig {
    fn default() -> Self {
        EquivConfig {
            exhaustive_depth: 4,
            max_exhaustive_sequences: 20_000,
            random_sequences: 200,
            random_length: 24,
            seed: 0xDA7E_2010,
        }
    }
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// `true` if no distinguishing sequence was found.
    pub equivalent: bool,
    /// A distinguishing event-name sequence, if one was found.
    pub counterexample: Option<Vec<String>>,
    /// Number of sequences executed on both machines.
    pub sequences_checked: usize,
}

impl fmt::Display for EquivReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.equivalent {
            write!(
                f,
                "trace-equivalent over {} sequences",
                self.sequences_checked
            )
        } else {
            write!(
                f,
                "NOT equivalent; counterexample: [{}]",
                self.counterexample
                    .as_deref()
                    .unwrap_or_default()
                    .join(", ")
            )
        }
    }
}

/// Checks observable-trace equivalence of two machines.
///
/// The event alphabet is the *union* of both machines' event names, so
/// events removed by optimization are still exercised (they must be
/// discarded identically).
///
/// # Errors
///
/// Returns an error only when the *original* machine fails to initialize
/// (no initial state, or its initial run-to-completion step faults) —
/// malformed input, not an inequivalence. Every fault of the *optimized*
/// machine, including at initialization, and every fault of the original
/// while dispatching a probe sequence, is compared rather than propagated:
/// an optimization that turns a faulting run into a clean one (or vice
/// versa) changed behaviour, and is reported as a counterexample.
pub fn check_trace_equivalence(
    original: &StateMachine,
    optimized: &StateMachine,
    config: &EquivConfig,
) -> Result<EquivReport, InterpError> {
    // The original must at least start; everything after this point is
    // outcome comparison, never an error.
    Interp::new(original)?;

    let mut alphabet: Vec<String> = original
        .events()
        .map(|(_, e)| e.name.clone())
        .chain(optimized.events().map(|(_, e)| e.name.clone()))
        .collect();
    alphabet.sort();
    alphabet.dedup();

    let mut checked = 0usize;

    // Empty sequence: initial run-to-completion must already agree.
    if let Some(report) = try_sequence(original, optimized, &[], &mut checked) {
        return Ok(report);
    }

    // Bounded-exhaustive enumeration.
    if !alphabet.is_empty() {
        let mut budget = config.max_exhaustive_sequences;
        for depth in 1..=config.exhaustive_depth {
            let count = alphabet.len().saturating_pow(depth as u32);
            if count > budget {
                break;
            }
            budget -= count;
            let mut indices = vec![0usize; depth];
            loop {
                let seq: Vec<String> = indices.iter().map(|i| alphabet[*i].clone()).collect();
                if let Some(report) = try_sequence(original, optimized, &seq, &mut checked) {
                    return Ok(report);
                }
                if !next_odometer(&mut indices, alphabet.len()) {
                    break;
                }
            }
        }

        // Random deep sequences.
        let mut rng = StdRng::seed_from_u64(config.seed);
        for _ in 0..config.random_sequences {
            let seq: Vec<String> = (0..config.random_length)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())].clone())
                .collect();
            if let Some(report) = try_sequence(original, optimized, &seq, &mut checked) {
                return Ok(report);
            }
        }
    }

    Ok(EquivReport {
        equivalent: true,
        counterexample: None,
        sequences_checked: checked,
    })
}

/// Advances a base-`base` odometer; returns `false` once it wraps around.
fn next_odometer(indices: &mut [usize], base: usize) -> bool {
    for slot in indices.iter_mut().rev() {
        *slot += 1;
        if *slot < base {
            return true;
        }
        *slot = 0;
    }
    false
}

/// The kind of fault that halted a run, with model-element payloads
/// stripped: passes may rename model elements (`merge-equivalent-states`
/// folds a state into its surviving twin), so the state name inside a
/// `CompletionLoop` is not behaviour — only *that* the chain bound
/// tripped, after the same observable prefix, is. Evaluation faults keep
/// their kind (unknown variable vs type mismatch) because those are
/// different behaviours, just not their payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Eval(std::mem::Discriminant<EvalError>),
    CompletionLoop,
    NoInitialState,
}

impl FaultKind {
    fn of(fault: &InterpError) -> FaultKind {
        match fault {
            InterpError::Eval(inner) => FaultKind::Eval(std::mem::discriminant(inner)),
            InterpError::CompletionLoop { .. } => FaultKind::CompletionLoop,
            InterpError::NoInitialState => FaultKind::NoInitialState,
        }
    }
}

/// What one machine did on one probe sequence: its observable trace plus
/// the kind of fault that stopped it, if any. Both components must match
/// between the two machines for the sequence to count as agreeing.
type RunOutcome = (Vec<(String, i64)>, Option<FaultKind>);

/// Runs `seq` on a fresh instance of `machine`. Total: a fault — at
/// initialization or while dispatching — halts the run and becomes part
/// of the outcome.
fn run_sequence(machine: &StateMachine, seq: &[String]) -> RunOutcome {
    let mut interp = match Interp::new(machine) {
        Ok(interp) => interp,
        Err(fault) => return (Vec::new(), Some(FaultKind::of(&fault))),
    };
    for name in seq {
        if let Err(fault) = interp.step_by_name(name) {
            return (interp.trace().observable(), Some(FaultKind::of(&fault)));
        }
    }
    (interp.trace().observable(), None)
}

fn try_sequence(
    original: &StateMachine,
    optimized: &StateMachine,
    seq: &[String],
    checked: &mut usize,
) -> Option<EquivReport> {
    *checked += 1;
    if run_sequence(original, seq) != run_sequence(optimized, seq) {
        return Some(EquivReport {
            equivalent: false,
            counterexample: Some(seq.to_vec()),
            sequences_checked: *checked,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{remove_unreachable_states, remove_unused_events};
    use umlsm::samples;
    use umlsm::{Action, MachineBuilder};

    #[test]
    fn machine_is_equivalent_to_itself() {
        let m = samples::flat_unreachable();
        let r = check_trace_equivalence(&m, &m, &EquivConfig::default()).expect("check");
        assert!(r.equivalent);
        assert!(r.sequences_checked > 100);
    }

    #[test]
    fn optimized_flat_machine_is_equivalent() {
        let m = samples::flat_unreachable();
        let mut opt = m.clone();
        remove_unreachable_states(&mut opt);
        let r = check_trace_equivalence(&m, &opt, &EquivConfig::default()).expect("check");
        assert!(r.equivalent, "{r}");
    }

    #[test]
    fn optimized_hierarchical_machine_is_equivalent() {
        let m = samples::hierarchical_never_active();
        let mut opt = m.clone();
        remove_unreachable_states(&mut opt);
        let r = check_trace_equivalence(&m, &opt, &EquivConfig::default()).expect("check");
        assert!(r.equivalent, "{r}");
    }

    #[test]
    fn detects_behaviour_difference() {
        let build = |signal: &str| {
            let mut b = MachineBuilder::new("m");
            let a = b.state("A");
            let c = b.state("B");
            let e = b.event("go");
            b.initial(a);
            b.on_entry(c, vec![Action::emit(signal)]);
            b.transition(a, c).on(e).build();
            b.finish().expect("valid")
        };
        let m1 = build("x");
        let m2 = build("y");
        let r = check_trace_equivalence(&m1, &m2, &EquivConfig::default()).expect("check");
        assert!(!r.equivalent);
        assert_eq!(r.counterexample, Some(vec!["go".to_string()]));
    }

    #[test]
    fn divergent_runs_compare_instead_of_erroring() {
        // A guarded completion self-loop whose guard becomes (and stays)
        // true mid-run trips the completion-chain bound. That fault is
        // behaviour: the machine must agree with itself, and a variant
        // without the divergence must be flagged, not crash the check.
        let build = |with_loop: bool| {
            let mut b = MachineBuilder::new("m");
            b.variable("x", 0);
            let a = b.state("A");
            let bump = b.event("bump");
            b.initial(a);
            b.transition(a, a)
                .on(bump)
                .then(vec![Action::assign("x", umlsm::Expr::int(1))])
                .build();
            if with_loop {
                b.transition(a, a)
                    .on_completion()
                    .when(umlsm::Expr::var("x").ge(umlsm::Expr::int(1)))
                    .build();
            }
            b.finish().expect("valid")
        };
        let divergent = build(true);
        let clean = build(false);
        let r = check_trace_equivalence(&divergent, &divergent, &EquivConfig::default())
            .expect("self-check runs despite runtime divergence");
        assert!(r.equivalent, "{r}");
        let r = check_trace_equivalence(&divergent, &clean, &EquivConfig::default())
            .expect("cross-check runs");
        assert!(!r.equivalent, "fault/no-fault must be a counterexample");
    }

    #[test]
    fn optimized_init_fault_is_a_counterexample_not_an_error() {
        // Only the *original* machine's initialization may error the
        // check. If a (buggy) optimization makes the optimized machine
        // fault during its initial run-to-completion step, that is a
        // behaviour change and must surface as a counterexample.
        let clean = {
            let mut b = MachineBuilder::new("m");
            let a = b.state("A");
            b.initial(a);
            b.finish().expect("valid")
        };
        let init_faults = {
            let mut b = MachineBuilder::new("m");
            let a = b.state("A");
            let c = b.state("B");
            b.initial(a);
            b.transition(a, c).on_completion().build();
            b.transition(c, a).on_completion().build();
            b.finish().expect("valid")
        };
        let r = check_trace_equivalence(&clean, &init_faults, &EquivConfig::default())
            .expect("check runs");
        assert!(!r.equivalent, "init fault must be a counterexample");
        assert_eq!(r.counterexample, Some(vec![]), "empty sequence suffices");

        // Flipped: a malformed *original* is the caller's bug — error.
        assert!(check_trace_equivalence(&init_faults, &clean, &EquivConfig::default()).is_err());
    }

    #[test]
    fn fault_comparison_ignores_state_names() {
        // Passes like merge-equivalent-states change which state *name* a
        // completion-chain fault is reported at. Two machines that differ
        // only in the looping state's name must still compare equivalent:
        // the fault kind and the observable prefix are the behaviour, the
        // name in the error payload is not.
        let build = |state_name: &str| {
            let mut b = MachineBuilder::new("m");
            b.variable("x", 0);
            let a = b.state(state_name);
            let bump = b.event("bump");
            b.initial(a);
            b.transition(a, a)
                .on(bump)
                .then(vec![Action::assign("x", umlsm::Expr::int(1))])
                .build();
            b.transition(a, a)
                .on_completion()
                .when(umlsm::Expr::var("x").ge(umlsm::Expr::int(1)))
                .build();
            b.finish().expect("valid")
        };
        let r = check_trace_equivalence(&build("A"), &build("Renamed"), &EquivConfig::default())
            .expect("check runs");
        assert!(r.equivalent, "{r}");
    }

    #[test]
    fn detects_unsound_removal_under_fallback_semantics() {
        // Removing the "never active" composite is NOT sound when the
        // machine uses fallback completion semantics; the checker must
        // catch it.
        let mut m = samples::hierarchical_never_active();
        m.set_semantics(umlsm::Semantics::completion_as_fallback());
        let mut broken = m.clone();
        let s3 = broken.state_by_name("S3").expect("S3");
        broken.remove_state(s3);
        let r = check_trace_equivalence(&m, &broken, &EquivConfig::default()).expect("check");
        assert!(!r.equivalent, "checker must flag the unsound removal");
    }

    #[test]
    fn alphabet_union_exercises_removed_events() {
        // Optimized machine lost an event; sequences containing it must
        // still be compared (and discarded identically).
        let m = samples::flat_unreachable();
        let mut opt = m.clone();
        remove_unreachable_states(&mut opt);
        remove_unused_events(&mut opt);
        let r = check_trace_equivalence(&m, &opt, &EquivConfig::default()).expect("check");
        assert!(r.equivalent, "{r}");
    }
}
