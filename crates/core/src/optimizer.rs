//! The optimization manager: user-selected passes, fixpoint iteration,
//! optional dynamic behaviour checking.
//!
//! The paper's tool "gives the user the ability to choose the optimization
//! that he would perform" and "generates the optimized model after running
//! the selected optimization"; its conclusion plans a mode that
//! "automatically executes optimizations that correspond to the UML model".
//! [`Optimizer`] provides both: [`select`](Optimizer::select) for manual
//! choice, [`with_all`](Optimizer::with_all) for the automatic mode.

use std::fmt;

use umlsm::{StateMachine, ValidateError};

use crate::equivalence::{check_trace_equivalence, EquivConfig, EquivReport};
use crate::passes;
use crate::report::{OptimizationReport, PassReport};

/// Fixpoint iterations [`Optimizer::optimize`] runs at most (each applies
/// the full selection once).
const MAX_ITERATIONS: usize = 8;

/// The user-selectable optimization catalogue (the menu of the paper's
/// tool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Optimization {
    /// Constant-fold and drop trivially-true guards.
    SimplifyGuards,
    /// Remove transitions that can never fire.
    PruneDeadTransitions,
    /// Remove states that can never become active (the paper's headline
    /// optimization).
    RemoveUnreachableStates,
    /// Merge behaviourally equivalent simple states.
    MergeEquivalentStates,
    /// Drop event types that trigger no transition.
    RemoveUnusedEvents,
    /// Drop context variables that are never read.
    RemoveUnusedVariables,
}

impl Optimization {
    /// Every optimization, in canonical application order.
    pub fn all() -> [Optimization; 6] {
        [
            Optimization::SimplifyGuards,
            Optimization::PruneDeadTransitions,
            Optimization::RemoveUnreachableStates,
            Optimization::MergeEquivalentStates,
            Optimization::RemoveUnusedEvents,
            Optimization::RemoveUnusedVariables,
        ]
    }

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Optimization::SimplifyGuards => "simplify-guards",
            Optimization::PruneDeadTransitions => "prune-dead-transitions",
            Optimization::RemoveUnreachableStates => "remove-unreachable-states",
            Optimization::MergeEquivalentStates => "merge-equivalent-states",
            Optimization::RemoveUnusedEvents => "remove-unused-events",
            Optimization::RemoveUnusedVariables => "remove-unused-variables",
        }
    }

    /// Applies the pass in place and reports what changed.
    fn run(self, machine: &mut StateMachine) -> PassReport {
        match self {
            Optimization::SimplifyGuards => passes::simplify_guards(machine),
            Optimization::PruneDeadTransitions => passes::prune_dead_transitions(machine),
            Optimization::RemoveUnreachableStates => passes::remove_unreachable_states(machine),
            Optimization::MergeEquivalentStates => passes::merge_equivalent_states(machine),
            Optimization::RemoveUnusedEvents => passes::remove_unused_events(machine),
            Optimization::RemoveUnusedVariables => passes::remove_unused_variables(machine),
        }
    }
}

impl fmt::Display for Optimization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An optimization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// The input model is malformed.
    InvalidInput(ValidateError),
    /// A pass produced a malformed model (an optimizer bug).
    InvalidOutput {
        /// The offending pass.
        pass: String,
        /// The validation failure.
        error: ValidateError,
    },
    /// The optimized model is not trace-equivalent to the input (an
    /// optimizer bug caught by the dynamic check).
    BehaviourChanged(EquivReport),
    /// The dynamic check itself failed to run.
    CheckFailed(String),
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::InvalidInput(e) => write!(f, "input model is invalid: {e}"),
            OptimizeError::InvalidOutput { pass, error } => {
                write!(f, "pass `{pass}` produced an invalid model: {error}")
            }
            OptimizeError::BehaviourChanged(r) => {
                write!(f, "optimization changed behaviour: {r}")
            }
            OptimizeError::CheckFailed(msg) => write!(f, "equivalence check failed: {msg}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

/// Result of a successful optimization run.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The optimized model.
    pub machine: StateMachine,
    /// What happened, pass by pass.
    pub report: OptimizationReport,
    /// The dynamic equivalence report, when checking was enabled.
    pub equivalence: Option<EquivReport>,
}

/// Configurable model optimizer.
///
/// # Example
///
/// ```
/// use mbo::Optimizer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let machine = umlsm::samples::hierarchical_never_active();
/// let outcome = Optimizer::with_all().check_behaviour(true).optimize(&machine)?;
/// assert!(outcome.machine.metrics().states < machine.metrics().states);
/// assert!(outcome.equivalence.expect("checked").equivalent);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    selected: Vec<Optimization>,
    check_behaviour: bool,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::new()
    }
}

impl Optimizer {
    /// Creates an optimizer with *no* passes selected (the user picks, as in
    /// the paper's tool).
    pub fn new() -> Optimizer {
        Optimizer {
            selected: Vec::new(),
            check_behaviour: false,
        }
    }

    /// Creates an optimizer with the full catalogue selected (the automatic
    /// mode of the paper's conclusion).
    pub fn with_all() -> Optimizer {
        let mut o = Optimizer::new();
        o.selected = Optimization::all().to_vec();
        o
    }

    /// Adds one optimization to the selection (idempotent).
    pub fn select(mut self, optimization: Optimization) -> Self {
        if !self.selected.contains(&optimization) {
            self.selected.push(optimization);
        }
        self
    }

    /// The current selection, in application order.
    pub fn selected(&self) -> &[Optimization] {
        &self.selected
    }

    /// Enables/disables the dynamic trace-equivalence check on the result.
    pub fn check_behaviour(mut self, enabled: bool) -> Self {
        self.check_behaviour = enabled;
        self
    }

    /// Runs the selected passes to a fixpoint and returns the optimized
    /// model plus reports.
    ///
    /// # Errors
    ///
    /// Fails if the input model is invalid, if a pass breaks model validity
    /// (a bug), or — with [`check_behaviour`](Self::check_behaviour) — if
    /// the result is not trace-equivalent to the input.
    pub fn optimize(&self, machine: &StateMachine) -> Result<OptimizeOutcome, OptimizeError> {
        machine.validate().map_err(OptimizeError::InvalidInput)?;
        let mut out = machine.clone();
        let mut report = OptimizationReport {
            before: machine.metrics(),
            ..OptimizationReport::default()
        };

        // Application order is canonical regardless of selection order:
        // analyses feed each other (guard folding exposes dead transitions,
        // dead transitions expose unreachable states, ...).
        let ordered: Vec<Optimization> = Optimization::all()
            .into_iter()
            .filter(|o| self.selected.contains(o))
            .collect();

        for _ in 0..MAX_ITERATIONS {
            report.iterations += 1;
            let mut changed = false;
            for opt in &ordered {
                let pass_report = opt.run(&mut out);
                if let Err(error) = out.validate() {
                    return Err(OptimizeError::InvalidOutput {
                        pass: opt.name().to_string(),
                        error,
                    });
                }
                changed |= pass_report.changed();
                report.passes.push(pass_report);
            }
            if !changed {
                break;
            }
        }
        report.after = out.metrics();

        let equivalence = if self.check_behaviour {
            let r = check_trace_equivalence(machine, &out, &EquivConfig::default())
                .map_err(|e| OptimizeError::CheckFailed(e.to_string()))?;
            if !r.equivalent {
                return Err(OptimizeError::BehaviourChanged(r));
            }
            Some(r)
        } else {
            None
        };

        Ok(OptimizeOutcome {
            machine: out,
            report,
            equivalence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umlsm::samples;

    #[test]
    fn empty_selection_is_identity() {
        let m = samples::flat_unreachable();
        let out = Optimizer::new().optimize(&m).expect("ok");
        assert_eq!(out.machine, m);
        assert!(!out.report.changed());
    }

    #[test]
    fn manual_selection_runs_only_selected() {
        let m = samples::flat_unreachable();
        let out = Optimizer::new()
            .select(Optimization::RemoveUnusedEvents)
            .optimize(&m)
            .expect("ok");
        // No event is unused before unreachable-state removal, so nothing
        // changes — the selection did not sneak in other passes.
        assert!(out.machine.state_by_name("S2").is_some());
    }

    #[test]
    fn automatic_mode_reaches_fixpoint() {
        let m = samples::hierarchical_never_active();
        let out = Optimizer::with_all()
            .check_behaviour(true)
            .optimize(&m)
            .expect("ok");
        // S3's submachine (6 states) is gone; e4 may become unused and
        // disappear too.
        assert!(out.machine.state_by_name("S3").is_none());
        assert!(out.report.iterations >= 2, "fixpoint needs a second pass");
        assert!(out.equivalence.expect("checked").equivalent);
        assert!(out.machine.validate().is_ok());
    }

    #[test]
    fn cascading_unlocks_event_removal() {
        // Removing the dead submachine frees events only it used.
        let m = samples::hierarchical_never_active();
        let before_events = m.metrics().events;
        let out = Optimizer::with_all().optimize(&m).expect("ok");
        assert!(
            out.machine.metrics().events < before_events,
            "events used only by the dead submachine must disappear"
        );
    }

    #[test]
    fn standard_catalogue_is_stable() {
        assert_eq!(
            Optimization::all().map(Optimization::name),
            [
                "simplify-guards",
                "prune-dead-transitions",
                "remove-unreachable-states",
                "merge-equivalent-states",
                "remove-unused-events",
                "remove-unused-variables",
            ]
        );
    }

    #[test]
    fn display_and_names_are_stable() {
        assert_eq!(
            Optimization::RemoveUnreachableStates.to_string(),
            "remove-unreachable-states"
        );
        assert_eq!(Optimization::all().len(), 6);
    }

    #[test]
    fn invalid_input_is_rejected() {
        let b = umlsm::MachineBuilder::new("broken");
        let m = b.finish_unchecked();
        assert!(matches!(
            Optimizer::with_all().optimize(&m),
            Err(OptimizeError::InvalidInput(_))
        ));
    }

    #[test]
    fn negative_control_fully_live_machine_unchanged() {
        let m = samples::cruise_control();
        let out = Optimizer::with_all()
            .check_behaviour(true)
            .optimize(&m)
            .expect("ok");
        assert_eq!(
            out.machine.metrics().states,
            m.metrics().states,
            "cruise control is fully live; no state may be removed"
        );
    }
}
