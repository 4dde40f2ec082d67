//! Fluent construction of state machines.
//!
//! [`MachineBuilder`] wraps a [`StateMachine`] under construction and
//! finishes with validation, so a machine obtained from
//! [`finish`](MachineBuilder::finish) is always well-formed.

use crate::action::Action;
use crate::expr::Expr;
use crate::ids::{EventId, RegionId, StateId, TransitionId};
use crate::machine::{StateMachine, Transition, Trigger};
use crate::semantics::Semantics;
use crate::validate::ValidateError;

/// Builder for [`StateMachine`] values.
///
/// # Example
///
/// ```
/// use umlsm::{Action, Expr, MachineBuilder};
///
/// # fn main() -> Result<(), umlsm::ValidateError> {
/// let mut b = MachineBuilder::new("counter");
/// b.variable("n", 0);
/// let idle = b.state("Idle");
/// let busy = b.state("Busy");
/// let start = b.event("start");
/// let done = b.event("done");
/// b.initial(idle);
/// b.on_entry(busy, vec![Action::assign("n", Expr::var("n").add(Expr::int(1)))]);
/// b.transition(idle, busy).on(start).build();
/// b.transition(busy, idle).on(done).build();
/// let machine = b.finish()?;
/// assert_eq!(machine.metrics().transitions, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    machine: StateMachine,
}

impl MachineBuilder {
    /// Starts building a machine with the given name and the paper's default
    /// semantics.
    pub fn new(name: impl Into<String>) -> MachineBuilder {
        MachineBuilder {
            machine: StateMachine::new(name),
        }
    }

    /// Overrides the execution semantics.
    pub fn semantics(&mut self, semantics: Semantics) -> &mut Self {
        self.machine.set_semantics(semantics);
        self
    }

    /// Declares a context variable with an initial value.
    pub fn variable(&mut self, name: impl Into<String>, initial: i64) -> &mut Self {
        self.machine.set_variable(name, initial);
        self
    }

    /// The root region of the machine under construction.
    pub fn root(&self) -> RegionId {
        self.machine.root()
    }

    /// Adds a simple state to the root region.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        let root = self.machine.root();
        self.machine.add_state(root, name)
    }

    /// Adds a simple state to a specific region.
    pub fn state_in(&mut self, region: RegionId, name: impl Into<String>) -> StateId {
        self.machine.add_state(region, name)
    }

    /// Adds a final state to the root region.
    pub fn final_state(&mut self, name: impl Into<String>) -> StateId {
        let root = self.machine.root();
        self.machine.add_final_state(root, name)
    }

    /// Adds a final state to a specific region.
    pub fn final_state_in(&mut self, region: RegionId, name: impl Into<String>) -> StateId {
        self.machine.add_final_state(region, name)
    }

    /// Adds a composite state to the root region; returns `(state, region)`.
    pub fn composite(&mut self, name: impl Into<String>) -> (StateId, RegionId) {
        let root = self.machine.root();
        self.machine.add_composite_state(root, name)
    }

    /// Declares an event type (idempotent per name).
    pub fn event(&mut self, name: impl Into<String>) -> EventId {
        self.machine.add_event(name)
    }

    /// Sets the initial state of the root region.
    pub fn initial(&mut self, state: StateId) -> &mut Self {
        let root = self.machine.root();
        self.machine.region_mut(root).initial = Some(state);
        self
    }

    /// Sets the initial state of a specific region.
    pub fn initial_in(&mut self, region: RegionId, state: StateId) -> &mut Self {
        self.machine.region_mut(region).initial = Some(state);
        self
    }

    /// Sets the effect of a region's initial transition.
    pub fn initial_effect(&mut self, region: RegionId, effect: Vec<Action>) -> &mut Self {
        self.machine.region_mut(region).initial_effect = effect;
        self
    }

    /// Sets a state's entry behaviour.
    pub fn on_entry(&mut self, state: StateId, actions: Vec<Action>) -> &mut Self {
        self.machine.state_mut(state).entry = actions;
        self
    }

    /// Sets a state's exit behaviour.
    pub fn on_exit(&mut self, state: StateId, actions: Vec<Action>) -> &mut Self {
        self.machine.state_mut(state).exit = actions;
        self
    }

    /// Starts a transition from `source` to `target`; finish with
    /// [`TransitionBuilder::build`]. Without [`on`](TransitionBuilder::on)
    /// the transition is a completion transition.
    pub fn transition(&mut self, source: StateId, target: StateId) -> TransitionBuilder<'_> {
        TransitionBuilder {
            machine: &mut self.machine,
            transition: Transition {
                source,
                target,
                trigger: Trigger::Completion,
                guard: None,
                effect: Vec::new(),
            },
        }
    }

    /// Validates and returns the machine.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found if the model is malformed
    /// (see [`StateMachine::validate`]).
    pub fn finish(self) -> Result<StateMachine, ValidateError> {
        self.machine.validate()?;
        Ok(self.machine)
    }

    /// Returns the machine without validating. Useful in tests that build
    /// deliberately malformed models.
    pub fn finish_unchecked(self) -> StateMachine {
        self.machine
    }
}

/// In-progress transition; created by [`MachineBuilder::transition`].
#[derive(Debug)]
pub struct TransitionBuilder<'a> {
    machine: &'a mut StateMachine,
    transition: Transition,
}

impl TransitionBuilder<'_> {
    /// Sets the trigger to an event.
    pub fn on(mut self, event: EventId) -> Self {
        self.transition.trigger = Trigger::Event(event);
        self
    }

    /// Marks the transition as a completion transition (the default).
    pub fn on_completion(mut self) -> Self {
        self.transition.trigger = Trigger::Completion;
        self
    }

    /// Sets the guard.
    pub fn when(mut self, guard: Expr) -> Self {
        self.transition.guard = Some(guard);
        self
    }

    /// Sets the effect behaviour.
    pub fn then(mut self, effect: Vec<Action>) -> Self {
        self.transition.effect = effect;
        self
    }

    /// Adds the transition to the machine and returns its id.
    pub fn build(self) -> TransitionId {
        self.machine.add_transition(self.transition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn builds_valid_machine() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let f = b.final_state("End");
        let e = b.event("finish");
        b.initial(a);
        b.transition(a, f).on(e).build();
        let m = b.finish().expect("valid machine");
        assert_eq!(m.name(), "m");
        assert_eq!(m.states().count(), 2);
    }

    #[test]
    fn finish_rejects_missing_initial() {
        let mut b = MachineBuilder::new("m");
        let _a = b.state("A");
        assert!(b.finish().is_err());
    }

    #[test]
    fn transition_builder_sets_all_fields() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let c = b.state("C");
        let e = b.event("go");
        b.initial(a);
        let tid = b
            .transition(a, c)
            .on(e)
            .when(Expr::var("x").gt(Expr::int(0)))
            .then(vec![Action::emit("fired")])
            .build();
        b.variable("x", 0);
        let m = b.finish().expect("valid");
        let t = m.transition(tid);
        assert_eq!(t.trigger, Trigger::Event(e));
        assert!(t.guard.is_some());
        assert_eq!(t.effect.len(), 1);
    }

    #[test]
    fn composite_nests_regions() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let (c, inner) = b.composite("C");
        let i1 = b.state_in(inner, "I1");
        let fin = b.final_state_in(inner, "IEnd");
        let e = b.event("go");
        let e2 = b.event("step");
        b.initial(a);
        b.initial_in(inner, i1);
        b.transition(a, c).on(e).build();
        b.transition(i1, fin).on(e2).build();
        b.transition(c, a).on_completion().build();
        let m = b.finish().expect("valid");
        assert_eq!(m.depth_of(i1), 1);
        assert_eq!(m.region(inner).owner, Some(c));
    }
}
