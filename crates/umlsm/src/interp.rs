//! Reference interpreter: executable run-to-completion semantics.
//!
//! The interpreter is the behavioural oracle of the toolchain. Model
//! optimizations must preserve its *observable trace* (the sequence of
//! [`Action::Emit`](crate::Action::Emit) occurrences), and generated +
//! compiled code is checked against the same trace end-to-end.
//!
//! The semantics implemented here is the one the paper fixes before
//! generating code (see [`Semantics`](crate::Semantics)): in particular,
//! when [`completion_priority`](crate::Semantics::completion_priority) is
//! set, enabled completion transitions fire eagerly during the
//! run-to-completion step — "the completion transition is first fired
//! whatever the received event is" — which is what makes the composite state
//! of the paper's Fig. 1 unreachable.

use std::collections::BTreeMap;
use std::fmt;

use crate::action::Action;
use crate::expr::EvalError;
use crate::ids::{EventId, StateId};
use crate::machine::{StateKind, StateMachine, Trigger};

/// One entry of an execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A state was entered (after its entry actions ran).
    Enter(String),
    /// A state was exited (after its exit actions ran).
    Exit(String),
    /// An observable signal emission.
    Emit {
        /// Signal name.
        signal: String,
        /// Payload (0 when the emission carried none).
        arg: i64,
    },
    /// An event occurrence was dispatched to the machine.
    Dispatch(String),
    /// An event occurrence was discarded (no enabled transition).
    Discard(String),
    /// A completion transition fired.
    Completion {
        /// Source state name.
        from: String,
        /// Target state name.
        to: String,
    },
    /// The machine reached a top-level final state.
    Terminated,
}

/// A full execution trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Trace entries in execution order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Projects the trace onto its observable part: the emissions.
    ///
    /// This is the behaviour that model optimization and code generation
    /// must preserve bit-for-bit.
    pub fn observable(&self) -> Vec<(String, i64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Emit { signal, arg } => Some((signal.clone(), *arg)),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            match e {
                TraceEvent::Enter(s) => writeln!(f, "enter {s}")?,
                TraceEvent::Exit(s) => writeln!(f, "exit {s}")?,
                TraceEvent::Emit { signal, arg } => writeln!(f, "emit {signal}({arg})")?,
                TraceEvent::Dispatch(e) => writeln!(f, "dispatch {e}")?,
                TraceEvent::Discard(e) => writeln!(f, "discard {e}")?,
                TraceEvent::Completion { from, to } => writeln!(f, "completion {from} -> {to}")?,
                TraceEvent::Terminated => writeln!(f, "terminated")?,
            }
        }
        Ok(())
    }
}

/// An execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// A guard or action failed to evaluate.
    Eval(EvalError),
    /// More chained completion transitions fired in one run-to-completion
    /// step than [`Semantics::max_completion_chain`] allows — the model
    /// contains a completion cycle.
    ///
    /// [`Semantics::max_completion_chain`]: crate::Semantics::max_completion_chain
    CompletionLoop {
        /// The state at which the bound was hit.
        state: String,
    },
    /// The machine has no initial state to start from.
    NoInitialState,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Eval(e) => write!(f, "evaluation failed: {e}"),
            InterpError::CompletionLoop { state } => {
                write!(f, "completion transition loop detected at `{state}`")
            }
            InterpError::NoInitialState => write!(f, "machine has no initial state"),
        }
    }
}

impl std::error::Error for InterpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InterpError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for InterpError {
    fn from(e: EvalError) -> Self {
        InterpError::Eval(e)
    }
}

/// An executing instance of a state machine.
///
/// # Example
///
/// ```
/// use umlsm::{Action, Interp, MachineBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = MachineBuilder::new("m");
/// let a = b.state("A");
/// let c = b.state("B");
/// let go = b.event("go");
/// b.initial(a);
/// b.on_entry(c, vec![Action::emit("arrived")]);
/// b.transition(a, c).on(go).build();
/// let m = b.finish()?;
///
/// let mut interp = Interp::new(&m)?;
/// interp.step(go)?;
/// assert_eq!(interp.trace().observable(), vec![("arrived".to_string(), 0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Interp<'m> {
    machine: &'m StateMachine,
    vars: BTreeMap<String, i64>,
    /// Active state path: `config[0]` is the active state of the root
    /// region, `config[i + 1]` the active substate of `config[i]`.
    config: Vec<StateId>,
    trace: Trace,
    terminated: bool,
}

impl<'m> Interp<'m> {
    /// Creates an instance and performs the initial entry (including the
    /// initial run-to-completion step under completion-priority semantics).
    ///
    /// # Errors
    ///
    /// Returns an error if the machine has no initial state, if an
    /// expression fails to evaluate, or if completion transitions cycle.
    pub fn new(machine: &'m StateMachine) -> Result<Interp<'m>, InterpError> {
        let mut interp = Interp {
            machine,
            vars: machine.variables().clone(),
            config: Vec::new(),
            trace: Trace::default(),
            terminated: false,
        };
        let root = machine.root();
        let initial = machine
            .region(root)
            .initial
            .ok_or(InterpError::NoInitialState)?;
        let effect = machine.region(root).initial_effect.clone();
        interp.run_actions(&effect)?;
        interp.enter_state(initial)?;
        if machine.semantics().completion_priority {
            interp.run_to_completion()?;
        }
        Ok(interp)
    }

    /// The machine being executed.
    pub fn machine(&self) -> &'m StateMachine {
        self.machine
    }

    /// Current values of the context variables.
    pub fn vars(&self) -> &BTreeMap<String, i64> {
        &self.vars
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Names of the active states, outermost first.
    pub fn configuration(&self) -> Vec<String> {
        self.config
            .iter()
            .map(|s| self.machine.state(*s).name.clone())
            .collect()
    }

    /// `true` once a top-level final state has been reached.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Dispatches one event occurrence and runs a full run-to-completion
    /// step.
    ///
    /// # Errors
    ///
    /// Returns an error if an expression fails to evaluate or completion
    /// transitions cycle.
    pub fn step(&mut self, event: EventId) -> Result<(), InterpError> {
        let name = self.machine.event(event).name.clone();
        self.trace.events.push(TraceEvent::Dispatch(name.clone()));
        if self.terminated {
            self.discard(&name);
            return Ok(());
        }
        // Select an enabled event-triggered transition, innermost first.
        if let Some((depth, tid)) = self.select_transition(Some(event))? {
            self.fire(depth, tid)?;
            if self.machine.semantics().completion_priority {
                self.run_to_completion()?;
            }
            return Ok(());
        }
        // Fallback semantics (ablation): completion transitions fire only
        // when no event-triggered transition handled the occurrence.
        if !self.machine.semantics().completion_priority {
            if let Some((depth, tid)) = self.select_transition(None)? {
                self.fire(depth, tid)?;
                return Ok(());
            }
        }
        self.discard(&name);
        Ok(())
    }

    /// Dispatches an event looked up by name. Unknown names are recorded as
    /// discarded occurrences (the environment sent an event the machine does
    /// not declare).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`step`](Self::step).
    pub fn step_by_name(&mut self, name: &str) -> Result<(), InterpError> {
        match self.machine.event_by_name(name) {
            Some(e) => self.step(e),
            None => {
                self.trace
                    .events
                    .push(TraceEvent::Dispatch(name.to_string()));
                self.discard(name);
                Ok(())
            }
        }
    }

    /// Dispatches a sequence of events.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`step`](Self::step).
    pub fn run(&mut self, events: &[EventId]) -> Result<(), InterpError> {
        for e in events {
            self.step(*e)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------

    fn discard(&mut self, name: &str) {
        self.trace
            .events
            .push(TraceEvent::Discard(name.to_string()));
    }

    /// Finds the highest-priority enabled transition. `event: Some(e)`
    /// selects event-triggered transitions for `e`; `None` selects
    /// completion transitions (whose sources must be complete).
    fn select_transition(
        &self,
        event: Option<EventId>,
    ) -> Result<Option<(usize, crate::ids::TransitionId)>, InterpError> {
        // Innermost first: a nested state's transition wins a conflict.
        for depth in (0..self.config.len()).rev() {
            let sid = self.config[depth];
            if event.is_none() && !self.state_is_complete(depth) {
                continue;
            }
            for tid in self.machine.transitions_from(sid) {
                let t = self.machine.transition(tid);
                let wanted = match (event, t.trigger) {
                    (Some(e), Trigger::Event(te)) => e == te,
                    (None, Trigger::Completion) => true,
                    _ => false,
                };
                if !wanted {
                    continue;
                }
                if let Some(guard) = &t.guard {
                    if !guard.eval(&self.vars)?.as_bool()? {
                        continue;
                    }
                }
                return Ok(Some((depth, tid)));
            }
        }
        Ok(None)
    }

    /// A state of the active configuration is *complete* when it can take
    /// completion transitions: simple states immediately, composite states
    /// once their region's active state is final (or the region is empty).
    fn state_is_complete(&self, depth: usize) -> bool {
        let sid = self.config[depth];
        match self.machine.state(sid).kind {
            StateKind::Simple | StateKind::Final => true,
            StateKind::Composite(_) => match self.config.get(depth + 1) {
                None => true,
                Some(sub) => self.machine.state(*sub).is_final(),
            },
        }
    }

    fn fire(&mut self, depth: usize, tid: crate::ids::TransitionId) -> Result<(), InterpError> {
        let t = self.machine.transition(tid).clone();
        if t.is_completion() {
            self.trace.events.push(TraceEvent::Completion {
                from: self.machine.state(t.source).name.clone(),
                to: self.machine.state(t.target).name.clone(),
            });
        }
        // Exit the source state and everything nested in it, innermost
        // first.
        while self.config.len() > depth {
            let sid = self.config.pop().expect("non-empty config");
            let exit = self.machine.state(sid).exit.clone();
            self.run_actions(&exit)?;
            self.trace
                .events
                .push(TraceEvent::Exit(self.machine.state(sid).name.clone()));
        }
        self.run_actions(&t.effect)?;
        self.enter_state(t.target)?;
        Ok(())
    }

    fn enter_state(&mut self, sid: StateId) -> Result<(), InterpError> {
        let state = self.machine.state(sid).clone();
        self.run_actions(&state.entry)?;
        self.trace
            .events
            .push(TraceEvent::Enter(state.name.clone()));
        self.config.push(sid);
        if state.is_final() && state.parent == self.machine.root() {
            self.terminated = true;
            self.trace.events.push(TraceEvent::Terminated);
        }
        if let StateKind::Composite(region) = state.kind {
            let r = self.machine.region(region).clone();
            if let Some(initial) = r.initial {
                self.run_actions(&r.initial_effect)?;
                self.enter_state(initial)?;
            }
        }
        Ok(())
    }

    fn run_to_completion(&mut self) -> Result<(), InterpError> {
        let max = self.machine.semantics().max_completion_chain;
        for _ in 0..max {
            match self.select_transition(None)? {
                Some((depth, tid)) => self.fire(depth, tid)?,
                None => return Ok(()),
            }
        }
        let state = self
            .config
            .last()
            .map(|s| self.machine.state(*s).name.clone())
            .unwrap_or_default();
        Err(InterpError::CompletionLoop { state })
    }

    fn run_actions(&mut self, actions: &[Action]) -> Result<(), InterpError> {
        for a in actions {
            self.run_action(a)?;
        }
        Ok(())
    }

    fn run_action(&mut self, action: &Action) -> Result<(), InterpError> {
        match action {
            Action::Assign { var, value } => {
                let v = value.eval(&self.vars)?.as_int()?;
                self.vars.insert(var.clone(), v);
            }
            Action::Emit { signal, arg } => {
                let arg = match arg {
                    Some(a) => a.eval(&self.vars)?.as_int()?,
                    None => 0,
                };
                self.trace.events.push(TraceEvent::Emit {
                    signal: signal.clone(),
                    arg,
                });
            }
            Action::If {
                cond,
                then_actions,
                else_actions,
            } => {
                if cond.eval(&self.vars)?.as_bool()? {
                    self.run_actions(then_actions)?;
                } else {
                    self.run_actions(else_actions)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MachineBuilder;
    use crate::expr::Expr;
    use crate::semantics::Semantics;

    fn two_state() -> (StateMachine, EventId) {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let c = b.state("B");
        let go = b.event("go");
        b.initial(a);
        b.on_entry(a, vec![Action::emit("in_a")]);
        b.on_exit(a, vec![Action::emit("out_a")]);
        b.on_entry(c, vec![Action::emit("in_b")]);
        b.transition(a, c)
            .on(go)
            .then(vec![Action::emit("effect")])
            .build();
        (b.finish().expect("valid"), go)
    }

    #[test]
    fn entry_exit_effect_order() {
        let (m, go) = two_state();
        let mut i = Interp::new(&m).expect("start");
        i.step(go).expect("step");
        assert_eq!(
            i.trace().observable(),
            vec![
                ("in_a".to_string(), 0),
                ("out_a".to_string(), 0),
                ("effect".to_string(), 0),
                ("in_b".to_string(), 0),
            ]
        );
        assert_eq!(i.configuration(), vec!["B".to_string()]);
    }

    #[test]
    fn unmatched_event_is_discarded() {
        let (m, _) = two_state();
        let mut i = Interp::new(&m).expect("start");
        i.step_by_name("nonsense").expect("step");
        assert!(i
            .trace()
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Discard(_))));
        assert_eq!(i.configuration(), vec!["A".to_string()]);
    }

    #[test]
    fn guard_blocks_transition() {
        let mut b = MachineBuilder::new("m");
        b.variable("x", 0);
        let a = b.state("A");
        let c = b.state("B");
        let go = b.event("go");
        let inc = b.event("inc");
        b.initial(a);
        b.transition(a, c)
            .on(go)
            .when(Expr::var("x").ge(Expr::int(2)))
            .build();
        b.transition(a, a)
            .on(inc)
            .then(vec![Action::assign("x", Expr::var("x").add(Expr::int(1)))])
            .build();
        let m = b.finish().expect("valid");
        let mut i = Interp::new(&m).expect("start");
        i.step(go).expect("blocked");
        assert_eq!(i.configuration(), vec!["A".to_string()]);
        i.step(inc).expect("inc");
        i.step(inc).expect("inc");
        i.step(go).expect("now enabled");
        assert_eq!(i.configuration(), vec!["B".to_string()]);
        assert_eq!(i.vars()["x"], 2);
    }

    #[test]
    fn completion_priority_shadows_event_transition() {
        // The paper's Fig. 1 row 2 situation: S2 has an unguarded completion
        // transition to a final state AND an event transition to S3. Under
        // completion-priority semantics, S3 is never entered.
        let mut b = MachineBuilder::new("m");
        let s1 = b.state("S1");
        let s2 = b.state("S2");
        let s3 = b.state("S3");
        let fin = b.final_state("End");
        let e1 = b.event("e1");
        let e2 = b.event("e2");
        b.initial(s1);
        b.on_entry(s3, vec![Action::emit("entered_s3")]);
        b.transition(s1, s2).on(e1).build();
        b.transition(s2, s3).on(e2).build();
        b.transition(s2, fin).on_completion().build();
        let m = b.finish().expect("valid");

        let mut i = Interp::new(&m).expect("start");
        i.step(e1).expect("to s2, then completion to End");
        assert!(i.is_terminated());
        i.step(e2).expect("discarded after termination");
        assert!(i.trace().observable().is_empty(), "S3 never entered");
    }

    #[test]
    fn fallback_semantics_reaches_shadowed_state() {
        // Same machine, ablation semantics: e2 beats the completion
        // transition, so S3 *is* reachable — the optimization would be
        // unsound here.
        let mut b = MachineBuilder::new("m");
        b.semantics(Semantics::completion_as_fallback());
        let s1 = b.state("S1");
        let s2 = b.state("S2");
        let s3 = b.state("S3");
        let fin = b.final_state("End");
        let e1 = b.event("e1");
        let e2 = b.event("e2");
        b.initial(s1);
        b.on_entry(s3, vec![Action::emit("entered_s3")]);
        b.transition(s1, s2).on(e1).build();
        b.transition(s2, s3).on(e2).build();
        b.transition(s2, fin).on_completion().build();
        let m = b.finish().expect("valid");

        let mut i = Interp::new(&m).expect("start");
        i.step(e1).expect("to s2");
        i.step(e2).expect("to s3");
        assert_eq!(i.trace().observable(), vec![("entered_s3".to_string(), 0)]);
    }

    #[test]
    fn composite_entry_descends_to_initial() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let (c, inner) = b.composite("C");
        let i1 = b.state_in(inner, "I1");
        let go = b.event("go");
        b.initial(a);
        b.initial_in(inner, i1);
        b.on_entry(c, vec![Action::emit("in_c")]);
        b.on_entry(i1, vec![Action::emit("in_i1")]);
        b.transition(a, c).on(go).build();
        let m = b.finish().expect("valid");
        let mut i = Interp::new(&m).expect("start");
        i.step(go).expect("step");
        assert_eq!(i.configuration(), vec!["C".to_string(), "I1".to_string()]);
        assert_eq!(
            i.trace().observable(),
            vec![("in_c".to_string(), 0), ("in_i1".to_string(), 0)]
        );
    }

    #[test]
    fn composite_completion_fires_when_region_finishes() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let (c, inner) = b.composite("C");
        let i1 = b.state_in(inner, "I1");
        let ifin = b.final_state_in(inner, "IEnd");
        let d = b.state("D");
        let go = b.event("go");
        let finish = b.event("finish");
        b.initial(a);
        b.initial_in(inner, i1);
        b.on_entry(d, vec![Action::emit("in_d")]);
        b.transition(a, c).on(go).build();
        b.transition(i1, ifin).on(finish).build();
        b.transition(c, d).on_completion().build();
        let m = b.finish().expect("valid");
        let mut i = Interp::new(&m).expect("start");
        i.step(go).expect("enter composite");
        assert_eq!(i.configuration(), vec!["C".to_string(), "I1".to_string()]);
        i.step(finish).expect("finish region; completion to D");
        assert_eq!(i.configuration(), vec!["D".to_string()]);
        assert_eq!(i.trace().observable(), vec![("in_d".to_string(), 0)]);
    }

    #[test]
    fn event_on_composite_exits_substates_innermost_first() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let (c, inner) = b.composite("C");
        let i1 = b.state_in(inner, "I1");
        let go = b.event("go");
        let abort = b.event("abort");
        b.initial(a);
        b.initial_in(inner, i1);
        b.on_exit(i1, vec![Action::emit("out_i1")]);
        b.on_exit(c, vec![Action::emit("out_c")]);
        b.transition(a, c).on(go).build();
        b.transition(c, a).on(abort).build();
        let m = b.finish().expect("valid");
        let mut i = Interp::new(&m).expect("start");
        i.step(go).expect("in");
        i.step(abort).expect("out");
        assert_eq!(
            i.trace().observable(),
            vec![("out_i1".to_string(), 0), ("out_c".to_string(), 0)]
        );
        assert_eq!(i.configuration(), vec!["A".to_string()]);
    }

    #[test]
    fn innermost_transition_wins_conflicts() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let (c, inner) = b.composite("C");
        let i1 = b.state_in(inner, "I1");
        let i2 = b.state_in(inner, "I2");
        let go = b.event("go");
        let tick = b.event("tick");
        b.initial(a);
        b.initial_in(inner, i1);
        b.on_entry(i2, vec![Action::emit("inner_won")]);
        b.transition(a, c).on(go).build();
        // Both the composite and the inner state react to `tick`.
        b.transition(c, a).on(tick).build();
        b.transition(i1, i2).on(tick).build();
        let m = b.finish().expect("valid");
        let mut i = Interp::new(&m).expect("start");
        i.step(go).expect("in");
        i.step(tick).expect("conflict");
        assert_eq!(i.trace().observable(), vec![("inner_won".to_string(), 0)]);
        assert_eq!(i.configuration(), vec!["C".to_string(), "I2".to_string()]);
    }

    #[test]
    fn completion_loop_is_detected() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let c = b.state("B");
        b.initial(a);
        b.transition(a, c).on_completion().build();
        b.transition(c, a).on_completion().build();
        let m = b.finish().expect("valid");
        assert!(matches!(
            Interp::new(&m),
            Err(InterpError::CompletionLoop { .. })
        ));
    }

    #[test]
    fn self_transition_exits_and_reenters() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let go = b.event("go");
        b.initial(a);
        b.on_entry(a, vec![Action::emit("enter")]);
        b.on_exit(a, vec![Action::emit("exit")]);
        b.transition(a, a).on(go).build();
        let m = b.finish().expect("valid");
        let mut i = Interp::new(&m).expect("start");
        i.step(go).expect("self");
        assert_eq!(
            i.trace().observable(),
            vec![
                ("enter".to_string(), 0),
                ("exit".to_string(), 0),
                ("enter".to_string(), 0)
            ]
        );
    }

    #[test]
    fn emit_with_argument_evaluates_payload() {
        let mut b = MachineBuilder::new("m");
        b.variable("x", 20);
        let a = b.state("A");
        let go = b.event("go");
        b.initial(a);
        b.transition(a, a)
            .on(go)
            .then(vec![
                Action::assign("x", Expr::var("x").add(Expr::int(3))),
                Action::emit_arg("level", Expr::var("x")),
            ])
            .build();
        let m = b.finish().expect("valid");
        let mut i = Interp::new(&m).expect("start");
        i.step(go).expect("step");
        assert_eq!(i.trace().observable(), vec![("level".to_string(), 23)]);
    }
}
