//! Model rewriting passes.
//!
//! Each pass is a behaviour-preserving model refactoring in the sense of
//! §V of the paper: "a model transformation that guarantees the transition
//! from non optimized model to an optimized one by keeping unchanged its
//! behavior". Soundness rests on the conservative analyses of
//! [`crate::analysis`]; the [`crate::equivalence`] checker provides a
//! defence-in-depth dynamic check.

use umlsm::StateMachine;

use crate::analysis;
use crate::report::PassReport;
use crate::Optimization;

/// Removes states that can never become active (the paper's headline
/// optimization, Fig. 1 row 1) — including whole composite submachines that
/// are only reachable through completion-shadowed transitions (Fig. 1
/// row 2).
pub fn remove_unreachable_states(machine: &mut StateMachine) -> PassReport {
    let mut report = PassReport::new(Optimization::RemoveUnreachableStates.name());
    let reach = analysis::reachable_states(machine);
    let names: std::collections::BTreeMap<_, _> = machine
        .states()
        .map(|(id, s)| (id, s.name.clone()))
        .collect();
    // Remove top-level unreachable states first: removing a composite
    // cascades over its nested region, so skip states whose ancestor is
    // itself unreachable (they disappear with the ancestor).
    let unreachable = reach.unreachable_states(machine);
    for sid in unreachable {
        if machine.try_state(sid).is_none() {
            continue; // already removed by a cascading ancestor removal
        }
        // Skip nested states whose owning composite is also unreachable;
        // the composite's removal will cascade.
        let parent_region = machine.state(sid).parent;
        if let Some(owner) = machine.region(parent_region).owner {
            if !reach.is_reachable(owner) {
                continue;
            }
        }
        let (states, transitions) = machine.remove_state(sid);
        for s in states {
            report
                .removed_states
                .push(names.get(&s).cloned().unwrap_or_else(|| format!("{s}")));
        }
        report.removed_transitions += transitions.len();
    }
    report
}

/// Removes transitions that can never fire: constant-false guards and
/// event-triggered transitions shadowed by an unguarded completion
/// transition (under completion-priority semantics).
pub fn prune_dead_transitions(machine: &mut StateMachine) -> PassReport {
    let mut report = PassReport::new(Optimization::PruneDeadTransitions.name());
    for (tid, reason) in analysis::dead_transitions(machine) {
        // Unreachable sources are `remove_unreachable_states`' concern; this
        // pass handles locally-provable dead arcs so it is useful on its
        // own (the paper's tool lets the user pick passes individually).
        if reason == analysis::DeadTransitionReason::SourceUnreachable {
            continue;
        }
        if machine.remove_transition(tid).is_some() {
            report.removed_transitions += 1;
            report.notes.push(format!("{tid}: {reason:?}"));
        }
    }
    report
}

/// Constant-folds guards; removes guards that fold to `true`.
pub fn simplify_guards(machine: &mut StateMachine) -> PassReport {
    let mut report = PassReport::new(Optimization::SimplifyGuards.name());
    let tids: Vec<_> = machine.transitions().map(|(id, _)| id).collect();
    for tid in tids {
        let t = machine.transition(tid);
        let Some(guard) = &t.guard else { continue };
        let folded = guard.fold();
        if folded.is_const_true() {
            machine.transition_mut(tid).guard = None;
            report.rewritten += 1;
        } else if folded != *guard {
            machine.transition_mut(tid).guard = Some(folded);
            report.rewritten += 1;
        }
    }
    report
}

/// Merges behaviourally equivalent simple states (model refactoring à la
/// FSM minimization, restricted to structurally identical behaviour; see
/// [`analysis::equivalence_classes`]).
pub fn merge_equivalent_states(machine: &mut StateMachine) -> PassReport {
    let mut report = PassReport::new(Optimization::MergeEquivalentStates.name());
    for class in analysis::equivalence_classes(machine) {
        let Some((&keep, rest)) = class.split_first() else {
            continue;
        };
        for &dup in rest {
            let name = machine.state(dup).name.clone();
            let keep_name = machine.state(keep).name.clone();
            machine.redirect_state(dup, keep);
            let (states, transitions) = machine.remove_state(dup);
            report
                .removed_states
                .extend(states.iter().map(|s| format!("{s}")));
            report.removed_transitions += transitions.len();
            report
                .notes
                .push(format!("merged `{name}` into `{keep_name}`"));
        }
    }
    report
}

/// Removes event declarations no live transition is triggered by. Shrinks
/// the event dispatch tables of every generated pattern.
pub fn remove_unused_events(machine: &mut StateMachine) -> PassReport {
    let mut report = PassReport::new(Optimization::RemoveUnusedEvents.name());
    for eid in analysis::unused_events(machine) {
        if machine.remove_event(eid).is_some() {
            report.removed_events += 1;
        }
    }
    report
}

/// Removes context variables never read anywhere, together with the
/// assignments that wrote them (right-hand sides are side-effect free, so
/// dropping the writes is unobservable).
pub fn remove_unused_variables(machine: &mut StateMachine) -> PassReport {
    let mut report = PassReport::new(Optimization::RemoveUnusedVariables.name());
    let unread = analysis::unread_variables(machine);
    if unread.is_empty() {
        return report;
    }
    let is_dead = |var: &str| unread.iter().any(|u| u == var);

    fn strip(actions: &mut Vec<umlsm::Action>, is_dead: &dyn Fn(&str) -> bool) -> usize {
        let mut removed = 0;
        actions.retain_mut(|a| match a {
            umlsm::Action::Assign { var, .. } => {
                if is_dead(var) {
                    removed += 1;
                    false
                } else {
                    true
                }
            }
            umlsm::Action::Emit { .. } => true,
            umlsm::Action::If {
                then_actions,
                else_actions,
                ..
            } => {
                removed += strip(then_actions, is_dead);
                removed += strip(else_actions, is_dead);
                true
            }
        });
        removed
    }

    let sids: Vec<_> = machine.states().map(|(id, _)| id).collect();
    for sid in sids {
        let state = machine.state_mut(sid);
        report.rewritten += strip(&mut state.entry, &is_dead);
        report.rewritten += strip(&mut state.exit, &is_dead);
    }
    let tids: Vec<_> = machine.transitions().map(|(id, _)| id).collect();
    for tid in tids {
        report.rewritten += strip(&mut machine.transition_mut(tid).effect, &is_dead);
    }
    let rids: Vec<_> = machine.regions().map(|(id, _)| id).collect();
    for rid in rids {
        report.rewritten += strip(&mut machine.region_mut(rid).initial_effect, &is_dead);
    }
    for var in unread {
        machine.remove_variable(&var);
        report.removed_variables += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use umlsm::samples;
    use umlsm::{Action, Expr, MachineBuilder};

    #[test]
    fn unreachable_pass_removes_s2() {
        let mut m = samples::flat_unreachable();
        let report = remove_unreachable_states(&mut m);
        assert_eq!(report.removed_states.len(), 1);
        assert!(m.state_by_name("S2").is_none());
        assert!(m.validate().is_ok(), "optimized model must stay valid");
    }

    #[test]
    fn unreachable_pass_removes_whole_composite() {
        let mut m = samples::hierarchical_never_active();
        let states_before = m.metrics().states;
        let report = remove_unreachable_states(&mut m);
        // S3 + 4 substates + nested final all go.
        assert_eq!(report.removed_states.len(), 6);
        assert_eq!(m.metrics().states, states_before - 6);
        assert!(m.state_by_name("S3").is_none());
        assert!(m.state_by_name("S3_Work").is_none());
        assert!(m.validate().is_ok());
    }

    #[test]
    fn unreachable_pass_is_idempotent() {
        let mut m = samples::hierarchical_never_active();
        remove_unreachable_states(&mut m);
        let second = remove_unreachable_states(&mut m);
        assert!(!second.changed());
    }

    #[test]
    fn prune_removes_shadowed_and_false_guards() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let c = b.state("B");
        let d = b.state("C");
        let fin = b.final_state("End");
        let e = b.event("go");
        b.initial(a);
        b.transition(a, fin).on_completion().build();
        b.transition(a, c).on(e).build(); // shadowed
        b.transition(c, d).on(e).when(Expr::bool(false)).build(); // false guard
        let mut m = b.finish().expect("valid");
        let report = prune_dead_transitions(&mut m);
        assert_eq!(report.removed_transitions, 2);
    }

    #[test]
    fn simplify_guards_folds_and_drops() {
        let mut b = MachineBuilder::new("m");
        b.variable("x", 0);
        let a = b.state("A");
        let c = b.state("B");
        let e = b.event("go");
        b.initial(a);
        b.transition(a, c)
            .on(e)
            .when(Expr::int(1).eq(Expr::int(1)))
            .build();
        let folded = b
            .transition(c, a)
            .on(e)
            .when(Expr::var("x").gt(Expr::int(2).add(Expr::int(3))))
            .build();
        let mut m = b.finish().expect("valid");
        let report = simplify_guards(&mut m);
        assert_eq!(report.rewritten, 2);
        assert_eq!(
            m.transition(folded).guard,
            Some(Expr::var("x").gt(Expr::int(5)))
        );
        // The always-true guard disappeared entirely.
        assert!(m.transitions().filter(|(_, t)| t.guard.is_none()).count() >= 1);
    }

    #[test]
    fn merge_pass_collapses_duplicates() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let x = b.state("X");
        let y = b.state("Y");
        let f = b.state("Tail");
        let e1 = b.event("e1");
        let e2 = b.event("e2");
        b.initial(a);
        b.on_entry(x, vec![Action::emit("mid")]);
        b.on_entry(y, vec![Action::emit("mid")]);
        b.transition(a, x).on(e1).build();
        b.transition(a, y).on(e2).build();
        b.transition(x, f).on(e1).build();
        b.transition(y, f).on(e1).build();
        let mut m = b.finish().expect("valid");
        let before = m.metrics().states;
        let report = merge_equivalent_states(&mut m);
        assert_eq!(report.removed_states.len(), 1);
        assert_eq!(m.metrics().states, before - 1);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn unused_event_pass_shrinks_alphabet() {
        let mut b = MachineBuilder::new("m");
        let a = b.state("A");
        let used = b.event("used");
        b.event("never");
        b.initial(a);
        b.transition(a, a).on(used).build();
        let mut m = b.finish().expect("valid");
        let report = remove_unused_events(&mut m);
        assert_eq!(report.removed_events, 1);
        assert!(m.event_by_name("never").is_none());
        assert!(m.event_by_name("used").is_some());
    }

    #[test]
    fn unused_variable_pass_strips_assignments() {
        let mut b = MachineBuilder::new("m");
        b.variable("live", 0);
        b.variable("ghost", 0);
        let a = b.state("A");
        b.initial(a);
        b.on_entry(
            a,
            vec![
                Action::assign("ghost", Expr::var("live").add(Expr::int(1))),
                Action::emit_arg("out", Expr::var("live")),
            ],
        );
        let mut m = b.finish().expect("valid");
        let report = remove_unused_variables(&mut m);
        assert_eq!(report.removed_variables, 1);
        assert_eq!(report.rewritten, 1);
        assert!(m.variables().get("ghost").is_none());
        assert!(m.validate().is_ok());
        // The emit stays.
        let sid = m.state_by_name("A").expect("A");
        assert_eq!(m.state(sid).entry.len(), 1);
    }
}
