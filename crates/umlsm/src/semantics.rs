//! Semantic variation points.
//!
//! UML state machines deliberately leave several execution-semantics choices
//! open ("semantic variation points", §III.B of the paper). The paper fixes
//! one interpretation before generating code; this module makes the same
//! choices explicit and machine-checkable so that the model optimizer, the
//! interpreter and every code generator agree on one semantics — and so the
//! benches can *flip* a variation point to show which optimizations stop
//! being sound (Table II's "independent from semantics: NO" row).
//!
//! One variation point is a knob: [`Semantics::completion_priority`].
//! Two are fixed at UML's defaults, the paper's choice, throughout the
//! chain: of several enabled transitions the innermost active state's
//! wins, and an event no active state handles is discarded.

use std::fmt;

/// The fixed execution semantics of one machine.
///
/// # Example
///
/// ```
/// use umlsm::Semantics;
///
/// let s = Semantics::default();
/// assert!(s.completion_priority);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Semantics {
    /// If `true` (UML default, and the semantics the paper fixes),
    /// completion transitions fire eagerly during the run-to-completion
    /// step, *before* any further event is dispatched: "the completion
    /// transition is first fired whatever the received event is".
    ///
    /// The never-active-composite optimization (Fig. 1, row 2) is only sound
    /// under this setting — with `false` the optimizer must keep the
    /// composite.
    pub completion_priority: bool,
    /// Safety bound on chained completion transitions within one
    /// run-to-completion step; exceeding it is reported as a model error
    /// (a completion-transition cycle would otherwise livelock).
    pub max_completion_chain: u32,
}

impl Default for Semantics {
    fn default() -> Self {
        Semantics {
            completion_priority: true,
            max_completion_chain: 64,
        }
    }
}

impl Semantics {
    /// The semantics fixed by the paper before generating code: completion
    /// priority on.
    pub fn paper() -> Self {
        Semantics::default()
    }

    /// A deliberately non-standard semantics where completion transitions
    /// only fire when no event-triggered transition is enabled. Used by the
    /// ablation benches: under this semantics the "never active composite"
    /// of Fig. 1 *is* reachable and must not be removed.
    pub fn completion_as_fallback() -> Self {
        Semantics {
            completion_priority: false,
            ..Semantics::default()
        }
    }
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "completion_priority={}", self.completion_priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        assert_eq!(Semantics::default(), Semantics::paper());
    }

    #[test]
    fn fallback_disables_priority() {
        let s = Semantics::completion_as_fallback();
        assert!(!s.completion_priority);
    }

    #[test]
    fn display_mentions_priority() {
        let text = Semantics::paper().to_string();
        assert!(text.contains("completion_priority=true"));
    }
}
