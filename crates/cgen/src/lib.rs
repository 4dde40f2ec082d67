//! `cgen` — code generation from UML state machines.
//!
//! Implements the three implementation patterns of §III.B of the paper:
//!
//! * **Nested Switch Case** ([`Pattern::NestedSwitch`]) — "an outer case
//!   statement that selects the current state and an inner case statement
//!   that selects the appropriate behavior given the type of the received
//!   event"; the most commonly used pattern.
//! * **State Transition Table** ([`Pattern::StateTable`]) — "a 2 dimensions
//!   table describing the relation between states and events", scanned by a
//!   small generic engine; data-heavy, code-light.
//! * **State Pattern** ([`Pattern::StatePattern`]) — "each state is
//!   implemented as a whole class"; reproduced as per-state handler
//!   functions plus a per-state table of function pointers (the moral
//!   vtable), dispatched through indirect calls.
//!
//! Every pattern emits the same runtime interface (the paper fixes the
//! execution semantics before generating code):
//!
//! * `sm_init()` — resets the context and enters the initial configuration,
//! * `sm_step(ev: i32)` — dispatches one event occurrence and runs the
//!   run-to-completion step (completion transitions chained eagerly),
//! * `sm_state() -> i32` — the active root-region state code (debugging),
//! * observable behaviour is reported through the `env_emit(signal, arg)`
//!   extern.
//!
//! Composite states map to a dedicated implementation unit (their own
//! enter/exit/dispatch functions, table block or handler set). When the
//! model optimizer removes a composite state, that entire unit vanishes
//! from the generated program — "when we optimize the model, the whole
//! class is removed".
//!
//! # Example
//!
//! ```
//! use cgen::{generate, Pattern};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = umlsm::samples::flat_unreachable();
//! let generated = generate(&machine, Pattern::NestedSwitch)?;
//! generated.module.check()?;
//! assert!(generated.module.to_source().contains("fn sm_step"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actions;
mod codes;
mod common;
mod exec;
mod nested_switch;
mod state_pattern;
mod stt;

use std::fmt;

use umlsm::StateMachine;

pub use codes::CodeMap;
pub use exec::{run_generated, GeneratedRun};

/// The implementation pattern to generate (§III.B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pattern {
    /// Nested switch-case statements (the paper's default).
    NestedSwitch,
    /// State transition table + generic engine.
    StateTable,
    /// State Pattern: per-state handlers behind function-pointer tables.
    StatePattern,
}

impl Pattern {
    /// All patterns, in the paper's Table I row order.
    pub fn all() -> [Pattern; 3] {
        [
            Pattern::StateTable,
            Pattern::NestedSwitch,
            Pattern::StatePattern,
        ]
    }

    /// Human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::NestedSwitch => "Nested Switch",
            Pattern::StateTable => "STT",
            Pattern::StatePattern => "State Pattern",
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A code-generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The model failed validation.
    InvalidModel(String),
    /// The machine's semantics are outside what the generators implement
    /// (the paper fixes completion-priority, innermost-first semantics
    /// before generating).
    UnsupportedSemantics(String),
    /// A chain of always-firing completion transitions forms a cycle; the
    /// generated code would recurse forever.
    CompletionCycle(String),
    /// A model constant does not fit the target's 32-bit integers.
    ConstantOutOfRange(i64),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            CodegenError::UnsupportedSemantics(msg) => {
                write!(f, "unsupported semantics: {msg}")
            }
            CodegenError::CompletionCycle(state) => {
                write!(f, "completion-transition cycle through `{state}`")
            }
            CodegenError::ConstantOutOfRange(v) => {
                write!(f, "constant {v} does not fit the target i32")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// A generated program plus the code maps needed to drive it.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The generated compilation unit.
    pub module: tlang::Module,
    /// Event/signal/state numbering used by the program.
    pub codes: CodeMap,
    /// The pattern that was generated.
    pub pattern: Pattern,
}

/// Generates code for `machine` using `pattern`.
///
/// # Errors
///
/// Fails if the model is invalid, uses semantics outside the generated
/// subset (completion priority off), contains an
/// unconditional completion cycle, or uses constants beyond `i32`.
pub fn generate(machine: &StateMachine, pattern: Pattern) -> Result<Generated, CodegenError> {
    machine
        .validate()
        .map_err(|e| CodegenError::InvalidModel(e.to_string()))?;
    let sem = machine.semantics();
    if !sem.completion_priority {
        return Err(CodegenError::UnsupportedSemantics(
            "generators implement the paper's completion-priority semantics".into(),
        ));
    }
    let gen = common::Gen::new(machine)?;
    let module = match pattern {
        Pattern::NestedSwitch => nested_switch::emit(&gen)?,
        Pattern::StateTable => stt::emit(&gen)?,
        Pattern::StatePattern => state_pattern::emit(&gen)?,
    };
    Ok(Generated {
        module,
        codes: gen.into_codes(),
        pattern,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use umlsm::samples;

    #[test]
    fn all_patterns_generate_checkable_modules_for_all_samples() {
        let machines = [
            samples::flat_unreachable(),
            samples::hierarchical_never_active(),
            samples::flat_with_unreachable(3),
            samples::cruise_control(),
            samples::protocol_handler(),
        ];
        for m in &machines {
            for p in Pattern::all() {
                let g = generate(m, p).unwrap_or_else(|e| panic!("{} / {p}: {e}", m.name()));
                g.module
                    .check()
                    .unwrap_or_else(|e| panic!("{} / {p}: type error {e}", m.name()));
            }
        }
    }

    #[test]
    fn fallback_semantics_rejected() {
        let mut m = samples::flat_unreachable();
        m.set_semantics(umlsm::Semantics::completion_as_fallback());
        assert!(matches!(
            generate(&m, Pattern::NestedSwitch),
            Err(CodegenError::UnsupportedSemantics(_))
        ));
    }

    #[test]
    fn pattern_labels_match_table1() {
        assert_eq!(Pattern::StateTable.label(), "STT");
        assert_eq!(Pattern::NestedSwitch.label(), "Nested Switch");
        assert_eq!(Pattern::StatePattern.label(), "State Pattern");
    }
}
