//! `mbo` — model-based optimization of UML state machines.
//!
//! This crate implements the primary contribution of *"Toward optimized
//! code generation through model-based optimization"* (Charfi et al., DATE
//! 2010): an optimization level **above** the compiler's SSA level, operating
//! directly on the UML model *before* code generation, where
//! modeling-language semantics is still available.
//!
//! The paper's observations, reproduced here:
//!
//! * a state with no incoming transition is dead *model* code, but after
//!   code generation its implementation is still address-reachable, so
//!   compiler dead-code elimination keeps it ([`passes::remove_unreachable_states`]);
//! * under UML completion-priority semantics, an unguarded completion
//!   transition shadows every event-triggered transition out of the same
//!   state; states only reachable through shadowed transitions — including
//!   whole composite submachines — are never active
//!   ([`analysis::completion_shadowed_transitions`]);
//! * these facts are invisible at the compiler's level of abstraction and
//!   must be exploited "before their loss" — i.e. at the model level.
//!
//! The crate provides analyses ([`analysis`]), rewriting passes
//! ([`passes`]), a pass manager with the paper's *user-selectable*
//! optimizations plus the automatic mode its conclusion proposes
//! ([`Optimizer`]), a behaviour-preservation checker ([`equivalence`]) and
//! the Table II alternative-placement classification ([`alternatives`]).
//! The paper's two-step approach (model level, then compiler level) is
//! this crate's optimizer followed by code generation and compilation
//! downstream; the `twostep` bench binary composes it.
//!
//! # Example
//!
//! ```
//! use mbo::{Optimization, Optimizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = umlsm::samples::flat_unreachable();
//! let outcome = Optimizer::new()
//!     .select(Optimization::RemoveUnreachableStates)
//!     .optimize(&machine)?;
//! assert!(outcome.report.total_removed_states() >= 1);
//! assert!(outcome.machine.state_by_name("S2").is_none());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alternatives;
pub mod analysis;
pub mod equivalence;
mod optimizer;
pub mod passes;
mod report;

pub use optimizer::{Optimization, OptimizeError, OptimizeOutcome, Optimizer};
pub use report::{OptimizationReport, PassReport};
