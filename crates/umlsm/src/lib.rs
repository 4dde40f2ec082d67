//! `umlsm` — an executable UML state-machine model.
//!
//! This crate is the modeling substrate of the `mbot` toolchain, a
//! reproduction of *"Toward optimized code generation through model-based
//! optimization"* (Charfi et al., DATE 2010). It provides the subset of UML 2
//! state machines the paper exercises:
//!
//! * simple, composite and final states organised in [`Region`]s,
//! * transitions with event triggers, **completion transitions**, guards and
//!   effects,
//! * entry/exit actions written in a small action language ([`Expr`],
//!   [`Action`]),
//! * the *semantic variation points* the paper discusses, fixed by a
//!   [`Semantics`] value (most importantly completion-transition priority),
//! * a reference [`Interp`] interpreter implementing run-to-completion
//!   semantics, used as the behavioural oracle for model optimization and
//!   code generation,
//! * model [`validate`](StateMachine::validate) checks, Graphviz export and
//!   model metrics.
//!
//! # Example
//!
//! ```
//! use umlsm::MachineBuilder;
//!
//! # fn main() -> Result<(), umlsm::ValidateError> {
//! let mut b = MachineBuilder::new("blinker");
//! let off = b.state("Off");
//! let on = b.state("On");
//! let toggle = b.event("toggle");
//! b.initial(off);
//! b.transition(off, on).on(toggle).build();
//! b.transition(on, off).on(toggle).build();
//! let machine = b.finish()?;
//! assert_eq!(machine.metrics().states, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod builder;
mod dot;
mod expr;
pub mod gen;
mod ids;
mod interp;
mod machine;
mod metrics;
pub mod samples;
mod semantics;
mod validate;

pub use action::Action;
pub use builder::{MachineBuilder, TransitionBuilder};
pub use expr::{BinOp, EvalError, Expr, ExprType, UnOp, Value};
pub use ids::{EventId, RegionId, StateId, TransitionId};
pub use interp::{Interp, InterpError, Trace, TraceEvent};
pub use machine::{Event, Region, State, StateKind, StateMachine, Transition, Trigger};
pub use metrics::ModelMetrics;
pub use semantics::Semantics;
pub use validate::ValidateError;
