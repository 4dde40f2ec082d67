//! Run-to-completion event storms: the deterministic time axis of the
//! bench snapshot.
//!
//! A *storm* initializes a generated state machine (`sm_init`) and then
//! delivers a deterministic cycling sequence of event codes through
//! `sm_step`, run to completion each time — the "heavy traffic" dispatch
//! load. The [canonical storm](STORM_EVENTS) yields three counts
//! ([`StormResult`]): events delivered, instructions executed and extern
//! calls made. By the two-engine contract of [`occ::vm`] they are the
//! same on every host, every run and both engines, so
//! [`crate::snapshot`] records the fast engine's instruction count per
//! cell for the regression gate and fails a cell whose reference-oracle
//! storm differs. Storm wall-clock is measured by the repository
//! benchmark (`perfbench/`, workload `storm`), not here.

use cgen::CodeMap;
use occ::vm::{Engine, FastVm, Vm, VmError};
use tlang::{Env, Value};

/// Events in the canonical deterministic storm — the storm whose counts
/// join the snapshot cells and the regression gate.
pub const STORM_EVENTS: usize = 512;

/// An [`Env`] that counts extern calls and discards them — storm runs
/// must not pay per-event trace allocation, and their observable output
/// is already locked by the differential nets.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingEnv {
    /// Extern calls observed.
    pub calls: u64,
}

impl Env for CountingEnv {
    fn call_extern(&mut self, _name: &str, _args: &[Value]) -> Result<Value, String> {
        self.calls += 1;
        Ok(Value::Int(0))
    }
}

/// What one canonical storm did. Both engines must produce equal results
/// for the same artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormResult {
    /// Events delivered through `sm_step` (after the one `sm_init`).
    pub events: usize,
    /// Instructions the engine executed for the whole storm, `sm_init`
    /// included — deterministic for a deterministic program.
    pub dyn_insts: u64,
    /// Extern calls the program made during the storm, `sm_init`'s
    /// included.
    pub extern_calls: u64,
}

/// Drives the [canonical storm](STORM_EVENTS) through a fresh engine:
/// `sm_init`, then [`STORM_EVENTS`] calls of `sm_step` cycling through the
/// machine's event codes in [`CodeMap`] order. `calls` reads the
/// extern-call count of the engine's [`CountingEnv`]; the result is the
/// engine's totals.
///
/// The engine's fuel is raised to `u64::MAX` first: storms are bounded by
/// the event count, not by a budget.
fn run_storm<E: Engine>(
    mut engine: E,
    calls: impl Fn(&E) -> u64,
    codes: &CodeMap,
) -> Result<StormResult, VmError> {
    engine.set_fuel(u64::MAX);
    engine.call("sm_init", &[])?;
    let n = codes.event_count();
    if n > 0 {
        // Wrapping counter instead of `i % n`: an integer division per
        // event would be measurement overhead on the same order as a
        // handful of dispatched instructions.
        let n = n as i64;
        let mut code: i64 = 0;
        for _ in 0..STORM_EVENTS {
            engine.call("sm_step", &[code as i32])?;
            code += 1;
            if code == n {
                code = 0;
            }
        }
    }
    Ok(StormResult {
        events: if n > 0 { STORM_EVENTS } else { 0 },
        dyn_insts: engine.executed(),
        extern_calls: calls(&engine),
    })
}

/// Runs the [canonical storm](STORM_EVENTS) on a freshly created fast
/// engine — the snapshot's per-cell deterministic measurement.
///
/// # Errors
///
/// Returns the first [`VmError`] (a generated program faulting under
/// storm load is a bug worth failing loudly on).
pub fn canonical_storm(artifact: &occ::Artifact, codes: &CodeMap) -> Result<StormResult, VmError> {
    let vm = FastVm::new(artifact.decoded(), CountingEnv::default());
    run_storm(vm, |vm| vm.env().calls, codes)
}

/// Runs the [canonical storm](STORM_EVENTS) on a freshly created
/// reference oracle — the result [`canonical_storm`] must equal.
///
/// # Errors
///
/// Returns the first [`VmError`].
pub fn canonical_oracle_storm(
    artifact: &occ::Artifact,
    codes: &CodeMap,
) -> Result<StormResult, VmError> {
    let vm = Vm::new(artifact.decoded(), CountingEnv::default());
    run_storm(vm, |vm| vm.env().calls, codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_generated, generate};
    use cgen::Pattern;
    use occ::OptLevel;
    use umlsm::samples;

    #[test]
    fn storm_is_deterministic_and_engine_agnostic() {
        let machine = samples::hierarchical_never_active();
        let generated = generate(&machine, Pattern::StateTable).expect("generates");
        let artifact = compile_generated(
            machine.name(),
            Pattern::StateTable,
            OptLevel::O2,
            &generated,
        )
        .expect("compiles");
        let a = canonical_storm(&artifact, &generated.codes).expect("storms");
        let b = canonical_storm(&artifact, &generated.codes).expect("storms");
        assert_eq!(a, b, "same program + storm must cost the same");
        assert_eq!(a.events, STORM_EVENTS);
        assert!(a.dyn_insts > 0 && a.extern_calls > 0, "{a:?}");
        // The oracle executes the exact same instructions and extern
        // calls: this is the two-engine contract under a real workload.
        let o = canonical_oracle_storm(&artifact, &generated.codes).expect("storms");
        assert_eq!(o, a, "oracle and fast engine storms must agree");
    }
}
