//! Executing generated programs against the model: the end-to-end
//! behaviour-preservation harness.
//!
//! A generated program must be observationally equivalent to the model
//! interpreter: driving `sm_step` with the same event sequence must produce
//! the same sequence of emissions. This module runs the generated module on
//! the [`tlang`] reference interpreter and decodes the `env_emit` trace
//! back to signal names.

use tlang::{ExecError, Interpreter, RecordingEnv, Value};

use crate::Generated;

/// The observable result of running a generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedRun {
    /// Decoded `(signal name, argument)` emissions in order.
    pub observable: Vec<(String, i64)>,
    /// Final root-region state code (`sm_state()`).
    pub final_state: i32,
}

/// Runs `sm_init` followed by `sm_step` for each event name.
///
/// Event names unknown to the generated program are skipped: the model
/// discards them without observable effect, so equivalence is preserved by
/// not delivering them at all.
///
/// # Errors
///
/// Propagates interpreter failures (these indicate a generator bug — the
/// module type-checks by construction).
pub fn run_generated(generated: &Generated, events: &[&str]) -> Result<GeneratedRun, ExecError> {
    let mut interp = Interpreter::new(&generated.module, RecordingEnv::new());
    interp.call("sm_init", &[])?;
    for name in events {
        if let Some(code) = generated.codes.event_code(name) {
            interp.call("sm_step", &[Value::Int(code as i32)])?;
        }
    }
    let final_state = match interp.call("sm_state", &[])? {
        Some(Value::Int(v)) => v,
        _ => -1,
    };
    Ok(GeneratedRun {
        observable: generated.codes.emissions(&interp.into_env().calls),
        final_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, Pattern};
    use umlsm::{samples, Interp};

    /// The flagship differential test: model interpreter vs generated code,
    /// all patterns, several event sequences.
    fn assert_equivalent(machine: &umlsm::StateMachine, events: &[&str]) {
        let mut model = Interp::new(machine).expect("model starts");
        for e in events {
            model.step_by_name(e).expect("model steps");
        }
        let expected = model.trace().observable();
        for pattern in Pattern::all() {
            let g = generate(machine, pattern).expect("generates");
            g.module.check().expect("type-checks");
            let run = run_generated(&g, events).expect("executes");
            assert_eq!(
                run.observable,
                expected,
                "{} / {pattern} diverges on {events:?}",
                machine.name()
            );
        }
    }

    #[test]
    fn flat_machine_equivalent_on_terminating_run() {
        let m = samples::flat_unreachable();
        assert_equivalent(&m, &["e1", "e2", "e1", "e3"]);
    }

    #[test]
    fn flat_machine_equivalent_with_discards() {
        let m = samples::flat_unreachable();
        assert_equivalent(&m, &["e2", "e2", "e1", "e1", "e3", "e1"]);
    }

    #[test]
    fn hierarchical_machine_equivalent() {
        let m = samples::hierarchical_never_active();
        assert_equivalent(&m, &["e1", "e2", "e3", "e4", "e1"]);
        assert_equivalent(&m, &["e2", "e4", "e1", "e1", "e2"]);
    }

    #[test]
    fn cruise_control_equivalent_through_composite() {
        let mut m = samples::cruise_control();
        m.set_variable("speed", 60);
        assert_equivalent(
            &m,
            &[
                "power", "set", "accel", "set", "accel", "brake", "resume", "power",
            ],
        );
    }

    #[test]
    fn protocol_handler_equivalent_full_session() {
        let m = samples::protocol_handler();
        assert_equivalent(
            &m,
            &[
                "open",
                "ack",
                "data",
                "data",
                "close",
                "downgrade",
                "ack",
                "open",
            ],
        );
    }

    #[test]
    fn optimized_model_generates_equivalent_code() {
        // Two-step sanity: optimize the model, generate, and compare against
        // the *original* model's behaviour.
        let m = samples::hierarchical_never_active();
        let opt = {
            let mut c = m.clone();
            let s3 = c.state_by_name("S3").expect("S3");
            c.remove_state(s3);
            c
        };
        let events = ["e1", "e2", "e1", "e2", "e3"];
        let mut model = Interp::new(&m).expect("model starts");
        for e in events {
            model.step_by_name(e).expect("model steps");
        }
        let expected = model.trace().observable();
        for pattern in Pattern::all() {
            let g = generate(&opt, pattern).expect("generates");
            let run = run_generated(&g, &events).expect("executes");
            assert_eq!(run.observable, expected, "{pattern}");
        }
    }

    #[test]
    fn final_state_reported() {
        let m = samples::flat_unreachable();
        let g = generate(&m, Pattern::NestedSwitch).expect("generates");
        let run = run_generated(&g, &["e1", "e3"]).expect("executes");
        let fin = m.state_by_name("Final").expect("Final");
        assert_eq!(
            i64::from(run.final_state),
            g.codes.state_code(fin).expect("code")
        );
    }
}
