//! The single enumeration of the benchmark matrix: sample machine ×
//! implementation pattern × optimization level.
//!
//! Every bench binary used to hand-roll its own copy of these loops;
//! they all iterate this module now, so adding a sample machine or a
//! pattern changes the matrix in exactly one place. An [`Arm`] is one
//! machine × pattern combination — the unit that shares a single code
//! generation, because the generated event-code map defines the
//! canonical storm and every optimization level of an arm must see the
//! same storm.

use cgen::Pattern;
use occ::OptLevel;
use umlsm::{samples, StateMachine};

use crate::BenchError;

/// The sample machines the matrix measures, with stable short names.
pub fn sample_machines() -> Vec<(&'static str, StateMachine)> {
    vec![
        ("flat", samples::flat_unreachable()),
        ("hierarchical", samples::hierarchical_never_active()),
        ("cruise", samples::cruise_control()),
        ("protocol", samples::protocol_handler()),
    ]
}

/// One machine × pattern arm of the matrix. All four levels of an arm
/// share one generation (see the module doc).
#[derive(Debug, Clone)]
pub struct Arm {
    /// Stable short machine name (the snapshot-cell key component).
    pub name: String,
    /// The machine itself.
    pub machine: StateMachine,
    /// The implementation pattern.
    pub pattern: Pattern,
}

impl Arm {
    /// The `machine/pattern` key prefix of this arm's cells, the
    /// pattern label without its spaces.
    pub fn key(&self) -> String {
        format!("{}/{}", self.name, self.pattern.label().replace(' ', ""))
    }

    /// Generates this arm's code once, for use across every level.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Codegen`] naming the failing cell.
    pub fn generate(&self) -> Result<cgen::Generated, BenchError> {
        crate::generate(&self.machine, self.pattern)
    }

    /// Compiles this arm's generated code at `level` through the shared
    /// driver session.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Compile`] naming the failing cell.
    pub fn compile(
        &self,
        level: OptLevel,
        generated: &cgen::Generated,
    ) -> Result<std::sync::Arc<occ::Artifact>, BenchError> {
        crate::compile_generated(self.machine.name(), self.pattern, level, generated)
    }
}

/// Every pattern arm for one (possibly non-sample) machine.
pub fn arms_for(name: &str, machine: &StateMachine) -> Vec<Arm> {
    Pattern::all()
        .into_iter()
        .map(|pattern| Arm {
            name: name.to_string(),
            machine: machine.clone(),
            pattern,
        })
        .collect()
}

/// Every machine × pattern arm of the sample matrix (the 12 arms whose
/// 48 level-cells the snapshot measures).
pub fn arms() -> Vec<Arm> {
    sample_machines()
        .into_iter()
        .flat_map(|(name, machine)| arms_for(name, &machine))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shape_is_4_machines_by_3_patterns_by_4_levels() {
        let arms = arms();
        assert_eq!(arms.len(), 4 * 3);
        let keys: std::collections::BTreeSet<String> = arms.iter().map(Arm::key).collect();
        assert_eq!(keys.len(), arms.len(), "arm keys must be unique");
    }

    #[test]
    fn arm_compiles_through_the_shared_session() {
        let arm = &arms_for("flat", &samples::flat_unreachable())[0];
        let generated = arm.generate().expect("generates");
        let hits_before = crate::driver().stats().hits();
        let a = arm.compile(OptLevel::O0, &generated).expect("compiles");
        let b = arm.compile(OptLevel::O0, &generated).expect("compiles");
        assert!(std::sync::Arc::ptr_eq(&a, &b), "repeat cell must hit");
        assert!(crate::driver().stats().hits() > hits_before);
    }
}
