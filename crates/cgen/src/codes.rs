//! Numbering of events, signals and states used by generated code.
//!
//! The numbering is deterministic (sorted names / id order) so that two
//! generations of the same model produce identical programs, and so the
//! experiment harness can translate between model-level names and the
//! integer codes the compiled program exchanges with its environment.

use std::collections::BTreeMap;

use umlsm::{RegionId, StateId, StateMachine};

/// Code assignments for one generated program.
#[derive(Debug, Clone, Default)]
pub struct CodeMap {
    events: Vec<String>,
    signals: Vec<String>,
    state_codes: BTreeMap<StateId, i64>,
    state_names: BTreeMap<StateId, String>,
    regions: Vec<RegionId>,
}

impl CodeMap {
    pub(crate) fn build(machine: &StateMachine) -> CodeMap {
        let mut events: Vec<String> = machine.events().map(|(_, e)| e.name.clone()).collect();
        events.sort();
        let signals: Vec<String> = machine.emitted_signals().into_iter().collect();
        let mut state_codes = BTreeMap::new();
        let mut state_names = BTreeMap::new();
        let mut regions = Vec::new();
        for (rid, _) in machine.regions() {
            regions.push(rid);
            for (code, sid) in machine.states_in(rid).into_iter().enumerate() {
                state_codes.insert(sid, code as i64);
                state_names.insert(sid, machine.state(sid).name.clone());
            }
        }
        CodeMap {
            events,
            signals,
            state_codes,
            state_names,
            regions,
        }
    }

    /// Number of event codes.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Event names in code order.
    pub fn event_names(&self) -> &[String] {
        &self.events
    }

    /// Signal names in code order.
    pub fn signal_names(&self) -> &[String] {
        &self.signals
    }

    /// The integer code of an event name, if the machine declares it.
    pub fn event_code(&self, name: &str) -> Option<i64> {
        self.events.iter().position(|e| e == name).map(|i| i as i64)
    }

    /// The integer code of a signal name, if any action emits it.
    pub fn signal_code(&self, name: &str) -> Option<i64> {
        self.signals
            .iter()
            .position(|s| s == name)
            .map(|i| i as i64)
    }

    /// The signal name for a code (used to decode `env_emit` traces).
    pub fn signal_name(&self, code: i64) -> Option<&str> {
        usize::try_from(code)
            .ok()
            .and_then(|i| self.signals.get(i))
            .map(String::as_str)
    }

    /// Decodes the `env_emit(signal, arg)` calls of a recorded extern
    /// trace to `(signal name, argument)` emissions, in call order. Other
    /// externs are skipped; a code no signal has reads `<unknown>`.
    pub fn emissions(&self, calls: &[(String, Vec<i32>)]) -> Vec<(String, i64)> {
        calls
            .iter()
            .filter(|(name, _)| name == "env_emit")
            .map(|(_, args)| {
                let code = i64::from(args.first().copied().unwrap_or(0));
                let arg = i64::from(args.get(1).copied().unwrap_or(0));
                let signal = self.signal_name(code).unwrap_or("<unknown>");
                (signal.to_string(), arg)
            })
            .collect()
    }

    /// The per-region state code of a state (its position within its
    /// region).
    pub fn state_code(&self, state: StateId) -> Option<i64> {
        self.state_codes.get(&state).copied()
    }

    /// The state name for an id captured at generation time.
    pub fn state_name(&self, state: StateId) -> Option<&str> {
        self.state_names.get(&state).map(String::as_str)
    }

    /// All regions of the generated machine, root first.
    pub fn regions(&self) -> &[RegionId] {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umlsm::samples;

    #[test]
    fn event_codes_are_sorted_names() {
        let m = samples::flat_unreachable();
        let c = CodeMap::build(&m);
        assert_eq!(c.event_names(), &["e1", "e2", "e3"]);
        assert_eq!(c.event_code("e2"), Some(1));
        assert_eq!(c.event_code("zzz"), None);
    }

    #[test]
    fn signal_codes_round_trip() {
        let m = samples::flat_unreachable();
        let c = CodeMap::build(&m);
        let code = c.signal_code("s1_active").expect("signal exists");
        assert_eq!(c.signal_name(code), Some("s1_active"));
    }

    #[test]
    fn state_codes_are_region_local() {
        let m = samples::hierarchical_never_active();
        let c = CodeMap::build(&m);
        // Root region: S1 S2 S3 Final -> codes 0..3 in id order.
        let s1 = m.state_by_name("S1").expect("S1");
        let s3i = m.state_by_name("S3_Init").expect("S3_Init");
        assert_eq!(c.state_code(s1), Some(0));
        // Nested region restarts numbering at 0.
        assert_eq!(c.state_code(s3i), Some(0));
    }

    #[test]
    fn deterministic_across_builds() {
        let m = samples::protocol_handler();
        let a = CodeMap::build(&m);
        let b = CodeMap::build(&m);
        assert_eq!(a.event_names(), b.event_names());
        assert_eq!(a.signal_names(), b.signal_names());
    }
}
