//! Coverage-guided differential fuzzing of the whole toolchain.
//!
//! The generator ([`umlsm::gen`]) turns a seed into a valid machine; this
//! module turns each machine into a *differential case*: the model
//! interpreter is the oracle, and every implementation pattern × every
//! optimization level must reproduce its observable trace — first on the
//! `tlang` reference interpreter, then compiled to EM32 and executed on
//! both engines, which must additionally agree with *each other* on
//! result, trace, final state and executed-instruction count. Any
//! mismatch anywhere in that matrix is a divergence.
//!
//! Compiles go through the process-wide [`driver`](crate::driver)
//! session and cases fan out over [`occ::driver::parallel_map`], so a
//! corpus run exercises the driver's concurrent-session path. Each case
//! is a pure function of its seed: a finding reproduces from the seed
//! alone, on any thread count.
//!
//! # Coverage feedback
//!
//! Event sequences are not only random: per case, a small corpus is
//! *evolved* against the fast engine's executed-op bitset
//! ([`occ::vm::OpCoverage`]) — a mutated sequence is kept exactly when
//! it lights a decoded op no earlier sequence did, sfuzz-style. That
//! drives execution into deep dispatch arms (guard combinations,
//! completion chains, final states) that uniform random sequences reach
//! only with vanishing probability; [`coverage_duel`] measures the
//! effect against a pure-random baseline at the same execution budget,
//! and CI asserts the guided set strictly dominates.
//!
//! # Shrinking and promotion
//!
//! A diverging case auto-shrinks: events are dropped one at a time,
//! then transitions, states and events of the machine, as long as the
//! candidate still validates, still boots in the model, and still
//! diverges. The shrunk case serializes via [`umlsm::gen::to_text`]
//! plus a trailing `events ...` line — the regression file format of
//! `tests/regressions/` at the workspace root, which
//! `tests/fuzz_regressions.rs` replays forever. To promote a finding:
//! run the `fuzz` bin with `FUZZ_PROMOTE=1` (it writes the shrunk
//! `.sm` files into `tests/regressions/`), or paste the printed text
//! there by hand, then commit the file.
//!
//! # Environment knobs (the `fuzz` bin)
//!
//! | variable       | default | meaning                                   |
//! |----------------|---------|-------------------------------------------|
//! | `FUZZ_CASES`   | 500     | generated machines per run                |
//! | `FUZZ_SEED`    | 1       | first seed; case *i* uses `seed + i`      |
//! | `FUZZ_THREADS` | 0       | worker threads (0 = available cores)      |
//! | `FUZZ_SECS`    | unset   | soft wall-clock cap, checked per batch    |
//! | `FUZZ_PROMOTE` | unset   | `1` writes shrunk findings to the corpus  |
//!
//! An unset knob keeps its default; a set one that does not parse
//! (`FUZZ_CASES=5k`) is an error naming the variable, never a silent
//! default. The CI smoke runs the default deterministic-seed corpus; a
//! deeper sweep is one `FUZZ_CASES=5000 FUZZ_SECS=600` away without a
//! rebuild.

use std::time::{Duration, Instant};

use cgen::{CodeMap, Generated, Pattern};
use occ::driver::parallel_map;
use occ::vm::{Engine, FastVm, OpCoverage, Vm, VmError};
use occ::{Artifact, OptLevel};
use tlang::RecordingEnv;
use umlsm::gen::{self, GenConfig, GenRng};
use umlsm::{Action, Expr, Interp, StateMachine, Transition, Trigger};

use crate::BenchError;

// ----------------------------------------------------------------------
// Configuration
// ----------------------------------------------------------------------

/// One fuzz campaign's knobs. [`Default`] is a small in-test shape;
/// [`config_from_env`] is the bin's deeper, env-tunable shape.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of generated machines (cases).
    pub cases: usize,
    /// First seed; case `i` uses `seed + i`.
    pub seed: u64,
    /// Worker threads for the case fan-out (0 = available cores).
    pub threads: usize,
    /// Soft wall-clock cap, checked between batches. `None` runs every
    /// case — the deterministic mode CI uses.
    pub time_budget: Option<Duration>,
    /// Machine-shape knobs passed to the generator.
    pub shape: GenConfig,
    /// Coverage-evolution rounds per case (fast-engine runs spent
    /// growing the guided sequence corpus).
    pub evolve_rounds: usize,
    /// Evict the shared driver session's artifact cache between batches.
    /// Corpus cases are distinct machines, so retained entries buy
    /// nothing across batches; the bin enables this to bound footprint.
    pub trim_session: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            cases: 32,
            seed: 1,
            threads: 0,
            time_budget: None,
            shape: GenConfig::default(),
            evolve_rounds: 16,
            trim_session: false,
        }
    }
}

/// Reads the `FUZZ_*` environment knobs (see the [module docs](self))
/// over bin-scale defaults: 500 cases, session trimming on.
///
/// # Errors
///
/// A knob that is set but does not parse is an error naming it (see
/// [`crate::env_knob`]); an unset knob keeps its default.
pub fn config_from_env() -> Result<FuzzConfig, String> {
    Ok(FuzzConfig {
        cases: crate::env_knob("FUZZ_CASES")?.unwrap_or(500),
        seed: crate::env_knob("FUZZ_SEED")?.unwrap_or(1),
        threads: crate::env_knob("FUZZ_THREADS")?.unwrap_or(0),
        time_budget: crate::env_knob("FUZZ_SECS")?.map(Duration::from_secs),
        evolve_rounds: 24,
        trim_session: true,
        ..FuzzConfig::default()
    })
}

// ----------------------------------------------------------------------
// Reports
// ----------------------------------------------------------------------

/// One confirmed mismatch somewhere in a case's differential matrix,
/// shrunk (when enabled) and ready to serialize as a regression file.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Generator seed of the originating case.
    pub seed: u64,
    /// Which comparison failed (`codegen`, `compile`, `tlang`,
    /// `engine-parity`, `em32`, `vm-fault`, `model`).
    pub stage: String,
    /// Failing pattern, when the stage is pattern-specific.
    pub pattern: Option<Pattern>,
    /// Failing optimization level, when the stage is level-specific.
    pub level: Option<OptLevel>,
    /// Event sequence that exposes the mismatch (possibly shrunk).
    pub events: Vec<String>,
    /// The (possibly shrunk) machine, in [`gen::to_text`] form.
    pub machine_text: String,
    /// One-line human-readable mismatch description.
    pub detail: String,
}

impl Divergence {
    /// Renders the regression-file form: a comment header, the machine
    /// text, and the trailing `events` line `tests/fuzz_regressions.rs`
    /// replays. See [`parse_regression`].
    pub fn regression_file(&self) -> String {
        let mut out = format!(
            "# fuzz divergence: seed {} stage {}{}{}\n# {}\n",
            self.seed,
            self.stage,
            self.pattern
                .map(|p| format!(" pattern {p}"))
                .unwrap_or_default(),
            self.level
                .map(|l| format!(" level {l}"))
                .unwrap_or_default(),
            self.detail.replace('\n', " "),
        );
        out.push_str(&self.machine_text);
        out.push_str("events");
        for e in &self.events {
            out.push(' ');
            out.push_str(e);
        }
        out.push('\n');
        out
    }
}

/// What one [`run_fuzz`] campaign did.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases actually run (== configured cases unless a time budget
    /// stopped the campaign early).
    pub cases_run: usize,
    /// Compiled machine × pattern × level cells executed differentially.
    pub cells: usize,
    /// Event sequences driven per the whole campaign.
    pub sequences: usize,
    /// Confirmed divergences, shrunk and serialized.
    pub divergences: Vec<Divergence>,
}

// ----------------------------------------------------------------------
// The differential core
// ----------------------------------------------------------------------

/// Observable outcome of one compiled cell on one event sequence.
#[derive(Debug, PartialEq, Eq)]
struct CellRun {
    observable: Vec<(String, i64)>,
    final_state: i32,
    executed: u64,
}

/// Runs `sm_init`, one `sm_step` per event the program knows and
/// `sm_state` on `vm`, either engine; `into_env` hands back its recorded
/// extern trace.
fn run_cell<E: Engine>(
    mut vm: E,
    into_env: impl FnOnce(E) -> RecordingEnv,
    codes: &CodeMap,
    events: &[String],
) -> Result<CellRun, VmError> {
    vm.call("sm_init", &[])?;
    for e in events {
        if let Some(code) = codes.event_code(e) {
            vm.call("sm_step", &[code as i32])?;
        }
    }
    let final_state = vm.call("sm_state", &[])?;
    let executed = vm.executed();
    Ok(CellRun {
        observable: codes.emissions(&into_env(vm).calls),
        final_state,
        executed,
    })
}

/// Everything the model oracle says about one sequence.
struct ModelRun {
    observable: Vec<(String, i64)>,
    /// Active root-region state name after the run.
    root_state: Option<String>,
}

fn run_model(machine: &StateMachine, events: &[String]) -> Result<ModelRun, String> {
    let mut interp = Interp::new(machine).map_err(|e| format!("model boot: {e:?}"))?;
    for e in events {
        interp
            .step_by_name(e)
            .map_err(|e| format!("model step: {e:?}"))?;
    }
    Ok(ModelRun {
        observable: interp.trace().observable(),
        root_state: interp.configuration().first().cloned(),
    })
}

/// A localized mismatch inside [`check_machine`].
struct CellDivergence {
    stage: &'static str,
    pattern: Option<Pattern>,
    level: Option<OptLevel>,
    seq: usize,
    detail: String,
}

fn fmt_trace(t: &[(String, i64)]) -> String {
    let body = t
        .iter()
        .take(12)
        .map(|(s, v)| format!("{s}({v})"))
        .collect::<Vec<_>>()
        .join(" ");
    if t.len() > 12 {
        format!("[{body} …{} total]", t.len())
    } else {
        format!("[{body}]")
    }
}

struct CheckStats {
    cells: usize,
    sequences: usize,
}

/// Runs every pattern × level of `machine` against the model oracle on
/// every sequence; first mismatch wins.
fn check_machine(
    machine: &StateMachine,
    seqs: &[Vec<String>],
) -> Result<CheckStats, CellDivergence> {
    let mut oracles: Vec<ModelRun> = Vec::with_capacity(seqs.len());
    for (si, seq) in seqs.iter().enumerate() {
        oracles.push(run_model(machine, seq).map_err(|detail| CellDivergence {
            stage: "model",
            pattern: None,
            level: None,
            seq: si,
            detail,
        })?);
    }

    let mut gens: Vec<Generated> = Vec::new();
    for pattern in Pattern::all() {
        gens.push(
            cgen::generate(machine, pattern).map_err(|e| CellDivergence {
                stage: "codegen",
                pattern: Some(pattern),
                level: None,
                seq: 0,
                detail: e.to_string(),
            })?,
        );
    }

    let mut cells = 0;
    for g in &gens {
        let pattern = Some(g.pattern);
        // Source level: the tlang reference interpreter.
        for (si, seq) in seqs.iter().enumerate() {
            let strs: Vec<&str> = seq.iter().map(String::as_str).collect();
            let run = cgen::run_generated(g, &strs).map_err(|e| CellDivergence {
                stage: "tlang",
                pattern,
                level: None,
                seq: si,
                detail: format!("generated program faulted: {e}"),
            })?;
            check_against_model(g, &run.observable, run.final_state, &oracles[si], machine)
                .map_err(|detail| CellDivergence {
                    stage: "tlang",
                    pattern,
                    level: None,
                    seq: si,
                    detail,
                })?;
        }
        // Machine level: compiled EM32 at every optimization level, fast
        // engine and reference oracle in lock-step.
        for level in OptLevel::all() {
            let artifact =
                crate::compile_generated(machine.name(), g.pattern, level, g).map_err(|e| {
                    CellDivergence {
                        stage: "compile",
                        pattern,
                        level: Some(level),
                        seq: 0,
                        detail: e.to_string(),
                    }
                })?;
            cells += 1;
            for (si, seq) in seqs.iter().enumerate() {
                let fail = |stage: &'static str, detail: String| CellDivergence {
                    stage,
                    pattern,
                    level: Some(level),
                    seq: si,
                    detail,
                };
                let prog = artifact.decoded();
                let fast = run_cell(
                    FastVm::new(prog, RecordingEnv::new()),
                    FastVm::into_env,
                    &g.codes,
                    seq,
                );
                let slow = run_cell(
                    Vm::new(prog, RecordingEnv::new()),
                    Vm::into_env,
                    &g.codes,
                    seq,
                );
                match (fast, slow) {
                    (Ok(f), Ok(s)) => {
                        if f != s {
                            return Err(fail(
                                "engine-parity",
                                format!(
                                    "fast {} state {} executed {} vs oracle {} state {} executed {}",
                                    fmt_trace(&f.observable),
                                    f.final_state,
                                    f.executed,
                                    fmt_trace(&s.observable),
                                    s.final_state,
                                    s.executed
                                ),
                            ));
                        }
                        check_against_model(g, &f.observable, f.final_state, &oracles[si], machine)
                            .map_err(|detail| fail("em32", detail))?;
                    }
                    (fast, slow) => {
                        // A generated machine must never fault: even an
                        // identical fault on both engines diverges from
                        // the model, which completed the run.
                        return Err(fail(
                            "vm-fault",
                            format!("fast {:?} vs oracle {:?}", fast.err(), slow.err()),
                        ));
                    }
                }
            }
        }
    }
    Ok(CheckStats {
        cells,
        sequences: seqs.len(),
    })
}

/// Compares one execution's observables against the model oracle.
fn check_against_model(
    g: &Generated,
    observable: &[(String, i64)],
    final_state: i32,
    oracle: &ModelRun,
    machine: &StateMachine,
) -> Result<(), String> {
    if observable != oracle.observable {
        return Err(format!(
            "trace {} vs model {}",
            fmt_trace(observable),
            fmt_trace(&oracle.observable)
        ));
    }
    // The reported final state must name the model's active root state
    // (when that state exists in the generated numbering — it always
    // does for machines straight out of the generator).
    if let Some(expected) = oracle
        .root_state
        .as_ref()
        .and_then(|name| machine.state_by_name(name))
        .and_then(|sid| g.codes.state_code(sid))
    {
        if i64::from(final_state) != expected {
            return Err(format!(
                "final state {final_state} vs model `{}` (code {expected})",
                oracle.root_state.as_deref().unwrap_or("?")
            ));
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Coverage-guided sequence evolution
// ----------------------------------------------------------------------

/// Longest sequence evolution may grow. Bounded so the generator's
/// bounded-drift variable analysis (see [`umlsm::gen`]) keeps every
/// intermediate value inside `i32`.
const MAX_SEQ: usize = 96;

/// Runs one sequence on the fast engine, collecting its executed-op set.
fn run_seq_coverage(artifact: &Artifact, codes: &CodeMap, seq: &[String]) -> OpCoverage {
    let mut cov = OpCoverage::for_program(artifact.decoded());
    let mut vm = FastVm::new(artifact.decoded(), RecordingEnv::new());
    let _ = vm.run_with_coverage("sm_init", &[], &mut cov);
    for e in seq {
        if let Some(code) = codes.event_code(e) {
            let _ = vm.run_with_coverage("sm_step", &[code as i32], &mut cov);
        }
    }
    cov
}

/// Evolves a sequence corpus against executed-op coverage: mutate a
/// parent (mostly the most recent keeper), keep the candidate iff it
/// lights ops nothing in the corpus lit before. Returns up to two of
/// the deepest keepers and the total covered set.
fn evolve(
    artifact: &Artifact,
    codes: &CodeMap,
    events: &[String],
    rng: &mut GenRng,
    rounds: usize,
) -> (Vec<Vec<String>>, OpCoverage) {
    let mut total = run_seq_coverage(artifact, codes, &[]);
    let mut corpus: Vec<Vec<String>> = vec![Vec::new()];
    for _ in 0..rounds {
        let parent = if rng.pct(70) {
            corpus.last().expect("corpus never empty")
        } else {
            rng.pick(&corpus)
        };
        let mut cand = parent.clone();
        for _ in 0..1 + rng.below(2) {
            if cand.is_empty() || (rng.pct(80) && cand.len() < MAX_SEQ) {
                cand.push(rng.pick(events).clone());
            } else {
                let i = rng.below(cand.len());
                cand[i] = rng.pick(events).clone();
            }
        }
        let cov = run_seq_coverage(artifact, codes, &cand);
        if total.merge(&cov) > 0 {
            corpus.push(cand);
        }
    }
    let keep: Vec<Vec<String>> = corpus
        .into_iter()
        .rev()
        .filter(|s| !s.is_empty())
        .take(2)
        .collect();
    (keep, total)
}

/// Uniform random sequence over the machine's event alphabet.
fn random_seq(rng: &mut GenRng, events: &[String], len: usize) -> Vec<String> {
    (0..len).map(|_| rng.pick(events).clone()).collect()
}

// ----------------------------------------------------------------------
// Shrinking
// ----------------------------------------------------------------------

/// A shrink candidate must still be a *well-posed* case: valid, bootable
/// in the model, and still diverging somewhere past the model stage.
fn still_diverges(machine: &StateMachine, seq: &[String]) -> bool {
    if machine.validate().is_err() {
        return false;
    }
    match check_machine(machine, std::slice::from_ref(&seq.to_vec())) {
        Ok(_) => false,
        Err(d) => d.stage != "model",
    }
}

/// Greedy structural shrink: drop events, then transitions, states and
/// events of the machine, while the divergence keeps reproducing.
fn shrink_case(machine: &StateMachine, seq: &[String]) -> (StateMachine, Vec<String>) {
    let mut m = machine.clone();
    let mut seq = seq.to_vec();
    // Up to three passes: removals unlock further removals, but the
    // budget must stay bounded (every probe recompiles 12 cells).
    for _ in 0..3 {
        let mut progress = false;
        let mut i = 0;
        while i < seq.len() {
            let mut cand = seq.clone();
            cand.remove(i);
            if still_diverges(&m, &cand) {
                seq = cand;
                progress = true;
            } else {
                i += 1;
            }
        }
        let tids: Vec<_> = m.transitions().map(|(tid, _)| tid).collect();
        for tid in tids {
            let mut cand = m.clone();
            cand.remove_transition(tid);
            if still_diverges(&cand, &seq) {
                m = cand;
                progress = true;
            }
        }
        let sids: Vec<_> = m.states().map(|(sid, _)| sid).collect();
        for sid in sids {
            if m.try_state(sid).is_none() {
                continue; // removed as part of an earlier cascade
            }
            let mut cand = m.clone();
            cand.remove_state(sid);
            if still_diverges(&cand, &seq) {
                m = cand;
                progress = true;
            }
        }
        let eids: Vec<_> = m.events().map(|(eid, _)| eid).collect();
        for eid in eids {
            let mut cand = m.clone();
            cand.remove_event(eid);
            if still_diverges(&cand, &seq) {
                m = cand;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    (m, seq)
}

// ----------------------------------------------------------------------
// The campaign
// ----------------------------------------------------------------------

struct CaseOutcome {
    cells: usize,
    sequences: usize,
    divergence: Option<Divergence>,
}

fn run_case(seed: u64, cfg: &FuzzConfig) -> CaseOutcome {
    let machine = gen::generate(seed, &cfg.shape);
    let events: Vec<String> = machine.events().map(|(_, e)| e.name.clone()).collect();
    let mut rng = GenRng::new(seed ^ 0x5eed_c0de_d15c_0de5);

    let mut seqs: Vec<Vec<String>> = Vec::new();
    // Two passes over the whole alphabet, then uniform noise.
    seqs.push(
        events
            .iter()
            .cycle()
            .take((events.len() * 2).min(24))
            .cloned()
            .collect(),
    );
    seqs.push(random_seq(&mut rng, &events, 12));
    seqs.push(random_seq(&mut rng, &events, 12));
    // Coverage-guided sequences, evolved on one canonical cell (Nested
    // Switch at -O2); generation/compile failures surface in
    // check_machine with full cell context, so they are ignored here.
    if cfg.evolve_rounds > 0 {
        if let Ok(g) = cgen::generate(&machine, Pattern::NestedSwitch) {
            if let Ok(artifact) =
                crate::compile_generated(machine.name(), g.pattern, OptLevel::O2, &g)
            {
                let (evolved, _) =
                    evolve(&artifact, &g.codes, &events, &mut rng, cfg.evolve_rounds);
                seqs.extend(evolved);
            }
        }
    }

    match check_machine(&machine, &seqs) {
        Ok(stats) => CaseOutcome {
            cells: stats.cells,
            sequences: stats.sequences,
            divergence: None,
        },
        Err(cd) => {
            let failing_seq = seqs.get(cd.seq).cloned().unwrap_or_default();
            let (m, seq) = shrink_case(&machine, &failing_seq);
            // Re-derive the (possibly different) post-shrink mismatch so
            // the reported detail matches the reported machine.
            let cd = match check_machine(&m, std::slice::from_ref(&seq)) {
                Err(cd) => cd,
                Ok(_) => cd, // shrink raced to a non-repro; keep original
            };
            let machine_text =
                gen::to_text(&m).unwrap_or_else(|e| format!("# unserializable machine: {e}\n"));
            CaseOutcome {
                cells: 0,
                sequences: 0,
                divergence: Some(Divergence {
                    seed,
                    stage: cd.stage.to_string(),
                    pattern: cd.pattern,
                    level: cd.level,
                    events: seq,
                    machine_text,
                    detail: cd.detail,
                }),
            }
        }
    }
}

/// Runs a fuzz campaign: generate, differentially execute and (on
/// mismatch) shrink `cfg.cases` machines, fanned out over the shared
/// worker pool with all compiles through the process-wide driver
/// session.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let started = Instant::now();
    let seeds: Vec<u64> = (0..cfg.cases as u64)
        .map(|i| cfg.seed.wrapping_add(i))
        .collect();
    let mut report = FuzzReport::default();
    for batch in seeds.chunks(64) {
        let outcomes = parallel_map(batch, cfg.threads, |s| run_case(*s, cfg));
        for o in outcomes {
            report.cases_run += 1;
            report.cells += o.cells;
            report.sequences += o.sequences;
            report.divergences.extend(o.divergence);
        }
        if cfg.trim_session {
            crate::driver().evict_memory();
        }
        if let Some(budget) = cfg.time_budget {
            if started.elapsed() >= budget {
                break;
            }
        }
    }
    report
}

// ----------------------------------------------------------------------
// Coverage duel
// ----------------------------------------------------------------------

/// Covered-op counts of guided evolution vs pure random sequences at an
/// identical execution budget (see [`coverage_duel`]).
#[derive(Debug, Clone, Copy)]
pub struct DuelResult {
    /// Ops covered by the coverage-guided corpus.
    pub guided: usize,
    /// Ops covered by the same number of uniform random sequences.
    pub random: usize,
    /// Ops the guided corpus reached that random never did — the number
    /// CI asserts is positive.
    pub guided_only: usize,
    /// Fast-engine runs granted to each side.
    pub budget: usize,
}

/// A deep dispatch chain only ordered event sequences can walk: state
/// `C[i]` advances exactly on event `k[i % 5]` and emits a distinct
/// signal, so every further hop is new code a uniform random sequence
/// reaches with probability `(1/5)^depth`.
pub fn chain_machine(depth: usize) -> StateMachine {
    let mut m = StateMachine::new("chain");
    let root = m.root();
    let events: Vec<_> = (0..5).map(|i| m.add_event(format!("k{i}"))).collect();
    let states: Vec<_> = (0..=depth)
        .map(|i| m.add_state(root, format!("C{i}")))
        .collect();
    m.region_mut(root).initial = Some(states[0]);
    for i in 0..depth {
        m.add_transition(Transition {
            source: states[i],
            target: states[i + 1],
            trigger: Trigger::Event(events[i % 5]),
            guard: None,
            effect: vec![Action::emit_arg("hop", Expr::int(i as i64))],
        });
    }
    m
}

/// Pits coverage-guided evolution against pure random sequences on
/// [`chain_machine`]`(10)` at the same budget of fast-engine runs, both
/// seeded and deterministic. Guided evolution climbs the chain one kept
/// mutation at a time; random needs the exact 10-event prefix by luck
/// (`5^-10` per try), so at any sane budget the guided set strictly
/// contains ops random never reaches.
///
/// # Errors
///
/// Returns a [`BenchError`] if the duel machine fails to generate or
/// compile (toolchain bug, not a duel outcome).
pub fn coverage_duel(budget: usize) -> Result<DuelResult, BenchError> {
    let m = chain_machine(10);
    let g = crate::generate(&m, Pattern::NestedSwitch)?;
    let artifact = crate::compile_generated(m.name(), g.pattern, OptLevel::O2, &g)?;
    let events: Vec<String> = m.events().map(|(_, e)| e.name.clone()).collect();

    let mut rng = GenRng::new(0xD0E1_5EED);
    let (_, guided_cov) = evolve(&artifact, &g.codes, &events, &mut rng, budget);

    let mut rng = GenRng::new(0xD0E1_5EED);
    let mut random_cov = run_seq_coverage(&artifact, &g.codes, &[]);
    for _ in 0..budget {
        let seq = random_seq(&mut rng, &events, 16);
        random_cov.merge(&run_seq_coverage(&artifact, &g.codes, &seq));
    }

    let mut union = random_cov.clone();
    let guided_only = union.merge(&guided_cov);
    Ok(DuelResult {
        guided: guided_cov.count(),
        random: random_cov.count(),
        guided_only,
        budget,
    })
}

// ----------------------------------------------------------------------
// Regression corpus plumbing
// ----------------------------------------------------------------------

/// Parses a regression file: [`umlsm::gen` text](umlsm::gen) plus
/// trailing `events <name>...` lines (and `#` comments anywhere).
///
/// # Errors
///
/// Returns the underlying parse/validation error text.
pub fn parse_regression(text: &str) -> Result<(StateMachine, Vec<String>), String> {
    let mut events: Vec<String> = Vec::new();
    let mut body = String::new();
    for line in text.lines() {
        let t = line.trim();
        if t == "events" || t.starts_with("events ") {
            events.extend(t.split_whitespace().skip(1).map(str::to_string));
            continue;
        }
        body.push_str(line);
        body.push('\n');
    }
    let machine = gen::from_text(&body).map_err(|e| e.to_string())?;
    Ok((machine, events))
}

/// Replays one regression case through the full differential matrix
/// (model oracle vs tlang vs both EM32 engines, every pattern × level),
/// returning the number of compiled cells checked.
///
/// # Errors
///
/// Returns a one-line description of the first divergence — a
/// regression that has come back.
pub fn check_full_chain(machine: &StateMachine, events: &[String]) -> Result<usize, String> {
    match check_machine(machine, std::slice::from_ref(&events.to_vec())) {
        Ok(stats) => Ok(stats.cells),
        Err(d) => Err(format!(
            "{}{}{} on {:?}: {}",
            d.stage,
            d.pattern.map(|p| format!(" {p}")).unwrap_or_default(),
            d.level.map(|l| format!(" {l}")).unwrap_or_default(),
            events,
            d.detail
        )),
    }
}

/// The five sample machines re-serialized with their canonical
/// end-to-end event sequences — the seed population of
/// `tests/regressions/` (written by `fuzz emit-samples`).
pub fn sample_regressions() -> Vec<(&'static str, String)> {
    let mut cruise = umlsm::samples::cruise_control();
    cruise.set_variable("speed", 64);
    let cases: Vec<(&'static str, StateMachine, Vec<&'static str>)> = vec![
        (
            "sample_flat",
            umlsm::samples::flat_unreachable(),
            vec!["e1", "e2", "e1", "e3"],
        ),
        (
            "sample_hierarchical",
            umlsm::samples::hierarchical_never_active(),
            vec!["e1", "e2", "e3", "e4", "e1"],
        ),
        (
            "sample_cruise",
            cruise,
            vec![
                "power", "set", "accel", "set", "accel", "brake", "resume", "power", "kill",
            ],
        ),
        (
            "sample_protocol",
            umlsm::samples::protocol_handler(),
            vec![
                "open",
                "ack",
                "data",
                "data",
                "data",
                "close",
                "downgrade",
                "ack",
                "open",
            ],
        ),
        (
            "sample_scaling4",
            umlsm::samples::flat_with_unreachable(4),
            vec!["start", "toggle", "toggle", "stop", "start"],
        ),
    ];
    cases
        .into_iter()
        .map(|(name, machine, events)| {
            let mut text = format!(
                "# re-serialized sample machine ({name}); replayed by tests/fuzz_regressions.rs\n"
            );
            text.push_str(&gen::to_text(&machine).expect("samples serialize"));
            text.push_str("events");
            for e in &events {
                text.push(' ');
                text.push_str(e);
            }
            text.push('\n');
            (name, text)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_runs_clean() {
        // A bounded deterministic campaign straight through the real
        // pipeline: any divergence here is a real toolchain bug.
        let cfg = FuzzConfig {
            cases: 4,
            seed: 11,
            threads: 1,
            shape: GenConfig::tiny(),
            evolve_rounds: 8,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert_eq!(report.cases_run, 4);
        assert_eq!(report.cells, 4 * 12, "3 patterns × 4 levels per case");
        assert!(
            report.divergences.is_empty(),
            "unexpected divergences: {:#?}",
            report
                .divergences
                .iter()
                .map(|d| format!("seed {} {}: {}", d.seed, d.stage, d.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let base = FuzzConfig {
            cases: 3,
            seed: 21,
            threads: 1,
            shape: GenConfig::tiny(),
            evolve_rounds: 4,
            ..FuzzConfig::default()
        };
        let wide = FuzzConfig {
            threads: 4,
            ..base.clone()
        };
        let a = run_fuzz(&base);
        let b = run_fuzz(&wide);
        assert_eq!(a.cases_run, b.cases_run);
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.sequences, b.sequences);
        assert_eq!(a.divergences.len(), b.divergences.len());
    }

    #[test]
    fn coverage_guided_beats_random_at_equal_budget() {
        let duel = coverage_duel(192).expect("duel cell compiles");
        assert!(
            duel.guided_only > 0,
            "guided evolution must reach ops random never does: {duel:?}"
        );
        assert!(
            duel.guided > duel.random,
            "guided coverage must dominate: {duel:?}"
        );
    }

    #[test]
    fn sample_regressions_roundtrip_and_parse() {
        let samples = sample_regressions();
        assert_eq!(samples.len(), 5);
        for (name, text) in samples {
            let (machine, events) = parse_regression(&text).unwrap_or_else(|e| {
                panic!("{name}: {e}");
            });
            assert!(!events.is_empty(), "{name}: no events");
            // The parsed machine re-serializes to the same body.
            let reparsed = gen::to_text(&machine).expect("serializes");
            assert!(text.contains(&reparsed), "{name}: body drifted");
        }
    }

    #[test]
    fn divergence_files_roundtrip() {
        let m = chain_machine(2);
        let d = Divergence {
            seed: 7,
            stage: "em32".into(),
            pattern: Some(Pattern::NestedSwitch),
            level: Some(OptLevel::O2),
            events: vec!["k0".into(), "k1".into()],
            machine_text: gen::to_text(&m).expect("serializes"),
            detail: "synthetic".into(),
        };
        let (parsed, events) = parse_regression(&d.regression_file()).expect("parses");
        assert_eq!(events, vec!["k0".to_string(), "k1".to_string()]);
        assert_eq!(gen::to_text(&parsed).expect("serializes"), d.machine_text);
    }
}
