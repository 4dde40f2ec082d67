//! Machine-readable size/pass-effect snapshots and the CI regression gate.
//!
//! [`Snapshot::measure`] compiles every [`crate::matrix`] cell through
//! the shared [`crate::driver`] session and records the section sizes,
//! the backend's register-allocation quality counters
//! ([`occ::RegAllocStats`]: spill slots, saved callee-saved registers,
//! spill-code bytes), the per-pass [`occ::PassStats`] of the mid-end
//! run, the deterministic executed-instruction count of the
//! [canonical event storm](crate::storm) on the fast engine — the
//! cell's regression-gated "time", checked against the reference oracle
//! — whether an immediate recompile hits
//! the driver's cache, and a digest of the cell's whole
//! assembly ([`assembly_digest`]) that makes byte identity a gate. The
//! `snapshot` binary serializes one to `BENCH_PR3.json`; the `regress`
//! binary compares a fresh (or freshly written) snapshot against the
//! committed `bench_baseline.json` and fails on any size regression
//! beyond [`TOLERANCE_PCT`]/[`TOLERANCE_BYTES`], and on any cell whose
//! assembly digest changed — the bench-trajectory lock the ROADMAP's
//! Meliora-style pass-effect measurement calls for.
//!
//! The JSON is hand-rolled (serialize *and* parse) because this
//! environment has no crates.io access; the format is a single object
//! `{"cells": [...]}` of flat cell objects, stable under pretty-printing.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use occ::driver::Fnv64;
use occ::{Assembly, OptLevel};

use crate::BenchError;

pub use crate::matrix::sample_machines;

/// Relative growth tolerated per cell before `regress` fails, in percent.
pub const TOLERANCE_PCT: f64 = 1.0;

/// Absolute growth tolerated per cell before `regress` fails, in bytes.
/// A cell passes if it is within *either* tolerance, so tiny cells are
/// not failed over word-sized alignment noise.
pub const TOLERANCE_BYTES: usize = 8;

/// Absolute growth tolerated in a cell's canonical-storm dynamic
/// instruction count before `regress` fails. Like the byte tolerance, a
/// cell passes within *either* this or [`TOLERANCE_PCT`] — a storm
/// executes hundreds of instructions per event, so 64 instructions is
/// sub-one-event noise headroom (e.g. a legitimately re-ordered branch),
/// while percent-scale growth on a large cell is a real slowdown.
pub const TOLERANCE_DYN_INSTS: usize = 64;

/// Per-pass effect counters of one snapshot cell (mirrors
/// [`occ::PassStats`], but owned and serializable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassCell {
    /// Canonical pass name.
    pub name: String,
    /// Executions.
    pub runs: usize,
    /// Executions (or items) that changed something.
    pub changes: usize,
    /// Net instructions removed.
    pub insts_removed: usize,
}

/// One machine × pattern × level measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Sample-machine name.
    pub machine: String,
    /// Implementation-pattern label.
    pub pattern: String,
    /// Optimization-level flag (`-O0`…`-Os`).
    pub level: String,
    /// Machine-code bytes.
    pub text: usize,
    /// Read-only data bytes.
    pub rodata: usize,
    /// Mutable data bytes.
    pub data: usize,
    /// Total image bytes (the regression-gated number).
    pub total: usize,
    /// Stack slots the register allocator spilled to, summed over the
    /// cell's functions.
    pub spill_slots: usize,
    /// Callee-saved registers saved/restored, summed over the cell's
    /// functions.
    pub saved_regs: usize,
    /// Text bytes of inserted spill code (slot loads/stores).
    pub spill_bytes: usize,
    /// Events in the canonical storm this cell was measured with
    /// ([`crate::storm::STORM_EVENTS`]).
    pub events: usize,
    /// Deterministic executed-instruction count of the canonical storm
    /// on the fast engine — the regression-gated "time" of this cell.
    pub dyn_insts: usize,
    /// `1` if the immediate recompile was served from the driver's
    /// cache, `0` otherwise. Gated for presence by `regress`: a cell
    /// whose baseline hit stops hitting means the driver's caching
    /// silently broke.
    pub warm_hit: usize,
    /// [`assembly_digest`] of the cell's assembly. Gated for equality by
    /// `regress`: an allocator or emitter change that picks different
    /// registers or orders at the same sizes fails the gate.
    pub asm_digest: u64,
    /// Mid-end per-pass effects for this cell.
    pub passes: Vec<PassCell>,
}

/// 64-bit FNV-1a over the `Debug` form of `asm` — every function's
/// instructions, registers and labels, the data image and the layout —
/// streamed into the hash without building the string.
pub fn assembly_digest(asm: &Assembly) -> u64 {
    struct Sink(Fnv64);
    impl fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(Fnv64::new());
    let _ = write!(sink, "{asm:?}");
    sink.0.finish()
}

impl Cell {
    /// The `machine/pattern/level` key identifying this cell.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.machine, self.pattern, self.level)
    }
}

/// A full measurement: every sample machine × pattern × level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All measured cells.
    pub cells: Vec<Cell>,
}

impl Snapshot {
    /// Measures every [`crate::matrix`] cell: sizes, regalloc counters,
    /// pass effects, the canonical storm's deterministic dynamic
    /// instruction count on the fast engine, and whether an immediate
    /// recompile hits the shared driver session's cache. Each cell's
    /// canonical storm also runs on the reference oracle, which must
    /// match the fast engine in events, executed instructions and extern
    /// calls.
    ///
    /// # Errors
    ///
    /// Returns the first [`BenchError`] naming a failing cell:
    /// [`BenchError::Storm`] when a storm faults or the two engines
    /// disagree.
    pub fn measure() -> Result<Snapshot, BenchError> {
        let mut cells = Vec::new();
        for arm in crate::matrix::arms() {
            // One generation per machine × pattern arm: the code map
            // that defines the storm's event codes is part of the
            // measurement, and every level must see the same storm.
            let generated = arm.generate()?;
            for level in OptLevel::all() {
                let artifact = arm.compile(level, &generated)?;
                // An immediate recompile of the same cell must be a
                // session-cache hit; regress gates the hit.
                let hits_before = crate::driver().stats().hits();
                let _ = arm.compile(level, &generated)?;
                let warm_hit = usize::from(crate::driver().stats().hits() > hits_before);
                let storm_error = |message: String| BenchError::Storm {
                    machine: arm.machine.name().to_string(),
                    pattern: arm.pattern,
                    level,
                    message,
                };
                let storm = crate::storm::canonical_storm(&artifact, &generated.codes)
                    .map_err(|e| storm_error(format!("fast engine faulted: {e}")))?;
                let oracle = crate::storm::canonical_oracle_storm(&artifact, &generated.codes)
                    .map_err(|e| storm_error(format!("oracle faulted: {e}")))?;
                // The two-engine contract of `occ::vm` under storm load.
                if storm != oracle {
                    return Err(storm_error(format!(
                        "engines disagree: fast engine {storm:?}, oracle {oracle:?}"
                    )));
                }
                let sizes = artifact.sizes();
                let regalloc = artifact.regalloc_stats();
                let passes = artifact
                    .pass_stats()
                    .passes()
                    .iter()
                    .filter(|p| p.runs > 0)
                    .map(|p| PassCell {
                        name: p.name.to_string(),
                        runs: p.runs,
                        changes: p.changes,
                        insts_removed: p.insts_removed,
                    })
                    .collect();
                cells.push(Cell {
                    machine: arm.name.clone(),
                    pattern: arm.pattern.label().to_string(),
                    level: level.flag().to_string(),
                    text: sizes.text,
                    rodata: sizes.rodata,
                    data: sizes.data,
                    total: sizes.total(),
                    spill_slots: regalloc.spill_slots,
                    saved_regs: regalloc.saved_regs,
                    spill_bytes: regalloc.spill_bytes,
                    events: storm.events,
                    dyn_insts: storm.dyn_insts as usize,
                    warm_hit,
                    asm_digest: assembly_digest(artifact.assembly()),
                    passes,
                });
            }
        }
        Ok(Snapshot { cells })
    }

    /// Looks up one cell by its `machine/pattern/level` key.
    pub fn get(&self, key: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.key() == key)
    }

    /// Serializes to the snapshot JSON format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"machine\": {}, \"pattern\": {}, \"level\": {}, \
                 \"text\": {}, \"rodata\": {}, \"data\": {}, \"total\": {}, \
                 \"spill_slots\": {}, \"saved_regs\": {}, \"spill_bytes\": {}, \
                 \"events\": {}, \"dyn_insts\": {}, \"warm_hit\": {}, \
                 \"asm_digest\": \"{:016x}\", \"passes\": [",
                json_string(&c.machine),
                json_string(&c.pattern),
                json_string(&c.level),
                c.text,
                c.rodata,
                c.data,
                c.total,
                c.spill_slots,
                c.saved_regs,
                c.spill_bytes,
                c.events,
                c.dyn_insts,
                c.warm_hit,
                c.asm_digest
            );
            for (j, p) in c.passes.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"name\": {}, \"runs\": {}, \"changes\": {}, \"insts_removed\": {}}}",
                    if j == 0 { "" } else { ", " },
                    json_string(&p.name),
                    p.runs,
                    p.changes,
                    p.insts_removed
                );
            }
            out.push_str("]}");
            out.push_str(if i + 1 == self.cells.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the snapshot JSON format. Every field [`to_json`] writes is
    /// required — a gate fed a cell without, say, its `asm_digest` would
    /// otherwise stop gating it — while fields this reader does not know
    /// (the compile times older baselines carry) are ignored.
    ///
    /// [`to_json`]: Snapshot::to_json
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape problem; a
    /// missing field is named.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let value = Json::parse(text)?;
        let cells_value = value
            .field("cells")
            .ok_or_else(|| "missing top-level \"cells\" array".to_string())?;
        let Json::Array(items) = cells_value else {
            return Err("\"cells\" is not an array".to_string());
        };
        let mut cells = Vec::new();
        for item in items {
            let Some(Json::Array(ps)) = item.field("passes") else {
                return Err("missing or non-array field \"passes\"".to_string());
            };
            let mut passes = Vec::new();
            for p in ps {
                passes.push(PassCell {
                    name: p.string_field("name")?,
                    runs: p.usize_field("runs")?,
                    changes: p.usize_field("changes")?,
                    insts_removed: p.usize_field("insts_removed")?,
                });
            }
            cells.push(Cell {
                machine: item.string_field("machine")?,
                pattern: item.string_field("pattern")?,
                level: item.string_field("level")?,
                text: item.usize_field("text")?,
                rodata: item.usize_field("rodata")?,
                data: item.usize_field("data")?,
                total: item.usize_field("total")?,
                spill_slots: item.usize_field("spill_slots")?,
                saved_regs: item.usize_field("saved_regs")?,
                spill_bytes: item.usize_field("spill_bytes")?,
                events: item.usize_field("events")?,
                dyn_insts: item.usize_field("dyn_insts")?,
                warm_hit: item.usize_field("warm_hit")?,
                asm_digest: item.hex_field("asm_digest")?,
                passes,
            });
        }
        Ok(Snapshot { cells })
    }
}

/// One cell-level comparison verdict from [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Cell shrank or stayed equal.
    Ok {
        /// Cell key.
        key: String,
        /// Baseline total bytes.
        baseline: usize,
        /// Current total bytes.
        current: usize,
    },
    /// Cell grew, but within tolerance.
    Tolerated {
        /// Cell key.
        key: String,
        /// Baseline total bytes.
        baseline: usize,
        /// Current total bytes.
        current: usize,
    },
    /// Cell grew beyond tolerance — a regression.
    Regressed {
        /// Cell key.
        key: String,
        /// Baseline total bytes.
        baseline: usize,
        /// Current total bytes.
        current: usize,
    },
    /// Cell present in the baseline but missing from the current
    /// snapshot — lost coverage counts as a regression.
    Missing {
        /// Cell key.
        key: String,
    },
    /// Cell present in the current snapshot but absent from the
    /// baseline — cell-set drift in the other direction. Silently
    /// skipping it would let a new (or renamed) machine × pattern ×
    /// level cell slip the gate until someone notices; the baseline must
    /// be refreshed deliberately instead.
    Unbaselined {
        /// Cell key.
        key: String,
    },
    /// A per-section (`text`/`rodata`) size grew beyond tolerance even
    /// if the cell's total passed — one section's growth papered over by
    /// another's shrink is still a regression.
    SectionRegressed {
        /// Cell key.
        key: String,
        /// Section name (`text` or `rodata`).
        section: &'static str,
        /// Baseline section bytes.
        baseline: usize,
        /// Current section bytes.
        current: usize,
    },
    /// A register-allocation quality metric (`spill_slots`, `saved_regs`
    /// or `spill_bytes`) regressed beyond its tolerance: allocation
    /// decisions are part of the locked trajectory, so more spilling must
    /// fail the gate like more text even when total size hides it.
    RegallocRegressed {
        /// Cell key.
        key: String,
        /// Metric name.
        metric: &'static str,
        /// Baseline metric value.
        baseline: usize,
        /// Current metric value.
        current: usize,
    },
    /// A pass that changed code somewhere in the baseline now reports
    /// zero [`occ::PassStats::changes`] across *all* cells — it has
    /// silently gone inert (unregistered, reordered into impotence, or
    /// broken) even if another pass papers over the bytes. Keyed on
    /// `changes`, not `insts_removed`: `gvn-cse` and `inline` rewrite
    /// code without removing any, so an `insts_removed` key could never
    /// see them go dead. A pass with zero changes
    /// matrix-wide in the baseline is not gated here — today
    /// `dead-fn-elim`, which makes no change on the 48 sample cells but
    /// does on generated machines. The
    /// corpus test `every_rostered_pass_fires_somewhere_in_the_corpus` in
    /// `tests/end_to_end.rs` covers them: it fails when any pass on a
    /// level's roster makes no change at that level over the samples plus
    /// eight generated machines.
    PassInert {
        /// Canonical pass name.
        name: String,
        /// Total changes the pass reported across the baseline.
        baseline_changes: usize,
    },
    /// A cell's total pass executions (Σ [`occ::PassStats::runs`]) grew
    /// beyond [`TOLERANCE_PCT`] — the deterministic proxy for mid-end
    /// compile cost: it grows when a fixed point stops converging, long
    /// before wall-clock noise would show it.
    PassRunsRegressed {
        /// Cell key.
        key: String,
        /// Baseline total pass runs.
        baseline: usize,
        /// Current total pass runs.
        current: usize,
    },
    /// The canonical storm's deterministic executed-instruction count
    /// grew beyond tolerance — the cell got *slower* on the time-like
    /// axis even if its bytes shrank.
    DynInstsRegressed {
        /// Cell key.
        key: String,
        /// Baseline dynamic instruction count.
        baseline: usize,
        /// Current dynamic instruction count.
        current: usize,
    },
    /// The two snapshots measured different canonical storms (different
    /// event counts), so their dynamic instruction counts are not
    /// comparable — the baseline must be refreshed deliberately, not
    /// silently skipped.
    StormChanged {
        /// Cell key.
        key: String,
        /// Baseline storm event count.
        baseline_events: usize,
        /// Current storm event count.
        current_events: usize,
    },
    /// The baseline recorded this cell's immediate recompile as a
    /// driver-session cache hit, and the current snapshot did not — the
    /// artifact cache silently stopped caching (a hashing, lookup or
    /// publication bug), which no size or timing number would catch.
    CacheRegressed {
        /// Cell key.
        key: String,
    },
    /// The cell's [`assembly_digest`] differs from the baseline's: the
    /// toolchain emits different code for it — other registers, another
    /// instruction order, other bytes — even if every size and count
    /// above passed.
    DigestChanged {
        /// Cell key.
        key: String,
        /// Baseline digest.
        baseline: u64,
        /// Current digest.
        current: u64,
    },
}

impl Verdict {
    /// `true` for verdicts that must fail the gate.
    pub fn is_regression(&self) -> bool {
        matches!(
            self,
            Verdict::Regressed { .. }
                | Verdict::Missing { .. }
                | Verdict::Unbaselined { .. }
                | Verdict::SectionRegressed { .. }
                | Verdict::RegallocRegressed { .. }
                | Verdict::PassInert { .. }
                | Verdict::PassRunsRegressed { .. }
                | Verdict::DynInstsRegressed { .. }
                | Verdict::StormChanged { .. }
                | Verdict::CacheRegressed { .. }
                | Verdict::DigestChanged { .. }
        )
    }

    /// One aligned report line.
    pub fn render(&self) -> String {
        match self {
            Verdict::Ok {
                key,
                baseline,
                current,
            } => format!("  ok        {key:<40} {baseline:>7} -> {current:>7}"),
            Verdict::Tolerated {
                key,
                baseline,
                current,
            } => format!("  tolerated {key:<40} {baseline:>7} -> {current:>7}"),
            Verdict::Regressed {
                key,
                baseline,
                current,
            } => format!(
                "  REGRESSED {key:<40} {baseline:>7} -> {current:>7} (+{})",
                current.saturating_sub(*baseline)
            ),
            Verdict::Missing { key } => format!("  MISSING   {key:<40} (cell lost)"),
            Verdict::Unbaselined { key } => {
                format!("  UNBASELINED {key:<38} (cell not in baseline; refresh it deliberately)")
            }
            Verdict::SectionRegressed {
                key,
                section,
                baseline,
                current,
            } => format!(
                "  REGRESSED {key:<40} {section} {baseline:>7} -> {current:>7} (+{})",
                current.saturating_sub(*baseline)
            ),
            Verdict::RegallocRegressed {
                key,
                metric,
                baseline,
                current,
            } => format!(
                "  REGRESSED {key:<40} {metric} {baseline:>7} -> {current:>7} (+{})",
                current.saturating_sub(*baseline)
            ),
            Verdict::PassInert {
                name,
                baseline_changes,
            } => format!(
                "  INERT     pass `{name}` changed code {baseline_changes} times in the baseline, 0 now"
            ),
            Verdict::PassRunsRegressed {
                key,
                baseline,
                current,
            } => format!(
                "  REGRESSED {key:<40} pass runs {baseline:>7} -> {current:>7} (+{})",
                current.saturating_sub(*baseline)
            ),
            Verdict::DynInstsRegressed {
                key,
                baseline,
                current,
            } => format!(
                "  REGRESSED {key:<40} dyn_insts {baseline:>7} -> {current:>7} (+{})",
                current.saturating_sub(*baseline)
            ),
            Verdict::StormChanged {
                key,
                baseline_events,
                current_events,
            } => format!(
                "  STORM     {key:<40} canonical storm changed \
                 ({baseline_events} -> {current_events} events; refresh the baseline deliberately)"
            ),
            Verdict::CacheRegressed { key } => {
                format!("  REGRESSED {key:<40} warm recompile no longer hits the driver cache")
            }
            Verdict::DigestChanged {
                key,
                baseline,
                current,
            } => format!(
                "  CHANGED   {key:<40} assembly digest {baseline:016x} -> {current:016x} \
                 (refresh the baseline deliberately)"
            ),
        }
    }
}

/// Growth a size may show before it counts as a regression: within
/// `max(TOLERANCE_PCT, TOLERANCE_BYTES)` of the baseline value.
fn allowed_growth(baseline: usize) -> usize {
    std::cmp::max(
        (baseline as f64 * TOLERANCE_PCT / 100.0).floor() as usize,
        TOLERANCE_BYTES,
    )
}

/// Growth a dynamic instruction count may show before it counts as a
/// regression: within `max(TOLERANCE_PCT, TOLERANCE_DYN_INSTS)`.
fn allowed_dyn_growth(baseline: usize) -> usize {
    std::cmp::max(
        (baseline as f64 * TOLERANCE_PCT / 100.0).floor() as usize,
        TOLERANCE_DYN_INSTS,
    )
}

/// Growth a cell's total pass runs may show before it counts as a
/// regression: [`TOLERANCE_PCT`] of the baseline, with no absolute floor
/// (run counts are deterministic).
fn allowed_runs_growth(baseline: usize) -> usize {
    (baseline as f64 * TOLERANCE_PCT / 100.0).floor() as usize
}

/// Compares `current` against `baseline` cell by cell, gating on total
/// image size *and* on the `text`/`rodata` sections individually (one
/// section's growth hidden by another's shrink is still flagged). Growth
/// within `max(TOLERANCE_PCT, TOLERANCE_BYTES)` is tolerated; anything
/// larger is a regression, as is any cell-set drift — a baseline cell
/// the current snapshot no longer measures, or a current cell the
/// baseline does not know (refresh the baseline deliberately). The
/// canonical storm's dynamic instruction count is gated the same way
/// (within `max(TOLERANCE_PCT, TOLERANCE_DYN_INSTS)`), and a storm-shape
/// change (different event counts) fails outright rather than skipping
/// the cell. A cell whose baseline recorded a warm driver-cache hit must
/// still hit, and every cell must reproduce its baseline
/// [`assembly_digest`] exactly. A cell's
/// total pass runs may grow by at most [`TOLERANCE_PCT`]. Finally, any
/// pass that changed code somewhere in the baseline but reports zero
/// changes across every current cell is flagged as silently inert.
pub fn compare(baseline: &Snapshot, current: &Snapshot) -> Vec<Verdict> {
    let current_by_key: BTreeMap<String, &Cell> =
        current.cells.iter().map(|c| (c.key(), c)).collect();
    let baseline_keys: std::collections::BTreeSet<String> =
        baseline.cells.iter().map(Cell::key).collect();
    let mut verdicts = Vec::new();
    for base in &baseline.cells {
        let key = base.key();
        let Some(cur) = current_by_key.get(&key) else {
            verdicts.push(Verdict::Missing { key });
            continue;
        };
        verdicts.push(if cur.total <= base.total {
            Verdict::Ok {
                key: key.clone(),
                baseline: base.total,
                current: cur.total,
            }
        } else if cur.total <= base.total + allowed_growth(base.total) {
            Verdict::Tolerated {
                key: key.clone(),
                baseline: base.total,
                current: cur.total,
            }
        } else {
            Verdict::Regressed {
                key: key.clone(),
                baseline: base.total,
                current: cur.total,
            }
        });
        for (section, b, c) in [
            ("text", base.text, cur.text),
            ("rodata", base.rodata, cur.rodata),
        ] {
            if c > b + allowed_growth(b) {
                verdicts.push(Verdict::SectionRegressed {
                    key: key.clone(),
                    section,
                    baseline: b,
                    current: c,
                });
            }
        }
        // Register-allocation quality: the discrete counters tolerate a
        // drift of one (a single extra slot or saved register is often
        // legitimate churn), spill-code bytes use the size tolerance.
        for (metric, b, c) in [
            ("spill_slots", base.spill_slots, cur.spill_slots),
            ("saved_regs", base.saved_regs, cur.saved_regs),
        ] {
            if c > b + 1 {
                verdicts.push(Verdict::RegallocRegressed {
                    key: key.clone(),
                    metric,
                    baseline: b,
                    current: c,
                });
            }
        }
        if cur.spill_bytes > base.spill_bytes + allowed_growth(base.spill_bytes) {
            verdicts.push(Verdict::RegallocRegressed {
                key: key.clone(),
                metric: "spill_bytes",
                baseline: base.spill_bytes,
                current: cur.spill_bytes,
            });
        }
        // Time-like axis: the canonical storm's deterministic dynamic
        // instruction count, comparable only when both snapshots measured
        // the same storm — a storm-shape change is its own failure, never
        // a silent skip.
        if base.events != cur.events {
            verdicts.push(Verdict::StormChanged {
                key: key.clone(),
                baseline_events: base.events,
                current_events: cur.events,
            });
        } else if cur.dyn_insts > base.dyn_insts + allowed_dyn_growth(base.dyn_insts) {
            verdicts.push(Verdict::DynInstsRegressed {
                key: key.clone(),
                baseline: base.dyn_insts,
                current: cur.dyn_insts,
            });
        }
        // Driver-session cache presence: gated where the baseline
        // observed a hit.
        if base.warm_hit == 1 && cur.warm_hit == 0 {
            verdicts.push(Verdict::CacheRegressed { key: key.clone() });
        }
        // Byte identity: the same cell must assemble to the same code.
        if cur.asm_digest != base.asm_digest {
            verdicts.push(Verdict::DigestChanged {
                key: key.clone(),
                baseline: base.asm_digest,
                current: cur.asm_digest,
            });
        }
        // Compile-cost proxy: total pass executions in the cell.
        let runs = |c: &Cell| c.passes.iter().map(|p| p.runs).sum::<usize>();
        let (base_runs, cur_runs) = (runs(base), runs(cur));
        if cur_runs > base_runs + allowed_runs_growth(base_runs) {
            verdicts.push(Verdict::PassRunsRegressed {
                key: key.clone(),
                baseline: base_runs,
                current: cur_runs,
            });
        }
    }
    for cur in &current.cells {
        if !baseline_keys.contains(&cur.key()) {
            verdicts.push(Verdict::Unbaselined { key: cur.key() });
        }
    }
    // Pass-inert sweep: compare per-pass `changes` totals across the
    // whole matrix.
    let changes_by_pass = |snap: &Snapshot| {
        let mut totals: BTreeMap<String, usize> = BTreeMap::new();
        for cell in &snap.cells {
            for p in &cell.passes {
                *totals.entry(p.name.clone()).or_default() += p.changes;
            }
        }
        totals
    };
    let current_changes = changes_by_pass(current);
    for (name, baseline_changes) in changes_by_pass(baseline) {
        if baseline_changes > 0 && current_changes.get(&name).copied().unwrap_or(0) == 0 {
            verdicts.push(Verdict::PassInert {
                name,
                baseline_changes,
            });
        }
    }
    verdicts
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (offline stand-in for a
// crates.io JSON crate; supports exactly what the snapshot format uses).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    fn string_field(&self, name: &str) -> Result<String, String> {
        match self.field(name) {
            Some(Json::String(s)) => Ok(s.clone()),
            _ => Err(format!("missing or non-string field \"{name}\"")),
        }
    }

    fn usize_field(&self, name: &str) -> Result<usize, String> {
        match self.field(name) {
            Some(Json::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
            _ => Err(format!("missing or non-integer field \"{name}\"")),
        }
    }

    /// A 64-bit value written as a hexadecimal string (JSON numbers are
    /// doubles, too narrow for a digest).
    fn hex_field(&self, name: &str) -> Result<u64, String> {
        match self.field(name) {
            Some(Json::String(s)) => u64::from_str_radix(s, 16).ok(),
            _ => None,
        }
        .ok_or_else(|| format!("missing or non-hexadecimal field \"{name}\""))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is valid UTF-8:
                    // it came in as &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            cells: vec![
                Cell {
                    machine: "flat".into(),
                    pattern: "STT".into(),
                    level: "-O2".into(),
                    text: 1000,
                    rodata: 200,
                    data: 40,
                    total: 1240,
                    spill_slots: 2,
                    saved_regs: 3,
                    spill_bytes: 24,
                    events: 512,
                    dyn_insts: 40_000,
                    warm_hit: 1,
                    asm_digest: 0x0123_4567_89ab_cdef,
                    passes: vec![PassCell {
                        name: "sccp".into(),
                        runs: 3,
                        changes: 1,
                        insts_removed: 7,
                    }],
                },
                Cell {
                    machine: "flat".into(),
                    pattern: "STT".into(),
                    level: "-Os".into(),
                    text: 900,
                    rodata: 200,
                    data: 40,
                    total: 1140,
                    spill_slots: 0,
                    saved_regs: 1,
                    spill_bytes: 0,
                    events: 512,
                    dyn_insts: 36_000,
                    warm_hit: 1,
                    asm_digest: 0xfedc_ba98_7654_3210,
                    passes: vec![],
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let snap = sample_snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parser_survives_whitespace_and_escapes() {
        let text = "{ \"cells\" : [ {\"machine\": \"a\\\"b\", \"pattern\": \"p\",\n
            \"level\": \"-O0\", \"text\": 1, \"rodata\": 2, \"data\": 3,
            \"total\": 6, \"spill_slots\": 0, \"saved_regs\": 0,
            \"spill_bytes\": 0, \"events\" :512, \"dyn_insts\": 100,
            \"warm_hit\": 1, \"asm_digest\":\"00ff\", \"passes\": []} ] }";
        let snap = Snapshot::from_json(text).expect("parses");
        assert_eq!(snap.cells[0].machine, "a\"b");
        assert_eq!(snap.cells[0].total, 6);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Snapshot::from_json("not json").is_err());
        assert!(Snapshot::from_json("{}").is_err(), "missing cells");
        assert!(Snapshot::from_json("{\"cells\": 3}").is_err());
    }

    #[test]
    fn compare_flags_regressions_only_beyond_tolerance() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        // Equal → ok.
        assert!(compare(&base, &cur).iter().all(|v| !v.is_regression()));
        // Small growth → tolerated.
        cur.cells[0].total = base.cells[0].total + TOLERANCE_BYTES;
        let verdicts = compare(&base, &cur);
        assert!(matches!(verdicts[0], Verdict::Tolerated { .. }));
        assert!(!verdicts[0].is_regression());
        // Big growth → regression.
        cur.cells[0].total = base.cells[0].total + 100;
        let verdicts = compare(&base, &cur);
        assert!(matches!(verdicts[0], Verdict::Regressed { .. }));
        assert!(verdicts[0].is_regression());
    }

    #[test]
    fn compare_flags_missing_cells() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        cur.cells.pop();
        let verdicts = compare(&base, &cur);
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Missing { .. })));
    }

    #[test]
    fn compare_flags_unbaselined_cells() {
        // Cell-set drift in the other direction: a cell the baseline
        // does not know must fail the gate, not slip through silently.
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        let mut extra = cur.cells[0].clone();
        extra.machine = "brand-new".into();
        cur.cells.push(extra);
        let verdicts = compare(&base, &cur);
        let unb: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::Unbaselined { .. }))
            .collect();
        assert_eq!(unb.len(), 1, "{verdicts:?}");
        assert!(unb[0].is_regression());
    }

    #[test]
    fn compare_flags_section_regressions_behind_stable_totals() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        // text grows by 100, rodata shrinks by 100: total is unchanged,
        // but the text section alone regressed.
        cur.cells[0].text = base.cells[0].text + 100;
        cur.cells[0].rodata = base.cells[0].rodata - 100;
        let verdicts = compare(&base, &cur);
        assert!(
            verdicts.iter().any(|v| matches!(
                v,
                Verdict::SectionRegressed {
                    section: "text",
                    ..
                }
            )),
            "{verdicts:?}"
        );
        // Section growth within tolerance is not flagged.
        let mut small = sample_snapshot();
        small.cells[0].text = base.cells[0].text + TOLERANCE_BYTES;
        assert!(!compare(&base, &small)
            .iter()
            .any(|v| matches!(v, Verdict::SectionRegressed { .. })));
    }

    #[test]
    fn compare_gates_regalloc_quality() {
        let base = sample_snapshot();
        // One extra slot / saved register is churn, not a regression.
        let mut cur = sample_snapshot();
        cur.cells[0].spill_slots = base.cells[0].spill_slots + 1;
        cur.cells[0].saved_regs = base.cells[0].saved_regs + 1;
        assert!(!compare(&base, &cur).iter().any(Verdict::is_regression));
        // Two extra slots fail the gate even with total size unchanged.
        cur.cells[0].spill_slots = base.cells[0].spill_slots + 2;
        let verdicts = compare(&base, &cur);
        let reg: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::RegallocRegressed { .. }))
            .collect();
        assert_eq!(reg.len(), 1, "{verdicts:?}");
        assert!(reg[0].is_regression());
        assert!(
            reg[0].render().contains("spill_slots"),
            "{}",
            reg[0].render()
        );
        // Spill-code bytes use the size tolerance: +8 passes, +100 fails.
        let mut bytes = sample_snapshot();
        bytes.cells[0].spill_bytes = base.cells[0].spill_bytes + TOLERANCE_BYTES;
        assert!(!compare(&base, &bytes).iter().any(Verdict::is_regression));
        bytes.cells[0].spill_bytes = base.cells[0].spill_bytes + 100;
        assert!(compare(&base, &bytes).iter().any(|v| matches!(
            v,
            Verdict::RegallocRegressed {
                metric: "spill_bytes",
                ..
            }
        )));
    }

    fn inert_passes(verdicts: &[Verdict]) -> Vec<&Verdict> {
        verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::PassInert { .. }))
            .collect()
    }

    #[test]
    fn compare_flags_passes_gone_inert() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        // The baseline's sccp changed code once; the current run still
        // executes it but it no longer changes anything anywhere.
        cur.cells[0].passes[0].changes = 0;
        let verdicts = compare(&base, &cur);
        let inert = inert_passes(&verdicts);
        assert_eq!(inert.len(), 1, "{verdicts:?}");
        assert!(inert[0].is_regression());
        assert!(inert[0].render().contains("sccp"), "{:?}", inert[0]);
        // Removing fewer instructions while still changing code is not
        // inertness.
        let mut fewer = sample_snapshot();
        fewer.cells[0].passes[0].insts_removed = 0;
        assert!(inert_passes(&compare(&base, &fewer)).is_empty());
        assert!(!compare(&base, &base.clone())
            .iter()
            .any(|v| v.is_regression()));
    }

    #[test]
    fn compare_flags_gvn_cse_gone_inert_by_changes() {
        // GVN/CSE rewrites redundant expressions into copies and removes
        // no instruction itself: its effect shows only in `changes`,
        // which is what the inert gate keys on.
        let gvn = |changes| PassCell {
            name: "gvn-cse".into(),
            runs: 4,
            changes,
            insts_removed: 0,
        };
        let mut base = sample_snapshot();
        base.cells[0].passes.push(gvn(2));
        let mut cur = base.clone();
        cur.cells[0].passes[1] = gvn(0);
        let verdicts = compare(&base, &cur);
        let inert = inert_passes(&verdicts);
        assert_eq!(inert.len(), 1, "{verdicts:?}");
        assert_eq!(
            inert[0],
            &Verdict::PassInert {
                name: "gvn-cse".into(),
                baseline_changes: 2,
            }
        );
        // A pass with no change anywhere in the baseline is ungated.
        let mut idle = sample_snapshot();
        idle.cells[0].passes.push(gvn(0));
        assert!(inert_passes(&compare(&idle, &idle.clone())).is_empty());
    }

    #[test]
    fn compare_gates_total_pass_runs_per_cell() {
        let runs_cell = |runs: [usize; 2]| {
            let mut snap = sample_snapshot();
            snap.cells[0].passes = runs
                .iter()
                .enumerate()
                .map(|(i, &runs)| PassCell {
                    name: ["sccp", "dce"][i].into(),
                    runs,
                    changes: 1,
                    insts_removed: 1,
                })
                .collect();
            snap
        };
        let base = runs_cell([150, 150]);
        let runs_verdicts = |cur: &Snapshot| -> Vec<Verdict> {
            compare(&base, cur)
                .into_iter()
                .filter(|v| matches!(v, Verdict::PassRunsRegressed { .. }))
                .collect()
        };
        // 1% of 300 runs is 3: +3 is tolerated, +4 fails, fewer is fine.
        assert!(runs_verdicts(&runs_cell([152, 151])).is_empty());
        assert!(runs_verdicts(&runs_cell([100, 100])).is_empty());
        let grown = runs_verdicts(&runs_cell([154, 150]));
        assert_eq!(
            grown,
            vec![Verdict::PassRunsRegressed {
                key: "flat/STT/-O2".into(),
                baseline: 300,
                current: 304,
            }]
        );
        assert!(grown[0].is_regression());
        assert!(
            grown[0].render().contains("pass runs"),
            "{}",
            grown[0].render()
        );
    }

    #[test]
    fn measure_covers_the_full_matrix() {
        let snap = Snapshot::measure().expect("measures");
        let machines = sample_machines().len();
        assert_eq!(snap.cells.len(), machines * 3 * 4);
        // -O2/-Os cells carry pass stats; -O0 cells do not.
        for cell in &snap.cells {
            if cell.level == "-O2" {
                assert!(!cell.passes.is_empty(), "{} has no pass stats", cell.key());
            }
            if cell.level == "-O0" {
                assert!(cell.passes.is_empty(), "{} ran passes at -O0", cell.key());
            }
            // Every cell is storm-measured.
            assert_eq!(
                cell.events,
                crate::storm::STORM_EVENTS,
                "{} missing its storm",
                cell.key()
            );
            assert!(cell.dyn_insts > 0, "{} executed nothing", cell.key());
            // Every cell's immediate recompile hit the shared driver
            // session.
            assert_eq!(cell.warm_hit, 1, "{} warm recompile missed", cell.key());
        }
    }

    #[test]
    fn parser_requires_every_written_field() {
        // Renaming a key hides the field from the reader, which ignores
        // keys it does not know: each written field in turn goes missing.
        let text = sample_snapshot().to_json();
        for field in [
            "machine",
            "pattern",
            "level",
            "text",
            "rodata",
            "data",
            "total",
            "spill_slots",
            "saved_regs",
            "spill_bytes",
            "events",
            "dyn_insts",
            "warm_hit",
            "asm_digest",
            "passes",
            "name",
            "runs",
            "changes",
            "insts_removed",
        ] {
            let key = format!("\"{field}\":");
            assert!(text.contains(&key), "to_json writes {field}");
            let dropped = text.replacen(&key, "\"dropped\":", 1);
            let err = Snapshot::from_json(&dropped).expect_err(field);
            assert!(err.contains(&format!("\"{field}\"")), "{field}: {err}");
        }
    }

    #[test]
    fn compare_gates_cache_hits_for_presence_only() {
        let base = sample_snapshot();
        // A lost warm hit is a regression, even with every other number
        // unchanged.
        let mut cur = sample_snapshot();
        cur.cells[0].warm_hit = 0;
        let verdicts = compare(&base, &cur);
        let cache: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::CacheRegressed { .. }))
            .collect();
        assert_eq!(cache.len(), 1, "{verdicts:?}");
        assert!(cache[0].is_regression());
        assert!(cache[0].render().contains("driver cache"), "{:?}", cache[0]);
        // A baseline cell that missed (warm_hit 0) does not gate the cache.
        let mut missed = sample_snapshot();
        for c in &mut missed.cells {
            c.warm_hit = 0;
        }
        let mut cur = sample_snapshot();
        cur.cells[0].warm_hit = 0;
        assert!(!compare(&missed, &cur).iter().any(Verdict::is_regression));
    }

    #[test]
    fn compare_gates_assembly_digests() {
        let base = sample_snapshot();
        assert!(!compare(&base, &base).iter().any(Verdict::is_regression));
        // Same sizes, same counts, different code: a regression.
        let mut cur = sample_snapshot();
        cur.cells[1].asm_digest ^= 1;
        let verdicts = compare(&base, &cur);
        let changed: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::DigestChanged { .. }))
            .collect();
        assert_eq!(
            changed,
            vec![&Verdict::DigestChanged {
                key: "flat/STT/-Os".into(),
                baseline: 0xfedc_ba98_7654_3210,
                current: 0xfedc_ba98_7654_3211,
            }]
        );
        assert!(changed[0].is_regression());
        assert!(
            changed[0].render().contains("fedcba9876543211"),
            "{}",
            changed[0].render()
        );
    }

    #[test]
    fn assembly_digest_tracks_every_register() {
        let arm = &crate::matrix::arms()[0];
        let generated = arm.generate().expect("generates");
        let artifact = arm.compile(OptLevel::O1, &generated).expect("compiles");
        let asm = artifact.assembly();
        assert_eq!(assembly_digest(asm), assembly_digest(&asm.clone()));
        let mut renamed = asm.clone();
        let reg = renamed.functions[0]
            .insts
            .iter_mut()
            .find_map(|i| match i {
                occ::backend::AsmInst::Mv { rd, .. } | occ::backend::AsmInst::Li { rd, .. } => {
                    Some(rd)
                }
                _ => None,
            })
            .expect("a register write");
        *reg ^= 1;
        assert_eq!(renamed.sizes(), asm.sizes(), "same bytes, other register");
        assert_ne!(assembly_digest(&renamed), assembly_digest(asm));
    }

    #[test]
    fn baselines_with_compile_times_parse_and_drop_them() {
        // Baselines once carried per-cell compile times; the reader looks
        // fields up by name, so such a baseline still parses and the
        // times are dropped.
        let text = "{\"cells\": [{\"machine\": \"m\", \"pattern\": \"p\",
            \"level\": \"-O1\", \"text\": 1, \"rodata\": 2, \"data\": 3,
            \"total\": 6, \"spill_slots\": 0, \"saved_regs\": 0,
            \"spill_bytes\": 0, \"events\": 512, \"dyn_insts\": 100,
            \"compile_ns\": 5000000, \"warm_compile_ns\": 700, \"warm_hit\": 1,
            \"asm_digest\": \"00000000000000ff\", \"passes\": []}]}";
        let base = Snapshot::from_json(text).expect("parses");
        let cell = &base.cells[0];
        assert_eq!(
            (cell.dyn_insts, cell.warm_hit, cell.asm_digest),
            (100, 1, 0xff)
        );
        assert!(!base.to_json().contains("compile_ns"), "{}", base.to_json());
    }

    #[test]
    fn compare_gates_dynamic_instruction_counts() {
        let base = sample_snapshot();
        // Within tolerance (64 insts or 1%): not a regression.
        let mut cur = sample_snapshot();
        cur.cells[1].dyn_insts = base.cells[1].dyn_insts + TOLERANCE_DYN_INSTS;
        assert!(!compare(&base, &cur).iter().any(Verdict::is_regression));
        // Beyond 1%: a regression, even though every byte is unchanged.
        cur.cells[1].dyn_insts = base.cells[1].dyn_insts * 102 / 100;
        let verdicts = compare(&base, &cur);
        let dyn_regs: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::DynInstsRegressed { .. }))
            .collect();
        assert_eq!(dyn_regs.len(), 1, "{verdicts:?}");
        assert!(dyn_regs[0].is_regression());
        assert!(
            dyn_regs[0].render().contains("dyn_insts"),
            "{}",
            dyn_regs[0].render()
        );
        // Getting *faster* is never flagged.
        let mut faster = sample_snapshot();
        faster.cells[0].dyn_insts = base.cells[0].dyn_insts / 2;
        assert!(!compare(&base, &faster).iter().any(Verdict::is_regression));
    }

    #[test]
    fn compare_flags_storm_shape_changes() {
        let base = sample_snapshot();
        let mut cur = sample_snapshot();
        cur.cells[0].events = 1024;
        // Counts from different storms are incomparable: fail loudly,
        // even if the count happens to look smaller.
        cur.cells[0].dyn_insts = 1;
        let verdicts = compare(&base, &cur);
        let storm: Vec<_> = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::StormChanged { .. }))
            .collect();
        assert_eq!(storm.len(), 1, "{verdicts:?}");
        assert!(storm[0].is_regression());
        assert!(
            !verdicts
                .iter()
                .any(|v| matches!(v, Verdict::DynInstsRegressed { .. })),
            "a changed storm must not also be judged on its count"
        );
    }
}
