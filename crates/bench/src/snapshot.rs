//! The bench snapshot and the CI regression gate it feeds.
//!
//! [`Snapshot::measure`] compiles every [`crate::matrix`] cell through
//! the shared [`crate::driver`] session and records the section sizes,
//! the backend's register-allocation counters
//! ([`occ::RegAllocStats`]: spill slots, saved callee-saved registers,
//! spill-code bytes), the deterministic executed-instruction count of the
//! [canonical event storm](crate::storm) on the fast engine — checked
//! against the reference oracle — whether an immediate recompile hits the
//! driver's cache, a digest of the cell's whole assembly
//! ([`assembly_digest`]), and the per-pass [`occ::PassStats`] of the
//! mid-end run.
//!
//! [`Snapshot::to_text`] writes one fact per line, led by the cell's
//! whitespace-free `machine/pattern/level` key:
//!
//! ```text
//! flat/STT/-O1 total 1858
//! flat/STT/-O1 asm_digest 4dd30d08c1b7a67e
//! flat/STT/-O1 pass sccp runs 23 changes 2 insts_removed 17
//! ```
//!
//! The `snapshot` binary writes that text to the committed
//! `bench_baseline.txt`. The `regress` binary measures afresh and fails
//! unless the text equals the baseline line for line ([`diff`]). There is
//! no tolerance: a change to any size, count, pass effect or emitted
//! instruction — an improvement too — fails the gate until the baseline
//! is refreshed and the refresh diff explained.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use occ::driver::Fnv64;
use occ::{Assembly, OptLevel, PassStats};

use crate::BenchError;

/// One machine × pattern × level measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// `machine/pattern/level`, the pattern label without its spaces
    /// (`hierarchical/NestedSwitch/-O2`): the first word of each of the
    /// cell's lines.
    pub key: String,
    /// Optimization level.
    pub level: OptLevel,
    /// Machine-code bytes.
    pub text: usize,
    /// Read-only data bytes.
    pub rodata: usize,
    /// Mutable data bytes.
    pub data: usize,
    /// Total image bytes.
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
    /// on the fast engine — the cell's "time".
    pub dyn_insts: usize,
    /// `1` if the immediate recompile was served from the driver's
    /// cache, `0` otherwise.
    pub warm_hit: usize,
    /// [`assembly_digest`] of the cell's assembly: other registers or
    /// another instruction order at the same sizes change it.
    pub asm_digest: u64,
    /// Mid-end per-pass effects of the passes that ran.
    pub passes: Vec<PassStats>,
}

/// 64-bit FNV-1a over the `Debug` form of `asm` — every function's
/// instructions, registers, labels and register-allocation counters, the
/// data image and the layout — streamed into the hash without building
/// the string.
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

/// A full measurement: every sample machine × pattern × level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All measured cells, in matrix order.
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
                // session-cache hit.
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
                cells.push(Cell {
                    key: format!("{}/{}", arm.key(), level.flag()),
                    level,
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
                    passes: artifact
                        .pass_stats()
                        .passes()
                        .iter()
                        .filter(|p| p.runs > 0)
                        .copied()
                        .collect(),
                });
            }
        }
        Ok(Snapshot { cells })
    }

    /// The snapshot as text, one fact per line: each cell's eleven
    /// numbers in a fixed order, then one line per pass.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            let key = &c.key;
            for (fact, value) in [
                ("text", c.text),
                ("rodata", c.rodata),
                ("data", c.data),
                ("total", c.total),
                ("spill_slots", c.spill_slots),
                ("saved_regs", c.saved_regs),
                ("spill_bytes", c.spill_bytes),
                ("events", c.events),
                ("dyn_insts", c.dyn_insts),
                ("warm_hit", c.warm_hit),
            ] {
                let _ = writeln!(out, "{key} {fact} {value}");
            }
            let _ = writeln!(out, "{key} asm_digest {:016x}", c.asm_digest);
            for p in &c.passes {
                let _ = writeln!(
                    out,
                    "{key} pass {} runs {} changes {} insts_removed {}",
                    p.name, p.runs, p.changes, p.insts_removed
                );
            }
        }
        out
    }
}

/// The lines by which `current` differs from `baseline`, grouped by cell
/// with the `-` lines first: `- line` for a baseline line `current`
/// lacks, `+ line` for a line the baseline lacks. When both texts hold
/// the same lines in another order, each position whose line differs is
/// reported as such a pair. A text that is empty or does not end in a
/// newline (a truncated file) adds a line of its own. The result is
/// empty exactly when the two texts are equal and end in a newline.
pub fn diff(baseline: &str, current: &str) -> Vec<String> {
    let mut count: BTreeMap<&str, isize> = BTreeMap::new();
    for line in baseline.split_terminator('\n') {
        *count.entry(line).or_default() -= 1;
    }
    for line in current.split_terminator('\n') {
        *count.entry(line).or_default() += 1;
    }
    let mut out: Vec<String> = count
        .into_iter()
        .flat_map(|(line, n)| {
            let sign = if n < 0 { '-' } else { '+' };
            std::iter::repeat_n(format!("{sign} {line}"), n.unsigned_abs())
        })
        .collect();
    if out.is_empty() {
        let pairs = baseline
            .split_terminator('\n')
            .zip(current.split_terminator('\n'));
        for (b, c) in pairs.filter(|(b, c)| b != c) {
            out.extend([format!("- {b}"), format!("+ {c}")]);
        }
    }
    for (sign, text) in [('-', baseline), ('+', current)] {
        if !text.ends_with('\n') {
            out.push(format!("{sign} (empty, or truncated: no final newline)"));
        }
    }
    out.sort_by(|a, b| hunk_order(a).cmp(&hunk_order(b)));
    out
}

/// Sort key of a [`diff`] line: its cell key, `-` before `+`, the line.
fn hunk_order(line: &str) -> (&str, bool, &str) {
    let fact = &line[2..];
    let key = fact.split(' ').next().unwrap_or(fact);
    (key, line.starts_with('+'), fact)
}

#[cfg(test)]
mod tests {
    use super::*;

    const O2: &str = "flat/NestedSwitch/-O2";

    fn pass(name: &'static str, runs: usize, changes: usize, insts_removed: usize) -> PassStats {
        PassStats {
            name,
            runs,
            changes,
            insts_removed,
        }
    }

    /// Two cells; `-O2` runs `sccp` and `gvn-cse`, which rewrites code
    /// without removing instructions.
    fn sample_snapshot() -> Snapshot {
        let cell = |key: &str, level, text, asm_digest, passes| Cell {
            key: key.into(),
            level,
            text,
            rodata: 200,
            data: 40,
            total: text + 240,
            spill_slots: 2,
            saved_regs: 3,
            spill_bytes: 24,
            events: 512,
            dyn_insts: 40_000,
            warm_hit: 1,
            asm_digest,
            passes,
        };
        Snapshot {
            cells: vec![
                cell(
                    O2,
                    OptLevel::O2,
                    1000,
                    0x0123_4567_89ab_cdef,
                    vec![pass("sccp", 3, 1, 7), pass("gvn-cse", 4, 2, 0)],
                ),
                cell(
                    "flat/NestedSwitch/-Os",
                    OptLevel::Os,
                    900,
                    0xfedc_ba98_7654_3210,
                    vec![],
                ),
            ],
        }
    }

    /// [`diff`] of the sample's text against the text of the sample
    /// after `edit`.
    fn diff_after(edit: impl FnOnce(&mut Snapshot)) -> Vec<String> {
        let base = sample_snapshot();
        let mut cur = base.clone();
        edit(&mut cur);
        diff(&base.to_text(), &cur.to_text())
    }

    /// `lines` prefixed with `sign`, in [`diff`]'s order.
    fn signed(sign: char, lines: &[&str]) -> Vec<String> {
        let mut out: Vec<String> = lines.iter().map(|l| format!("{sign} {l}")).collect();
        out.sort_by(|a, b| hunk_order(a).cmp(&hunk_order(b)));
        out
    }

    #[test]
    fn to_text_writes_one_fact_per_line() {
        let text = sample_snapshot().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 * 11 + 2);
        assert_eq!(
            lines[..13],
            [
                "flat/NestedSwitch/-O2 text 1000",
                "flat/NestedSwitch/-O2 rodata 200",
                "flat/NestedSwitch/-O2 data 40",
                "flat/NestedSwitch/-O2 total 1240",
                "flat/NestedSwitch/-O2 spill_slots 2",
                "flat/NestedSwitch/-O2 saved_regs 3",
                "flat/NestedSwitch/-O2 spill_bytes 24",
                "flat/NestedSwitch/-O2 events 512",
                "flat/NestedSwitch/-O2 dyn_insts 40000",
                "flat/NestedSwitch/-O2 warm_hit 1",
                "flat/NestedSwitch/-O2 asm_digest 0123456789abcdef",
                "flat/NestedSwitch/-O2 pass sccp runs 3 changes 1 insts_removed 7",
                "flat/NestedSwitch/-O2 pass gvn-cse runs 4 changes 2 insts_removed 0",
            ]
        );
        assert_eq!(lines[13], "flat/NestedSwitch/-Os text 900");
        assert!(text.ends_with("flat/NestedSwitch/-Os asm_digest fedcba9876543210\n"));
        assert_eq!(diff(&text, &text), Vec::<String>::new());
    }

    #[test]
    fn diff_names_each_changed_fact() {
        // Each fact changed alone, the failing inputs of the former
        // tolerance rules among them: a total 100 bytes larger, two more
        // spill slots, 100 more spill-code bytes, 2% more executed
        // instructions, a lost warm hit, a one-bit digest change, more
        // pass runs, and a pass gone inert (`sccp`, and `gvn-cse`, whose
        // removals were already 0). Improvements and changes the old
        // rules tolerated, such as fewer instructions removed, fail too.
        type Edit = fn(&mut Cell);
        let cases: [(Edit, &str, &str); 15] = [
            (|c| c.total += 100, "total 1240", "total 1340"),
            (|c| c.text -= 8, "text 1000", "text 992"),
            (|c| c.rodata += 4, "rodata 200", "rodata 204"),
            (|c| c.data += 4, "data 40", "data 44"),
            (|c| c.spill_slots += 2, "spill_slots 2", "spill_slots 4"),
            (|c| c.saved_regs += 1, "saved_regs 3", "saved_regs 4"),
            (
                |c| c.spill_bytes += 100,
                "spill_bytes 24",
                "spill_bytes 124",
            ),
            (|c| c.events = 1024, "events 512", "events 1024"),
            (
                |c| c.dyn_insts = 40_800,
                "dyn_insts 40000",
                "dyn_insts 40800",
            ),
            (|c| c.warm_hit = 0, "warm_hit 1", "warm_hit 0"),
            (
                |c| c.asm_digest ^= 1,
                "asm_digest 0123456789abcdef",
                "asm_digest 0123456789abcdee",
            ),
            (
                |c| c.passes[0].runs += 1,
                "pass sccp runs 3 changes 1 insts_removed 7",
                "pass sccp runs 4 changes 1 insts_removed 7",
            ),
            (
                |c| c.passes[0].changes = 0,
                "pass sccp runs 3 changes 1 insts_removed 7",
                "pass sccp runs 3 changes 0 insts_removed 7",
            ),
            (
                |c| c.passes[1].changes = 0,
                "pass gvn-cse runs 4 changes 2 insts_removed 0",
                "pass gvn-cse runs 4 changes 0 insts_removed 0",
            ),
            (
                |c| c.passes[0].insts_removed = 0,
                "pass sccp runs 3 changes 1 insts_removed 7",
                "pass sccp runs 3 changes 1 insts_removed 0",
            ),
        ];
        for (edit, before, after) in cases {
            assert_eq!(
                diff_after(|s| edit(&mut s.cells[0])),
                [format!("- {O2} {before}"), format!("+ {O2} {after}")]
            );
        }
    }

    #[test]
    fn diff_names_every_fact_of_a_joint_change() {
        // A section grows while another shrinks at an equal total.
        let sections = diff_after(|s| {
            s.cells[0].text += 100;
            s.cells[0].rodata -= 100;
        });
        let mut expected = signed(
            '-',
            &[&format!("{O2} text 1000"), &format!("{O2} rodata 200")],
        );
        expected.extend(signed(
            '+',
            &[&format!("{O2} text 1100"), &format!("{O2} rodata 100")],
        ));
        assert_eq!(sections, expected);
        // Runs move between passes at equal total runs.
        let runs = diff_after(|s| {
            s.cells[0].passes[0].runs += 1;
            s.cells[0].passes[1].runs -= 1;
        });
        assert_eq!(runs.len(), 4, "{runs:?}");
        // Another storm, with a smaller count.
        let storm = diff_after(|s| {
            s.cells[0].events = 1024;
            s.cells[0].dyn_insts = 1;
        });
        assert!(storm.contains(&format!("+ {O2} events 1024")), "{storm:?}");
        assert!(storm.contains(&format!("+ {O2} dyn_insts 1")), "{storm:?}");
        assert_eq!(storm.len(), 4, "{storm:?}");
    }

    #[test]
    fn diff_names_added_and_dropped_passes() {
        let added = diff_after(|s| s.cells[1].passes.push(pass("dce", 4, 0, 0)));
        assert_eq!(
            added,
            ["+ flat/NestedSwitch/-Os pass dce runs 4 changes 0 insts_removed 0"]
        );
        let dropped = diff_after(|s| {
            s.cells[0].passes.remove(0);
        });
        assert_eq!(
            dropped,
            [format!("- {O2} pass sccp runs 3 changes 1 insts_removed 7")]
        );
    }

    #[test]
    fn diff_names_lost_and_unbaselined_cells() {
        let mut os_only = sample_snapshot();
        os_only.cells.remove(0);
        let os_text = os_only.to_text();
        let os_lines: Vec<&str> = os_text.lines().collect();
        let lost = diff_after(|s| {
            s.cells.pop();
        });
        assert_eq!(lost, signed('-', &os_lines));
        let unbaselined = diff_after(|s| {
            let mut extra = s.cells[1].clone();
            extra.key = "brand-new/STT/-Os".into();
            s.cells.push(extra);
        });
        assert_eq!(unbaselined.len(), 11, "{unbaselined:?}");
        assert!(unbaselined
            .iter()
            .all(|l| l.starts_with("+ brand-new/STT/-Os ")));
    }

    #[test]
    fn diff_fails_reordered_lines_and_cells() {
        let sccp = format!("{O2} pass sccp runs 3 changes 1 insts_removed 7");
        let gvn = format!("{O2} pass gvn-cse runs 4 changes 2 insts_removed 0");
        let mut expected = signed('-', &[&sccp, &gvn]);
        expected.extend(signed('+', &[&sccp, &gvn]));
        assert_eq!(diff_after(|s| s.cells[0].passes.swap(0, 1)), expected);
        let swapped_cells = diff_after(|s| s.cells.swap(0, 1));
        assert_eq!(swapped_cells.len(), 2 * 24, "{swapped_cells:?}");
    }

    #[test]
    fn diff_fails_empty_truncated_and_foreign_texts() {
        let text = sample_snapshot().to_text();
        let marker = |sign| format!("{sign} (empty, or truncated: no final newline)");
        // Both empty: equal, but no measurement at all.
        assert_eq!(diff("", ""), [marker('-'), marker('+')]);
        // One side empty: every fact of the other, and the marker.
        let empty_current = diff(&text, "");
        assert_eq!(empty_current.len(), 24 + 1);
        assert!(empty_current.contains(&marker('+')));
        assert_eq!(diff("", &text).len(), 24 + 1);
        // Cut inside a line: the cut line, every line after it, the
        // marker.
        let cut = &text[..text.find("total 1240").expect("a total") + 8];
        let d = diff(&text, cut);
        assert_eq!(d.len(), 24 - 3 + 1 + 1, "{d:?}");
        assert!(d.contains(&format!("- {O2} total 1240")));
        assert!(d.contains(&format!("+ {O2} total 12")));
        assert!(d.contains(&marker('+')));
        // Cut at a line end: the lost lines.
        let lost = diff(
            &text,
            &text[..text.find("flat/NestedSwitch/-Os").expect("-Os")],
        );
        assert_eq!(lost.len(), 11);
        // Only the final newline lost: the marker alone.
        assert_eq!(diff(&text, text.trim_end()), [marker('+')]);
        // Text from elsewhere: every line.
        assert_eq!(diff(&text, "{\"cells\": []}\n").len(), 24 + 1);
    }

    #[test]
    fn every_line_is_a_required_fact() {
        // Dropping any one line from either side fails with exactly that
        // line.
        let text = sample_snapshot().to_text();
        let lines: Vec<&str> = text.lines().collect();
        for i in 0..lines.len() {
            let mut kept = lines.clone();
            let dropped = kept.remove(i);
            let without: String = kept.iter().map(|l| format!("{l}\n")).collect();
            assert_eq!(diff(&without, &text), [format!("+ {dropped}")]);
            assert_eq!(diff(&text, &without), [format!("- {dropped}")]);
        }
    }

    #[test]
    fn measure_covers_the_full_matrix() {
        let snap = Snapshot::measure().expect("measures");
        let machines = crate::matrix::sample_machines().len();
        assert_eq!(snap.cells.len(), machines * 3 * 4);
        for cell in &snap.cells {
            assert!(
                !cell.key.contains(char::is_whitespace),
                "{} has whitespace in its key",
                cell.key
            );
            // -O2/-Os cells carry pass stats; -O0 cells do not.
            if cell.level == OptLevel::O2 {
                assert!(!cell.passes.is_empty(), "{} has no pass stats", cell.key);
            }
            if cell.level == OptLevel::O0 {
                assert!(cell.passes.is_empty(), "{} ran passes at -O0", cell.key);
            }
            // Every cell is storm-measured.
            assert_eq!(
                cell.events,
                crate::storm::STORM_EVENTS,
                "{} missing its storm",
                cell.key
            );
            assert!(cell.dyn_insts > 0, "{} executed nothing", cell.key);
            // Every cell's immediate recompile hit the shared driver
            // session.
            assert_eq!(cell.warm_hit, 1, "{} warm recompile missed", cell.key);
        }
        let passes: usize = snap.cells.iter().map(|c| c.passes.len()).sum();
        assert_eq!(
            snap.to_text().lines().count(),
            snap.cells.len() * 11 + passes
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
}
