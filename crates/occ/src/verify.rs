//! Whole-pipeline MIR/SSA static verifier — the canonical invariant
//! catalogue for every IR form the compiler passes through.
//!
//! Every mid-end pass relies on invariants (SSA dominance, φ/predecessor
//! agreement, the alias-model contract of [`crate::mem`]) that trace
//! differentials can only falsify indirectly: they report *that* a
//! miscompile happened, never *which pass* broke *which rule*. This
//! module makes the rules first-class. [`verify_function`] and
//! [`verify_program`] validate an IR snapshot and return structured
//! [`Violation`]s — never panics — so tests can assert on a specific
//! [`Rule`] and the pass manager can attribute a breakage to the pass
//! that introduced it (`after gvn-cse in sweep 2: use of v17 in bb4
//! not dominated by def in bb7`).
//!
//! # Strictness tiers
//!
//! MIR deliberately passes through different shapes (lowered φ-free →
//! SSA → φ-free again), so the checker is tiered ([`Tier`]):
//!
//! * [`Tier::Structural`] — CFG and operand well-formedness; holds at
//!   *every* pipeline point.
//! * [`Tier::Ssa`] — structural plus SSA discipline; holds between
//!   [`crate::ssa::construct`] and [`crate::ssa::destruct`].
//! * [`Tier::PhiFree`] — structural plus φ-freedom; holds after lowering
//!   (the front end emits no φs) and after SSA destruction.
//!
//! The memory tier is orthogonal to the function shape and runs whenever
//! program-wide facts are available: [`verify_memory`] checks a function
//! against a complete [`mem::MemoryModel`], and [`verify_program`] runs
//! it for every function (subsuming the retired
//! `lower::validate_mem_contract`).
//!
//! # Rule catalogue
//!
//! | Rule | Tier | Contract |
//! |------|------|----------|
//! | [`Rule::EmptyFunction`] | structural | a function has at least an entry block |
//! | [`Rule::TargetOutOfRange`] | structural | every terminator successor names an existing block |
//! | [`Rule::EntryHasPred`] | structural | `bb0` has no predecessors (its implicit edge from the caller cannot carry φ arguments) |
//! | [`Rule::UndefinedUse`] | structural | every operand register is a parameter or defined by some instruction |
//! | [`Rule::VRegOutOfRange`] | structural | no register numbered `>= next_vreg` appears (a later `fresh()` would collide with it) |
//! | [`Rule::SwitchDupArm`] | structural | `Switch` case values are distinct |
//! | [`Rule::PhiNotLeading`] | structural | φs form a contiguous block prefix (this IR stores the terminator out of line, so "no instruction after the terminator" holds by construction; φ placement is the corresponding ordering invariant) |
//! | [`Rule::MultipleDefs`] | SSA | one static definition per register (parameters count as entry definitions) |
//! | [`Rule::UseNotDominated`] | SSA | every non-φ use is dominated by its definition |
//! | [`Rule::PhiOutsideJoin`] | SSA | φs appear only in blocks with ≥ 2 distinct predecessors |
//! | [`Rule::PhiPredMismatch`] | SSA | φ arguments agree 1:1 with the actual predecessors (no stale, missing or conflicting entries) |
//! | [`Rule::PhiArgNotDominated`] | SSA | each φ argument's definition dominates the exit of the corresponding predecessor |
//! | [`Rule::UnexpectedPhi`] | φ-free | no φs outside SSA form |
//! | [`Rule::UnknownGlobal`] | memory | every `Addr` root and resolved access names an existing global |
//! | [`Rule::OffsetOutOfBounds`] | memory | every [`mem::AddrInfo::Exact`] access fits in `[0, size)` of its global (word-sized, per [`mem::ACCESS_BYTES`]) |
//! | [`Rule::StoreToRodata`] | memory | no store resolves to an immutable global |
//! | [`Rule::CalleeOutOfRange`] | memory | `Call`/`FnAddr`/`CallExtern` indices stay inside the program's symbol tables |
//!
//! Unreachable blocks are exempt from the dominance-based SSA rules
//! (they have no dominator-tree position and exist only transiently,
//! between a pass folding an edge and the next cleanup); the structural
//! rules still apply to them.
//!
//! # Verify-each
//!
//! In debug builds the pipeline re-checks itself at every boundary:
//! [`crate::lower`] verifies its output (φ-free + memory tiers),
//! [`crate::ssa::construct`]/[`crate::ssa::destruct`] verify theirs, and
//! the [`crate::opt::PassManager`] verifies each function once more
//! after its last step. Setting the `OCC_VERIFY=each` environment
//! knob (or [`crate::opt::PassManager::with_verify`]) escalates to
//! **verify-each**: the appropriate tier runs after *every* pass, and a
//! violation panics with the pass name and stage that introduced it.
//! Release builds compile all of it out, exactly like the backend's
//! `VCode` verifier.
//!
//! # Example
//!
//! A double definition — legal in lowered form, fatal in SSA form — is
//! caught and attributed:
//!
//! ```
//! use occ::mir::{Block, Inst, MirFunction, Term, VReg};
//! use occ::verify::{verify_function, Rule, Tier};
//!
//! let f = MirFunction {
//!     name: "broken".into(),
//!     params: 0,
//!     returns_value: true,
//!     exported: true,
//!     blocks: vec![Block {
//!         insts: vec![
//!             Inst::Const { dst: VReg(0), value: 1 },
//!             Inst::Const { dst: VReg(0), value: 2 },
//!         ],
//!         term: Term::Ret(Some(VReg(0))),
//!     }],
//!     next_vreg: 1,
//! };
//! assert!(verify_function(&f, Tier::Structural).is_empty()); // fine pre-SSA
//! let violations = verify_function(&f, Tier::Ssa);
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule, Rule::MultipleDefs);
//! assert!(violations[0].to_string().contains("v0"));
//! ```

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use crate::cfg;
use crate::mem;
use crate::mir::{BlockId, Inst, MirFunction, Program, Term, VReg};

/// The invariant a [`Violation`] breaks. See the [module
/// catalogue](self) for the one-line contract of each rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Function has no blocks at all.
    EmptyFunction,
    /// A terminator successor names a block index out of range.
    TargetOutOfRange,
    /// The entry block has a predecessor.
    EntryHasPred,
    /// An operand register is neither a parameter nor defined anywhere.
    UndefinedUse,
    /// A register numbered at or above `next_vreg` appears.
    VRegOutOfRange,
    /// A `Switch` carries duplicate case values.
    SwitchDupArm,
    /// A φ appears after a non-φ instruction.
    PhiNotLeading,
    /// A register has more than one static definition (SSA tier).
    MultipleDefs,
    /// A non-φ use is not dominated by its definition (SSA tier).
    UseNotDominated,
    /// A φ sits in a block with fewer than two distinct predecessors.
    PhiOutsideJoin,
    /// φ arguments disagree with the block's actual predecessors.
    PhiPredMismatch,
    /// A φ argument's definition does not dominate its predecessor's
    /// exit.
    PhiArgNotDominated,
    /// A φ is present in a φ-free form (post-lower / post-destruct).
    UnexpectedPhi,
    /// An `Addr` root or resolved access names a nonexistent global.
    UnknownGlobal,
    /// A resolved access falls outside its global's byte size.
    OffsetOutOfBounds,
    /// A store resolves to a rodata global.
    StoreToRodata,
    /// A `Call`/`FnAddr`/`CallExtern` index is outside the symbol table.
    CalleeOutOfRange,
}

impl Rule {
    /// The stable kebab-case rule name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::EmptyFunction => "empty-function",
            Rule::TargetOutOfRange => "target-out-of-range",
            Rule::EntryHasPred => "entry-has-pred",
            Rule::UndefinedUse => "undefined-use",
            Rule::VRegOutOfRange => "vreg-out-of-range",
            Rule::SwitchDupArm => "switch-dup-arm",
            Rule::PhiNotLeading => "phi-not-leading",
            Rule::MultipleDefs => "multiple-defs",
            Rule::UseNotDominated => "use-not-dominated",
            Rule::PhiOutsideJoin => "phi-outside-join",
            Rule::PhiPredMismatch => "phi-pred-mismatch",
            Rule::PhiArgNotDominated => "phi-arg-not-dominated",
            Rule::UnexpectedPhi => "unexpected-phi",
            Rule::UnknownGlobal => "unknown-global",
            Rule::OffsetOutOfBounds => "offset-out-of-bounds",
            Rule::StoreToRodata => "store-to-rodata",
            Rule::CalleeOutOfRange => "callee-out-of-range",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How strictly [`verify_function`] checks a function. Tiers are
/// cumulative over [`Tier::Structural`]; see the [module doc](self) for
/// which tier holds at which pipeline point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// CFG and operand well-formedness only (holds everywhere).
    Structural,
    /// Structural plus SSA dominance and φ discipline (between
    /// [`crate::ssa::construct`] and [`crate::ssa::destruct`]).
    Ssa,
    /// Structural plus φ-freedom (post-lower and post-destruct forms).
    PhiFree,
}

/// One broken invariant: which [`Rule`], where, and a human-readable
/// `detail` that names the registers and blocks involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that was broken.
    pub rule: Rule,
    /// Name of the offending function.
    pub func: String,
    /// Block the violation was detected in.
    pub block: BlockId,
    /// Instruction index within the block, or `None` for the terminator
    /// (or a block/function-level fact).
    pub inst: Option<usize>,
    /// Human-readable specifics (`"use of v17 in bb4 not dominated by
    /// def in bb7"`).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in `{}`: {}", self.rule, self.func, self.detail)
    }
}

/// Renders violations as one indented line each — the shape the
/// debug-build pipeline hooks panic with.
pub fn report(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(|v| format!("\n  {v}"))
        .collect::<String>()
}

/// Validates one function at the given [`Tier`], returning every broken
/// rule (empty means the snapshot is well-formed at that tier). Memory
/// rules need program-wide facts and live in [`verify_memory`] /
/// [`verify_program`].
pub fn verify_function(f: &MirFunction, tier: Tier) -> Vec<Violation> {
    let mut out = Vec::new();
    let cfg_ok = check_structural(f, &mut out);
    // The deeper tiers index successor blocks and build dominator trees;
    // only run them on a structurally sane CFG.
    if cfg_ok {
        match tier {
            Tier::Structural => {}
            Tier::Ssa => check_ssa(f, &mut out),
            Tier::PhiFree => check_phi_free(f, &mut out),
        }
    }
    out
}

/// Validates one function against the alias-model contract of
/// [`crate::mem`]: resolved offsets in bounds, no stores into rodata,
/// call/extern/global indices inside the program's tables. A no-op under
/// an incomplete (default) model, which carries no program facts.
pub fn verify_memory(f: &MirFunction, model: &mem::MemoryModel) -> Vec<Violation> {
    let mut out = Vec::new();
    if !model.is_complete() {
        return out;
    }
    let addrs = mem::FnAddrs::analyze(f);
    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        for (i, inst) in block.insts.iter().enumerate() {
            let at = |rule, detail| Violation {
                rule,
                func: f.name.clone(),
                block: b,
                inst: Some(i),
                detail,
            };
            match inst {
                Inst::Addr { global, .. } if *global >= model.global_count() => {
                    out.push(at(
                        Rule::UnknownGlobal,
                        format!(
                            "Addr root names global #{global} of {}",
                            model.global_count()
                        ),
                    ));
                }
                Inst::Call { func, .. } | Inst::FnAddr { func, .. }
                    if *func >= model.fn_count() =>
                {
                    out.push(at(
                        Rule::CalleeOutOfRange,
                        format!("call target #{func} of {} functions", model.fn_count()),
                    ));
                }
                Inst::CallExtern { ext, .. } if *ext >= model.extern_count() => {
                    out.push(at(
                        Rule::CalleeOutOfRange,
                        format!("extern target #{ext} of {}", model.extern_count()),
                    ));
                }
                _ => {}
            }
            let Some(addr) = inst.mem_addr() else {
                continue;
            };
            let is_store = matches!(inst, Inst::Store { .. });
            let what = if is_store { "store" } else { "load" };
            match addrs.info(addr) {
                mem::AddrInfo::Exact { global, offset } => {
                    let Some(size) = model.global_size(global) else {
                        out.push(at(
                            Rule::UnknownGlobal,
                            format!("{what} through unknown global #{global}"),
                        ));
                        continue;
                    };
                    if offset < 0 || offset + mem::ACCESS_BYTES > size as i32 {
                        out.push(at(
                            Rule::OffsetOutOfBounds,
                            format!(
                                "{what} at resolved offset {offset} out of bounds \
                                 for global #{global} of {size} bytes"
                            ),
                        ));
                    }
                    if is_store && model.is_rodata(global) {
                        out.push(at(
                            Rule::StoreToRodata,
                            format!("resolved store into rodata global #{global}"),
                        ));
                    }
                }
                mem::AddrInfo::Base { global } => {
                    if model.global_size(global).is_none() {
                        out.push(at(
                            Rule::UnknownGlobal,
                            format!("{what} through unknown global #{global}"),
                        ));
                    } else if is_store && model.is_rodata(global) {
                        out.push(at(
                            Rule::StoreToRodata,
                            format!("store rooted at rodata global #{global}"),
                        ));
                    }
                }
                mem::AddrInfo::Unknown => {}
            }
        }
    }
    out
}

/// Validates every function of `program` at `tier` plus the memory tier
/// under the program's own [`mem::MemoryModel`].
pub fn verify_program(program: &Program, tier: Tier) -> Vec<Violation> {
    let model = mem::MemoryModel::of(program);
    let mut out = Vec::new();
    for f in &program.functions {
        out.extend(verify_function(f, tier));
        out.extend(verify_memory(f, &model));
    }
    out
}

// ---------------------------------------------------------------------
// Structural tier
// ---------------------------------------------------------------------

/// Runs the structural checks; returns `false` if the CFG is too broken
/// (missing blocks, out-of-range targets) for the dominance-based tiers.
fn check_structural(f: &MirFunction, out: &mut Vec<Violation>) -> bool {
    if f.blocks.is_empty() {
        out.push(Violation {
            rule: Rule::EmptyFunction,
            func: f.name.clone(),
            block: BlockId(0),
            inst: None,
            detail: "function has no blocks".into(),
        });
        return false;
    }
    let nblocks = f.blocks.len();
    let mut cfg_ok = true;
    let mut defined: BTreeSet<VReg> = (0..f.params as u32).map(VReg).collect();
    for block in &f.blocks {
        for inst in &block.insts {
            if let Some(d) = inst.def() {
                defined.insert(d);
            }
        }
    }
    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        let term_at = |rule, detail| Violation {
            rule,
            func: f.name.clone(),
            block: b,
            inst: None,
            detail,
        };
        for s in block.term.succs() {
            if s.0 as usize >= nblocks {
                out.push(term_at(
                    Rule::TargetOutOfRange,
                    format!("terminator of {b} targets {s} but the function has {nblocks} blocks"),
                ));
                cfg_ok = false;
            } else if s == BlockId(0) {
                out.push(term_at(
                    Rule::EntryHasPred,
                    format!("edge from {b} re-enters the entry block"),
                ));
            }
        }
        if let Term::Switch { cases, .. } = &block.term {
            let mut seen = BTreeSet::new();
            for (value, _) in cases {
                if !seen.insert(*value) {
                    out.push(term_at(
                        Rule::SwitchDupArm,
                        format!("switch in {b} has duplicate case value {value}"),
                    ));
                }
            }
        }
        let mut first_non_phi: Option<usize> = None;
        for (i, inst) in block.insts.iter().enumerate() {
            let at = |rule, detail| Violation {
                rule,
                func: f.name.clone(),
                block: b,
                inst: Some(i),
                detail,
            };
            if matches!(inst, Inst::Phi { .. }) {
                if let Some(j) = first_non_phi {
                    out.push(at(
                        Rule::PhiNotLeading,
                        format!("φ at {b}[{i}] follows non-φ instruction at {b}[{j}]"),
                    ));
                }
            } else if first_non_phi.is_none() {
                first_non_phi = Some(i);
            }
            for u in inst.uses() {
                if !defined.contains(&u) {
                    out.push(at(
                        Rule::UndefinedUse,
                        format!("use of {u} in {b} but {u} is defined nowhere"),
                    ));
                }
            }
            for v in inst.uses().chain(inst.def()) {
                if v.0 >= f.next_vreg {
                    out.push(at(
                        Rule::VRegOutOfRange,
                        format!("{v} in {b} is at or above next_vreg {}", f.next_vreg),
                    ));
                }
            }
        }
        for u in block.term.uses() {
            if !defined.contains(&u) {
                out.push(term_at(
                    Rule::UndefinedUse,
                    format!("use of {u} in terminator of {b} but {u} is defined nowhere"),
                ));
            }
            if u.0 >= f.next_vreg {
                out.push(term_at(
                    Rule::VRegOutOfRange,
                    format!(
                        "{u} in terminator of {b} is at or above next_vreg {}",
                        f.next_vreg
                    ),
                ));
            }
        }
    }
    cfg_ok
}

// ---------------------------------------------------------------------
// SSA tier
// ---------------------------------------------------------------------

/// One register's definition point: a parameter (defined on entry) or an
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DefSite {
    Param,
    At(BlockId, usize),
}

fn check_ssa(f: &MirFunction, out: &mut Vec<Violation>) {
    // Single static assignment: collect every def site, flagging
    // seconds. Parameters are entry definitions.
    let mut sites: BTreeMap<VReg, DefSite> = (0..f.params as u32)
        .map(|p| (VReg(p), DefSite::Param))
        .collect();
    let mut multi: BTreeSet<VReg> = BTreeSet::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        for (i, inst) in block.insts.iter().enumerate() {
            let Some(d) = inst.def() else { continue };
            match sites.get(&d) {
                None => {
                    sites.insert(d, DefSite::At(b, i));
                }
                Some(prev) => {
                    if multi.insert(d) {
                        let prev = match prev {
                            DefSite::Param => "the parameter list".to_string(),
                            DefSite::At(pb, pi) => format!("{pb}[{pi}]"),
                        };
                        out.push(Violation {
                            rule: Rule::MultipleDefs,
                            func: f.name.clone(),
                            block: b,
                            inst: Some(i),
                            detail: format!("{d} redefined at {b}[{i}]; first defined at {prev}"),
                        });
                    }
                }
            }
        }
    }

    let preds = cfg::predecessors(f);
    let dom = cfg::DomTree::compute(f, &preds);

    // `true` if `v`'s unique definition dominates program point
    // (`b`, `pos`), where `pos` is an instruction index or
    // `insts.len()` for the terminator. Multiply-defined and undefined
    // registers are skipped — their own rules already fired.
    let def_dominates = |v: VReg, b: BlockId, pos: usize| -> Option<BlockId> {
        if multi.contains(&v) {
            return None;
        }
        match sites.get(&v) {
            None | Some(DefSite::Param) => None,
            Some(DefSite::At(db, di)) => {
                let ok = if *db == b {
                    *di < pos
                } else {
                    dom.strictly_dominates(*db, b)
                };
                if ok {
                    None
                } else {
                    Some(*db)
                }
            }
        }
    };

    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        if !dom.is_reachable(b) {
            // Unreachable blocks have no dominance facts; the structural
            // tier still covered them.
            continue;
        }
        let distinct_preds: BTreeSet<BlockId> = preds[bi].iter().copied().collect();
        for (i, inst) in block.insts.iter().enumerate() {
            let at = |rule, detail| Violation {
                rule,
                func: f.name.clone(),
                block: b,
                inst: Some(i),
                detail,
            };
            if let Inst::Phi { dst, args } = inst {
                if distinct_preds.len() < 2 {
                    out.push(at(
                        Rule::PhiOutsideJoin,
                        format!(
                            "φ defining {dst} in {b}, which has {} predecessor(s)",
                            distinct_preds.len()
                        ),
                    ));
                }
                // 1:1 agreement with the actual predecessors. Duplicate
                // entries for one predecessor must agree (they arise
                // transiently from collapsed duplicate edges); every
                // reachable predecessor must be covered; no argument may
                // name a non-predecessor.
                let mut arg_of: BTreeMap<BlockId, VReg> = BTreeMap::new();
                for (p, v) in args {
                    if !distinct_preds.contains(p) {
                        out.push(at(
                            Rule::PhiPredMismatch,
                            format!("φ for {dst} names {p}, which is not a predecessor of {b}"),
                        ));
                        continue;
                    }
                    match arg_of.get(p) {
                        Some(prev) if prev != v => out.push(at(
                            Rule::PhiPredMismatch,
                            format!(
                                "φ for {dst} carries conflicting arguments {prev} and {v} for {p}"
                            ),
                        )),
                        _ => {
                            arg_of.insert(*p, *v);
                        }
                    }
                }
                for p in &distinct_preds {
                    if dom.is_reachable(*p) && !arg_of.contains_key(p) {
                        out.push(at(
                            Rule::PhiPredMismatch,
                            format!("φ for {dst} has no argument for predecessor {p} of {b}"),
                        ));
                    }
                }
                // Each argument's def must dominate its predecessor's
                // exit (position one past the pred's last instruction).
                for (p, v) in args {
                    if !distinct_preds.contains(p) || !dom.is_reachable(*p) {
                        continue;
                    }
                    let exit = f.block(*p).insts.len();
                    if let Some(db) = def_dominates(*v, *p, exit) {
                        out.push(at(
                            Rule::PhiArgNotDominated,
                            format!(
                                "φ argument {v} for edge {p}→{b} not dominated by its def in {db}"
                            ),
                        ));
                    }
                }
            } else {
                for u in inst.uses() {
                    if let Some(db) = def_dominates(u, b, i) {
                        out.push(at(
                            Rule::UseNotDominated,
                            format!("use of {u} in {b} not dominated by def in {db}"),
                        ));
                    }
                }
            }
        }
        for u in block.term.uses() {
            if let Some(db) = def_dominates(u, b, block.insts.len()) {
                out.push(Violation {
                    rule: Rule::UseNotDominated,
                    func: f.name.clone(),
                    block: b,
                    inst: None,
                    detail: format!("use of {u} in terminator of {b} not dominated by def in {db}"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// φ-free tier
// ---------------------------------------------------------------------

fn check_phi_free(f: &MirFunction, out: &mut Vec<Violation>) {
    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        for (i, inst) in block.insts.iter().enumerate() {
            if let Inst::Phi { dst, .. } = inst {
                out.push(Violation {
                    rule: Rule::UnexpectedPhi,
                    func: f.name.clone(),
                    block: b,
                    inst: Some(i),
                    detail: format!("φ defining {dst} present in φ-free form"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{BinOp, Block, GlobalData, MirFunction, Program};

    fn func(params: usize, next_vreg: u32, blocks: Vec<Block>) -> MirFunction {
        MirFunction {
            name: "t".into(),
            params,
            returns_value: false,
            exported: true,
            blocks,
            next_vreg,
        }
    }

    fn block(insts: Vec<Inst>, term: Term) -> Block {
        Block { insts, term }
    }

    fn konst(dst: u32, value: i32) -> Inst {
        Inst::Const {
            dst: VReg(dst),
            value,
        }
    }

    fn rules_of(f: &MirFunction, tier: Tier) -> Vec<Rule> {
        verify_function(f, tier)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    /// A valid SSA diamond: `bb0 ─┬→ bb1 ─┬→ bb3` with a proper two-arm
    /// φ at the join.        `     └→ bb2 ─┘`
    fn diamond() -> MirFunction {
        func(
            0,
            4,
            vec![
                block(
                    vec![konst(0, 0)],
                    Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                ),
                block(vec![konst(1, 1)], Term::Goto(BlockId(3))),
                block(vec![konst(2, 2)], Term::Goto(BlockId(3))),
                block(
                    vec![Inst::Phi {
                        dst: VReg(3),
                        args: vec![(BlockId(1), VReg(1)), (BlockId(2), VReg(2))],
                    }],
                    Term::Ret(Some(VReg(3))),
                ),
            ],
        )
    }

    /// Replaces the join φ's arguments of a [`diamond`].
    fn diamond_with_phi_args(args: Vec<(BlockId, VReg)>) -> MirFunction {
        let mut f = diamond();
        f.blocks[3].insts[0] = Inst::Phi { dst: VReg(3), args };
        f
    }

    /// The negative table: every corrupted function triggers *exactly*
    /// its rule at the tier that owns it, nothing else.
    #[test]
    fn corrupted_functions_trigger_exactly_their_rule() {
        let back_edge_use = func(
            0,
            3,
            vec![
                block(vec![konst(0, 0)], Term::Goto(BlockId(1))),
                block(
                    vec![Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(2),
                        lhs: VReg(1),
                        rhs: VReg(0),
                    }],
                    Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(2),
                        else_block: BlockId(3),
                    },
                ),
                // Defines v1 on the back edge only: the def never
                // dominates the loop-header use above.
                block(vec![konst(1, 1)], Term::Goto(BlockId(1))),
                block(vec![], Term::Ret(None)),
            ],
        );
        let cases: Vec<(&str, Tier, MirFunction, Rule)> = vec![
            (
                "function with no blocks",
                Tier::Structural,
                func(0, 0, vec![]),
                Rule::EmptyFunction,
            ),
            (
                "goto past the last block",
                Tier::Structural,
                func(0, 0, vec![block(vec![], Term::Goto(BlockId(3)))]),
                Rule::TargetOutOfRange,
            ),
            (
                "edge back into the entry block",
                Tier::Structural,
                func(
                    0,
                    0,
                    vec![
                        block(vec![], Term::Goto(BlockId(1))),
                        block(vec![], Term::Goto(BlockId(0))),
                    ],
                ),
                Rule::EntryHasPred,
            ),
            (
                "return of a register defined nowhere",
                Tier::Structural,
                func(0, 1, vec![block(vec![], Term::Ret(Some(VReg(0))))]),
                Rule::UndefinedUse,
            ),
            (
                "register at next_vreg",
                Tier::Structural,
                func(0, 0, vec![block(vec![konst(0, 1)], Term::Ret(None))]),
                Rule::VRegOutOfRange,
            ),
            (
                "switch with duplicate case values",
                Tier::Structural,
                func(
                    0,
                    1,
                    vec![
                        block(
                            vec![konst(0, 0)],
                            Term::Switch {
                                val: VReg(0),
                                cases: vec![(1, BlockId(1)), (1, BlockId(1))],
                                default: BlockId(1),
                            },
                        ),
                        block(vec![], Term::Ret(None)),
                    ],
                ),
                Rule::SwitchDupArm,
            ),
            (
                // This IR stores the terminator out of line, so the
                // classic "instruction after terminator" corruption is
                // unrepresentable; the ordering invariant that *can*
                // break is φ placement.
                "phi after a non-phi instruction",
                Tier::Structural,
                func(
                    0,
                    2,
                    vec![block(
                        vec![
                            konst(0, 0),
                            Inst::Phi {
                                dst: VReg(1),
                                args: vec![(BlockId(0), VReg(0))],
                            },
                        ],
                        Term::Ret(None),
                    )],
                ),
                Rule::PhiNotLeading,
            ),
            (
                "register defined twice",
                Tier::Ssa,
                func(
                    0,
                    1,
                    vec![block(
                        vec![konst(0, 1), konst(0, 2)],
                        Term::Ret(Some(VReg(0))),
                    )],
                ),
                Rule::MultipleDefs,
            ),
            (
                "use before def across a back edge",
                Tier::Ssa,
                back_edge_use,
                Rule::UseNotDominated,
            ),
            (
                "phi in a single-predecessor block",
                Tier::Ssa,
                func(
                    0,
                    2,
                    vec![
                        block(vec![konst(0, 0)], Term::Goto(BlockId(1))),
                        block(
                            vec![Inst::Phi {
                                dst: VReg(1),
                                args: vec![(BlockId(0), VReg(0))],
                            }],
                            Term::Ret(None),
                        ),
                    ],
                ),
                Rule::PhiOutsideJoin,
            ),
            (
                "stale phi argument after edge removal",
                Tier::Ssa,
                diamond_with_phi_args(vec![
                    (BlockId(1), VReg(1)),
                    (BlockId(2), VReg(2)),
                    // bb0 branches to bb1/bb2, never straight to bb3:
                    // the argument survived a removed edge.
                    (BlockId(0), VReg(0)),
                ]),
                Rule::PhiPredMismatch,
            ),
            (
                "phi missing an argument for a live predecessor",
                Tier::Ssa,
                diamond_with_phi_args(vec![(BlockId(1), VReg(1))]),
                Rule::PhiPredMismatch,
            ),
            (
                "conflicting phi arguments for one predecessor",
                Tier::Ssa,
                diamond_with_phi_args(vec![
                    (BlockId(1), VReg(1)),
                    (BlockId(1), VReg(0)),
                    (BlockId(2), VReg(2)),
                ]),
                Rule::PhiPredMismatch,
            ),
            (
                "phi argument not dominating its predecessor's exit",
                Tier::Ssa,
                diamond_with_phi_args(vec![
                    (BlockId(1), VReg(1)),
                    // v1 is defined in bb1, which does not dominate bb2.
                    (BlockId(2), VReg(1)),
                ]),
                Rule::PhiArgNotDominated,
            ),
            (
                "phi surviving into the phi-free form",
                Tier::PhiFree,
                diamond(),
                Rule::UnexpectedPhi,
            ),
        ];
        for (name, tier, f, rule) in cases {
            assert_eq!(rules_of(&f, tier), vec![rule], "case `{name}`");
        }
    }

    #[test]
    fn valid_forms_are_clean_at_their_tiers() {
        let d = diamond();
        assert_eq!(rules_of(&d, Tier::Structural), vec![]);
        assert_eq!(rules_of(&d, Tier::Ssa), vec![]);
        // A φ-free loop with params: clean at both non-SSA tiers and at
        // the SSA tier (single defs, all uses dominated).
        let loop_fn = func(
            1,
            2,
            vec![
                block(vec![konst(1, 1)], Term::Goto(BlockId(1))),
                block(
                    vec![],
                    Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                ),
                block(vec![], Term::Ret(Some(VReg(1)))),
            ],
        );
        for tier in [Tier::Structural, Tier::Ssa, Tier::PhiFree] {
            assert_eq!(rules_of(&loop_fn, tier), vec![], "{tier:?}");
        }
    }

    #[test]
    fn structural_breakage_gates_the_deeper_tiers() {
        // A broken CFG must not make the SSA tier index out of range or
        // build a dominator tree over missing blocks.
        let f = func(
            0,
            1,
            vec![block(
                vec![konst(0, 1), konst(0, 2)],
                Term::Goto(BlockId(9)),
            )],
        );
        assert_eq!(rules_of(&f, Tier::Ssa), vec![Rule::TargetOutOfRange]);
    }

    #[test]
    fn unreachable_blocks_are_exempt_from_ssa_dominance_rules() {
        // bb1 is unreachable and uses v0, whose def in bb0 does not
        // dominate it (no edge reaches bb1 at all); only structural
        // rules apply there.
        let f = func(
            0,
            1,
            vec![
                block(vec![konst(0, 0)], Term::Ret(None)),
                block(vec![], Term::Ret(Some(VReg(0)))),
            ],
        );
        assert_eq!(rules_of(&f, Tier::Ssa), vec![]);
    }

    // -----------------------------------------------------------------
    // Memory tier
    // -----------------------------------------------------------------

    fn global(size: usize, mutable: bool) -> GlobalData {
        GlobalData {
            name: "g".into(),
            size,
            words: vec![],
            mutable,
        }
    }

    fn mem_program(globals: Vec<GlobalData>, insts: Vec<Inst>, next_vreg: u32) -> Program {
        Program {
            functions: vec![func(0, next_vreg, vec![block(insts, Term::Ret(None))])],
            globals,
            externs: vec![],
        }
    }

    fn mem_rules(p: &Program) -> Vec<Rule> {
        verify_program(p, Tier::PhiFree)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    fn addr(dst: u32, global: usize, offset: i32) -> Inst {
        Inst::Addr {
            dst: VReg(dst),
            global,
            offset,
        }
    }

    #[test]
    fn memory_violations_trigger_exactly_their_rule() {
        let cases: Vec<(&str, Program, Rule)> = vec![
            (
                "store through a rodata root",
                mem_program(
                    vec![global(8, false)],
                    vec![
                        addr(0, 0, 0),
                        konst(1, 7),
                        Inst::Store {
                            addr: VReg(0),
                            src: VReg(1),
                        },
                    ],
                    2,
                ),
                Rule::StoreToRodata,
            ),
            (
                "load one word past the end",
                mem_program(
                    vec![global(8, true)],
                    vec![
                        addr(0, 0, 8),
                        Inst::Load {
                            dst: VReg(1),
                            addr: VReg(0),
                        },
                    ],
                    2,
                ),
                Rule::OffsetOutOfBounds,
            ),
            (
                "load at a negative resolved offset",
                mem_program(
                    vec![global(8, true)],
                    vec![
                        addr(0, 0, -4),
                        Inst::Load {
                            dst: VReg(1),
                            addr: VReg(0),
                        },
                    ],
                    2,
                ),
                Rule::OffsetOutOfBounds,
            ),
            (
                "address of a nonexistent global",
                mem_program(vec![global(8, true)], vec![addr(0, 2, 0)], 1),
                Rule::UnknownGlobal,
            ),
            (
                "direct call past the function table",
                mem_program(
                    vec![],
                    vec![Inst::Call {
                        dst: None,
                        func: 5,
                        args: vec![],
                    }],
                    0,
                ),
                Rule::CalleeOutOfRange,
            ),
            (
                "fn-address of a nonexistent function",
                mem_program(
                    vec![],
                    vec![Inst::FnAddr {
                        dst: VReg(0),
                        func: 9,
                    }],
                    1,
                ),
                Rule::CalleeOutOfRange,
            ),
            (
                "extern call past the extern table",
                mem_program(
                    vec![],
                    vec![Inst::CallExtern {
                        dst: None,
                        ext: 3,
                        args: vec![],
                    }],
                    0,
                ),
                Rule::CalleeOutOfRange,
            ),
        ];
        for (name, p, rule) in cases {
            assert_eq!(mem_rules(&p), vec![rule], "case `{name}`");
        }
    }

    #[test]
    fn in_bounds_accesses_are_clean() {
        let p = mem_program(
            vec![global(8, true)],
            vec![
                addr(0, 0, 4),
                Inst::Load {
                    dst: VReg(1),
                    addr: VReg(0),
                },
                Inst::Store {
                    addr: VReg(0),
                    src: VReg(1),
                },
            ],
            2,
        );
        assert_eq!(mem_rules(&p), vec![]);
    }

    #[test]
    fn incomplete_model_skips_memory_checks() {
        // Bare-function unit tests carry no program facts; the default
        // model must not produce spurious violations.
        let p = mem_program(vec![], vec![addr(0, 7, -4)], 1);
        let vs = verify_memory(&p.functions[0], &mem::MemoryModel::default());
        assert_eq!(vs, vec![]);
    }

    #[test]
    fn report_renders_one_indented_line_per_violation() {
        let f = func(0, 1, vec![block(vec![], Term::Ret(Some(VReg(0))))]);
        let vs = verify_function(&f, Tier::Structural);
        let r = report(&vs);
        assert!(r.starts_with("\n  undefined-use in `t`:"), "{r}");
        assert_eq!(r.lines().count() - 1, vs.len());
    }
}
