//! The mid-end: a fixed-point pass manager over SSA passes, plus the
//! program-level passes (inlining, dead-function elimination) that frame
//! it. This module doc is the canonical description of the pass
//! pipeline; ROADMAP.md's Building section only points here.
//!
//! # Architecture
//!
//! [`run_pipeline`] is the entry point. For `-O1` and above it builds a
//! [`PassManager`] with the SSA passes registered for the level and runs
//! every function through it. The pass manager takes each function
//! through SSA and back exactly once, in one fixed sequence:
//!
//! ```text
//! simplify_cfg → ssa::construct → [SSA passes to a fixed point] → ssa::destruct → coalesce_copies
//! ```
//!
//! It iterates the registered SSA passes until a full sweep changes
//! nothing (or [`PassManager::MAX_SSA_ROUNDS`] is hit). [`simplify_cfg`]
//! works on both forms: on the φ-free input it hands construction a
//! small CFG, and inside the fixed point it folds the equal-target
//! branches that [`merge_return_blocks`] and jump threading leave and
//! merges the chains they expose, so no second trip through SSA is
//! needed to see that work. [`coalesce_copies`] runs once after
//! `ssa::destruct`, where the φ-lowering copies first exist.
//!
//! Every pass records a [`PassStats`] entry — `runs`, `changes` (runs
//! that rewrote something) and `insts_removed` — collected into the
//! [`PipelineStats`] that [`crate::compile`] exposes on the artifact.
//! This is the analogue of GCC's per-pass dump files the paper inspected
//! ("in the dead code elimination file, we have found that code related
//! to the unreachable state still exists"), made machine-readable so the
//! bench harness can report per-pass effect counts next to the size
//! tables, and the CI regression gate can diff whole matrices of them.
//!
//! # The roster per level
//!
//! `-O0` runs nothing. The SSA fixed point then runs, in registration
//! order:
//!
//! | pass                    | `-O1` | `-O2`/`-Os` |
//! |-------------------------|-------|-------------|
//! | [`sccp`]                | ✓     | ✓           |
//! | [`gvn_cse`]             |       | ✓           |
//! | [`cross_block_forward`] | ✓     | ✓           |
//! | [`dead_store_elim`]     | ✓     | ✓           |
//! | [`merge_return_blocks`] | ✓     | ✓           |
//! | [`simplify_cfg`]        | ✓     | ✓           |
//! | [`dead_code_elim`]      | ✓     | ✓           |
//!
//! with [`simplify_cfg`] before `ssa::construct` and [`coalesce_copies`]
//! after `ssa::destruct` at every level above `-O0`, and the program passes
//! [`inline_small_functions`] → [`dead_function_elimination`] framing
//! the per-function loop at `-O2`/`-Os` (with a size-tuned inlining
//! threshold at `-Os`). The two memory passes run after [`gvn_cse`], when
//! addresses are canonical. [`cross_block_forward`] is the one pass that
//! forwards loads and [`dead_store_elim`] the one that removes stores. No
//! pass moves code out of loops: load-PRE and load-hoisting LICM were
//! deleted because, over the samples plus `umlsm::gen` seeds 1–300, they
//! made `-O2` code larger and made it execute more instructions.
//!
//! # Per-pass contracts
//!
//! Every SSA pass has the signature [`SsaPass`] and receives the
//! function's [`AnalysisCtx`]: the [`mem::MemoryModel`] of the program it
//! runs inside (the memory passes consult it for rodata facts) plus the
//! cached per-function analyses described under [Analyses](#analyses).
//!
//! * [`sccp`] — the one constant pass: conditional constant propagation
//!   over Wegman–Zadeck's ⊤/const/⊥ lattice, evaluated densely in
//!   sweeps over the executable blocks until nothing moves. It tracks
//!   executable CFG edges, meets φs over executable incoming edges only,
//!   folds proven-constant instructions and terminators, and removes
//!   never-executable blocks, so it also folds a constant through the
//!   branch that constant decides.
//! * [`gvn_cse`] — dominator-scoped global value numbering / common
//!   subexpression elimination with commutative canonicalization, and
//!   the one pass that propagates copies: it rewrites every use to its
//!   value leader, so the copies and recomputations it finds are dead
//!   for [`dead_code_elim`] in the same sweep. Loads are deliberately not
//!   value-numbered (the memory passes own them).
//! * [`cross_block_forward`] — store-to-load forwarding and
//!   redundant-load elimination, inside a block and across blocks, over
//!   a must-availability dataflow of memory cells: a load whose cell's
//!   value is already in a register — provided earlier in its block, or
//!   available on every incoming path — is deleted outright, its uses
//!   rewritten through new φs at joins where predecessor values differ.
//! * [`dead_store_elim`] — block-local backward sweep dropping stores
//!   overwritten before any possible read.
//! * [`merge_return_blocks`] — crossjumping restricted to
//!   `Ret`-terminated blocks without φs, canonical-key comparison up to
//!   block-local renaming. Sound on SSA: a `Ret` block's definitions
//!   dominate nothing outside it.
//! * [`simplify_cfg`] — on SSA or φ-free form: terminator folding
//!   (equal-target `Br`, `Switch` arm pruning), φ-safe jump threading
//!   through empty forwarding blocks, unreachable-block removal, and
//!   straight-line chain merging that substitutes the merged block's
//!   one-argument φs away.
//! * [`dead_code_elim`] — mark-and-sweep removal of pure instructions
//!   unreachable from the impure/terminator roots; dead loop-carried
//!   φ-cycles retire wholesale.
//!
//! The step after `ssa::destruct`:
//!
//! * [`coalesce_copies`] — cheap copy coalescing of the φ-lowering copies
//!   (block-local propagation + liveness-based dead-copy sweep). It is
//!   the only copy propagation at `-O1`, which registers no [`gvn_cse`].
//!
//! Program passes (`-O2`+, run once before the per-function loop):
//!
//! * [`inline_small_functions`] — bottom-up inlining of single-block
//!   callees,
//! * [`dead_function_elimination`] — call-graph reachability rooted at
//!   exported and **address-taken** functions. This is the pass the
//!   paper's §III.C probes: an unreachable state's handlers stay
//!   address-reachable (dispatch tables, switch cases over a runtime
//!   value), so the model-level fact "no incoming transition" does not
//!   survive code generation and the compiler must keep the code.
//!
//! # Analyses
//!
//! The passes share their analyses instead of each rebuilding them.
//! [`PassManager::run_function`] owns one [`AnalysisCtx`] per function
//! and hands it to every pass it runs.
//!
//! **What it caches.** Predecessor lists, the [`cfg::DomTree`]
//! (immediate dominators, tree children, preorder, reachability) and the
//! address resolution [`mem::FnAddrs`]. The cross-block
//! must-availability dataflow is not cached:
//! [`cross_block_forward`], its only reader, computes it from those three
//! on every run, and any edit it makes would drop it anyway.
//!
//! **When it fills.** Lazily: each analysis is computed on the first
//! request after the context was created or dropped, from whatever it
//! depends on in the same cache. A pass that needs none of them pays
//! for none.
//!
//! **When it is dropped.** Whenever a pass reports a change, and at the
//! two form boundaries, [`ssa::construct`] and [`ssa::destruct`], so no
//! analysis of the φ-free function reaches the SSA passes or the other
//! way round. A pass that reports no change therefore hands the next
//! pass exactly the analyses it found. A pass that edits the function
//! and then keeps querying the context must
//! [invalidate](AnalysisCtx::invalidate) it itself after each edit.
//!
//! **The no-change contract.** The reuse is sound because a pass that
//! returns `false` must leave the function exactly as it found it — not
//! even a fresh register may be allocated. Under verify-each (see
//! [Verification](#verification)) the manager keeps a copy of the
//! function before every pass and panics, blaming the pass and its stage,
//! if a pass reported no change but the function differs.
//!
//! **Representations.** Every analysis is dense: `Vec`s indexed by block
//! or register number, and [`crate::bitset::BitSet`]s over block numbers
//! or over the function's [`mem::CellUniverse`]. The pass-local tables of
//! [`sccp`] and [`dead_code_elim`] are register-indexed arrays too.
//! Everything iterates in index order, which is the order the ordered
//! maps and sets they replaced iterated in, so no hash order ever
//! reaches the output. None of it lives outside the context: there is no
//! global or thread-local cache, and one [`crate::driver`] session
//! compiles on several threads without sharing any analysis state.
//!
//! ```
//! use occ::mem::{AddrInfo, MemoryModel};
//! use occ::mir::{Block, Inst, MirFunction, Term, VReg};
//! use occ::opt::{self, AnalysisCtx};
//!
//! // v1 = &g0; store v0 -> [v1]; v2 = load [v1]; return v2
//! let mut f = MirFunction {
//!     name: "demo".into(),
//!     params: 1,
//!     returns_value: true,
//!     exported: true,
//!     blocks: vec![Block {
//!         insts: vec![
//!             Inst::Addr { dst: VReg(1), global: 0, offset: 0 },
//!             Inst::Store { addr: VReg(1), src: VReg(0) },
//!             Inst::Load { dst: VReg(2), addr: VReg(1) },
//!         ],
//!         term: Term::Ret(Some(VReg(2))),
//!     }],
//!     next_vreg: 3,
//! };
//! let model = MemoryModel::default();
//! let mut ctx = AnalysisCtx::new(&model);
//! // Nothing to fold: the function is untouched, the cached analyses stay.
//! assert!(!opt::sccp(&mut f, &mut ctx));
//! assert_eq!(ctx.addrs(&f).info(VReg(1)), AddrInfo::Exact { global: 0, offset: 0 });
//! // The load is deleted and the return reads the stored register; the
//! // pass reported a change, so the caller drops what the context holds.
//! assert!(opt::cross_block_forward(&mut f, &mut ctx));
//! ctx.invalidate();
//! assert_eq!(f.blocks[0].insts.len(), 2);
//! assert_eq!(f.blocks[0].term, Term::Ret(Some(VReg(0))));
//! ```
//!
//! # Reuse
//!
//! The per-function pipeline depends on three things only: the roster of
//! registered SSA passes, the program's [`mem::MemoryModel`] and the
//! function itself. No pass reads another function, the level or any
//! state outside the function's [`AnalysisCtx`], and that context lives
//! and dies with one [`PassManager::run_function`] call. So a function
//! that enters the pipeline twice, under an equal roster and an equal
//! model, leaves it equal both times and adds equal [`PassStats`]; the
//! verification mode decides only what debug builds check.
//!
//! [`crate::driver`] relies on this contract: when a session compiles
//! one module at several levels, a function that `-O2` already took
//! through the pipeline is not run again at `-Os` when the roster, the
//! model and the function are each equal (`==`) — its optimized body and
//! the stats it added are taken instead ("Level families" in the driver
//! rustdoc). A pass that read anything beyond those three would break
//! it.
//!
//! # Verification
//!
//! Every invariant the rosters above rely on is cataloged — and, in
//! debug builds, *checked between passes* — by the [`crate::verify`]
//! static verifier: pipeline boundaries are always re-checked, and the
//! `OCC_VERIFY=each` knob (or [`PassManager::with_verify`]) escalates to
//! per-pass verification that attributes a broken invariant to the pass
//! that introduced it and its stage: the sweep of the SSA fixed point
//! (`after gvn-cse in sweep 2`), or the step before `ssa::construct` or
//! after `ssa::destruct`. Verify-each also checks the no-change contract
//! of [Analyses](#analyses) after every pass.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::bitset::BitSet;
use crate::cfg;
use crate::driver::{Family, LevelWork};
use crate::mem;
use crate::mir::{BinOp, Block, BlockId, Inst, MirFunction, Program, Term, UnOp, VReg, Word};
use crate::ssa;
use crate::verify;
use crate::OptLevel;

// ---------------------------------------------------------------------
// Pass statistics
// ---------------------------------------------------------------------

/// Effect counters for one named pass, aggregated over every function and
/// sweep it ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassStats {
    /// Canonical pass name (see the [`pass`] constants).
    pub name: &'static str,
    /// How many times the pass executed.
    pub runs: usize,
    /// Rewrites reported: for the SSA fixed-point passes, the number of
    /// executions that changed something (`changes <= runs`); the
    /// program-level passes report item counts instead — call sites
    /// inlined, functions removed — which can exceed `runs`.
    pub changes: usize,
    /// Net instructions removed across all executions (terminators count
    /// one instruction each; growth in a single run saturates to zero).
    pub insts_removed: usize,
}

/// Canonical pass names as they appear in [`PassStats::name`].
pub mod pass {
    /// Conditional constant propagation, evaluated densely: the one
    /// constant pass.
    pub const SCCP: &str = "sccp";
    /// φ-free copy coalescing (post-destruct cleanup).
    pub const COPY_COALESCE: &str = "copy-coalesce";
    /// Return-block tail merging (crossjumping).
    pub const TAIL_MERGE: &str = "tail-merge";
    /// Global value numbering / common-subexpression elimination.
    pub const GVN_CSE: &str = "gvn-cse";
    /// Store-to-load forwarding / redundant-load elimination, inside a
    /// block and across blocks.
    pub const CROSS_LOAD_FWD: &str = "cross-load-fwd";
    /// Dead-store elimination.
    pub const DSE: &str = "dse";
    /// Dead-code elimination.
    pub const DCE: &str = "dce";
    /// CFG simplification (SSA or φ-free form).
    pub const SIMPLIFY_CFG: &str = "simplify-cfg";
    /// Bottom-up inlining of small functions.
    pub const INLINE: &str = "inline";
    /// Call-graph dead-function elimination.
    pub const DEAD_FN_ELIM: &str = "dead-fn-elim";
}

/// Per-pass statistics for one whole [`run_pipeline`] invocation, in
/// first-execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    passes: Vec<PassStats>,
}

impl PipelineStats {
    /// All recorded passes in first-execution order.
    pub fn passes(&self) -> &[PassStats] {
        &self.passes
    }

    /// Looks up one pass by canonical name.
    pub fn get(&self, name: &str) -> Option<&PassStats> {
        self.passes.iter().find(|p| p.name == name)
    }

    fn entry(&mut self, name: &'static str) -> &mut PassStats {
        if let Some(i) = self.passes.iter().position(|p| p.name == name) {
            return &mut self.passes[i];
        }
        self.passes.push(PassStats {
            name,
            ..PassStats::default()
        });
        self.passes.last_mut().expect("just pushed")
    }

    /// Adds every count of `other`; a pass new to `self` is appended, so
    /// absorbing per-function stats in program order keeps the
    /// first-execution order.
    fn absorb(&mut self, other: &PipelineStats) {
        for p in &other.passes {
            let st = self.entry(p.name);
            st.runs += p.runs;
            st.changes += p.changes;
            st.insts_removed += p.insts_removed;
        }
    }

    fn record(&mut self, name: &'static str, changed: bool, insts_removed: usize) {
        let st = self.entry(name);
        st.runs += 1;
        if changed {
            st.changes += 1;
        }
        st.insts_removed += insts_removed;
    }
}

// ---------------------------------------------------------------------
// The pass manager
// ---------------------------------------------------------------------

/// A function-local SSA pass: rewrites the function, returns `true` if
/// anything changed — and leaves the function untouched when it returns
/// `false` (the no-change contract of [Analyses](self#analyses)). The
/// [`AnalysisCtx`] carries the program-wide memory facts the memory
/// passes consult and the analyses of the function's current state.
pub type SsaPass = fn(&mut MirFunction, &mut AnalysisCtx<'_>) -> bool;

/// The per-function analysis context every [`SsaPass`] receives: the
/// program's [`mem::MemoryModel`] plus a lazily filled cache of the
/// analyses of one function state (see [Analyses](self#analyses)). Each
/// accessor computes its analysis on first use and returns the cached
/// value until [`AnalysisCtx::invalidate`] drops it.
///
/// The cache describes whichever function the accessors were first
/// called with; handing one context two different functions, or an
/// edited function without invalidating, returns stale facts. A pass
/// called on its own gets a fresh context per call.
#[derive(Debug)]
pub struct AnalysisCtx<'m> {
    model: &'m mem::MemoryModel,
    preds: Option<Vec<Vec<BlockId>>>,
    dom: Option<cfg::DomTree>,
    addrs: Option<mem::FnAddrs>,
}

/// What [`cross_block_forward`] reads: the context's analyses and the
/// availability dataflow computed from them.
struct CrossBlock<'a> {
    model: &'a mem::MemoryModel,
    addrs: &'a mem::FnAddrs,
    avail: AvailLoads,
    dom: &'a cfg::DomTree,
    preds: &'a [Vec<BlockId>],
}

impl CrossBlock<'_> {
    /// The distinct reachable predecessors of `b`, ascending.
    fn live_preds(&self, b: BlockId) -> Vec<BlockId> {
        let mut ps: Vec<BlockId> = self.preds[b.0 as usize]
            .iter()
            .copied()
            .filter(|p| self.dom.is_reachable(*p))
            .collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }
}

impl<'m> AnalysisCtx<'m> {
    /// An empty context for one function under `model`.
    pub fn new(model: &'m mem::MemoryModel) -> AnalysisCtx<'m> {
        AnalysisCtx {
            model,
            preds: None,
            dom: None,
            addrs: None,
        }
    }

    /// The program-wide memory facts.
    pub fn model(&self) -> &'m mem::MemoryModel {
        self.model
    }

    /// Drops every cached analysis; the next request recomputes it.
    pub fn invalidate(&mut self) {
        *self = AnalysisCtx::new(self.model);
    }

    /// Predecessor lists ([`cfg::predecessors`]).
    pub fn preds(&mut self, f: &MirFunction) -> &[Vec<BlockId>] {
        self.preds.get_or_insert_with(|| cfg::predecessors(f))
    }

    /// The dominator tree.
    pub fn dom(&mut self, f: &MirFunction) -> &cfg::DomTree {
        if self.dom.is_none() {
            let dom = cfg::DomTree::compute(f, self.preds(f));
            self.dom = Some(dom);
        }
        self.dom.as_ref().expect("filled above")
    }

    /// The address resolution ([`mem::FnAddrs`]).
    pub fn addrs(&mut self, f: &MirFunction) -> &mem::FnAddrs {
        self.addrs.get_or_insert_with(|| mem::FnAddrs::analyze(f))
    }

    /// Everything [`cross_block_forward`] reads, with the availability
    /// dataflow computed afresh; `None` when the function touches no
    /// exactly addressed cell — the pass has nothing to do then.
    fn cross_block(&mut self, f: &MirFunction) -> Option<CrossBlock<'_>> {
        let universe = mem::cell_universe(f, self.addrs(f));
        if universe.is_empty() {
            return None;
        }
        self.dom(f);
        let (Some(addrs), Some(dom), Some(preds)) = (&self.addrs, &self.dom, &self.preds) else {
            unreachable!("filled by addrs() and dom()");
        };
        Some(CrossBlock {
            model: self.model,
            addrs,
            avail: AvailLoads::compute(f, self.model, addrs, universe, dom, preds),
            dom,
            preds,
        })
    }
}

/// How much of the [`crate::verify`] static checker the manager runs in
/// debug builds (release builds compile all verification out, like the
/// backend's `VCode` verifier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Verify only at pipeline boundaries: after lowering, after
    /// [`ssa::construct`]/[`ssa::destruct`] (those hooks live in their
    /// producers) and once per function after [`coalesce_copies`].
    #[default]
    Boundaries,
    /// Verify-each: additionally re-check the appropriate tier after
    /// *every* pass, attributing any violation to the pass and stage
    /// that introduced it. Selected by default when the `OCC_VERIFY`
    /// environment variable is `each`.
    Each,
}

impl VerifyMode {
    /// The mode the `OCC_VERIFY` environment knob selects: unset keeps
    /// boundaries only, `each` turns on per-pass verification.
    ///
    /// # Errors
    ///
    /// Returns `"OCC_VERIFY=<value> ..."`, naming the accepted value, when
    /// the knob is set to anything else: a misspelt mode must fail, not
    /// quietly turn per-pass verification off.
    pub fn from_env() -> Result<VerifyMode, String> {
        VerifyMode::parse(std::env::var_os("OCC_VERIFY").as_deref())
    }

    /// [`VerifyMode::from_env`] over the knob's value, `None` when unset.
    fn parse(value: Option<&std::ffi::OsStr>) -> Result<VerifyMode, String> {
        match value {
            None => Ok(VerifyMode::Boundaries),
            Some(v) if v == "each" => Ok(VerifyMode::Each),
            Some(v) => Err(format!(
                "OCC_VERIFY={} is not a verification mode: set it to `each` or leave it unset",
                v.to_string_lossy()
            )),
        }
    }
}

/// Runs each function once through SSA and back, with the registered
/// SSA passes iterated to a bounded fixed point in between, and records
/// per-pass [`PassStats`].
#[derive(Debug, Default)]
pub struct PassManager {
    ssa_passes: Vec<(&'static str, SsaPass)>,
    verify: Option<VerifyMode>,
    stats: PipelineStats,
}

impl PassManager {
    /// Bound on sweeps of the SSA fixed point; a sweep that changes
    /// nothing ends it early, so this only caps pathological
    /// ping-ponging between passes.
    pub const MAX_SSA_ROUNDS: usize = 8;

    /// An empty manager, with the verification mode taken from
    /// [`VerifyMode::from_env`]; in debug builds a knob value it rejects
    /// panics on the first function run.
    pub fn new() -> PassManager {
        PassManager::default()
    }

    /// The standard pass roster for `level`.
    pub fn for_level(level: OptLevel) -> PassManager {
        let mut pm = PassManager::new();
        if level == OptLevel::O0 {
            return pm;
        }
        pm.register(pass::SCCP, sccp);
        if level >= OptLevel::O2 {
            // GVN/CSE also propagates copies, so the memory passes after
            // it see canonical addresses.
            pm.register(pass::GVN_CSE, gvn_cse);
        }
        // The memory passes are cheap enough for O1 and directly shrink
        // the context-variable traffic every generated handler emits.
        pm.register(pass::CROSS_LOAD_FWD, cross_block_forward);
        pm.register(pass::DSE, dead_store_elim);
        pm.register(pass::TAIL_MERGE, merge_return_blocks);
        pm.register(pass::SIMPLIFY_CFG, simplify_cfg);
        pm.register(pass::DCE, dead_code_elim);
        pm
    }

    /// Registers an SSA pass under its reporting name.
    pub fn register(&mut self, name: &'static str, p: SsaPass) -> &mut PassManager {
        self.ssa_passes.push((name, p));
        self
    }

    /// Overrides the debug-build verification mode (by default the
    /// `OCC_VERIFY` environment knob decides, see
    /// [`VerifyMode::from_env`]). Release builds never verify,
    /// whichever mode is set.
    pub fn with_verify(mut self, mode: VerifyMode) -> PassManager {
        self.verify = Some(mode);
        self
    }

    /// The registered SSA passes, by name.
    fn roster(&self) -> Vec<&'static str> {
        self.ssa_passes.iter().map(|(name, _)| *name).collect()
    }

    fn verify_each(&self) -> bool {
        cfg!(debug_assertions)
            && self
                .verify
                .unwrap_or_else(|| VerifyMode::from_env().unwrap_or_else(|e| panic!("{e}")))
                == VerifyMode::Each
    }

    /// Debug-build verification hook: checks `f` at `tier` plus the
    /// memory tier and panics with `ctx` (the pass/stage blame) on the
    /// first broken invariant.
    fn verify_after(
        &self,
        f: &MirFunction,
        model: &mem::MemoryModel,
        tier: verify::Tier,
        ctx: &str,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut vs = verify::verify_function(f, tier);
        vs.extend(verify::verify_memory(f, model));
        assert!(vs.is_empty(), "MIR verifier: {ctx}:{}", verify::report(&vs));
    }

    /// Runs one pass and records its stats. Under verify-each it also
    /// checks the pass's output at `tier` and the no-change contract
    /// against a copy of `f` taken before the pass, blaming the pass and
    /// its `stage` ("in sweep 2", "before ssa::construct"). A change
    /// drops the cached analyses.
    fn run_pass(
        &mut self,
        (name, p): (&'static str, SsaPass),
        f: &mut MirFunction,
        cx: &mut AnalysisCtx<'_>,
        verify_each: bool,
        tier: verify::Tier,
        stage: &dyn Fn() -> String,
    ) -> bool {
        let before_pass = verify_each.then(|| f.clone());
        let before = f.inst_count();
        let changed = p(f, cx);
        let removed = before.saturating_sub(f.inst_count());
        self.stats.record(name, changed, removed);
        if changed {
            cx.invalidate();
        }
        if let Some(before_pass) = before_pass {
            let blame = format!("after {name} {}", stage());
            assert!(
                changed || *f == before_pass,
                "MIR verifier: {blame}: `{}` changed although the pass reported no change",
                f.name
            );
            self.verify_after(f, cx.model(), tier, &blame);
        }
        changed
    }

    /// Runs every function of `program` through
    /// [`PassManager::run_function`], under the program's
    /// [`mem::MemoryModel`]. With a `family`, a function that one of its
    /// levels ran under an equal roster and model from an equal body is
    /// not run again: that level's optimized body and the stats the
    /// function added there are taken instead ([Reuse](self#reuse)).
    /// With `keep_inputs`, the returned work records every function's
    /// input and stats for the levels still to compile.
    pub(crate) fn run_program(
        &mut self,
        program: &mut Program,
        family: Option<&Family>,
        keep_inputs: bool,
    ) -> MidEndWork {
        let mut work = MidEndWork {
            roster: self.roster(),
            model: mem::MemoryModel::of(program),
            ..MidEndWork::default()
        };
        let earlier: Vec<&LevelWork> = family
            .into_iter()
            .flat_map(Family::levels)
            .filter(|l| l.mid_end.roster == work.roster && l.mid_end.model == work.model)
            .collect();
        for f in &mut program.functions {
            let taken = earlier.iter().find_map(|l| {
                let i = l
                    .optimized
                    .functions
                    .iter()
                    .position(|g| g.name == f.name)?;
                let (input, stats) = l.mid_end.runs.get(i)?;
                (input == f).then(|| (&l.optimized.functions[i], stats))
            });
            let (input, stats) = match taken {
                Some((optimized, stats)) => {
                    work.reused += 1;
                    (Some(std::mem::replace(f, optimized.clone())), stats.clone())
                }
                None => {
                    let input = keep_inputs.then(|| f.clone());
                    let total = std::mem::take(&mut self.stats);
                    self.run_function(f, &work.model);
                    (input, std::mem::replace(&mut self.stats, total))
                }
            };
            self.stats.absorb(&stats);
            if let Some(input) = input.filter(|_| keep_inputs) {
                work.runs.push((input, stats));
            }
        }
        work
    }

    /// Optimizes one function in one fixed sequence: [`simplify_cfg`] on
    /// the φ-free input, [`ssa::construct`], the registered SSA passes to
    /// a fixed point, [`ssa::destruct`], and [`coalesce_copies`] over
    /// destruct's copies. With no SSA pass registered only the first step
    /// runs. `model` carries the program-wide memory facts the memory
    /// passes consult (pass [`mem::MemoryModel::default`] for a bare
    /// function). The function's [`AnalysisCtx`] lives for this call.
    /// Returns `true` if any pass changed the function.
    pub fn run_function(&mut self, f: &mut MirFunction, model: &mem::MemoryModel) -> bool {
        let verify_each = self.verify_each();
        let mut cx = AnalysisCtx::new(model);
        let mut any = self.run_pass(
            (pass::SIMPLIFY_CFG, simplify_cfg),
            f,
            &mut cx,
            verify_each,
            verify::Tier::PhiFree,
            &|| "before ssa::construct".to_string(),
        );
        if !self.ssa_passes.is_empty() {
            ssa::construct(f);
            cx.invalidate();
            any |= self.ssa_fixpoint(f, &mut cx, verify_each);
            ssa::destruct(f);
            cx.invalidate();
            any |= self.run_pass(
                (pass::COPY_COALESCE, coalesce_copies),
                f,
                &mut cx,
                verify_each,
                verify::Tier::PhiFree,
                &|| "after ssa::destruct".to_string(),
            );
        }
        // Post-pipeline boundary: whatever the mode, the function handed
        // to the backend must be φ-free, structurally sound, and inside
        // the memory contract.
        self.verify_after(
            f,
            model,
            verify::Tier::PhiFree,
            "after the mid-end pipeline",
        );
        any
    }

    /// The collected statistics so far.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Consumes the manager, returning its statistics.
    pub fn into_stats(self) -> PipelineStats {
        self.stats
    }

    fn ssa_fixpoint(
        &mut self,
        f: &mut MirFunction,
        cx: &mut AnalysisCtx<'_>,
        verify_each: bool,
    ) -> bool {
        let mut any = false;
        for sweep in 1..=Self::MAX_SSA_ROUNDS {
            let mut sweep_changed = false;
            for i in 0..self.ssa_passes.len() {
                sweep_changed |= self.run_pass(
                    self.ssa_passes[i],
                    f,
                    cx,
                    verify_each,
                    verify::Tier::Ssa,
                    &|| format!("in sweep {sweep}"),
                );
            }
            if !sweep_changed {
                break;
            }
            any = true;
        }
        any
    }
}

/// What one level's per-function pipeline did to a program, kept so
/// that another level of the same module can take a function's result
/// instead of running it again ([Reuse](self#reuse)). Its functions line
/// up with the optimized program's.
#[derive(Debug, Default)]
pub(crate) struct MidEndWork {
    /// The registered SSA passes, by name (none at `-O0`).
    roster: Vec<&'static str>,
    /// The model every function ran under.
    model: mem::MemoryModel,
    /// Per function: the body the pipeline received and the stats it
    /// added. Empty unless a level still to compile runs this roster.
    runs: Vec<(MirFunction, PipelineStats)>,
    /// Functions whose result came from another level.
    pub(crate) reused: usize,
}

/// Runs the pipeline for `level`, returning per-pass statistics.
pub fn run_pipeline(program: &mut Program, level: OptLevel) -> PipelineStats {
    run_in_place(program, level, None)
}

/// [`run_pipeline`] with an explicit [`VerifyMode`], bypassing the
/// `OCC_VERIFY` environment knob. Test harnesses use this to force
/// verify-each regardless of the environment (the differential net runs
/// it so a violation is attributed to a pass *and* to the generated
/// program that provoked it). Release builds still verify nothing.
pub fn run_pipeline_with_verify(
    program: &mut Program,
    level: OptLevel,
    mode: VerifyMode,
) -> PipelineStats {
    run_in_place(program, level, Some(mode))
}

/// [`run_pipeline_impl`] on a program the caller owns, with no family.
fn run_in_place(
    program: &mut Program,
    level: OptLevel,
    verify_mode: Option<VerifyMode>,
) -> PipelineStats {
    let mut owned = Arc::new(std::mem::take(program));
    let (stats, _) = run_pipeline_impl(&mut owned, level, verify_mode, None);
    *program = Arc::into_inner(owned).expect("the pipeline keeps no handle");
    stats
}

/// The pipeline for `level`. It copies a shared `program` only when a
/// pass runs, so at `-O0` a level family's lowered program stays shared.
/// With a `family`, the per-function pipeline takes what its levels may
/// give and keeps the inputs a level still to compile could take (see
/// [`PassManager::run_program`]).
pub(crate) fn run_pipeline_impl(
    program: &mut Arc<Program>,
    level: OptLevel,
    verify_mode: Option<VerifyMode>,
    family: Option<&Family>,
) -> (PipelineStats, MidEndWork) {
    let mut pm = PassManager::for_level(level);
    if let Some(mode) = verify_mode {
        pm = pm.with_verify(mode);
    }
    if level == OptLevel::O0 {
        return (pm.into_stats(), MidEndWork::default());
    }
    let program = Arc::make_mut(program);
    if level >= OptLevel::O2 {
        let threshold = if level == OptLevel::Os { 10 } else { 24 };
        let inlined = inline_small_functions(program, threshold);
        let st = pm.stats.entry(pass::INLINE);
        st.runs += 1;
        st.changes += inlined;
        let before: usize = program.functions.iter().map(MirFunction::inst_count).sum();
        let removed_fns = dead_function_elimination(program);
        let after: usize = program.functions.iter().map(MirFunction::inst_count).sum();
        let st = pm.stats.entry(pass::DEAD_FN_ELIM);
        st.runs += 1;
        st.changes += removed_fns.len();
        st.insts_removed += before.saturating_sub(after);
        // Program-pass boundary: inlining remaps registers and call
        // indices across functions; re-check before the per-function
        // loop (debug builds only).
        if cfg!(debug_assertions) {
            let vs = verify::verify_program(program, verify::Tier::PhiFree);
            assert!(
                vs.is_empty(),
                "MIR verifier: after the program passes:{}",
                verify::report(&vs)
            );
        }
    }
    let keep_inputs = family.is_some_and(|fam| {
        let roster = pm.roster();
        OptLevel::all().into_iter().any(|other| {
            other != level && !fam.has(other) && PassManager::for_level(other).roster() == roster
        })
    });
    let work = pm.run_program(program, family, keep_inputs);
    (pm.into_stats(), work)
}

// ---------------------------------------------------------------------
// Conditional constant propagation (on SSA)
// ---------------------------------------------------------------------

/// The constant lattice: unknown (⊤) → a single constant → overdefined
/// (⊥). Values only ever move downward, which bounds the sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lattice {
    /// No evidence yet (optimistic initial state).
    Top,
    /// Proven to always hold this constant on every executable path.
    Const(i32),
    /// Proven to vary (or to come from memory, calls or parameters).
    Bottom,
}

impl Lattice {
    fn meet(a: Lattice, b: Lattice) -> Lattice {
        match (a, b) {
            (Lattice::Top, x) | (x, Lattice::Top) => x,
            (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
            (Lattice::Const(x), Lattice::Const(y)) if x == y => Lattice::Const(x),
            _ => Lattice::Bottom,
        }
    }
}

/// The arm a `Br` or `Switch` takes when `values` proves its scrutinee
/// constant; `None` for any other terminator or scrutinee.
fn proven_arm(term: &Term, values: &[Lattice]) -> Option<BlockId> {
    match term {
        Term::Br {
            cond,
            then_block,
            else_block,
        } => match values[cond.0 as usize] {
            Lattice::Const(c) => Some(if c != 0 { *then_block } else { *else_block }),
            _ => None,
        },
        Term::Switch {
            val,
            cases,
            default,
        } => match values[val.0 as usize] {
            Lattice::Const(c) => Some(
                cases
                    .iter()
                    .find(|(k, _)| *k == c)
                    .map_or(*default, |(_, t)| *t),
            ),
            _ => None,
        },
        Term::Goto(_) | Term::Ret(_) => None,
    }
}

/// Whether `term` can branch to its successor `s` under `values`: a
/// `Goto` always; a `Br` or `Switch` to no arm while its scrutinee is ⊤,
/// to the [proven arm](proven_arm) once it is constant, and to every arm
/// once it is ⊥.
fn can_take(term: &Term, values: &[Lattice], s: BlockId) -> bool {
    match term {
        Term::Goto(_) => true,
        Term::Ret(_) => false,
        Term::Br { cond: v, .. } | Term::Switch { val: v, .. } => match values[v.0 as usize] {
            Lattice::Top => false,
            Lattice::Const(_) => proven_arm(term, values) == Some(s),
            Lattice::Bottom => true,
        },
    }
}

/// The value of `inst`, a definition in block `b`, under `values`. A φ
/// meets only the arguments on edges that can execute: from an
/// executable predecessor whose terminator can take the edge to `b`.
fn evaluate(
    f: &MirFunction,
    values: &[Lattice],
    exec: &[bool],
    b: BlockId,
    inst: &Inst,
) -> Lattice {
    let val = |v: &VReg| values[v.0 as usize];
    match inst {
        Inst::Const { value, .. } => Lattice::Const(*value),
        Inst::Copy { src, .. } => val(src),
        Inst::Un { op, src, .. } => match val(src) {
            Lattice::Const(c) => Lattice::Const(op.eval(c)),
            other => other,
        },
        Inst::Bin { op, lhs, rhs, .. } => match (val(lhs), val(rhs)) {
            (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
            (Lattice::Const(x), Lattice::Const(y)) => Lattice::Const(op.eval(x, y)),
            _ => Lattice::Top,
        },
        Inst::Phi { args, .. } => args
            .iter()
            .filter(|(p, _)| exec[p.0 as usize] && can_take(&f.block(*p).term, values, b))
            .fold(Lattice::Top, |acc, (_, v)| Lattice::meet(acc, val(v))),
        // Memory, addresses and call results are never constant here.
        Inst::Load { .. }
        | Inst::Addr { .. }
        | Inst::FnAddr { .. }
        | Inst::Call { .. }
        | Inst::CallExtern { .. }
        | Inst::CallInd { .. }
        | Inst::Store { .. } => Lattice::Bottom,
    }
}

/// Conditional constant propagation over Wegman & Zadeck's ⊤/const/⊥
/// lattice and executable edges, on SSA: the one constant pass, at every
/// level above `-O0`.
///
/// The evaluation is dense. Registers start at ⊤, parameters at ⊥, and
/// only the entry block is executable. Each sweep visits the executable
/// blocks in index order: it lowers every definition not yet at ⊥ to the
/// meet of its old value and its evaluation, in which a φ meets only the
/// arguments on edges that can execute, and marks every successor the
/// block's terminator can take executable. Sweeps repeat until one
/// changes nothing. This is the fixed point of Wegman & Zadeck's sparse
/// two-worklist form (TOPLAS 1991), with neither use lists nor
/// worklists. Reachability and constancy reinforce each other, so a
/// constant flowing through a branch it itself decides is still folded.
///
/// Instructions proven constant become `Const`s, terminators with a
/// proven scrutinee become `Goto`s (subsuming most of what
/// [`simplify_cfg`] would clean up afterwards), never-executable blocks
/// are removed, and φ-arguments of dropped edges are pruned. Returns
/// `true` if anything changed.
pub fn sccp(f: &mut MirFunction, _cx: &mut AnalysisCtx<'_>) -> bool {
    // No register reaches `next_vreg` (the verifier's `VRegOutOfRange`
    // rule), so it sizes the table.
    let mut values = vec![Lattice::Top; f.next_vreg as usize];
    for v in values.iter_mut().take(f.params) {
        *v = Lattice::Bottom;
    }
    let mut exec = vec![false; f.blocks.len()];
    exec[0] = true;
    let mut moved = true;
    while moved {
        moved = false;
        for b in f.block_ids() {
            if !exec[b.0 as usize] {
                continue;
            }
            let blk = f.block(b);
            for inst in &blk.insts {
                let Some(dst) = inst.def() else { continue };
                let old = values[dst.0 as usize];
                if old != Lattice::Bottom {
                    let new = Lattice::meet(old, evaluate(f, &values, &exec, b, inst));
                    moved |= new != old;
                    values[dst.0 as usize] = new;
                }
            }
            let term = &blk.term;
            let mut take = |s: &BlockId| {
                moved |= can_take(term, &values, *s)
                    && !std::mem::replace(&mut exec[s.0 as usize], true);
            };
            match term {
                Term::Goto(s) => take(s),
                Term::Br {
                    then_block,
                    else_block,
                    ..
                } => [then_block, else_block].into_iter().for_each(take),
                Term::Switch { cases, default, .. } => {
                    cases.iter().map(|(_, s)| s).chain([default]).for_each(take);
                }
                Term::Ret(_) => {}
            }
        }
    }

    // Rewrite phase: executable blocks only; the rest are removed below.
    let mut changed = false;
    for (blk, _) in f.blocks.iter_mut().zip(&exec).filter(|(_, e)| **e) {
        for inst in &mut blk.insts {
            let Some(dst) = inst.def() else { continue };
            let Lattice::Const(c) = values[dst.0 as usize] else {
                continue;
            };
            if !matches!(inst, Inst::Const { .. }) && inst.is_pure() {
                *inst = Inst::Const { dst, value: c };
                changed = true;
            }
        }
        if let Some(t) = proven_arm(&blk.term, &values) {
            blk.term = Term::Goto(t);
            changed = true;
        }
    }
    if changed {
        ssa::remove_unreachable_blocks(f);
        prune_phi_args(f);
    }
    changed
}

/// Drops φ-arguments whose predecessor edge no longer exists (after a
/// branch was folded to a `Goto` the old arm's argument is stale), and
/// deduplicates arguments per remaining predecessor. Keeps SSA form
/// consistent for [`ssa::destruct`], which inserts one parallel copy per
/// `(pred, block)` edge. Blocks left with a single predecessor have
/// their φs folded to copies ([`ssa::fold_trivial_phis`]), preserving
/// the verifier's φ-join discipline.
fn prune_phi_args(f: &mut MirFunction) {
    retain_phi_args_of_live_edges(f);
    ssa::fold_trivial_phis(f);
}

/// Keeps, in every φ, the first argument per current predecessor and
/// drops arguments naming a block that is no longer a predecessor.
fn retain_phi_args_of_live_edges(f: &mut MirFunction) {
    let preds = cfg::predecessors(f);
    for (blk, ps) in f.blocks.iter_mut().zip(&preds) {
        for inst in &mut blk.insts {
            if let Inst::Phi { args, .. } = inst {
                let mut seen: Vec<BlockId> = Vec::with_capacity(args.len());
                args.retain(|(p, _)| {
                    let keep = ps.contains(p) && !seen.contains(p);
                    if keep {
                        seen.push(*p);
                    }
                    keep
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Register substitution (on SSA)
// ---------------------------------------------------------------------

/// A substitution `v ↦ w` of registers by registers in one SSA
/// function: how a pass retires a definition whose value another
/// register already holds. [`gvn_cse`] maps registers to their value
/// leaders, [`cross_block_forward`] a deleted load to the value it would
/// read, and [`simplify_cfg`]'s chain merging a one-argument φ to its
/// argument. [`Subst::rewrite`] then rewrites every use at once.
///
/// Chains cannot cycle: every `v ↦ w` maps a definition to a value whose
/// definition strictly dominates it (a copy's source or a dominating
/// leader, a value the load's block or a dominator of it provided, the one
/// value of a trivial φ, the incoming value of a φ whose block has one
/// predecessor), and strict dominance has no cycles.
#[derive(Default)]
struct Subst {
    /// `to[v]`: the register `v` stands for; a register mapped to itself,
    /// or past the end, stands for itself.
    to: Vec<VReg>,
}

impl Subst {
    /// Maps `v` to `w`.
    fn set(&mut self, v: VReg, w: VReg) {
        let i = v.0 as usize;
        if i >= self.to.len() {
            let n = self.to.len() as u32;
            self.to.extend((n..=v.0).map(VReg));
        }
        self.to[i] = w;
    }

    /// The register `v` stands for, following the chain to its end.
    fn resolve(&self, mut v: VReg) -> VReg {
        while let Some(&w) = self.to.get(v.0 as usize).filter(|&&w| w != v) {
            v = w;
        }
        v
    }

    /// Rewrites every use in `f` — operands, φ arguments, terminators —
    /// through [`Subst::resolve`]. Returns `true` if any use changed.
    fn rewrite(&self, f: &mut MirFunction) -> bool {
        if self.to.is_empty() {
            return false;
        }
        let mut changed = false;
        let mut map = |v: VReg| {
            let w = self.resolve(v);
            changed |= w != v;
            w
        };
        for blk in &mut f.blocks {
            for inst in &mut blk.insts {
                inst.map_uses(&mut map);
            }
            blk.term.map_uses(&mut map);
        }
        changed
    }
}

// ---------------------------------------------------------------------
// Global value numbering / common-subexpression elimination (on SSA)
// ---------------------------------------------------------------------

/// A value-number key for a pure, memory-free computation. `Const` is
/// deliberately absent: re-materializing an immediate is as cheap as a
/// copy, and CSE-ing constants would ping-pong with [`sccp`] (which
/// rewrites known-value copies back into constants).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GvnKey {
    Un(UnOp, VReg),
    Bin(BinOp, VReg, VReg),
    Addr(usize, i32),
    FnAddr(usize),
}

/// Dominator-scoped global value numbering / common-subexpression
/// elimination, and the mid-end's copy propagation. Walking the
/// dominator tree, it gives every register a value leader: a copy's is
/// its source's, and a pure, memory-free instruction recomputing a value
/// already available from a dominating definition is replaced by a
/// `Copy` from that definition, its leader. Operands are canonicalized
/// through the leaders found so far (and by operand order for
/// commutative operators), so second-order redundancies fall in one
/// sweep. The walk ends by rewriting every use — operands, φ arguments,
/// terminators — to its leader, which leaves the copies dead for
/// [`dead_code_elim`] in the same sweep. Loads are deliberately not
/// value-numbered — load redundancy is [`cross_block_forward`]'s job,
/// which tracks clobbers. Returns `true` if it replaced an instruction
/// or rewrote a use.
pub fn gvn_cse(f: &mut MirFunction, cx: &mut AnalysisCtx<'_>) -> bool {
    let dom = cx.dom(f);
    let mut table: BTreeMap<GvnKey, VReg> = BTreeMap::new();
    let mut leaders = Subst::default();
    let mut changed = false;
    gvn_walk(f, BlockId(0), dom, &mut table, &mut leaders, &mut changed);
    leaders.rewrite(f) || changed
}

fn gvn_walk(
    f: &mut MirFunction,
    b: BlockId,
    dom: &cfg::DomTree,
    table: &mut BTreeMap<GvnKey, VReg>,
    leaders: &mut Subst,
    changed: &mut bool,
) {
    // Keys this block introduced; they go out of scope (become
    // non-dominating) when the walk leaves the block's subtree.
    let mut added: Vec<GvnKey> = Vec::new();
    for i in 0..f.block(b).insts.len() {
        let inst = &f.block(b).insts[i];
        let key = match inst {
            Inst::Copy { dst, src } => {
                leaders.set(*dst, *src);
                continue;
            }
            Inst::Un { op, src, .. } => Some(GvnKey::Un(*op, leaders.resolve(*src))),
            Inst::Bin { op, lhs, rhs, .. } => {
                let (mut a, mut c) = (leaders.resolve(*lhs), leaders.resolve(*rhs));
                if op.commutative() && c < a {
                    std::mem::swap(&mut a, &mut c);
                }
                Some(GvnKey::Bin(*op, a, c))
            }
            Inst::Addr { global, offset, .. } => Some(GvnKey::Addr(*global, *offset)),
            Inst::FnAddr { func, .. } => Some(GvnKey::FnAddr(*func)),
            _ => None,
        };
        let (Some(key), Some(dst)) = (key, inst.def()) else {
            continue;
        };
        if let Some(&rep) = table.get(&key) {
            f.block_mut(b).insts[i] = Inst::Copy { dst, src: rep };
            leaders.set(dst, rep);
            *changed = true;
        } else {
            table.insert(key.clone(), dst);
            added.push(key);
        }
    }
    for &k in dom.children(b) {
        gvn_walk(f, k, dom, table, leaders, changed);
    }
    for k in added {
        table.remove(&k);
    }
}

// ---------------------------------------------------------------------
// Dead-store elimination (block-local)
// ---------------------------------------------------------------------

/// Block-local dead-store elimination: a store to an exactly addressed
/// cell that is overwritten by a later store to the same cell — with no
/// possible read of the cell in between — is dropped. Walking each block
/// backward, the pass carries the set of cells certain to be overwritten
/// before any read: a store inserts its cell (or dies against it), a
/// read removes what it may alias (a call may read everything; an extern
/// cannot read memory at all), and the set starts empty at the block end
/// because memory is live across blocks and calls. Returns `true` if
/// anything changed.
pub fn dead_store_elim(f: &mut MirFunction, cx: &mut AnalysisCtx<'_>) -> bool {
    let addrs = cx.addrs(f);
    let mut changed = false;
    // Cells surely overwritten before any read; a block tracks few.
    let mut overwritten: Vec<mem::Cell> = Vec::new();
    for blk in &mut f.blocks {
        overwritten.clear();
        let mut kept_rev: Vec<Inst> = Vec::with_capacity(blk.insts.len());
        for inst in std::mem::take(&mut blk.insts).into_iter().rev() {
            match &inst {
                Inst::Store { addr, .. } => {
                    // Stores read no memory, so even an untraceable store
                    // leaves the overwritten set intact.
                    if let mem::AddrInfo::Exact { global, offset } = addrs.info(*addr) {
                        if overwritten.contains(&(global, offset)) {
                            changed = true;
                            continue; // dead: surely overwritten unread
                        }
                        overwritten.push((global, offset));
                    }
                }
                Inst::Load { addr, .. } => match addrs.info(*addr) {
                    mem::AddrInfo::Exact { global, offset } => {
                        // The word read touches every cell within a word
                        // of its offset (byte-granular addressing).
                        overwritten.retain(|&(g, o)| g != global || !mem::overlaps(o, offset));
                    }
                    mem::AddrInfo::Base { global } => {
                        overwritten.retain(|(g, _)| *g != global);
                    }
                    mem::AddrInfo::Unknown => overwritten.clear(),
                },
                i if i.may_read_mem() => overwritten.clear(),
                _ => {}
            }
            kept_rev.push(inst);
        }
        kept_rev.reverse();
        blk.insts = kept_rev;
    }
    changed
}

// ---------------------------------------------------------------------
// Load forwarding / redundant-load elimination (AvailLoads + one pass)
// ---------------------------------------------------------------------

/// The cross-block must-availability dataflow: per block, the set of
/// exactly addressed memory cells ([`mem::Cell`]) whose values are
/// *must-available* — on every path from the entry, the cell was last
/// written or read with no intervening clobber — on block entry, plus
/// the per-block [`mem::BlockCells`] transfer summaries that give the
/// exit sets. Sets are [`BitSet`]s over
/// the indices of the function's [`mem::CellUniverse`].
///
/// A cell is available at a point if on *every* path there it was last
/// stored or loaded with no intervening clobber ([`mem::CellState`]'s
/// aliasing discipline: may-aliasing stores, and calls to
/// non-transparent effects — rodata cells survive calls, externs are
/// memory-transparent). The meet is set intersection over the block's
/// reachable predecessors, seeded optimistically (everything available
/// everywhere except the entry, whose in-set is empty) and iterated in
/// reverse postorder to the greatest fixed point: a cell a loop body
/// writes drops out of the header's in-set on the sweep after the
/// latch's out-set loses it, and loop-transparent cells stay available
/// around back edges.
///
/// [`cross_block_forward`] computes it on every run that has cells to
/// track.
#[derive(Debug, Clone)]
pub(crate) struct AvailLoads {
    universe: mem::CellUniverse,
    effects: Vec<mem::BlockCells>,
    avail_in: Vec<BitSet>,
}

impl AvailLoads {
    /// Runs the dataflow over a non-empty `universe` (the cells of
    /// [`mem::cell_universe`]).
    fn compute(
        f: &MirFunction,
        model: &mem::MemoryModel,
        addrs: &mem::FnAddrs,
        universe: mem::CellUniverse,
        dom: &cfg::DomTree,
        preds: &[Vec<BlockId>],
    ) -> AvailLoads {
        let n = f.blocks.len();
        let cells = universe.len();
        let effects: Vec<mem::BlockCells> = f
            .block_ids()
            .map(|b| mem::BlockCells::summarize(f, b, &universe, addrs, model))
            .collect();
        let mut avail_in = vec![BitSet::new(cells); n];
        let mut avail_out = vec![BitSet::new(cells); n];
        for &b in dom.rpo().iter().skip(1) {
            avail_out[b.0 as usize] = BitSet::full(cells);
        }
        loop {
            let mut changed = false;
            for &b in dom.rpo() {
                let i = b.0 as usize;
                let mut in_set = BitSet::new(cells);
                if b != BlockId(0) {
                    let mut first = true;
                    for p in &preds[i] {
                        if !dom.is_reachable(*p) {
                            continue;
                        }
                        let out = &avail_out[p.0 as usize];
                        if first {
                            in_set.clone_from(out);
                            first = false;
                        } else {
                            in_set.intersect_with(out);
                        }
                    }
                }
                let out_set = effects[i].flow(&in_set);
                if in_set != avail_in[i] || out_set != avail_out[i] {
                    avail_in[i] = in_set;
                    avail_out[i] = out_set;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        AvailLoads {
            universe,
            effects,
            avail_in,
        }
    }

    /// The cell universe the analysis ranged over.
    fn universe(&self) -> &mem::CellUniverse {
        &self.universe
    }

    /// Cells available on entry to `b`.
    fn on_entry(&self, b: BlockId) -> &BitSet {
        &self.avail_in[b.0 as usize]
    }

    /// The transfer summary of block `b`.
    fn effects(&self, b: BlockId) -> &mem::BlockCells {
        &self.effects[b.0 as usize]
    }
}

/// A φ the load rewriter decided to insert, not yet materialized (its
/// arguments may still collapse through the replacement map).
struct PendingPhi {
    block: BlockId,
    dst: VReg,
    args: Vec<(BlockId, VReg)>,
}

/// State of the lazy cell-value resolution [`cross_block_forward`] uses:
/// memoized per-(block, cell) entry values and the φs allocated to merge
/// differing predecessor values.
struct LoadResolver<'a> {
    cb: &'a CrossBlock<'a>,
    /// Entry value per `(block, cell)` at `block * cells + cell`,
    /// allocated on first use.
    entry_memo: Vec<Option<VReg>>,
    phis: Vec<PendingPhi>,
}

impl<'a> LoadResolver<'a> {
    fn new(cb: &'a CrossBlock<'a>) -> LoadResolver<'a> {
        LoadResolver {
            cb,
            entry_memo: Vec::new(),
            phis: Vec::new(),
        }
    }

    /// The register holding `cell`'s value on entry to `b`. Only valid
    /// when the dataflow proved the cell available there; φs are
    /// allocated at joins whose predecessors disagree, memoized *before*
    /// the recursive argument resolution so loop back edges close on the
    /// φ itself (Braun et al.'s on-demand construction).
    fn entry_value(&mut self, f: &mut MirFunction, b: BlockId, cell: usize) -> VReg {
        let cells = self.cb.avail.universe().len();
        if self.entry_memo.is_empty() {
            self.entry_memo = vec![None; f.blocks.len() * cells];
        }
        let slot = b.0 as usize * cells + cell;
        if let Some(v) = self.entry_memo[slot] {
            return v;
        }
        debug_assert!(
            self.cb.avail.on_entry(b).contains(cell),
            "entry_value on unavailable cell #{cell} at {b}"
        );
        let ps = self.cb.live_preds(b);
        debug_assert!(!ps.is_empty(), "available cell with no predecessor at {b}");
        if ps.len() == 1 {
            let v = self.exit_value(f, ps[0], cell);
            self.entry_memo[slot] = Some(v);
            v
        } else {
            let dst = f.fresh();
            self.entry_memo[slot] = Some(dst);
            let args: Vec<(BlockId, VReg)> = ps
                .into_iter()
                .map(|p| {
                    let v = self.exit_value(f, p, cell);
                    (p, v)
                })
                .collect();
            self.phis.push(PendingPhi {
                block: b,
                dst,
                args,
            });
            dst
        }
    }

    /// The register holding `cell`'s value at the exit of `p`: the
    /// block's own provider if it has one, else the entry value carried
    /// through a transparent block.
    fn exit_value(&mut self, f: &mut MirFunction, p: BlockId, cell: usize) -> VReg {
        if let Some(v) = self.cb.avail.effects(p).provider(cell) {
            return v;
        }
        self.entry_value(f, p, cell)
    }
}

/// The edits [`cross_block_forward`] accumulates before touching the
/// function: loads to delete, with every use of their destination
/// rewritten to the forwarded value, and φs to materialize.
#[derive(Default)]
struct LoadEdits {
    /// Deleted loads (and collapsed φs) mapped to the values replacing
    /// them.
    subst: Subst,
    /// `(block, instruction index)` of loads to delete, in walk order.
    delete: Vec<(BlockId, usize)>,
}

impl LoadEdits {
    /// Deletes the load at `b[i]`, rewriting uses of its `dst` to `with`.
    fn forward(&mut self, b: BlockId, i: usize, dst: VReg, with: VReg) {
        self.delete.push((b, i));
        self.subst.set(dst, with);
    }

    /// Applies everything: collapses trivial φs (all arguments resolve
    /// to one value besides the φ itself — such a φ *is* that value, the
    /// self-argument being the unchanged loop-carried copy), prepends the
    /// surviving φs, deletes the forwarded loads and rewrites every use
    /// through the substitution.
    fn apply(mut self, f: &mut MirFunction, mut phis: Vec<PendingPhi>) {
        // Trivial-φ collapse to a fixed point: collapsing one φ can make
        // another's arguments agree.
        // A collapse takes effect at once, so later φs of the same sweep
        // already resolve through it.
        loop {
            let mut collapsed = false;
            phis.retain(|phi| {
                let only = {
                    let mut others = phi
                        .args
                        .iter()
                        .map(|(_, v)| self.subst.resolve(*v))
                        .filter(|v| *v != phi.dst);
                    others.next().filter(|&first| others.all(|v| v == first))
                };
                let Some(only) = only else {
                    return true;
                };
                self.subst.set(phi.dst, only);
                collapsed = true;
                false
            });
            if !collapsed {
                break;
            }
        }
        let nblocks = f.blocks.len();
        let mut phi_by_block: Vec<Vec<Inst>> = vec![Vec::new(); nblocks];
        for phi in phis {
            phi_by_block[phi.block.0 as usize].push(Inst::Phi {
                dst: phi.dst,
                args: phi.args,
            });
        }
        self.delete.sort_unstable();
        let mut deleted = self.delete.iter().peekable();
        for (bi, (blk, mut insts)) in f.blocks.iter_mut().zip(phi_by_block).enumerate() {
            let b = BlockId(bi as u32);
            let old = std::mem::take(&mut blk.insts);
            insts.reserve(old.len());
            for (i, inst) in old.into_iter().enumerate() {
                if deleted.next_if(|&&d| d == (b, i)).is_none() {
                    insts.push(inst);
                }
            }
            blk.insts = insts;
        }
        self.subst.rewrite(f);
    }
}

/// Store-to-load forwarding and redundant-load elimination on SSA, inside
/// a block and across blocks: the mid-end's one load-forwarding pass.
/// Walking each block forward in dominator preorder, it keeps one
/// [`mem::CellState`] over the function's cell universe: which register
/// holds the current content of every exactly addressed cell
/// ([`mem::AddrInfo::Exact`]), from a store's source or an earlier
/// load's destination. A load of a cell whose content is known is
/// **deleted** and every use of its destination rewritten to that
/// register. The content is known when the block itself provided it, or
/// when the cross-block dataflow proves the cell must-available on block
/// entry — a same-cell store or load on every path with no clobber in
/// between (the greatest fixed point of set intersection over reachable
/// predecessors, iterated in reverse postorder, so a cell a loop body
/// never writes stays available around its back edge). In
/// the second case the value is threaded through the SSA graph with new
/// φs at joins where the incoming values differ, closing over back edges
/// with loop φs: a loop-transparent cell's value enters the φ from
/// outside and recycles through the latch. Trivial φs (every argument one
/// value) collapse away before materialization, so straight-line chains
/// — the State Pattern's call-free handler paths re-reading the context
/// cell the caller just tested — forward with no φ at all.
///
/// The aliasing discipline is [`mem::CellState`]'s, shared with the
/// dataflow so analysis and rewrite cannot disagree:
///
/// * an exact store provides its own cell and clobbers every cell within
///   a word of it (word accesses at byte granularity, see
///   [`mem::overlaps`]);
/// * a store through a rooted run-time address ([`mem::AddrInfo::Base`])
///   clobbers its global, and an untraceable store clobbers everything;
/// * `Call`/`CallInd` clobber every mutable global's cells, while rodata
///   cells survive them (no callee can store to a `const` global);
/// * `CallExtern` clobbers nothing (the EM32 `Ecall` passes registers
///   only).
///
/// This is the pass that shrinks the load-global → test → store-global
/// context traffic every generated handler emits, and the one the
/// recorded `gain_order_matches_table1` deviation pointed at: the State
/// Pattern's handlers re-load the same context cells *across* block
/// boundaries. Deleting the loads (rather than leaving copies) makes the
/// pass's `insts_removed` stat the direct count of loads eliminated.
/// Returns `true` if anything changed.
pub fn cross_block_forward(f: &mut MirFunction, cx: &mut AnalysisCtx<'_>) -> bool {
    let Some(cb) = cx.cross_block(f) else {
        return false;
    };
    let universe = cb.avail.universe();
    let mut resolver = LoadResolver::new(&cb);
    let mut edits = LoadEdits::default();
    let mut st = mem::CellState::new(universe);
    for &b in cb.dom.preorder() {
        st.reset();
        for i in 0..f.block(b).insts.len() {
            let load = match &f.block(b).insts[i] {
                Inst::Load { dst, addr } => Some((*dst, *addr)),
                _ => None,
            };
            if let Some((dst, addr)) = load {
                if let mem::AddrInfo::Exact { global, offset } = cb.addrs.info(addr) {
                    let cell = universe
                        .index((global, offset))
                        .expect("every exact access is in the universe");
                    let forwarded = match st.value(cell) {
                        mem::CellVal::Reg(v) => Some(v),
                        mem::CellVal::FromEntry if cb.avail.on_entry(b).contains(cell) => {
                            Some(resolver.entry_value(f, b, cell))
                        }
                        _ => None,
                    };
                    if let Some(v) = forwarded {
                        edits.forward(b, i, dst, v);
                        st.set(cell, mem::CellVal::Reg(v));
                        continue;
                    }
                }
            }
            st.apply(&f.block(b).insts[i], cb.addrs, cb.model);
        }
    }
    if edits.delete.is_empty() {
        return false;
    }
    let phis = resolver.phis;
    edits.apply(f, phis);
    true
}

// ---------------------------------------------------------------------
// CFG simplification (SSA or φ-free form)
// ---------------------------------------------------------------------

/// Simplifies the control-flow graph of an SSA or a φ-free function, in
/// four steps:
///
/// 1. a `Br` whose arms share a target becomes a `Goto`; `Switch` cases
///    targeting the default block are dropped, and a `Switch` whose every
///    arm agrees becomes a `Goto`;
/// 2. edges through an empty block ending in `Goto` are retargeted to its
///    destination when every φ in the destination agrees on the merged
///    value (φ-safe jump threading);
/// 3. unreachable blocks are dropped and φ arguments of vanished or
///    duplicate edges pruned;
/// 4. every straight-line chain merges into its head in one sweep:
///    block `c` joins `b` when it is `b`'s only successor and `b` its only
///    predecessor (never the entry block, never across a self-loop). The
///    one-argument φs of `c` are substituted away, transitively, and φ
///    entries naming `c` in its successors name `b` instead.
///
/// Finally the φs of blocks left with one predecessor fold to copies.
/// On φ-free input every φ step does nothing. Returns `true` exactly
/// when the function changed — dropping an unreachable block counts.
pub fn simplify_cfg(f: &mut MirFunction, _cx: &mut AnalysisCtx<'_>) -> bool {
    let mut changed = false;

    // 1. Collapse redundant multi-way terminators.
    for b in f.block_ids().collect::<Vec<_>>() {
        let blk = f.block_mut(b);
        let folded = match &mut blk.term {
            Term::Br {
                then_block,
                else_block,
                ..
            } if then_block == else_block => Some(*then_block),
            Term::Switch { cases, default, .. } => {
                let before = cases.len();
                cases.retain(|(_, t)| t != default);
                changed |= cases.len() != before;
                cases.is_empty().then_some(*default)
            }
            _ => None,
        };
        if let Some(t) = folded {
            blk.term = Term::Goto(t);
            changed = true;
        }
    }

    // 2. Thread edges through empty forwarding blocks. Each search
    // restarts at block 0 after one retarget, and chains converge within
    // the loop. A retarget moves the edges into `s` onto `t`, so the
    // predecessor lists stay exact by merging them into `t`'s list in
    // block order and emptying `s`'s.
    let mut preds = cfg::predecessors(f);
    'thread: loop {
        for i in 0..f.blocks.len() {
            let s = BlockId(i as u32);
            if s == BlockId(0) || !f.block(s).insts.is_empty() {
                continue;
            }
            let Term::Goto(t) = f.block(s).term else {
                continue;
            };
            if t == s {
                continue;
            }
            let sp = &preds[i];
            if sp.is_empty() {
                continue; // already unreachable; removed below
            }
            // φ-safety: the value joining `t` via `s` must agree with any
            // existing entry for a predecessor about to be merged in.
            let safe = f.block(t).insts.iter().all(|inst| match inst {
                Inst::Phi { args, .. } => {
                    args.iter()
                        .find(|(p, _)| *p == s)
                        .is_some_and(|&(_, via_s)| {
                            args.iter().all(|(q, w)| *w == via_s || !sp.contains(q))
                        })
                }
                _ => true,
            });
            if !safe {
                continue;
            }
            let sp = std::mem::take(&mut preds[i]);
            // Rewrite φs in `t`: the `s` entry becomes one entry per
            // incoming predecessor (skipping those already present).
            for inst in &mut f.block_mut(t).insts {
                let Inst::Phi { args, .. } = inst else {
                    continue;
                };
                let Some(pos) = args.iter().position(|(p, _)| *p == s) else {
                    continue;
                };
                let (_, via_s) = args.remove(pos);
                for p in &sp {
                    if !args.iter().any(|(q, _)| q == p) {
                        args.push((*p, via_s));
                    }
                }
            }
            changed = true;
            for p in &sp {
                f.block_mut(*p)
                    .term
                    .map_succs(&mut |x| if x == s { t } else { x });
            }
            let tp = &mut preds[t.0 as usize];
            tp.extend(sp);
            tp.sort_unstable();
            continue 'thread;
        }
        break;
    }

    // 3. Predecessors are counted below only once unreachable blocks —
    // forwarders threaded away included — are gone. Duplicate φ entries
    // come from collapsed duplicate edges and carry the same value, so
    // keeping the first is sound.
    let blocks = f.blocks.len();
    ssa::remove_unreachable_blocks(f);
    changed |= f.blocks.len() != blocks;
    if changed {
        retain_phi_args_of_live_edges(f);
    }

    // 4. Merge chains.
    if merge_chains(f) {
        changed = true;
        ssa::remove_unreachable_blocks(f);
    }
    if changed {
        ssa::fold_trivial_phis(f);
    }
    changed
}

/// Step 4 of [`simplify_cfg`]: merges `c` into `b` wherever `c` is `b`'s
/// only successor and `b` its only predecessor, following each chain to
/// its end. Predecessor counts stay valid throughout the sweep, because
/// merging moves an edge's origin but never adds or removes an edge. The
/// consumed blocks are left unreachable. Returns `true` if any merged.
fn merge_chains(f: &mut MirFunction) -> bool {
    let preds = cfg::predecessors(f);
    let mut consumed = vec![false; f.blocks.len()];
    // Each substituted φ mapped to the register it now reads.
    let mut subst = Subst::default();
    for b in f.block_ids().collect::<Vec<_>>() {
        while let Term::Goto(c) = f.block(b).term {
            let multi_arg_phi = |i: &Inst| matches!(i, Inst::Phi { args, .. } if args.len() != 1);
            if consumed[b.0 as usize]
                || c == b
                || c == BlockId(0)
                || consumed[c.0 as usize]
                || preds[c.0 as usize].len() != 1
                || f.block(c).insts.iter().any(multi_arg_phi)
            {
                break;
            }
            let mut tail = std::mem::take(&mut f.block_mut(c).insts);
            tail.retain(|inst| {
                let Inst::Phi { dst, args } = inst else {
                    return true;
                };
                subst.set(*dst, args[0].1);
                false
            });
            let tail_term = f.block(c).term.clone();
            for s in tail_term.succs() {
                for inst in &mut f.block_mut(s).insts {
                    if let Inst::Phi { args, .. } = inst {
                        for (p, _) in args.iter_mut().filter(|(p, _)| *p == c) {
                            *p = b;
                        }
                    }
                }
            }
            let blk = f.block_mut(b);
            blk.insts.append(&mut tail);
            blk.term = tail_term;
            consumed[c.0 as usize] = true;
        }
    }
    subst.rewrite(f);
    consumed.contains(&true)
}

// ---------------------------------------------------------------------
// Dead code elimination (on SSA)
// ---------------------------------------------------------------------

/// Register-indexed lists in compressed form: the items pushed for
/// register `v` are `items[start[v]..start[v + 1]]`, in push order. One
/// allocation for all registers instead of a list (or map node) each.
struct RegLists<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> RegLists<T> {
    /// Groups `pairs` by register, keeping each register's items in
    /// `pairs` order (the sort is stable). Every register must be below
    /// `nregs`.
    fn build(nregs: usize, mut pairs: Vec<(VReg, T)>) -> RegLists<T> {
        pairs.sort_by_key(|(v, _)| *v);
        let mut start = vec![0u32; nregs + 1];
        for (v, _) in &pairs {
            start[v.0 as usize + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        RegLists {
            start,
            items: pairs.into_iter().map(|(_, t)| t).collect(),
        }
    }

    fn get(&self, v: VReg) -> &[T] {
        let i = v.0 as usize;
        match (self.start.get(i), self.start.get(i + 1)) {
            (Some(&lo), Some(&hi)) => &self.items[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// Removes pure instructions whose results cannot reach an effect:
/// mark-and-sweep from the roots (registers read by impure instructions
/// and terminators), with liveness propagating through the operands of
/// live pure definitions only. Counting uses *anywhere* — the previous
/// formulation — kept self-sustaining dead φ-cycles alive: a loop-carried
/// φ whose only users feed back into it uses itself, so no round of a
/// use-count sweep could retire it; marking from roots sweeps the whole
/// cycle at once. This is the per-function analogue of the paper's "dead
/// code elimination" dump: it cannot remove state-machine handler bodies
/// because they are reached through stores, calls and address-taken
/// tables.
pub fn dead_code_elim(f: &mut MirFunction, _cx: &mut AnalysisCtx<'_>) -> bool {
    // Operand lists of pure definitions; everything read by an impure
    // instruction or a terminator is a root.
    let mut nregs = f.next_vreg as usize;
    let mut pure_uses: Vec<(VReg, VReg)> = Vec::new();
    let mut work: Vec<VReg> = Vec::new();
    for blk in &f.blocks {
        for inst in &blk.insts {
            match (inst.is_pure(), inst.def()) {
                (true, Some(d)) => {
                    nregs = nregs.max(d.0 as usize + 1);
                    pure_uses.extend(inst.uses().map(|u| (d, u)));
                }
                _ => work.extend(inst.uses()),
            }
        }
        work.extend(blk.term.uses());
    }
    let pure_uses = RegLists::build(nregs, pure_uses);
    let mut live = vec![false; nregs];
    let is_live = |live: &[bool], v: VReg| live.get(v.0 as usize).copied().unwrap_or(false);
    while let Some(v) = work.pop() {
        if let Some(l) = live.get_mut(v.0 as usize) {
            if !std::mem::replace(l, true) {
                work.extend_from_slice(pure_uses.get(v));
            }
        }
    }
    let mut changed = false;
    for blk in &mut f.blocks {
        let before = blk.insts.len();
        blk.insts
            .retain(|inst| !inst.is_pure() || inst.def().is_none_or(|d| is_live(&live, d)));
        changed |= blk.insts.len() != before;
    }
    changed
}

// ---------------------------------------------------------------------
// Copy coalescing (φ-free form)
// ---------------------------------------------------------------------

/// Cheap copy coalescing on φ-free code: the step after
/// [`ssa::destruct`], which lowers every φ to a staged parallel copy
/// (`tmp = src; dst = tmp`). No SSA pass sees those copies, so without
/// this step they would reach the backend at every level. This pass is
/// deliberately cheap and sound on non-SSA code:
///
/// 1. per block, forward-propagates available copies into uses
///    (invalidating on redefinition of either side) and drops no-op
///    `dst = dst` copies — correctly handling destruct's swap sequences;
/// 2. removes copies whose destination is dead, using [`cfg::liveness`]
///    across blocks.
///
/// Returns `true` if anything changed.
pub fn coalesce_copies(f: &mut MirFunction, _cx: &mut AnalysisCtx<'_>) -> bool {
    const NONE: u32 = u32::MAX;
    let mut changed = false;
    // The block's available copies `dst = src`, as `avail[dst] = src`
    // (`NONE` where there is none). No source is ever itself a key — a
    // copy's source is resolved before it is entered, and a redefinition
    // drops every entry it touches — so resolving is one lookup.
    // `src_count[v]` counts the entries whose source is `v`, so only a
    // redefinition of a live source scans the block's entry list.
    let nregs = f.next_vreg as usize;
    let mut avail: Vec<u32> = vec![NONE; nregs];
    let mut src_count: Vec<u32> = vec![0; nregs];
    let mut keys: Vec<u32> = Vec::new();
    let is_copy = |i: &Inst| matches!(i, Inst::Copy { .. });
    for blk in &mut f.blocks {
        // Until a block's first copy nothing is available, so nothing
        // before it (and nothing at all in a copy-free block) changes.
        let Some(first) = blk.insts.iter().position(is_copy) else {
            continue;
        };
        for k in keys.drain(..) {
            let s = std::mem::replace(&mut avail[k as usize], NONE);
            if s != NONE {
                src_count[s as usize] = 0;
            }
        }
        let resolve = |avail: &[u32], v: VReg| match avail.get(v.0 as usize) {
            Some(&s) if s != NONE => VReg(s),
            _ => v,
        };
        let mut at = 0;
        blk.insts.retain_mut(|inst| {
            at += 1;
            if at <= first {
                return true;
            }
            // φs (not expected in φ-free form, but defensive): their
            // arguments are per-edge values, not block-local uses.
            if !matches!(inst, Inst::Phi { .. }) {
                inst.map_uses(&mut |v| {
                    let r = resolve(&avail, v);
                    changed |= r != v;
                    r
                });
            }
            if let Some(d) = inst.def() {
                let di = d.0 as usize;
                if let Some(s) = avail.get_mut(di).map(|a| std::mem::replace(a, NONE)) {
                    if s != NONE {
                        src_count[s as usize] -= 1;
                    }
                }
                if src_count.get(di).is_some_and(|&c| c > 0) {
                    for &k in &keys {
                        if avail[k as usize] == d.0 {
                            avail[k as usize] = NONE;
                        }
                    }
                    src_count[di] = 0;
                }
            }
            if let Inst::Copy { dst, src } = *inst {
                if dst == src {
                    changed = true;
                    return false; // no-op copy
                }
                let top = dst.0.max(src.0) as usize + 1;
                if top > avail.len() {
                    avail.resize(top, NONE);
                    src_count.resize(top, 0);
                }
                avail[dst.0 as usize] = src.0;
                src_count[src.0 as usize] += 1;
                keys.push(dst.0);
            }
            true
        });
        blk.term.map_uses(&mut |v| {
            let r = resolve(&avail, v);
            changed |= r != v;
            r
        });
    }

    // Dead-copy sweep: a copy whose destination is not live afterwards
    // is gone. Restricted to copies (general dead-code removal is DCE's
    // job); the backward in-block walk keeps the check precise on
    // non-SSA code, where a register is redefined many times. It only
    // needs to reach back to the block's first copy, and a function with
    // no copy left needs no liveness at all.
    if !f.blocks.iter().any(|blk| blk.insts.iter().any(is_copy)) {
        return changed;
    }
    let live = cfg::liveness(f);
    let mut live_now = BitSet::new(live.live_out.domain());
    let mut keep: Vec<bool> = Vec::new();
    for (b, blk) in f.blocks.iter_mut().enumerate() {
        let Some(first) = blk.insts.iter().position(is_copy) else {
            continue;
        };
        live.live_out.copy_row_to(b, &mut live_now);
        for u in blk.term.uses() {
            live_now.insert(u.0 as usize);
        }
        keep.clear();
        for inst in blk.insts[first..].iter().rev() {
            let dead = matches!(inst, Inst::Copy { dst, .. } if !live_now.contains(dst.0 as usize));
            keep.push(!dead);
            if dead {
                changed = true;
                continue;
            }
            if let Some(d) = inst.def() {
                live_now.remove(d.0 as usize);
            }
            for u in inst.uses() {
                live_now.insert(u.0 as usize);
            }
        }
        // `keep` runs backwards from the block's last instruction.
        let last = blk.insts.len() - 1;
        let mut at = 0;
        blk.insts.retain(|_| {
            let kept = at < first || keep[last - at];
            at += 1;
            kept
        });
    }
    changed
}

// ---------------------------------------------------------------------
// Return-block tail merging (on SSA)
// ---------------------------------------------------------------------

/// Cross-jumping for return blocks: structurally identical
/// `Ret`-terminated blocks are merged into one and every edge into a
/// duplicate is redirected to the representative — GCC's `-Os`
/// crossjumping, restricted to the exit blocks where it needs no
/// successor-φ reasoning. Blocks compare equal up to renaming of their
/// *block-local* definitions (a fresh register materialized and returned
/// is the same code whatever its number); registers live into the block
/// must match exactly. Blocks with φs are skipped, and a `Ret` block's
/// definitions dominate nothing outside it, so the pass is sound on SSA
/// as well as φ-free code. A predecessor branching to two merged blocks
/// is left with an equal-target `Br` for [`simplify_cfg`]. Returns
/// `true` if anything changed.
///
/// The STT dispatch functions all carry two `return false` blocks (loop
/// exhausted / no transition fired) that merge here.
pub fn merge_return_blocks(f: &mut MirFunction, _cx: &mut AnalysisCtx<'_>) -> bool {
    // The entry block cannot become unreachable, so it never merges.
    let is_candidate = |blk: &Block| {
        matches!(blk.term, Term::Ret(_)) && !blk.insts.iter().any(|i| matches!(i, Inst::Phi { .. }))
    };
    if f.blocks
        .iter()
        .skip(1)
        .filter(|b| is_candidate(b))
        .nth(1)
        .is_none()
    {
        return false;
    }
    // Each group's canonical block and representative (its lowest block).
    let mut groups: Vec<((Vec<Inst>, Term), BlockId)> = Vec::new();
    let mut redirect: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    let mut any = false;
    let mut local = vec![LOCAL_NONE; f.next_vreg as usize];
    for (b, blk) in f.blocks.iter().enumerate().skip(1) {
        if !is_candidate(blk) {
            continue;
        }
        let key = canonical_block(blk, &mut local);
        match groups.iter().find(|(k, _)| *k == key) {
            Some(&(_, rep)) => {
                redirect[b] = Some(rep);
                any = true;
            }
            None => groups.push((key, BlockId(b as u32))),
        }
    }
    if !any {
        return false;
    }
    for blk in &mut f.blocks {
        blk.term
            .map_succs(&mut |s| redirect[s.0 as usize].unwrap_or(s));
    }
    ssa::remove_unreachable_blocks(f);
    true
}

/// Marks a register with no block-local id in [`canonical_block`]'s table.
const LOCAL_NONE: u32 = u32::MAX;

/// `blk`'s instructions and terminator with its block-local definitions
/// renumbered from the top of the register space; everything else kept
/// verbatim. Every def — including a *re*definition of an already-seen
/// register — takes a fresh id from a monotonic counter. `local` is a
/// scratch table indexed by register number, all [`LOCAL_NONE`] on entry
/// and on return.
fn canonical_block(blk: &Block, local: &mut Vec<u32>) -> (Vec<Inst>, Term) {
    let canon = |local: &[u32], v: VReg| match local.get(v.0 as usize) {
        Some(&id) if id != LOCAL_NONE => VReg(u32::MAX - id),
        _ => v,
    };
    let mut next_id = 0u32;
    let mut insts = Vec::with_capacity(blk.insts.len());
    for inst in &blk.insts {
        let mut c = inst.clone();
        c.map_uses(&mut |v| canon(local, v));
        if let Some(d) = inst.def() {
            let di = d.0 as usize;
            if di >= local.len() {
                local.resize(di + 1, LOCAL_NONE);
            }
            local[di] = next_id;
            if let Some(dm) = c.def_mut() {
                *dm = VReg(u32::MAX - next_id);
            }
            next_id += 1;
        }
        insts.push(c);
    }
    let mut term = blk.term.clone();
    term.map_uses(&mut |v| canon(local, v));
    for d in blk.insts.iter().filter_map(Inst::def) {
        local[d.0 as usize] = LOCAL_NONE;
    }
    (insts, term)
}

// ---------------------------------------------------------------------
// Inlining (pre-SSA, straight-line callees)
// ---------------------------------------------------------------------

/// Inlines calls to single-block functions of at most `max_insts`
/// instructions. Returns the number of call sites inlined.
pub fn inline_small_functions(program: &mut Program, max_insts: usize) -> usize {
    // Snapshot eligible callees.
    let mut eligible: BTreeMap<usize, (usize, Vec<Inst>, Option<VReg>, u32)> = BTreeMap::new();
    for (i, f) in program.functions.iter().enumerate() {
        if f.blocks.len() != 1 || f.blocks[0].insts.len() > max_insts {
            continue;
        }
        let Term::Ret(ret) = f.blocks[0].term.clone() else {
            continue;
        };
        // Self-recursive single-block functions are not eligible.
        let self_call = f.blocks[0]
            .insts
            .iter()
            .any(|inst| matches!(inst, Inst::Call { func, .. } if *func == i));
        if self_call {
            continue;
        }
        eligible.insert(i, (f.params, f.blocks[0].insts.clone(), ret, f.next_vreg));
    }
    if eligible.is_empty() {
        return 0;
    }
    let mut inlined = 0;
    for ci in 0..program.functions.len() {
        for bi in 0..program.functions[ci].blocks.len() {
            let mut new_insts: Vec<Inst> = Vec::new();
            let insts = program.functions[ci].blocks[bi].insts.clone();
            for inst in insts {
                let Inst::Call { dst, func, args } = &inst else {
                    new_insts.push(inst);
                    continue;
                };
                // Do not inline into the callee itself.
                let Some((params, body, ret, callee_vregs)) = eligible.get(func) else {
                    new_insts.push(inst);
                    continue;
                };
                if *func == ci {
                    new_insts.push(inst);
                    continue;
                }
                // Map callee registers into the caller's space: parameters
                // become the argument registers, every other callee
                // register gets a compact fresh slot (`next_vreg` grows by
                // exactly the callee's non-parameter register count).
                let base = program.functions[ci].next_vreg;
                let extra = callee_vregs.saturating_sub(*params as u32);
                program.functions[ci].next_vreg += extra;
                let map = |v: VReg| {
                    if (v.0 as usize) < *params {
                        args[v.0 as usize]
                    } else {
                        VReg(base + (v.0 - *params as u32))
                    }
                };
                for callee_inst in body {
                    let mut copy = callee_inst.clone();
                    copy.map_uses(&mut |v| map(v));
                    if let Some(d) = copy.def_mut() {
                        *d = map(*d);
                    }
                    new_insts.push(copy);
                }
                if let (Some(d), Some(r)) = (dst, ret) {
                    new_insts.push(Inst::Copy {
                        dst: *d,
                        src: map(*r),
                    });
                }
                inlined += 1;
            }
            program.functions[ci].blocks[bi].insts = new_insts;
        }
    }
    inlined
}

// ---------------------------------------------------------------------
// Dead function elimination (call-graph reachability)
// ---------------------------------------------------------------------

/// Removes functions unreachable from the roots: exported functions and
/// every address-taken function (via [`Inst::FnAddr`] or function addresses
/// stored in global data). Returns removed names.
pub fn dead_function_elimination(program: &mut Program) -> Vec<String> {
    let n = program.functions.len();
    let mut live = vec![false; n];
    let mut work: Vec<usize> = Vec::new();
    for (i, f) in program.functions.iter().enumerate() {
        if f.exported {
            live[i] = true;
            work.push(i);
        }
    }
    // Address-taken through global data (const dispatch tables!): these are
    // roots because an indirect call may reach them at run time.
    for g in &program.globals {
        for w in &g.words {
            if let Word::FnAddr(i) = w {
                if !live[*i] {
                    live[*i] = true;
                    work.push(*i);
                }
            }
        }
    }
    while let Some(i) = work.pop() {
        for b in &program.functions[i].blocks {
            for inst in &b.insts {
                let callee = match inst {
                    Inst::Call { func, .. } => Some(*func),
                    Inst::FnAddr { func, .. } => Some(*func),
                    _ => None,
                };
                if let Some(c) = callee {
                    if !live[c] {
                        live[c] = true;
                        work.push(c);
                    }
                }
            }
        }
    }
    if live.iter().all(|l| *l) {
        return Vec::new();
    }
    // Remap indices.
    let mut remap = vec![usize::MAX; n];
    let mut kept = Vec::new();
    let mut removed = Vec::new();
    for (i, f) in program.functions.drain(..).enumerate() {
        if live[i] {
            remap[i] = kept.len();
            kept.push(f);
        } else {
            removed.push(f.name);
        }
    }
    for f in &mut kept {
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                match inst {
                    Inst::Call { func, .. } | Inst::FnAddr { func, .. } => {
                        *func = remap[*func];
                    }
                    _ => {}
                }
            }
        }
    }
    for g in &mut program.globals {
        for w in &mut g.words {
            if let Word::FnAddr(i) = w {
                *i = remap[*i];
            }
        }
    }
    program.functions = kept;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{BinOp, Block, GlobalData};

    /// The conservative memory model unit tests drive bare functions
    /// with: no globals known, everything treated as mutable.
    fn md() -> mem::MemoryModel {
        mem::MemoryModel::default()
    }

    fn const_add_fn() -> MirFunction {
        MirFunction {
            name: "f".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Const {
                        dst: VReg(0),
                        value: 40,
                    },
                    Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(2),
                        lhs: VReg(0),
                        rhs: VReg(1),
                    },
                ],
                term: Term::Ret(Some(VReg(2))),
            }],
            next_vreg: 3,
        }
    }

    #[test]
    fn sccp_collapses_constant_math() {
        let mut f = const_add_fn();
        ssa::construct(&mut f);
        assert!(sccp(&mut f, &mut AnalysisCtx::new(&md())));
        dead_code_elim(&mut f, &mut AnalysisCtx::new(&md()));
        ssa::destruct(&mut f);
        simplify_cfg(&mut f, &mut AnalysisCtx::new(&md()));
        // One Const remains, feeding the return.
        let consts: Vec<i32> = f.blocks[0]
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Const { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert!(consts.contains(&42), "{f}");
        assert!(f.blocks[0].insts.len() <= 2, "{f}");
    }

    /// Regression keyed to the verifier's `phi-outside-join` and
    /// `phi-pred-mismatch` rules: folding a constant branch removes a CFG
    /// edge, so `sccp` must prune the join φ's stale argument, fold the
    /// φ left at a one-predecessor join, and leave one path. Three
    /// shapes branch on the constant 1: into a join whose φ is written by
    /// hand, into one whose φ SSA construction places (one arm reading a
    /// parameter), and into two returning arms with no join at all.
    #[test]
    fn sccp_folds_a_constant_branch_to_one_path() {
        let konst = |dst, value| Inst::Const {
            dst: VReg(dst),
            value,
        };
        // `v{cond} = 1; br v{cond}` into two arms, which meet at `join`
        // or, without one, each return what they define last.
        let shape = |params, cond, arms: [Vec<Inst>; 2], join: Option<Block>| {
            let mut blocks = vec![Block {
                insts: vec![konst(cond, 1)],
                term: Term::Br {
                    cond: VReg(cond),
                    then_block: BlockId(1),
                    else_block: BlockId(2),
                },
            }];
            for insts in arms {
                let term = match join {
                    Some(_) => Term::Goto(BlockId(3)),
                    None => Term::Ret(insts.last().and_then(Inst::def)),
                };
                blocks.push(Block { insts, term });
            }
            blocks.extend(join);
            MirFunction {
                name: "g".into(),
                params,
                returns_value: true,
                exported: true,
                blocks,
                next_vreg: 4,
            }
        };
        let constructed = |mut f: MirFunction| {
            ssa::construct(&mut f);
            f
        };
        let join = |insts, v| Block {
            insts,
            term: Term::Ret(Some(VReg(v))),
        };
        let hand_phi = Inst::Phi {
            dst: VReg(3),
            args: vec![(BlockId(1), VReg(1)), (BlockId(2), VReg(2))],
        };
        let param_sum = Inst::Bin {
            op: BinOp::Add,
            dst: VReg(2),
            lhs: VReg(0),
            rhs: VReg(0),
        };
        let shapes = [
            shape(
                0,
                0,
                [vec![konst(1, 10)], vec![konst(2, 20)]],
                Some(join(vec![hand_phi], 3)),
            ),
            constructed(shape(
                1,
                1,
                [vec![konst(2, 10)], vec![param_sum]],
                Some(join(vec![], 2)),
            )),
            constructed(shape(0, 0, [vec![konst(1, 10)], vec![konst(2, 20)]], None)),
        ];
        for mut f in shapes {
            assert!(sccp(&mut f, &mut AnalysisCtx::new(&md())), "{f}");
            let vs = verify::verify_function(&f, verify::Tier::Ssa);
            assert!(vs.is_empty(), "{}{f}", verify::report(&vs));
            let preds = cfg::predecessors(&f);
            for b in f.block_ids() {
                let ps = &preds[b.0 as usize];
                for inst in &f.block(b).insts {
                    let Inst::Phi { args, .. } = inst else {
                        continue;
                    };
                    assert!(ps.len() > 1, "φ left at a one-predecessor join: {f}");
                    for (p, _) in args {
                        assert!(ps.contains(p), "stale φ-arg from {p} in {f}");
                    }
                }
            }
            // One path: following the `Goto`s from the entry reaches a
            // `Ret` through every block.
            let (mut b, mut seen) = (BlockId(0), 1);
            while let Term::Goto(next) = f.block(b).term {
                (b, seen) = (next, seen + 1);
                assert!(seen <= f.blocks.len(), "{f}");
            }
            assert!(matches!(f.block(b).term, Term::Ret(_)), "{f}");
            assert_eq!(seen, f.blocks.len(), "a block is off the path: {f}");
        }
    }

    #[test]
    fn dce_keeps_stores_and_calls() {
        let mut f = MirFunction {
            name: "h".into(),
            params: 0,
            returns_value: false,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Const {
                        dst: VReg(0),
                        value: 5,
                    },
                    Inst::Addr {
                        dst: VReg(1),
                        global: 0,
                        offset: 0,
                    },
                    Inst::Store {
                        addr: VReg(1),
                        src: VReg(0),
                    },
                    Inst::Const {
                        dst: VReg(2),
                        value: 99,
                    }, // dead
                ],
                term: Term::Ret(None),
            }],
            next_vreg: 3,
        };
        assert!(dead_code_elim(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(f.blocks[0].insts.len(), 3);
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Store { .. })));
    }

    fn two_fn_program(exported_second: bool) -> Program {
        Program {
            functions: vec![
                MirFunction {
                    name: "root".into(),
                    params: 0,
                    returns_value: false,
                    exported: true,
                    blocks: vec![Block {
                        insts: vec![],
                        term: Term::Ret(None),
                    }],
                    next_vreg: 0,
                },
                MirFunction {
                    name: "orphan".into(),
                    params: 0,
                    returns_value: false,
                    exported: exported_second,
                    blocks: vec![Block {
                        insts: vec![],
                        term: Term::Ret(None),
                    }],
                    next_vreg: 0,
                },
            ],
            globals: vec![],
            externs: vec![],
        }
    }

    #[test]
    fn dead_function_elimination_drops_orphans() {
        let mut p = two_fn_program(false);
        let removed = dead_function_elimination(&mut p);
        assert_eq!(removed, vec!["orphan".to_string()]);
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn address_taken_functions_survive() {
        // The paper's crucial case: a function only referenced from a const
        // table must be kept.
        let mut p = two_fn_program(false);
        p.globals.push(GlobalData {
            name: "tbl".into(),
            size: 4,
            words: vec![Word::FnAddr(1)],
            mutable: false,
        });
        let removed = dead_function_elimination(&mut p);
        assert!(removed.is_empty());
        assert_eq!(p.functions.len(), 2);
    }

    fn inline_program() -> Program {
        Program {
            functions: vec![
                MirFunction {
                    name: "caller".into(),
                    params: 0,
                    returns_value: true,
                    exported: true,
                    blocks: vec![Block {
                        insts: vec![
                            Inst::Const {
                                dst: VReg(0),
                                value: 20,
                            },
                            Inst::Call {
                                dst: Some(VReg(1)),
                                func: 1,
                                args: vec![VReg(0)],
                            },
                        ],
                        term: Term::Ret(Some(VReg(1))),
                    }],
                    next_vreg: 2,
                },
                MirFunction {
                    name: "double".into(),
                    params: 1,
                    returns_value: true,
                    exported: false,
                    blocks: vec![Block {
                        insts: vec![Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(1),
                            lhs: VReg(0),
                            rhs: VReg(0),
                        }],
                        term: Term::Ret(Some(VReg(1))),
                    }],
                    next_vreg: 2,
                },
            ],
            globals: vec![],
            externs: vec![],
        }
    }

    #[test]
    fn inline_splices_single_block_callee() {
        let mut p = inline_program();
        assert_eq!(inline_small_functions(&mut p, 8), 1);
        let caller = &p.functions[0];
        assert!(
            !caller.blocks[0]
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Call { .. })),
            "{caller}"
        );
        // And the callee is now removable.
        let removed = dead_function_elimination(&mut p);
        assert_eq!(removed, vec!["double".to_string()]);
    }

    #[test]
    fn inline_remaps_vregs_compactly() {
        // Regression: the callee has 1 param and 1 local register, so the
        // caller's register space must grow by exactly 1 per call site —
        // not by the callee's full register count keyed off raw ids.
        let mut p = inline_program();
        let before = p.functions[0].next_vreg;
        assert_eq!(inline_small_functions(&mut p, 8), 1);
        let caller = &p.functions[0];
        assert_eq!(
            caller.next_vreg,
            before + 1,
            "non-param callee registers must be remapped compactly: {caller}"
        );
        // Every register referenced by the caller is inside its space.
        for b in &caller.blocks {
            for inst in &b.insts {
                for u in inst.uses() {
                    assert!(u.0 < caller.next_vreg, "{u} out of range: {caller}");
                }
                if let Some(d) = inst.def() {
                    assert!(d.0 < caller.next_vreg, "{d} out of range: {caller}");
                }
            }
        }
    }

    #[test]
    fn simplify_cfg_threads_and_merges() {
        let mut f = MirFunction {
            name: "s".into(),
            params: 0,
            returns_value: false,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(2)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(None),
                },
            ],
            next_vreg: 0,
        };
        assert!(simplify_cfg(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(f.blocks.len(), 1, "{f}");
    }

    #[test]
    fn simplify_cfg_merges_long_chain_in_one_sweep() {
        // Regression: the merge step used to stop after the first merged
        // pair per round; a long straight-line chain must collapse fully,
        // preserving instruction order.
        let n = 12u32;
        let mut blocks: Vec<Block> = (0..n)
            .map(|i| Block {
                insts: vec![Inst::Const {
                    dst: VReg(i),
                    value: i as i32,
                }],
                term: Term::Goto(BlockId(i + 1)),
            })
            .collect();
        blocks.push(Block {
            insts: vec![],
            term: Term::Ret(None),
        });
        let mut f = MirFunction {
            name: "chain".into(),
            params: 0,
            returns_value: false,
            exported: true,
            blocks,
            next_vreg: n,
        };
        assert!(simplify_cfg(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(f.blocks.len(), 1, "{f}");
        let values: Vec<i32> = f.blocks[0]
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Const { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(values, (0..n as i32).collect::<Vec<_>>(), "{f}");
    }

    #[test]
    fn simplify_cfg_merges_chains_on_ssa() {
        // bb2 is reached only from bb1 and carries a one-argument φ; the
        // join bb3 has a φ entry naming bb2. Merging bb2 into bb1 must
        // substitute the φ away and rename the join's entry to bb1.
        let add = |dst, v| Inst::Bin {
            op: BinOp::Add,
            dst: VReg(dst),
            lhs: VReg(v),
            rhs: VReg(v),
        };
        let phi = |dst, args: &[(u32, u32)]| Inst::Phi {
            dst: VReg(dst),
            args: args.iter().map(|&(p, v)| (BlockId(p), VReg(v))).collect(),
        };
        let block = |insts, term| Block { insts, term };
        let mut f = MirFunction {
            name: "ssa_chain".into(),
            params: 2,
            returns_value: true,
            exported: true,
            blocks: vec![
                block(
                    vec![],
                    Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(3),
                    },
                ),
                block(vec![add(2, 1)], Term::Goto(BlockId(2))),
                block(vec![phi(3, &[(1, 2)]), add(4, 3)], Term::Goto(BlockId(3))),
                block(vec![phi(5, &[(0, 1), (2, 4)])], Term::Ret(Some(VReg(5)))),
            ],
            next_vreg: 6,
        };
        assert!(simplify_cfg(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(f.blocks.len(), 3, "{f}");
        assert_eq!(f.blocks[1].insts, vec![add(2, 1), add(4, 2)], "{f}");
        assert_eq!(f.blocks[2].insts, vec![phi(5, &[(0, 1), (1, 4)])], "{f}");
        let vs = verify::verify_function(&f, verify::Tier::Ssa);
        assert!(vs.is_empty(), "{}{f}", verify::report(&vs));
    }

    #[test]
    fn gvn_cse_replaces_redundant_expressions() {
        // v2 = v0 + v1 ; v3 = v1 + v0 (commutative dup) ; v4 = v2 * v3.
        let mut f = MirFunction {
            name: "cse".into(),
            params: 2,
            returns_value: true,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(2),
                        lhs: VReg(0),
                        rhs: VReg(1),
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(3),
                        lhs: VReg(1),
                        rhs: VReg(0),
                    },
                    Inst::Bin {
                        op: BinOp::Mul,
                        dst: VReg(4),
                        lhs: VReg(2),
                        rhs: VReg(3),
                    },
                ],
                term: Term::Ret(Some(VReg(4))),
            }],
            next_vreg: 5,
        };
        ssa::construct(&mut f);
        assert!(gvn_cse(&mut f, &mut AnalysisCtx::new(&md())));
        let adds = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(adds, 1, "commutative duplicate must become a copy: {f}");
        // GVN rewrote the copy's uses, so DCE erases it entirely.
        dead_code_elim(&mut f, &mut AnalysisCtx::new(&md()));
        assert_eq!(f.blocks[0].insts.len(), 2, "{f}");
    }

    #[test]
    fn gvn_cse_respects_dominance() {
        // The same expression computed in two sibling branches must NOT be
        // CSE'd (neither def dominates the other).
        let mut f = MirFunction {
            name: "sib".into(),
            params: 2,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Mul,
                        dst: VReg(2),
                        lhs: VReg(1),
                        rhs: VReg(1),
                    }],
                    term: Term::Ret(Some(VReg(2))),
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Mul,
                        dst: VReg(3),
                        lhs: VReg(1),
                        rhs: VReg(1),
                    }],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        ssa::construct(&mut f);
        assert!(
            !gvn_cse(&mut f, &mut AnalysisCtx::new(&md())),
            "sibling defs must not be merged: {f}"
        );
    }

    #[test]
    fn gvn_cse_leaves_no_use_of_a_copy() {
        // bb0: v2 = v0 + v1; v3 = v1 + v0; v4 = v3; br v0 -> bb1, bb2
        // bb1: v5 = v4 * v2; goto bb3      bb2: goto bb3
        // bb3: v6 = φ(bb1: v5, bb2: v4); ret v6
        // v3 is redundant, v4 a copy of it, and both an operand and a φ
        // argument read v4: gvn_cse alone must rewrite them all to v2.
        let bin = |op, dst, lhs, rhs| Inst::Bin {
            op,
            dst: VReg(dst),
            lhs: VReg(lhs),
            rhs: VReg(rhs),
        };
        let mut f = MirFunction {
            name: "copies".into(),
            params: 2,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        bin(BinOp::Add, 2, 0, 1),
                        bin(BinOp::Add, 3, 1, 0),
                        Inst::Copy {
                            dst: VReg(4),
                            src: VReg(3),
                        },
                    ],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![bin(BinOp::Mul, 5, 4, 2)],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Phi {
                        dst: VReg(6),
                        args: vec![(BlockId(1), VReg(5)), (BlockId(2), VReg(4))],
                    }],
                    term: Term::Ret(Some(VReg(6))),
                },
            ],
            next_vreg: 7,
        };
        assert!(gvn_cse(&mut f, &mut AnalysisCtx::new(&md())));
        let vs = verify::verify_function(&f, verify::Tier::Ssa);
        assert!(vs.is_empty(), "{}{f}", verify::report(&vs));
        let copies: Vec<VReg> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| matches!(i, Inst::Copy { .. }).then(|| i.def()).flatten())
            .collect();
        assert_eq!(copies, vec![VReg(3), VReg(4)], "{f}");
        for blk in &f.blocks {
            for u in blk.insts.iter().flat_map(Inst::uses).chain(blk.term.uses()) {
                assert!(!copies.contains(&u), "{u} reads a copy: {f}");
            }
        }
        assert_eq!(f.blocks[1].insts, vec![bin(BinOp::Mul, 5, 2, 2)], "{f}");
        // Nothing is left to rewrite: the copies only wait for DCE.
        assert!(!gvn_cse(&mut f, &mut AnalysisCtx::new(&md())), "{f}");
    }

    #[test]
    fn o2_drops_what_gvn_finds_in_the_same_sweep() {
        // v1 = &g0+0; v2 = &g0+0; v3 = v1 - v2; ret v3. GVN turns v2 into
        // a copy of v1 and rewrites v3 to read v1, so DCE erases the copy
        // in sweep 1 and sweep 2 finds nothing: the fixed point ends
        // after two sweeps, not three.
        let addr = |dst| Inst::Addr {
            dst: VReg(dst),
            global: 0,
            offset: 0,
        };
        let mut f = MirFunction {
            name: "addrs".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    addr(1),
                    addr(2),
                    Inst::Bin {
                        op: BinOp::Sub,
                        dst: VReg(3),
                        lhs: VReg(1),
                        rhs: VReg(2),
                    },
                ],
                term: Term::Ret(Some(VReg(3))),
            }],
            next_vreg: 4,
        };
        let mut pm = PassManager::for_level(OptLevel::O2);
        assert!(pm.run_function(&mut f, &md()));
        let sweeps = pm.stats().get(pass::SCCP).map(|s| s.runs);
        assert_eq!(sweeps, Some(2), "sweeps: {sweeps:?}\n{f}");
        assert_eq!(f.inst_count(), 3, "{f}");
    }

    #[test]
    fn simplify_cfg_collapses_equal_targets() {
        let mut f = MirFunction {
            name: "eq".into(),
            params: 1,
            returns_value: false,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(1),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Switch {
                        val: VReg(0),
                        cases: vec![(1, BlockId(2)), (2, BlockId(2))],
                        default: BlockId(2),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(None),
                },
            ],
            next_vreg: 1,
        };
        assert!(simplify_cfg(&mut f, &mut AnalysisCtx::new(&md())));
        for b in f.block_ids() {
            assert!(
                matches!(f.block(b).term, Term::Goto(_) | Term::Ret(_)),
                "all conditional terminators fold away: {f}"
            );
        }
    }

    #[test]
    fn simplify_cfg_threads_empty_blocks_through_phis() {
        // bb0 -Br-> bb1 (empty, Goto bb3) / bb2 (v=2, Goto bb3); bb3 has a
        // φ. Threading bb0->bb1->bb3 must keep the φ consistent.
        let mut f = MirFunction {
            name: "thread".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 1,
                    }],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        ssa::construct(&mut f);
        assert!(simplify_cfg(&mut f, &mut AnalysisCtx::new(&md())));
        // The empty forwarding block is gone; the φ still has one argument
        // per incoming edge.
        let preds = cfg::predecessors(&f);
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                if let Inst::Phi { args, .. } = inst {
                    let mut expect: Vec<BlockId> = preds[b.0 as usize].clone();
                    expect.sort();
                    expect.dedup();
                    let mut got: Vec<BlockId> = args.iter().map(|(p, _)| *p).collect();
                    got.sort();
                    assert_eq!(got, expect, "{f}");
                }
            }
        }
    }

    #[test]
    fn pass_manager_reaches_fixed_point_and_records_stats() {
        let mut pm = PassManager::for_level(OptLevel::O2);
        let mut f = const_add_fn();
        assert!(pm.run_function(&mut f, &md()));
        let stats = pm.stats();
        let sc = stats.get(pass::SCCP).expect("sccp ran");
        assert!(sc.runs > 0 && sc.changes > 0, "{stats:?}");
        let dce = stats.get(pass::DCE).expect("dce ran");
        assert!(dce.insts_removed > 0, "{stats:?}");
        // Idempotence: a second run over the optimized function reports no
        // change and keeps the structure (SSA reconstruction renumbers
        // registers, so compare shape, not names).
        let (blocks, insts) = (f.blocks.len(), f.inst_count());
        let mut pm2 = PassManager::for_level(OptLevel::O2);
        assert!(!pm2.run_function(&mut f, &md()));
        assert_eq!(
            (f.blocks.len(), f.inst_count()),
            (blocks, insts),
            "fixed point must be structurally stable: {f}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "MIR verifier: after hider in sweep 1: `f` changed although the pass reported no change"
    )]
    fn verify_each_blames_a_pass_that_hides_a_change() {
        /// Breaks the no-change contract the way a careless pass would:
        /// it allocates a register it then does not use, and reports
        /// nothing.
        fn hides_its_edit(f: &mut MirFunction, _cx: &mut AnalysisCtx<'_>) -> bool {
            f.fresh();
            false
        }
        let mut pm = PassManager::new().with_verify(VerifyMode::Each);
        pm.register(pass::SCCP, sccp);
        pm.register("hider", hides_its_edit);
        pm.run_function(&mut const_add_fn(), &md());
    }

    #[test]
    fn verify_knob_accepts_each_or_unset_and_names_itself_otherwise() {
        use std::ffi::OsStr;
        assert_eq!(VerifyMode::parse(None), Ok(VerifyMode::Boundaries));
        assert_eq!(
            VerifyMode::parse(Some(OsStr::new("each"))),
            Ok(VerifyMode::Each)
        );
        for bad in ["Each", "EACH", "each ", "", "1", "boundaries", "eahc"] {
            let err = VerifyMode::parse(Some(OsStr::new(bad))).expect_err(bad);
            assert!(err.starts_with(&format!("OCC_VERIFY={bad} ")), "{err}");
            assert!(err.contains("`each`"), "{err}");
        }
    }

    #[test]
    fn analysis_ctx_caches_until_invalidated() {
        let f = diamond_mem_fn(None, None);
        let model = md();
        let mut cx = AnalysisCtx::new(&model);
        assert!(cx.dom(&f).is_reachable(BlockId(2)));
        assert_eq!(cx.dom(&f).idom(BlockId(3)), Some(BlockId(0)));
        // A cached query answers for the state it was computed on, even
        // after the function changes underneath it...
        let mut g = f.clone();
        g.blocks[0].term = Term::Goto(BlockId(1)); // the else arm is cut off
        assert!(cx.dom(&g).is_reachable(BlockId(2)));
        assert_eq!(cx.dom(&g).idom(BlockId(3)), Some(BlockId(0)));
        // ...until the context is dropped.
        cx.invalidate();
        assert!(!cx.dom(&g).is_reachable(BlockId(2)), "{g}");
        assert_eq!(cx.dom(&g).idom(BlockId(3)), Some(BlockId(1)), "{g}");
        assert_eq!(cx.preds(&g)[1], vec![BlockId(0)]);
    }

    #[test]
    fn sccp_folds_through_the_branch_a_constant_decides() {
        // x = 1; if x { y = 2 } else { y = 3 }; z = y + 4; return z.
        // The φ for y meets only the arguments of executable edges, and
        // the else edge never executes: sccp must prove y = 2 and fold z
        // to 6 in one run, not only fold the branch.
        let mut f = MirFunction {
            name: "s".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(0),
                        value: 1,
                    }],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 3,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![
                        Inst::Const {
                            dst: VReg(2),
                            value: 4,
                        },
                        Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(3),
                            lhs: VReg(1),
                            rhs: VReg(2),
                        },
                    ],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        ssa::construct(&mut f);
        assert!(sccp(&mut f, &mut AnalysisCtx::new(&md())));
        // The never-executable else block is gone; the φ collapsed.
        assert!(f.blocks.len() <= 3, "{f}");
        let folded: Vec<i32> = f
            .block_ids()
            .flat_map(|b| f.block(b).insts.clone())
            .filter_map(|i| match i {
                Inst::Const { value, .. } => Some(value),
                _ => None,
            })
            .collect();
        assert!(folded.contains(&6), "z must fold to 6: {f}");
        // No conditional terminator survives.
        for b in f.block_ids() {
            assert!(
                matches!(f.block(b).term, Term::Goto(_) | Term::Ret(_)),
                "{f}"
            );
        }
        // Idempotent: a second run reports no change.
        assert!(!sccp(&mut f, &mut AnalysisCtx::new(&md())), "{f}");
    }

    #[test]
    fn sccp_keeps_values_that_merge_differently() {
        // Both arms reachable from an unknown param: the φ must stay ⊥.
        let mut f = MirFunction {
            name: "m".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 3,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        ssa::construct(&mut f);
        assert!(
            !sccp(&mut f, &mut AnalysisCtx::new(&md())),
            "nothing is provably constant: {f}"
        );
        assert_eq!(f.blocks.len(), 4, "no block may be removed: {f}");
    }

    #[test]
    fn coalesce_copies_cleans_destruct_residue() {
        // The staged parallel copy destruct emits: t = src; dst = t.
        let mut f = MirFunction {
            name: "c".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Const {
                        dst: VReg(1),
                        value: 3,
                    },
                    Inst::Copy {
                        dst: VReg(2),
                        src: VReg(1),
                    },
                    Inst::Copy {
                        dst: VReg(3),
                        src: VReg(2),
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(4),
                        lhs: VReg(3),
                        rhs: VReg(0),
                    },
                ],
                term: Term::Ret(Some(VReg(4))),
            }],
            next_vreg: 5,
        };
        assert!(coalesce_copies(&mut f, &mut AnalysisCtx::new(&md())));
        assert!(
            !f.blocks[0]
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Copy { .. })),
            "both copies disappear: {f}"
        );
        assert_eq!(f.blocks[0].insts.len(), 2, "{f}");
    }

    #[test]
    fn coalesce_copies_preserves_swap_semantics() {
        // t1 = x; t2 = y; x = t2; y = t1 — the parallel-copy swap. The
        // pass must not break it (x gets old y, y gets old x).
        let mut f = MirFunction {
            name: "swap".into(),
            params: 2,
            returns_value: false,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Copy {
                        dst: VReg(2),
                        src: VReg(0),
                    },
                    Inst::Copy {
                        dst: VReg(3),
                        src: VReg(1),
                    },
                    Inst::Copy {
                        dst: VReg(0),
                        src: VReg(3),
                    },
                    Inst::Copy {
                        dst: VReg(1),
                        src: VReg(2),
                    },
                    // Observe both.
                    Inst::CallExtern {
                        dst: None,
                        ext: 0,
                        args: vec![VReg(0), VReg(1)],
                    },
                ],
                term: Term::Ret(None),
            }],
            next_vreg: 4,
        };
        assert!(coalesce_copies(&mut f, &mut AnalysisCtx::new(&md())));
        // Semantics: find the extern call and check its args trace back
        // to the swapped sources via the remaining copies.
        let insts = &f.blocks[0].insts;
        let call = insts
            .iter()
            .find(|i| matches!(i, Inst::CallExtern { .. }))
            .expect("call kept");
        let Inst::CallExtern { args, .. } = call else {
            unreachable!()
        };
        // Simulate the block to validate the swap survived.
        let mut env: BTreeMap<VReg, i32> = BTreeMap::from([(VReg(0), 100), (VReg(1), 200)]);
        for inst in insts {
            match inst {
                Inst::Copy { dst, src } => {
                    let v = env[src];
                    env.insert(*dst, v);
                }
                Inst::CallExtern { .. } => break,
                _ => {}
            }
        }
        assert_eq!(env[&args[0]], 200, "x must hold old y: {f}");
        assert_eq!(env[&args[1]], 100, "y must hold old x: {f}");
    }

    #[test]
    fn merge_return_blocks_crossjumps_identical_exits() {
        // Two `return 0` blocks differing only in their local register
        // numbering must merge; the distinct `return 1` must not.
        let mut f = MirFunction {
            name: "xj".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 0,
                    }],
                    term: Term::Ret(Some(VReg(1))),
                },
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(3),
                        else_block: BlockId(4),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(2),
                        value: 0,
                    }],
                    term: Term::Ret(Some(VReg(2))),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(3),
                        value: 1,
                    }],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        assert!(merge_return_blocks(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(f.blocks.len(), 4, "one duplicate exit gone: {f}");
        let ret_zero = f
            .block_ids()
            .filter(|b| {
                f.block(*b)
                    .insts
                    .iter()
                    .any(|i| matches!(i, Inst::Const { value: 0, .. }))
                    && matches!(f.block(*b).term, Term::Ret(_))
            })
            .count();
        assert_eq!(ret_zero, 1, "{f}");
        // A block returning a *live-in* register must not merge with one
        // returning a local constant.
        assert!(
            !merge_return_blocks(&mut f, &mut AnalysisCtx::new(&md())),
            "idempotent: {f}"
        );
    }

    #[test]
    fn merge_return_blocks_distinguishes_redefined_registers() {
        // Regression: canonical ids must come from a monotonic counter.
        // With `local.len()` as the id source, a redefinition keeps the
        // map size flat, so the next register collides: these two blocks
        // would canonicalize identically and merge — returning 1 where 5
        // was meant.
        let ret_block = |ret_reg: u32| Block {
            insts: vec![
                Inst::Const {
                    dst: VReg(1),
                    value: 0,
                },
                Inst::Const {
                    dst: VReg(1),
                    value: 1,
                },
                Inst::Const {
                    dst: VReg(2),
                    value: 5,
                },
            ],
            term: Term::Ret(Some(VReg(ret_reg))),
        };
        let mut f = MirFunction {
            name: "redef".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                ret_block(1), // returns 1
                ret_block(2), // returns 5
            ],
            next_vreg: 3,
        };
        assert!(
            !merge_return_blocks(&mut f, &mut AnalysisCtx::new(&md())),
            "blocks returning different values must not merge: {f}"
        );
        assert_eq!(f.blocks.len(), 3);
    }

    #[test]
    fn merge_return_blocks_keeps_livein_distinctions() {
        // return v0  vs  return v1 (both live-in): different code, no
        // merge even though the shapes match.
        let mut f = MirFunction {
            name: "li".into(),
            params: 2,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(0))),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        assert!(
            !merge_return_blocks(&mut f, &mut AnalysisCtx::new(&md())),
            "{f}"
        );
        assert_eq!(f.blocks.len(), 3);
    }

    #[test]
    fn o1_coalesces_destruct_residue_once() {
        // The φ example needs the construct/destruct round trip; -O1 has
        // no copy propagation, so the coalescer after destruct must clean
        // the copy residue — once, as the function goes through SSA once.
        let mut f = MirFunction {
            name: "o1".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 0,
                    }],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 1,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        let mut pm = PassManager::for_level(OptLevel::O1);
        pm.run_function(&mut f, &md());
        let stats = pm.stats();
        let cc = stats.get(pass::COPY_COALESCE).expect("coalesce ran");
        assert_eq!(cc.runs, 1, "{stats:?}");
        // No copy-of-copy chains survive at -O1 any more.
        for b in f.block_ids() {
            let copies = f
                .block(b)
                .insts
                .iter()
                .filter(|i| matches!(i, Inst::Copy { .. }))
                .count();
            assert!(copies <= 1, "destruct residue must be coalesced: {f}");
        }
    }

    #[test]
    fn o1_folds_what_only_conditional_propagation_proves() {
        // i = 1; do { if i != 1 { i = 2 } } while p; return i.
        // The loop header's φ for i meets the join's, and the join's meets
        // the `i = 2` arm: a fold meeting every φ argument proves neither
        // constant. -O1's constant pass must see that the arm never
        // executes, prove i = 1 everywhere and drop the arm.
        let mut f = MirFunction {
            name: "loop".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 1,
                    }],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::Const {
                            dst: VReg(2),
                            value: 1,
                        },
                        Inst::Bin {
                            op: BinOp::Ne,
                            dst: VReg(3),
                            lhs: VReg(1),
                            rhs: VReg(2),
                        },
                    ],
                    term: Term::Br {
                        cond: VReg(3),
                        then_block: BlockId(2),
                        else_block: BlockId(3),
                    },
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(4),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 4,
        };
        PassManager::for_level(OptLevel::O1).run_function(&mut f, &md());
        for inst in f.blocks.iter().flat_map(|b| &b.insts) {
            assert!(
                !matches!(inst, Inst::Bin { .. } | Inst::Const { value: 2, .. }),
                "{f}"
            );
        }
    }

    #[test]
    fn run_pipeline_records_program_passes() {
        let mut p = inline_program();
        let stats = run_pipeline(&mut p, OptLevel::O2);
        assert_eq!(stats.get(pass::INLINE).map(|s| s.changes), Some(1));
        assert_eq!(stats.get(pass::DEAD_FN_ELIM).map(|s| s.changes), Some(1));
        assert!(stats.get(pass::SIMPLIFY_CFG).is_some());
        assert!(!run_pipeline(&mut p.clone(), OptLevel::O0)
            .passes()
            .iter()
            .any(|s| s.runs > 0));
    }

    #[test]
    fn dce_sweeps_dead_phi_cycle() {
        // Regression: a self-sustaining dead φ-cycle. v8/v9 form a
        // loop-carried accumulator whose only users are each other, so
        // the old use-count sweep ("used anywhere") never retired them.
        // The live countdown v3/v4 drives the loop and must survive.
        let mut f = MirFunction {
            name: "phi_cycle".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Const {
                            dst: VReg(0),
                            value: 1,
                        },
                        Inst::Const {
                            dst: VReg(1),
                            value: 0,
                        },
                        Inst::Const {
                            dst: VReg(2),
                            value: 5,
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::Phi {
                            dst: VReg(3),
                            args: vec![(BlockId(0), VReg(2)), (BlockId(2), VReg(4))],
                        },
                        Inst::Phi {
                            dst: VReg(8),
                            args: vec![(BlockId(0), VReg(1)), (BlockId(2), VReg(9))],
                        },
                        Inst::Bin {
                            op: BinOp::Gt,
                            dst: VReg(5),
                            lhs: VReg(3),
                            rhs: VReg(1),
                        },
                    ],
                    term: Term::Br {
                        cond: VReg(5),
                        then_block: BlockId(2),
                        else_block: BlockId(3),
                    },
                },
                Block {
                    insts: vec![
                        Inst::Bin {
                            op: BinOp::Sub,
                            dst: VReg(4),
                            lhs: VReg(3),
                            rhs: VReg(0),
                        },
                        Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(9),
                            lhs: VReg(8),
                            rhs: VReg(0),
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 10,
        };
        assert!(
            dead_code_elim(&mut f, &mut AnalysisCtx::new(&md())),
            "the cycle must be swept"
        );
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                let d = inst.def();
                assert!(
                    d != Some(VReg(8)) && d != Some(VReg(9)),
                    "dead φ-cycle survived: {f}"
                );
            }
        }
        // The live countdown is untouched and the pass is idempotent.
        assert!(f.blocks[1]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Phi { dst, .. } if *dst == VReg(3))));
        assert!(!dead_code_elim(&mut f, &mut AnalysisCtx::new(&md())), "{f}");
    }

    /// `store [Addr(0,0)] = v0; loads…` scaffolding for the memory-pass
    /// tests: one block, externs keep results observable.
    fn mem_fn(insts: Vec<Inst>, next_vreg: u32) -> MirFunction {
        MirFunction {
            name: "mem".into(),
            params: 1,
            returns_value: false,
            exported: true,
            blocks: vec![Block {
                insts,
                term: Term::Ret(None),
            }],
            next_vreg,
        }
    }

    /// The arguments of the last extern call in block 0.
    fn last_extern_args(f: &MirFunction) -> &[VReg] {
        f.blocks[0]
            .insts
            .iter()
            .rev()
            .find_map(|i| match i {
                Inst::CallExtern { args, .. } => Some(&args[..]),
                _ => None,
            })
            .expect("an extern call")
    }

    #[test]
    fn cross_block_forward_forwards_and_dedups_in_a_block() {
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Addr {
                    dst: VReg(2),
                    global: 0,
                    offset: 4,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
                // Same cell: forwards the stored value.
                Inst::Load {
                    dst: VReg(3),
                    addr: VReg(1),
                },
                // Disjoint cell (same global, other offset): first load
                // is the oracle, second is redundant.
                Inst::Load {
                    dst: VReg(4),
                    addr: VReg(2),
                },
                Inst::Load {
                    dst: VReg(5),
                    addr: VReg(2),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(3), VReg(4), VReg(5)],
                },
            ],
            6,
        );
        assert!(cross_block_forward(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(count_loads(&f), 1, "only the first load of g0+4 stays: {f}");
        assert_eq!(
            last_extern_args(&f),
            &[VReg(0), VReg(4), VReg(4)],
            "uses read the stored value and the first load: {f}"
        );
    }

    #[test]
    fn cross_block_forward_clobbers_on_calls_but_not_externs() {
        let build = |clobber: Inst| {
            mem_fn(
                vec![
                    Inst::Addr {
                        dst: VReg(1),
                        global: 0,
                        offset: 0,
                    },
                    Inst::Store {
                        addr: VReg(1),
                        src: VReg(0),
                    },
                    clobber,
                    Inst::Load {
                        dst: VReg(3),
                        addr: VReg(1),
                    },
                    Inst::CallExtern {
                        dst: None,
                        ext: 0,
                        args: vec![VReg(3)],
                    },
                ],
                4,
            )
        };
        // A direct call may store anywhere mutable: no forwarding.
        let mut with_call = build(Inst::Call {
            dst: None,
            func: 1,
            args: vec![],
        });
        assert!(
            !cross_block_forward(&mut with_call, &mut AnalysisCtx::new(&md())),
            "{with_call}"
        );
        assert_eq!(count_loads(&with_call), 1, "{with_call}");
        // An extern passes registers only: the cell survives.
        let mut with_ext = build(Inst::CallExtern {
            dst: None,
            ext: 0,
            args: vec![],
        });
        assert!(
            cross_block_forward(&mut with_ext, &mut AnalysisCtx::new(&md())),
            "{with_ext}"
        );
        assert_eq!(count_loads(&with_ext), 0, "{with_ext}");
        assert_eq!(last_extern_args(&with_ext), &[VReg(0)], "{with_ext}");
    }

    #[test]
    fn cross_block_forward_rodata_survives_calls() {
        let program = Program {
            functions: vec![],
            globals: vec![GlobalData {
                name: "tbl".into(),
                size: 4,
                words: vec![Word::Int(7)],
                mutable: false,
            }],
            externs: vec![],
        };
        let model = mem::MemoryModel::of(&program);
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Load {
                    dst: VReg(2),
                    addr: VReg(1),
                },
                Inst::Call {
                    dst: None,
                    func: 1,
                    args: vec![],
                },
                Inst::Load {
                    dst: VReg(3),
                    addr: VReg(1),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(2), VReg(3)],
                },
            ],
            4,
        );
        assert!(cross_block_forward(&mut f, &mut AnalysisCtx::new(&model)));
        assert_eq!(count_loads(&f), 1, "{f}");
        assert_eq!(
            last_extern_args(&f),
            &[VReg(2), VReg(2)],
            "rodata cell must survive the call: {f}"
        );
    }

    #[test]
    fn cross_block_forward_base_store_invalidates_its_global_only() {
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                // &g1 + v0: rooted run-time address into global 1.
                Inst::Addr {
                    dst: VReg(2),
                    global: 1,
                    offset: 0,
                },
                Inst::Bin {
                    op: BinOp::Add,
                    dst: VReg(3),
                    lhs: VReg(2),
                    rhs: VReg(0),
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
                Inst::Store {
                    addr: VReg(3),
                    src: VReg(0),
                },
                Inst::Load {
                    dst: VReg(4),
                    addr: VReg(1),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(4)],
                },
            ],
            5,
        );
        // The g1-rooted store cannot touch g0's cell: still forwarded.
        assert!(cross_block_forward(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(count_loads(&f), 0, "{f}");
        assert_eq!(last_extern_args(&f), &[VReg(0)], "{f}");
    }

    #[test]
    fn cross_block_forward_respects_sub_word_overlap() {
        // store [g0+0]; store [g0+2] (partially overwrites bytes 2..4);
        // load [g0+0] must NOT be forwarded: the EM32 word access is
        // byte-addressed, so offsets less than a word apart alias.
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Addr {
                    dst: VReg(2),
                    global: 0,
                    offset: 2,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
                Inst::Store {
                    addr: VReg(2),
                    src: VReg(0),
                },
                Inst::Load {
                    dst: VReg(3),
                    addr: VReg(1),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(3)],
                },
            ],
            4,
        );
        assert!(
            !cross_block_forward(&mut f, &mut AnalysisCtx::new(&md())),
            "sub-word overlapping store must kill the tracked cell: {f}"
        );
        assert_eq!(count_loads(&f), 1, "{f}");
    }

    #[test]
    fn dead_store_elim_respects_sub_word_overlap() {
        // store [g0+0]; load [g0+2] (reads bytes 2..4 of the store);
        // store [g0+0]: the first store is observed, not dead.
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Addr {
                    dst: VReg(2),
                    global: 0,
                    offset: 2,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
                Inst::Load {
                    dst: VReg(3),
                    addr: VReg(2),
                },
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![VReg(3)],
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
            ],
            4,
        );
        assert!(
            !dead_store_elim(&mut f, &mut AnalysisCtx::new(&md())),
            "a partially-read store must survive: {f}"
        );
    }

    #[test]
    fn dead_store_elim_drops_overwritten_unread_stores() {
        let mut f = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Const {
                    dst: VReg(2),
                    value: 7,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(2),
                }, // dead: overwritten below, never read
                Inst::CallExtern {
                    dst: None,
                    ext: 0,
                    args: vec![],
                }, // externs cannot read memory
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
            ],
            3,
        );
        assert!(dead_store_elim(&mut f, &mut AnalysisCtx::new(&md())));
        let stores = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Store { .. }))
            .count();
        assert_eq!(stores, 1, "{f}");
        assert!(
            !dead_store_elim(&mut f, &mut AnalysisCtx::new(&md())),
            "idempotent: {f}"
        );
    }

    #[test]
    fn dead_store_elim_keeps_stores_that_may_be_read() {
        let reader = |r: Inst| {
            mem_fn(
                vec![
                    Inst::Addr {
                        dst: VReg(1),
                        global: 0,
                        offset: 0,
                    },
                    Inst::Store {
                        addr: VReg(1),
                        src: VReg(0),
                    },
                    r,
                    Inst::Store {
                        addr: VReg(1),
                        src: VReg(0),
                    },
                ],
                8,
            )
        };
        // A call may read the cell; a load of the same cell does read it.
        for r in [
            Inst::Call {
                dst: None,
                func: 1,
                args: vec![],
            },
            Inst::Load {
                dst: VReg(7),
                addr: VReg(1),
            },
        ] {
            let mut f = reader(r);
            assert!(
                !dead_store_elim(&mut f, &mut AnalysisCtx::new(&md())),
                "{f}"
            );
        }
        // The final store of a block is never dead (memory escapes).
        let mut tail = mem_fn(
            vec![
                Inst::Addr {
                    dst: VReg(1),
                    global: 0,
                    offset: 0,
                },
                Inst::Store {
                    addr: VReg(1),
                    src: VReg(0),
                },
            ],
            2,
        );
        assert!(!dead_store_elim(&mut tail, &mut AnalysisCtx::new(&md())));
    }

    /// bb0: Br v0 → bb1 | bb2; each arm forms `&g0` and stores a constant
    /// to it (or not), and both join in bb3, which loads the cell.
    fn diamond_mem_fn(store_then: Option<i32>, store_else: Option<i32>) -> MirFunction {
        let store_arm = |value: Option<i32>, base: u32| {
            let mut insts = vec![Inst::Addr {
                dst: VReg(base),
                global: 0,
                offset: 0,
            }];
            if let Some(v) = value {
                insts.push(Inst::Const {
                    dst: VReg(base + 1),
                    value: v,
                });
                insts.push(Inst::Store {
                    addr: VReg(base),
                    src: VReg(base + 1),
                });
            }
            insts
        };
        MirFunction {
            name: "diamond".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: store_arm(store_then, 1),
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: store_arm(store_else, 4),
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(7),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Load {
                            dst: VReg(8),
                            addr: VReg(7),
                        },
                    ],
                    term: Term::Ret(Some(VReg(8))),
                },
            ],
            next_vreg: 9,
        }
    }

    fn count_loads(f: &MirFunction) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count()
    }

    fn count_phis(f: &MirFunction) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Phi { .. }))
            .count()
    }

    #[test]
    fn avail_loads_flows_availability_and_kills_at_joins() {
        let f = diamond_mem_fn(Some(1), None);
        let model = md();
        let mut cx = AnalysisCtx::new(&model);
        let avail = cx.cross_block(&f).expect("the diamond stores").avail;
        let cell = avail.universe().index((0, 0)).expect("tracked cell");
        // Stored on the then-arm only: available at its exit, not at the
        // else-arm's, so the join entry set is empty.
        let at_exit = |b| avail.effects(b).flow(avail.on_entry(b));
        assert!(at_exit(BlockId(1)).contains(cell));
        assert!(!at_exit(BlockId(2)).contains(cell));
        assert!(!avail.on_entry(BlockId(3)).contains(cell));
        // Stored on both arms: available on join entry.
        let f2 = diamond_mem_fn(Some(1), Some(2));
        let mut cx2 = AnalysisCtx::new(&model);
        let avail2 = cx2.cross_block(&f2).expect("the diamond stores").avail;
        assert!(avail2.on_entry(BlockId(3)).contains(cell));
    }

    #[test]
    fn empty_cell_universe_leaves_nothing_available() {
        let f = const_add_fn();
        let model = md();
        let mut cx = AnalysisCtx::new(&model);
        assert!(mem::cell_universe(&f, cx.addrs(&f)).is_empty());
        assert!(cx.cross_block(&f).is_none(), "no cell, no dataflow");
        assert!(!cross_block_forward(&mut f.clone(), &mut cx));
    }

    #[test]
    fn cross_block_forward_deletes_load_on_straight_line() {
        // store in bb0, load in bb1 (straight line): the load is deleted
        // and the return uses the stored value directly.
        let mut f = MirFunction {
            name: "line".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(1),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Store {
                            addr: VReg(1),
                            src: VReg(0),
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(2),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Load {
                            dst: VReg(3),
                            addr: VReg(2),
                        },
                    ],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        assert!(cross_block_forward(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(count_loads(&f), 0, "{f}");
        assert_eq!(count_phis(&f), 0, "straight line needs no phi: {f}");
        assert_eq!(f.blocks[1].term, Term::Ret(Some(VReg(0))), "{f}");
    }

    #[test]
    fn cross_block_forward_merges_diamond_values_with_phi() {
        let mut f = diamond_mem_fn(Some(1), Some(2));
        assert!(cross_block_forward(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(count_loads(&f), 0, "{f}");
        assert_eq!(count_phis(&f), 1, "differing arm values need a phi: {f}");
        let Some(Inst::Phi { dst, args }) = f.blocks[3].insts.first() else {
            panic!("phi must sit at the join head: {f}");
        };
        assert_eq!(args.len(), 2, "{f}");
        assert_eq!(f.blocks[3].term, Term::Ret(Some(*dst)), "{f}");
    }

    #[test]
    fn cross_block_forward_collapses_loop_transparent_value_without_phi() {
        // store in bb0, load in the loop header bb1 whose body never
        // writes the cell: the back-edge value is the entry value, so the
        // loop phi is trivial and the load forwards straight to v0.
        let mut f = MirFunction {
            name: "looped".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(1),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Store {
                            addr: VReg(1),
                            src: VReg(0),
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(2),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Load {
                            dst: VReg(3),
                            addr: VReg(2),
                        },
                    ],
                    term: Term::Br {
                        cond: VReg(3),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        assert!(cross_block_forward(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(count_loads(&f), 0, "{f}");
        assert_eq!(count_phis(&f), 0, "trivial loop phi must collapse: {f}");
        assert_eq!(f.blocks[2].term, Term::Ret(Some(VReg(0))), "{f}");
    }

    #[test]
    fn cross_block_forward_respects_call_clobbers() {
        // store in bb0, call in bb0, load in bb1: the call may overwrite
        // the (mutable-by-default) cell, so the load must stay.
        let mut f = MirFunction {
            name: "clob".into(),
            params: 1,
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(1),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Store {
                            addr: VReg(1),
                            src: VReg(0),
                        },
                        Inst::Call {
                            dst: None,
                            func: 0,
                            args: vec![],
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::Addr {
                            dst: VReg(2),
                            global: 0,
                            offset: 0,
                        },
                        Inst::Load {
                            dst: VReg(3),
                            addr: VReg(2),
                        },
                    ],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        };
        assert!(!cross_block_forward(&mut f, &mut AnalysisCtx::new(&md())));
        assert_eq!(count_loads(&f), 1, "{f}");
    }
}
