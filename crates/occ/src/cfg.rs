//! Control-flow-graph analyses: predecessors, reverse postorder,
//! dominators, dominance frontiers, liveness.
//!
//! Dominators use the iterative algorithm of Cooper, Harvey & Kennedy;
//! frontiers follow Cytron et al., feeding φ-placement in [`crate::ssa`].
//!
//! # Representation
//!
//! Every analysis is dense: indexed by block number, never keyed through
//! an ordered map. Predecessor lists are a `Vec` per block, reachability
//! is a [`BitSet`] over block numbers, [`Liveness`] is a
//! pair of [`BitMatrix`]es (a row of register bits per block), and the
//! [`DomTree`] stores immediate dominators, tree children and a preorder
//! numbering in flat arrays, so a dominance query is two comparisons
//! rather than a walk up the tree. Lists come out in ascending block
//! order wherever their order is not otherwise defined (tree children,
//! frontier members), so clients iterate exactly as they would an ordered
//! set. The mid-end computes each of these at most once per function
//! state and shares them between passes (see the "Analyses" section of
//! [`crate::opt`]).
//!
//! ```
//! use occ::cfg::{self, DomTree};
//! use occ::mir::{Block, BlockId, MirFunction, Term, VReg};
//!
//! // bb0 → bb1 ⇄ bb2, bb1 → bb3: a cycle entered at bb1.
//! let block = |term| Block { insts: vec![], term };
//! let f = MirFunction {
//!     name: "demo".into(),
//!     params: 1,
//!     returns_value: false,
//!     exported: true,
//!     blocks: vec![
//!         block(Term::Goto(BlockId(1))),
//!         block(Term::Br { cond: VReg(0), then_block: BlockId(2), else_block: BlockId(3) }),
//!         block(Term::Goto(BlockId(1))),
//!         block(Term::Ret(None)),
//!     ],
//!     next_vreg: 1,
//! };
//! let preds = cfg::predecessors(&f);
//! let dom = DomTree::compute(&f, &preds);
//! assert_eq!(dom.idom(BlockId(3)), Some(BlockId(1)));
//! assert!(dom.dominates(BlockId(1), BlockId(2)));
//! assert!(!dom.dominates(BlockId(2), BlockId(3)));
//! assert_eq!(cfg::dominance_frontiers(&dom, &preds)[2], vec![BlockId(1)]);
//! ```

use crate::bitset::{BitMatrix, BitSet};
use crate::mir::{BlockId, MirFunction, Term, VReg};

/// Marks an unreachable block in the dense dominator arrays.
const NONE: u32 = u32::MAX;

/// Predecessor lists for every block (one entry per CFG edge, so a block
/// reached twice from one `Br` or `Switch` lists that predecessor twice).
pub fn predecessors(f: &MirFunction) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        for s in f.block(b).term.succs() {
            preds[s.0 as usize].push(b);
        }
    }
    preds
}

/// Blocks reachable from the entry, as a set of block numbers.
pub fn reachable(f: &MirFunction) -> BitSet {
    let mut seen = BitSet::new(f.blocks.len());
    let mut stack = vec![BlockId(0)];
    while let Some(b) = stack.pop() {
        if !seen.insert(b.0 as usize) {
            continue;
        }
        for s in f.block(b).term.succs() {
            stack.push(s);
        }
    }
    seen
}

/// Reverse postorder over reachable blocks (entry first).
pub fn reverse_postorder(f: &MirFunction) -> Vec<BlockId> {
    let mut visited = vec![false; f.blocks.len()];
    let mut post = Vec::new();
    // Iterative DFS with an explicit stack of (block, next-successor).
    let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
    visited[0] = true;
    while let Some((b, i)) = stack.pop() {
        if let Some(s) = nth_succ(&f.block(b).term, i) {
            stack.push((b, i + 1));
            if !std::mem::replace(&mut visited[s.0 as usize], true) {
                stack.push((s, 0));
            }
        } else {
            post.push(b);
        }
    }
    post.reverse();
    post
}

/// `term.succs()[i]`, without building the list.
fn nth_succ(term: &Term, i: usize) -> Option<BlockId> {
    match term {
        Term::Goto(b) => (i == 0).then_some(*b),
        Term::Br {
            then_block,
            else_block,
            ..
        } => [*then_block, *else_block].get(i).copied(),
        Term::Switch { cases, default, .. } => match cases.get(i) {
            Some((_, t)) => Some(*t),
            None => (i == cases.len()).then_some(*default),
        },
        Term::Ret(_) => None,
    }
}

/// The dominator tree of one function, in flat per-block arrays: the
/// immediate dominators, the tree's children lists, its preorder, and a
/// preorder numbering with subtree sizes that answers [`DomTree::dominates`]
/// in constant time. Reachability falls out of it too: a block is
/// reachable iff it has a place in the tree. This is the query surface
/// the [`crate::verify`] SSA tier, SSA construction and the
/// dominator-scoped passes of [`crate::opt`] are built on.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block; the entry is its own, unreachable
    /// blocks hold [`NONE`].
    idom: Vec<u32>,
    rpo: Vec<BlockId>,
    children: Vec<Vec<BlockId>>,
    preorder: Vec<BlockId>,
    /// Position in `preorder`, or [`NONE`] for an unreachable block.
    pre: Vec<u32>,
    /// Number of blocks in the subtree rooted at the block.
    size: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree of `f` from scratch.
    pub fn of(f: &MirFunction) -> DomTree {
        DomTree::compute(f, &predecessors(f))
    }

    /// Computes the dominator tree of `f` given its [`predecessors`]
    /// (Cooper, Harvey & Kennedy's iteration over reverse postorder).
    pub fn compute(f: &MirFunction, preds: &[Vec<BlockId>]) -> DomTree {
        let n = f.blocks.len();
        let rpo = reverse_postorder(f);
        let mut order = vec![NONE; n];
        for (i, b) in rpo.iter().enumerate() {
            order[b.0 as usize] = i as u32;
        }
        let mut idom = vec![NONE; n];
        idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = NONE;
                for &p in &preds[b.0 as usize] {
                    let p = p.0;
                    if order[p as usize] == NONE || idom[p as usize] == NONE {
                        continue;
                    }
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        intersect(p, new_idom, &idom, &order)
                    };
                }
                if new_idom != NONE && idom[b.0 as usize] != new_idom {
                    idom[b.0 as usize] = new_idom;
                    changed = true;
                }
            }
        }
        // Children in ascending block order, then a preorder walk that
        // visits them in that order.
        let mut children = vec![Vec::new(); n];
        for (b, &d) in idom.iter().enumerate().skip(1) {
            if d != NONE {
                children[d as usize].push(BlockId(b as u32));
            }
        }
        let mut preorder = Vec::with_capacity(rpo.len());
        let mut pre = vec![NONE; n];
        let mut stack = vec![BlockId(0)];
        while let Some(b) = stack.pop() {
            pre[b.0 as usize] = preorder.len() as u32;
            preorder.push(b);
            // Reversed push so children are visited in ascending order.
            stack.extend(children[b.0 as usize].iter().rev().copied());
        }
        let mut size = vec![1u32; n];
        for &b in preorder.iter().rev() {
            let d = idom[b.0 as usize];
            if b.0 != 0 {
                size[d as usize] += size[b.0 as usize];
            }
        }
        DomTree {
            idom,
            rpo,
            children,
            preorder,
            pre,
            size,
        }
    }

    /// The immediate dominator of `b`; `None` for the entry block and for
    /// unreachable blocks.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.0 as usize] {
            d if d == NONE || b.0 == 0 => None,
            d => Some(BlockId(d)),
        }
    }

    /// Reachable blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// The blocks `b` immediately dominates, in ascending order.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.0 as usize]
    }

    /// Reachable blocks in dominator-tree preorder (entry first, children
    /// in ascending order): every block appears after everything that
    /// dominates it, which is the iteration order dominator-scoped
    /// rewrites want — when a block is visited, facts established in its
    /// dominators are already in place.
    pub fn preorder(&self) -> &[BlockId] {
        &self.preorder
    }

    /// `true` if `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.pre[b.0 as usize] != NONE
    }

    /// `true` if `a` dominates `b` (reflexive; `false` whenever either
    /// block is unreachable).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (pa, pb) = (self.pre[a.0 as usize], self.pre[b.0 as usize]);
        pa != NONE && pb != NONE && pa <= pb && pb < pa + self.size[a.0 as usize]
    }

    /// `true` if `a` strictly dominates `b` (dominates it and differs).
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }
}

fn intersect(mut a: u32, mut b: u32, idom: &[u32], order: &[u32]) -> u32 {
    while a != b {
        while order[a as usize] > order[b as usize] {
            a = idom[a as usize];
        }
        while order[b as usize] > order[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

/// Dominance frontiers (Cytron et al.), per block in ascending order.
/// Unreachable blocks have empty frontiers and appear in none. The entry
/// block has no predecessors in well-formed MIR (the [`crate::verify`]
/// `entry-has-pred` rule); an edge into it is ignored here.
pub fn dominance_frontiers(dom: &DomTree, preds: &[Vec<BlockId>]) -> Vec<Vec<BlockId>> {
    let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); preds.len()];
    for (bi, bp) in preds.iter().enumerate() {
        let b = BlockId(bi as u32);
        if !dom.is_reachable(b) {
            continue;
        }
        let bp: Vec<BlockId> = bp
            .iter()
            .copied()
            .filter(|p| dom.is_reachable(*p))
            .collect();
        if bp.len() < 2 {
            continue;
        }
        let stop = dom.idom[bi];
        for p in bp {
            let mut runner = p.0;
            while runner != stop {
                let members = &mut df[runner as usize];
                if members.last() != Some(&b) {
                    members.push(b);
                }
                runner = dom.idom[runner as usize];
            }
        }
    }
    df
}

/// Per-block live-in/live-out sets of virtual registers: row `b` of each
/// [`BitMatrix`] is block `b`'s set over register numbers, so the whole
/// function's liveness is two allocations however many blocks it has.
///
/// ```
/// use occ::cfg;
/// use occ::mir::{BinOp, Block, BlockId, Inst, MirFunction, Term, VReg};
///
/// // bb0: v1 = 0; goto bb1
/// // bb1: v1 = v1 + v0; br v1 ? bb1 : bb2     (a loop carrying v1)
/// // bb2: ret v1
/// let f = MirFunction {
///     name: "sum".into(),
///     params: 1,
///     returns_value: true,
///     exported: true,
///     blocks: vec![
///         Block {
///             insts: vec![Inst::Const { dst: VReg(1), value: 0 }],
///             term: Term::Goto(BlockId(1)),
///         },
///         Block {
///             insts: vec![Inst::Bin { op: BinOp::Add, dst: VReg(1), lhs: VReg(1), rhs: VReg(0) }],
///             term: Term::Br { cond: VReg(1), then_block: BlockId(1), else_block: BlockId(2) },
///         },
///         Block { insts: vec![], term: Term::Ret(Some(VReg(1))) },
///     ],
///     next_vreg: 2,
/// };
/// let live = cfg::liveness(&f);
/// assert_eq!(live.live_in.iter(0).collect::<Vec<_>>(), vec![0]);
/// assert_eq!(live.live_in.iter(1).collect::<Vec<_>>(), vec![0, 1]);
/// assert_eq!(live.live_out.iter(1).collect::<Vec<_>>(), vec![0, 1]);
/// assert!(live.live_in.contains(2, 1) && !live.live_in.contains(2, 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    /// Registers live on entry of each block (row per block).
    pub live_in: BitMatrix,
    /// Registers live on exit of each block (row per block).
    pub live_out: BitMatrix,
}

/// The per-block inputs of [`solve_liveness`] over register numbers
/// `0..domain`, gathered one register access at a time in execution
/// order: upward-exposed uses (read before any write in the block) and
/// definitions.
#[derive(Debug, Clone)]
pub struct BlockSets {
    /// Row `b`: registers read in block `b` before any write to them there.
    pub uses: BitMatrix,
    /// Row `b`: registers written in block `b`.
    pub defs: BitMatrix,
    /// Smallest domain covering every register noted so far.
    needed: usize,
}

impl BlockSets {
    /// Empty sets for `blocks` blocks over registers `0..domain`.
    pub fn new(blocks: usize, domain: usize) -> BlockSets {
        BlockSets {
            uses: BitMatrix::new(blocks, domain),
            defs: BitMatrix::new(blocks, domain),
            needed: domain,
        }
    }

    /// Notes a read of `v` in block `b`.
    pub fn read(&mut self, b: usize, v: VReg) {
        let i = v.0 as usize;
        if i >= self.uses.domain() {
            self.needed = self.needed.max(i + 1);
        } else if !self.defs.contains(b, i) {
            self.uses.insert(b, i);
        }
    }

    /// Notes a write of `v` in block `b`.
    pub fn write(&mut self, b: usize, v: VReg) {
        let i = v.0 as usize;
        if i >= self.defs.domain() {
            self.needed = self.needed.max(i + 1);
        } else {
            self.defs.insert(b, i);
        }
    }

    /// `Some(domain)` if a noted register lay outside the domain: the
    /// sets are incomplete and must be gathered again over the wider
    /// domain returned. Well-formed code never needs this (the
    /// [`crate::verify`] `vreg-out-of-range` rule); it keeps malformed
    /// code from panicking.
    pub fn widened(&self) -> Option<usize> {
        (self.needed > self.uses.domain()).then_some(self.needed)
    }
}

/// Successor block numbers of `term`, in [`Term::succs`] order, without
/// building the list.
fn succ_indices(term: &Term) -> impl Iterator<Item = usize> + '_ {
    (0..).map_while(move |i| nth_succ(term, i).map(|b| b.0 as usize))
}

/// Classic backward dataflow liveness over the MIR CFG, over registers
/// `0..next_vreg` (widened to cover any register beyond it).
pub fn liveness(f: &MirFunction) -> Liveness {
    let mut domain = f.next_vreg as usize;
    loop {
        let mut sets = BlockSets::new(f.blocks.len(), domain);
        for (b, block) in f.blocks.iter().enumerate() {
            for inst in &block.insts {
                for u in inst.uses() {
                    sets.read(b, u);
                }
                if let Some(d) = inst.def() {
                    sets.write(b, d);
                }
            }
            for u in block.term.uses() {
                sets.read(b, u);
            }
        }
        match sets.widened() {
            Some(wider) => domain = wider,
            None => return solve_liveness(|b| succ_indices(&f.blocks[b].term), &sets),
        }
    }
}

/// Backward dataflow liveness over an arbitrary graph of indexed blocks:
/// the least fixed point of `in(b) = uses(b) ∪ (out(b) ∖ defs(b))` and
/// `out(b) = ⋃ in(s)` over the successors `succs(b)`. The rows of the
/// result are updated in place, sweeping the blocks in reverse until
/// nothing changes.
///
/// The MIR-level [`liveness`] and the backend's virtual-register
/// allocator both solve their fixpoints through this: the allocator
/// needs liveness at `VCode` granularity — where call pseudo-ops carry
/// operand lists and blocks are in lowering order — which has no
/// `MirFunction` to hand.
///
/// ```
/// use occ::cfg::{self, BlockSets};
/// use occ::mir::VReg;
///
/// // 0 → 1 ⇄ 2, 1 → 3. Block 0 defines v0; block 2 reads v0 and
/// // redefines v1; block 3 reads v1.
/// let succs: [&[usize]; 4] = [&[1], &[2, 3], &[1], &[]];
/// let mut sets = BlockSets::new(4, 2);
/// sets.write(0, VReg(0));
/// sets.read(2, VReg(0));
/// sets.write(2, VReg(1));
/// sets.read(3, VReg(1));
/// let live = cfg::solve_liveness(|b| succs[b].iter().copied(), &sets);
/// assert_eq!(live.live_out.iter(0).collect::<Vec<_>>(), vec![0, 1]);
/// assert_eq!(live.live_in.iter(2).collect::<Vec<_>>(), vec![0]);
/// assert_eq!(live.live_in.iter(1).collect::<Vec<_>>(), vec![0, 1]);
/// assert_eq!(live.live_out.iter(3).count(), 0);
/// ```
pub fn solve_liveness<S: IntoIterator<Item = usize>>(
    succs: impl Fn(usize) -> S,
    sets: &BlockSets,
) -> Liveness {
    let (uses, defs) = (&sets.uses, &sets.defs);
    let (n, domain) = (uses.rows(), uses.domain());
    let mut live_in = BitMatrix::new(n, domain);
    let mut live_out = BitMatrix::new(n, domain);
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            // Every set only grows from the empty start, so each `out`
            // absorbs its successors' current `in` rather than being
            // rebuilt from scratch.
            let out = live_out.row_mut(b);
            for s in succs(b) {
                for (o, i) in out.iter_mut().zip(live_in.row(s)) {
                    *o |= *i;
                }
            }
            let words = uses.row(b).iter().zip(defs.row(b)).zip(live_out.row(b));
            for (inn, ((u, d), o)) in live_in.row_mut(b).iter_mut().zip(words) {
                let w = u | (o & !d);
                if w != *inn {
                    *inn = w;
                    changed = true;
                }
            }
        }
    }
    Liveness { live_in, live_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{BinOp, Block, Inst, MirFunction, Term};

    /// Diamond: bb0 -> bb1 | bb2 -> bb3.
    fn diamond() -> MirFunction {
        MirFunction {
            name: "d".into(),
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
                        value: 1,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(2),
                        value: 2,
                    }],
                    term: Term::Goto(BlockId(3)),
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(3),
                        lhs: VReg(0),
                        rhs: VReg(0),
                    }],
                    term: Term::Ret(Some(VReg(3))),
                },
            ],
            next_vreg: 4,
        }
    }

    #[test]
    fn preds_and_rpo() {
        let f = diamond();
        let preds = predecessors(&f);
        assert_eq!(preds[3], vec![BlockId(1), BlockId(2)]);
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(*rpo.last().expect("nonempty"), BlockId(3));
    }

    #[test]
    fn dominator_tree_of_diamond() {
        let f = diamond();
        let dom = DomTree::of(&f);
        assert_eq!(dom.idom(BlockId(0)), None);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(0)));
        assert_eq!(
            dom.children(BlockId(0)),
            &[BlockId(1), BlockId(2), BlockId(3)]
        );
    }

    #[test]
    fn frontier_of_diamond_is_join() {
        let f = diamond();
        let preds = predecessors(&f);
        let df = dominance_frontiers(&DomTree::compute(&f, &preds), &preds);
        assert_eq!(df[1], vec![BlockId(3)]);
        assert_eq!(df[2], vec![BlockId(3)]);
        assert!(df[0].is_empty() && df[3].is_empty());
    }

    #[test]
    fn liveness_flows_backwards() {
        let f = diamond();
        let lv = liveness(&f);
        // v0 is used in bb3 and bb0, so live-in everywhere on the path.
        assert!(lv.live_in.contains(0, 0));
        assert!(lv.live_in.contains(1, 0));
        assert!(lv.live_out.contains(0, 0));
        // v3 is defined and used in bb3 only; v1, v2 are dead everywhere.
        for b in 0..4 {
            assert!(!lv.live_in.contains(b, 3) && !lv.live_out.contains(b, 1));
        }
    }

    #[test]
    fn liveness_widens_past_next_vreg_instead_of_panicking() {
        let mut f = diamond();
        f.next_vreg = 1; // malformed: v1..v3 lie beyond it
        let lv = liveness(&f);
        assert_eq!(lv.live_in.domain(), 4);
        assert!(lv.live_out.contains(0, 0));
    }

    fn block(term: Term) -> Block {
        Block {
            insts: vec![],
            term,
        }
    }

    #[test]
    fn dominator_preorder_visits_dominators_first() {
        let f = diamond();
        let dom = DomTree::of(&f);
        let order = dom.preorder();
        assert_eq!(order.len(), 4, "all reachable blocks visited once");
        assert_eq!(order[0], BlockId(0), "entry first");
        for (i, &b) in order.iter().enumerate() {
            if let Some(d) = dom.idom(b) {
                assert!(order[..i].contains(&d), "{d} must precede {b} in {order:?}");
            }
        }
    }

    #[test]
    fn dominates_is_reflexive_and_respects_tree() {
        let mut f = diamond();
        f.blocks.push(block(Term::Ret(None))); // unreachable bb4
        let dom = DomTree::of(&f);
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(dom.dominates(BlockId(1), BlockId(1)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(3), BlockId(0)));
        assert!(dom.strictly_dominates(BlockId(0), BlockId(1)));
        assert!(!dom.strictly_dominates(BlockId(1), BlockId(1)));
        assert!(!dom.is_reachable(BlockId(4)));
        assert!(
            !dom.dominates(BlockId(4), BlockId(4)),
            "unreachable dominates nothing"
        );
        assert!(!dom.dominates(BlockId(0), BlockId(4)));
        assert_eq!(dom.idom(BlockId(4)), None);
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let mut f = diamond();
        f.blocks.push(Block {
            insts: vec![],
            term: Term::Ret(None),
        });
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo.len(), 4, "dangling block not visited");
        assert_eq!(reachable(&f).count(), 4);
    }
}
