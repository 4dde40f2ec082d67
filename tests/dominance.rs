//! Reference test for the dominance analyses of `occ::cfg`.
//!
//! `occ::verify` checks SSA dominance through `cfg::DomTree`, so a wrong
//! dominator tree would blind the optimizer and its verifier at once.
//! This test draws seeded random CFGs — with unreachable blocks,
//! self-loops, duplicate `Switch` edges and irreducible cycles — and
//! checks dominators and dominance frontiers against the textbook set
//! equations, computed here the slow, obvious way:
//!
//! * `Dom(entry) = {entry}`, `Dom(n) = {n} ∪ ⋂ Dom(p)` over the reachable
//!   predecessors `p` of `n`, iterated to the greatest fixed point;
//! * `idom(n)` is the strict dominator of `n` that every other strict
//!   dominator dominates;
//! * `DF(n) = {b : n dominates a predecessor of b, n does not strictly
//!   dominate b}`.
//!
//! The entry block never has a predecessor, as in all well-formed MIR
//! (the verifier's `entry-has-pred` rule).
//!
//! The same CFGs, filled with random register definitions and uses, check
//! `cfg::liveness` against the textbook equations, least fixed point:
//!
//! * `in(b) = use(b) ∪ (out(b) − def(b))`, where `use(b)` holds the
//!   registers `b` reads before writing them and `def(b)` those it writes;
//! * `out(b) = ⋃ in(s)` over the successors `s` of `b`.

use std::collections::BTreeSet;

use occ::cfg::{self, DomTree};
use occ::mir::{BinOp, Block, BlockId, Inst, MirFunction, Term, VReg};
use umlsm::gen::GenRng;

/// A random CFG of `1..=max_blocks` blocks. Targets are drawn from
/// `1..n`, so the entry has no predecessor while every other block may
/// target itself (self-loops) or be targeted by nobody (unreachable).
fn random_cfg(rng: &mut GenRng, max_blocks: usize) -> MirFunction {
    let n = rng.range(1, max_blocks);
    let target = |rng: &mut GenRng| BlockId(rng.range(1, n.max(2) - 1) as u32);
    let blocks = (0..n)
        .map(|_| {
            let term = if n == 1 {
                Term::Ret(None)
            } else {
                match rng.below(10) {
                    0 | 1 => Term::Ret(None),
                    2..=4 => Term::Goto(target(rng)),
                    5..=7 => Term::Br {
                        cond: VReg(0),
                        then_block: target(rng),
                        else_block: target(rng),
                    },
                    _ => {
                        // Case targets repeat freely: duplicate edges.
                        let cases = (0..rng.range(1, 4))
                            .map(|k| (k as i32, target(rng)))
                            .collect();
                        Term::Switch {
                            val: VReg(0),
                            cases,
                            default: target(rng),
                        }
                    }
                }
            };
            Block {
                insts: vec![],
                term,
            }
        })
        .collect();
    MirFunction {
        name: "cfg".into(),
        params: 1,
        returns_value: false,
        exported: true,
        blocks,
        next_vreg: 1,
    }
}

/// `f` with random register traffic over `v0..v{regs}`: every block
/// gets up to five instructions defining and reading registers (copies,
/// arithmetic, stores and calls), and every terminator that can read a
/// register reads a random one. Registers end up defined in several
/// blocks, read before any definition, and read in unreachable blocks.
fn with_registers(rng: &mut GenRng, mut f: MirFunction, regs: u32) -> MirFunction {
    let reg = |rng: &mut GenRng| VReg(rng.below(regs as usize) as u32);
    let args = |rng: &mut GenRng| (0..rng.below(5)).map(|_| reg(rng)).collect();
    for blk in &mut f.blocks {
        blk.insts = (0..rng.below(6))
            .map(|_| match rng.below(7) {
                0 => Inst::Const {
                    dst: reg(rng),
                    value: 1,
                },
                1 | 2 => Inst::Copy {
                    dst: reg(rng),
                    src: reg(rng),
                },
                3 => Inst::Bin {
                    op: BinOp::Add,
                    dst: reg(rng),
                    lhs: reg(rng),
                    rhs: reg(rng),
                },
                4 => Inst::Store {
                    addr: reg(rng),
                    src: reg(rng),
                },
                5 => Inst::Call {
                    dst: rng.pct(50).then(|| reg(rng)),
                    func: 0,
                    args: args(rng),
                },
                _ => Inst::CallInd {
                    dst: rng.pct(50).then(|| reg(rng)),
                    ptr: reg(rng),
                    args: args(rng),
                },
            })
            .collect();
        match &mut blk.term {
            Term::Br { cond: r, .. } | Term::Switch { val: r, .. } => *r = reg(rng),
            Term::Ret(value) => *value = rng.pct(70).then(|| reg(rng)),
            Term::Goto(_) => {}
        }
    }
    f.next_vreg = regs;
    f
}

/// The registers `inst` reads, then the one it writes — spelled out here
/// rather than taken from `Inst::uses`, which is under test too.
fn reads_writes(inst: &Inst) -> (Vec<u32>, Option<u32>) {
    match inst {
        Inst::Const { dst, .. } => (vec![], Some(dst.0)),
        Inst::Copy { dst, src } => (vec![src.0], Some(dst.0)),
        Inst::Bin { dst, lhs, rhs, .. } => (vec![lhs.0, rhs.0], Some(dst.0)),
        Inst::Store { addr, src } => (vec![addr.0, src.0], None),
        Inst::Call { dst, args, .. } => (args.iter().map(|a| a.0).collect(), dst.map(|d| d.0)),
        Inst::CallInd { dst, ptr, args } => (
            std::iter::once(ptr.0)
                .chain(args.iter().map(|a| a.0))
                .collect(),
            dst.map(|d| d.0),
        ),
        other => unreachable!("not generated: {other:?}"),
    }
}

/// The textbook liveness of `f`: `(use, def, in, out)` per block, by
/// naive iteration over `BTreeSet`s from empty sets.
#[allow(clippy::type_complexity)]
fn reference_liveness(f: &MirFunction, succs: &[Vec<usize>]) -> [Vec<BTreeSet<u32>>; 4] {
    let n = f.blocks.len();
    let mut uses = vec![BTreeSet::new(); n];
    let mut defs = vec![BTreeSet::new(); n];
    for (b, blk) in f.blocks.iter().enumerate() {
        let term_reads = match blk.term {
            Term::Br { cond: r, .. } | Term::Switch { val: r, .. } | Term::Ret(Some(r)) => {
                vec![r.0]
            }
            _ => vec![],
        };
        let accesses = blk
            .insts
            .iter()
            .map(reads_writes)
            .chain(std::iter::once((term_reads, None)));
        for (reads, write) in accesses {
            for r in reads {
                if !defs[b].contains(&r) {
                    uses[b].insert(r);
                }
            }
            defs[b].extend(write);
        }
    }
    let mut live_in = vec![BTreeSet::new(); n];
    let mut live_out = vec![BTreeSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            let out: BTreeSet<u32> = succs[b]
                .iter()
                .flat_map(|&s| &live_in[s])
                .copied()
                .collect();
            let inn: BTreeSet<u32> = uses[b]
                .iter()
                .chain(out.difference(&defs[b]))
                .copied()
                .collect();
            changed |= inn != live_in[b] || out != live_out[b];
            live_in[b] = inn;
            live_out[b] = out;
        }
    }
    [uses, defs, live_in, live_out]
}

/// The set-equation reference for one CFG.
struct Reference {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    reachable: Vec<bool>,
    /// `Dom(n)` for reachable `n`; empty for unreachable blocks.
    dom: Vec<BTreeSet<usize>>,
}

impl Reference {
    fn of(f: &MirFunction) -> Reference {
        let n = f.blocks.len();
        let succs: Vec<Vec<usize>> = f
            .blocks
            .iter()
            .map(|b| b.term.succs().iter().map(|s| s.0 as usize).collect())
            .collect();
        let mut preds = vec![Vec::new(); n];
        for (b, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(b);
            }
        }
        let mut reachable = vec![false; n];
        reachable[0] = true;
        let mut grew = true;
        while grew {
            grew = false;
            for b in 0..n {
                if reachable[b] {
                    for &s in &succs[b] {
                        grew |= !std::mem::replace(&mut reachable[s], true);
                    }
                }
            }
        }
        let all: BTreeSet<usize> = (0..n).filter(|&b| reachable[b]).collect();
        let mut dom: Vec<BTreeSet<usize>> = (0..n)
            .map(|b| match b {
                0 => BTreeSet::from([0]),
                _ if reachable[b] => all.clone(),
                _ => BTreeSet::new(),
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..n {
                if !reachable[b] {
                    continue;
                }
                let mut meet: Option<BTreeSet<usize>> = None;
                for &p in preds[b].iter().filter(|&&p| reachable[p]) {
                    meet = Some(match meet {
                        None => dom[p].clone(),
                        Some(m) => m.intersection(&dom[p]).copied().collect(),
                    });
                }
                let mut new = meet.unwrap_or_default();
                new.insert(b);
                if new != dom[b] {
                    dom[b] = new;
                    changed = true;
                }
            }
        }
        Reference {
            succs,
            preds,
            reachable,
            dom,
        }
    }

    fn dominates(&self, a: usize, b: usize) -> bool {
        self.dom[b].contains(&a)
    }

    fn idom(&self, b: usize) -> Option<usize> {
        if b == 0 || !self.reachable[b] {
            return None;
        }
        let strict: Vec<usize> = self.dom[b].iter().copied().filter(|&d| d != b).collect();
        strict
            .iter()
            .copied()
            .find(|&d| strict.iter().all(|&o| self.dominates(o, d)))
    }

    fn frontier(&self, n: usize) -> Vec<usize> {
        if !self.reachable[n] {
            return Vec::new();
        }
        (0..self.succs.len())
            .filter(|&b| self.reachable[b])
            .filter(|&b| {
                let dominates_a_pred = self.preds[b]
                    .iter()
                    .any(|&p| self.reachable[p] && self.dominates(n, p));
                dominates_a_pred && !(n != b && self.dominates(n, b))
            })
            .collect()
    }

    /// `true` if some cycle is entered at two blocks: a DFS retreating
    /// edge whose target does not dominate its source.
    fn irreducible(&self) -> bool {
        let n = self.succs.len();
        let mut on_stack = vec![false; n];
        let mut seen = vec![false; n];
        let mut stack = vec![(0usize, 0usize)];
        seen[0] = true;
        on_stack[0] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&s) = self.succs[b].get(*i) {
                *i += 1;
                if on_stack[s] && !self.dominates(s, b) {
                    return true;
                }
                if !seen[s] {
                    seen[s] = true;
                    on_stack[s] = true;
                    stack.push((s, 0));
                }
            } else {
                on_stack[b] = false;
                stack.pop();
            }
        }
        false
    }
}

fn ids(v: &[BlockId]) -> Vec<usize> {
    v.iter().map(|b| b.0 as usize).collect()
}

/// Checks every dense analysis of `f` against the reference.
fn check(f: &MirFunction, r: &Reference) {
    let n = f.blocks.len();
    let preds = cfg::predecessors(f);
    let dom = DomTree::compute(f, &preds);
    let reach = cfg::reachable(f);
    for b in 0..n {
        let bb = BlockId(b as u32);
        assert_eq!(reach.contains(b), r.reachable[b], "reachable({b}) in {f}");
        assert_eq!(
            dom.is_reachable(bb),
            r.reachable[b],
            "is_reachable({b}) in {f}"
        );
        assert_eq!(
            dom.idom(bb).map(|d| d.0 as usize),
            r.idom(b),
            "idom({b}) in {f}"
        );
        for a in 0..n {
            let aa = BlockId(a as u32);
            let want = r.reachable[b] && r.dominates(a, b);
            assert_eq!(dom.dominates(aa, bb), want, "dominates({a}, {b}) in {f}");
            assert_eq!(dom.strictly_dominates(aa, bb), want && a != b);
        }
        let kids: Vec<usize> = (0..n).filter(|&k| r.idom(k) == Some(b)).collect();
        assert_eq!(ids(dom.children(bb)), kids, "children({b}) in {f}");
    }
    // Both orders visit exactly the reachable blocks, entry first; the
    // preorder puts every block after its immediate dominator.
    let reachable: Vec<usize> = (0..n).filter(|&b| r.reachable[b]).collect();
    for order in [dom.rpo(), dom.preorder()] {
        let mut sorted = ids(order);
        assert_eq!(order.first(), Some(&BlockId(0)));
        sorted.sort_unstable();
        assert_eq!(sorted, reachable, "{order:?} in {f}");
    }
    let pos = |b: usize| dom.preorder().iter().position(|x| x.0 as usize == b);
    for &b in &reachable[1..] {
        assert!(
            pos(r.idom(b).expect("reachable")) < pos(b),
            "preorder in {f}"
        );
    }
    let df = cfg::dominance_frontiers(&dom, &preds);
    for (b, members) in df.iter().enumerate() {
        assert_eq!(ids(members), r.frontier(b), "DF({b}) in {f}");
    }
}

#[test]
fn dense_dominance_matches_the_set_equations() {
    let mut rng = GenRng::new(0x5eed_d0e5);
    let (mut unreachable, mut self_loops, mut dup_switch, mut irreducible) = (0, 0, 0, 0);
    for _ in 0..600 {
        let f = random_cfg(&mut rng, 14);
        let r = Reference::of(&f);
        check(&f, &r);
        unreachable += usize::from(r.reachable.iter().any(|x| !x));
        self_loops += usize::from(r.succs.iter().enumerate().any(|(b, ss)| ss.contains(&b)));
        dup_switch += usize::from(f.blocks.iter().any(|b| match &b.term {
            Term::Switch { .. } => {
                let ss = b.term.succs();
                ss.iter().collect::<BTreeSet<_>>().len() < ss.len()
            }
            _ => false,
        }));
        irreducible += usize::from(r.irreducible());
    }
    // The corpus must actually exercise the shapes the test promises.
    for (shape, count) in [
        ("unreachable blocks", unreachable),
        ("self-loops", self_loops),
        ("duplicate switch edges", dup_switch),
        ("irreducible cycles", irreducible),
    ] {
        assert!(count >= 20, "only {count} CFGs with {shape}");
    }
}

#[test]
fn dense_liveness_matches_the_set_equations() {
    let mut rng = GenRng::new(0x11fe_5eed);
    let (mut multi_def, mut use_before_def, mut unreachable_only, mut wide) = (0, 0, 0, 0);
    for _ in 0..800 {
        let cfg = random_cfg(&mut rng, 14);
        let regs = if rng.pct(20) {
            rng.range(65, 140)
        } else {
            rng.range(1, 12)
        } as u32;
        let f = with_registers(&mut rng, cfg, regs);
        let r = Reference::of(&f);
        let [uses, defs, live_in, live_out] = reference_liveness(&f, &r.succs);
        let live = cfg::liveness(&f);
        assert_eq!(live.live_in.domain(), regs as usize, "{f}");
        for b in 0..f.blocks.len() {
            let got_in: BTreeSet<u32> = live.live_in.iter(b).map(|v| v as u32).collect();
            let got_out: BTreeSet<u32> = live.live_out.iter(b).map(|v| v as u32).collect();
            assert_eq!(got_in, live_in[b], "live-in of bb{b} in {f}");
            assert_eq!(got_out, live_out[b], "live-out of bb{b} in {f}");
            for v in 0..regs as usize + 3 {
                assert_eq!(
                    live.live_in.contains(b, v),
                    live_in[b].contains(&(v as u32))
                );
            }
        }
        // Shapes the corpus must exercise.
        let def_blocks = |v: &u32| defs.iter().filter(|d| d.contains(v)).count();
        multi_def += usize::from((0..regs).any(|v| def_blocks(&v) >= 2));
        use_before_def +=
            usize::from((0..f.blocks.len()).any(|b| uses[b].iter().any(|v| defs[b].contains(v))));
        unreachable_only += usize::from((0..regs).any(|v| {
            let readers: Vec<usize> = (0..f.blocks.len())
                .filter(|&b| uses[b].contains(&v))
                .collect();
            !readers.is_empty() && readers.iter().all(|&b| !r.reachable[b])
        }));
        wide += usize::from(regs > 64 && live_in.iter().any(|s| s.iter().any(|&v| v >= 64)));
    }
    for (shape, count) in [
        ("registers defined in several blocks", multi_def),
        ("registers read before their definition", use_before_def),
        (
            "registers read only in unreachable blocks",
            unreachable_only,
        ),
        ("live registers past the first word", wide),
    ] {
        assert!(count >= 20, "only {count} functions with {shape}");
    }
}

#[test]
fn irreducible_cycles_have_no_natural_loop_and_no_back_edge() {
    // bb0 enters the bb1 ⇄ bb2 cycle at both blocks: neither dominates
    // the other, so no edge is a back edge (one whose target dominates
    // its source) and the cycle is no natural loop.
    let block = |term| Block {
        insts: vec![],
        term,
    };
    let br = |a, b| Term::Br {
        cond: VReg(0),
        then_block: BlockId(a),
        else_block: BlockId(b),
    };
    let f = MirFunction {
        name: "irreducible".into(),
        params: 1,
        returns_value: false,
        exported: true,
        blocks: vec![
            block(br(1, 2)),
            block(br(2, 3)),
            block(br(1, 3)),
            block(Term::Ret(None)),
        ],
        next_vreg: 1,
    };
    let r = Reference::of(&f);
    assert!(r.irreducible());
    check(&f, &r);
    let preds = cfg::predecessors(&f);
    let dom = DomTree::compute(&f, &preds);
    for (n, block) in f.blocks.iter().enumerate() {
        for h in block.term.succs() {
            assert!(!dom.dominates(h, BlockId(n as u32)), "back edge {n} -> {h}");
        }
    }
    let df = cfg::dominance_frontiers(&dom, &preds);
    assert_eq!(ids(&df[1]), vec![2, 3]);
    assert_eq!(ids(&df[2]), vec![1, 3]);
}
