//! SSA construction and destruction.
//!
//! Construction follows Cytron et al. (the algorithm behind GCC's Tree SSA,
//! which the paper credits for enabling its higher-level optimizations):
//! φ-nodes are placed at iterated dominance frontiers of multi-definition
//! registers, then a dominator-tree walk renames versions. Destruction
//! splits critical edges and lowers φs to staged parallel copies.

use crate::cfg;
use crate::mir::{Block, BlockId, Inst, MirFunction, Term, VReg};

/// Converts a function into SSA form (φ-nodes appear in block headers).
pub fn construct(f: &mut MirFunction) {
    // Work on reachable code only; unreachable blocks would confuse
    // renaming (they have no dominator-tree position).
    remove_unreachable_blocks(f);

    let preds = cfg::predecessors(f);
    let dom = cfg::DomTree::compute(f, &preds);
    let df = cfg::dominance_frontiers(&dom, &preds);

    // Every (register, defining block) pair, parameters defined at entry;
    // sorted, each register's run gives its definition count, and
    // without duplicates its distinct definition sites.
    let mut defs: Vec<(VReg, BlockId)> = Vec::new();
    for b in f.block_ids() {
        defs.extend(
            f.block(b)
                .insts
                .iter()
                .filter_map(|i| i.def())
                .map(|d| (d, b)),
        );
    }
    defs.extend((0..f.params as u32).map(|p| (VReg(p), BlockId(0))));
    defs.sort_unstable();
    let nregs = defs
        .last()
        .map_or(0, |(v, _)| v.0 as usize + 1)
        .max(f.next_vreg as usize);

    // φ placement at iterated dominance frontiers for registers with more
    // than one definition site or several definitions. Registers are
    // visited in ascending order, so each block's φ list is sorted.
    let mut phis: Vec<Vec<VReg>> = vec![Vec::new(); f.blocks.len()];
    // The last register a φ was placed for, per block (+1; 0 = none).
    let mut placed = vec![0u32; f.blocks.len()];
    let mut work: Vec<BlockId> = Vec::new();
    for run in defs.chunk_by(|a, b| a.0 == b.0) {
        let v = run[0].0;
        if run.len() <= 1 {
            continue;
        }
        work.clear();
        work.extend(run.iter().map(|&(_, b)| b));
        work.dedup();
        while let Some(b) = work.pop() {
            for &y in &df[b.0 as usize] {
                let mark = &mut placed[y.0 as usize];
                if *mark != v.0 + 1 {
                    *mark = v.0 + 1;
                    phis[y.0 as usize].push(v);
                    work.push(y);
                }
            }
        }
    }
    for (b, vars) in phis.iter().enumerate() {
        if vars.is_empty() {
            continue;
        }
        let block_preds = &preds[b];
        let mut new_insts: Vec<Inst> = vars
            .iter()
            .map(|v| Inst::Phi {
                dst: *v,
                args: block_preds.iter().map(|p| (*p, *v)).collect(),
            })
            .collect();
        let blk = &mut f.blocks[b];
        new_insts.append(&mut blk.insts);
        blk.insts = new_insts;
    }

    // Renaming: dominator-tree walk tracking each register's current
    // version, with an undo log to restore it on the way back up.
    let mut current: Vec<VReg> = (0..nregs as u32).map(VReg).collect();
    let mut undo: Vec<(VReg, VReg)> = Vec::new();
    rename(f, BlockId(0), &dom, &mut current, &mut undo, &preds);

    // Strictness repair. A variable first assigned inside a conditional
    // or loop body has no definition on the path that skips the
    // assignment; renaming then leaves the pre-rename register dangling
    // in that path's φ-argument (the `top` fallback). Give every such
    // register one synthetic zero definition at entry, making the SSA
    // strict (every use dominated by a def, the `crate::verify`
    // contract): the zero is only observable on paths where the source
    // program never reads the variable anyway.
    let mut defined = vec![false; f.next_vreg as usize];
    let mark = |v: VReg, defined: &mut Vec<bool>| {
        let i = v.0 as usize;
        if i >= defined.len() {
            defined.resize(i + 1, false);
        }
        defined[i] = true;
    };
    for p in 0..f.params {
        mark(VReg(p as u32), &mut defined);
    }
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.def() {
                mark(d, &mut defined);
            }
        }
    }
    let is_defined = |v: &VReg| defined.get(v.0 as usize).copied().unwrap_or(false);
    let mut dangling: Vec<VReg> = Vec::new();
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            dangling.extend(inst.uses().filter(|u| !is_defined(u)));
        }
        dangling.extend(f.block(b).term.uses().filter(|u| !is_defined(u)));
    }
    if !dangling.is_empty() {
        dangling.sort_unstable();
        dangling.dedup();
        let entry = f.block_mut(BlockId(0));
        let mut prefix: Vec<Inst> = dangling
            .into_iter()
            .map(|dst| Inst::Const { dst, value: 0 })
            .collect();
        prefix.append(&mut entry.insts);
        entry.insts = prefix;
    }

    // Post-construct boundary of the pipeline verifier: the output must
    // satisfy the full SSA tier (debug builds only; see `crate::verify`).
    if cfg!(debug_assertions) {
        let vs = crate::verify::verify_function(f, crate::verify::Tier::Ssa);
        assert!(
            vs.is_empty(),
            "ssa::construct produced invalid SSA for `{}`:{}",
            f.name,
            crate::verify::report(&vs)
        );
    }
}

/// `true` if `preds` names at least two distinct blocks.
fn has_two_distinct(preds: &[BlockId]) -> bool {
    preds.iter().any(|p| *p != preds[0])
}

/// Folds φs of single-predecessor (and predecessor-less) blocks into
/// plain copies, preserving the verifier's φ-join discipline
/// ([`crate::verify::Rule::PhiOutsideJoin`]): edge pruning — a folded
/// branch, a dropped `Switch` arm, an unreachable predecessor — can
/// leave a join block with one surviving predecessor, whose φs are just
/// copies of their single remaining argument. Returns `true` if any φ
/// was folded.
pub fn fold_trivial_phis(f: &mut MirFunction) -> bool {
    let preds = cfg::predecessors(f);
    let mut changed = false;
    for (b, blk) in f.blocks.iter_mut().enumerate() {
        if has_two_distinct(&preds[b]) {
            continue;
        }
        for inst in &mut blk.insts {
            if let Inst::Phi { dst, args } = inst {
                if let [(_, src)] = args[..] {
                    *inst = Inst::Copy { dst: *dst, src };
                    changed = true;
                }
            }
        }
    }
    changed
}

/// The current version of `v` (itself until a definition is renamed).
fn top(current: &[VReg], v: VReg) -> VReg {
    current.get(v.0 as usize).copied().unwrap_or(v)
}

fn rename(
    f: &mut MirFunction,
    b: BlockId,
    dom: &cfg::DomTree,
    current: &mut Vec<VReg>,
    undo: &mut Vec<(VReg, VReg)>,
    preds: &[Vec<BlockId>],
) {
    let undo_mark = undo.len();

    // Rewrite instructions.
    let insts_len = f.block(b).insts.len();
    for i in 0..insts_len {
        let is_phi = matches!(f.block(b).insts[i], Inst::Phi { .. });
        if !is_phi {
            f.block_mut(b).insts[i].map_uses(&mut |v| top(current, v));
        }
        // Redefine the destination with a fresh version.
        if let Some(d) = f.block(b).insts[i].def() {
            let fresh = f.fresh();
            if let Some(dst) = f.block_mut(b).insts[i].def_mut() {
                *dst = fresh;
            }
            if d.0 as usize >= current.len() {
                let n = current.len() as u32;
                current.extend((n..=d.0).map(VReg));
            }
            undo.push((d, current[d.0 as usize]));
            current[d.0 as usize] = fresh;
        }
    }
    f.block_mut(b).term.map_uses(&mut |v| top(current, v));

    // Fill φ arguments of successors. A block can appear several times in
    // a successor's predecessor list (e.g. a `Br` whose arms share a
    // target), so every matching slot must be filled — filling only the
    // first would leave stale pre-SSA registers in the later slots.
    for s in f.block(b).term.succs() {
        let pred_indices: Vec<usize> = preds[s.0 as usize]
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == b)
            .map(|(i, _)| i)
            .collect();
        assert!(
            !pred_indices.is_empty(),
            "b is a predecessor of its successor"
        );
        for inst in &mut f.block_mut(s).insts {
            let Inst::Phi { args, .. } = inst else {
                continue;
            };
            for &pred_index in &pred_indices {
                let original = args[pred_index].1;
                args[pred_index] = (b, top(current, original));
            }
        }
    }

    // Recurse into dominator-tree children.
    for &k in dom.children(b) {
        rename(f, k, dom, current, undo, preds);
    }

    for (v, prev) in undo.drain(undo_mark..).rev() {
        current[v.0 as usize] = prev;
    }
}

/// Removes blocks unreachable from the entry, remapping ids.
pub fn remove_unreachable_blocks(f: &mut MirFunction) {
    let reach = cfg::reachable(f);
    if reach.count() == f.blocks.len() {
        return;
    }
    let mut remap: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    let mut new_blocks = Vec::with_capacity(reach.count());
    for (b, blk) in std::mem::take(&mut f.blocks).into_iter().enumerate() {
        if reach.contains(b) {
            remap[b] = Some(BlockId(new_blocks.len() as u32));
            new_blocks.push(blk);
        }
    }
    let to = |b: BlockId| remap[b.0 as usize].expect("successor of a reachable block");
    for blk in &mut new_blocks {
        blk.term.map_succs(&mut |s| to(s));
        for inst in &mut blk.insts {
            if let Inst::Phi { args, .. } = inst {
                args.retain(|(p, _)| remap[p.0 as usize].is_some());
                for (p, _) in args {
                    *p = to(*p);
                }
            }
        }
    }
    f.blocks = new_blocks;
}

/// Lowers φ-nodes back to copies (splitting critical edges), leaving a
/// φ-free function ready for the backend.
pub fn destruct(f: &mut MirFunction) {
    // Collect copies to insert per edge (pred -> block).
    // Post-destruct boundary of the pipeline verifier: the output must
    // be φ-free and structurally sound (debug builds only).
    fn debug_verify_phi_free(f: &MirFunction) {
        if cfg!(debug_assertions) {
            let vs = crate::verify::verify_function(f, crate::verify::Tier::PhiFree);
            assert!(
                vs.is_empty(),
                "ssa::destruct produced invalid MIR for `{}`:{}",
                f.name,
                crate::verify::report(&vs)
            );
        }
    }

    // (pred, block, dst, src) in block then instruction order; a stable
    // sort by edge groups each edge's copies in that order.
    let mut edge_copies: Vec<(BlockId, BlockId, VReg, VReg)> = Vec::new();
    for (b, blk) in f.blocks.iter_mut().enumerate() {
        blk.insts.retain(|inst| {
            let Inst::Phi { dst, args } = inst else {
                return true;
            };
            for &(p, v) in args {
                edge_copies.push((p, BlockId(b as u32), *dst, v));
            }
            false
        });
    }
    if edge_copies.is_empty() {
        debug_verify_phi_free(f);
        return;
    }
    edge_copies.sort_by_key(|&(p, b, _, _)| (p, b));
    for edge in edge_copies.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
        let (p, b) = (edge[0].0, edge[0].1);
        // Staged parallel copy: tmp_i = src_i ; dst_i = tmp_i. This is
        // immune to the swap/lost-copy problems.
        let mut seq = Vec::with_capacity(2 * edge.len());
        let mut temps = Vec::with_capacity(edge.len());
        for &(_, _, _, src) in edge {
            let t = f.fresh();
            temps.push(t);
            seq.push(Inst::Copy { dst: t, src });
        }
        for (&(_, _, dst, _), t) in edge.iter().zip(&temps) {
            seq.push(Inst::Copy { dst, src: *t });
        }
        let p_succs = f.block(p).term.succs();
        if p_succs.len() == 1 {
            // Insert at the end of the predecessor.
            let blk = f.block_mut(p);
            blk.insts.extend(seq);
        } else {
            // Critical edge: split with a fresh forwarding block.
            let e = BlockId(f.blocks.len() as u32);
            f.blocks.push(Block {
                insts: seq,
                term: Term::Goto(b),
            });
            f.block_mut(p)
                .term
                .map_succs(&mut |s| if s == b { e } else { s });
        }
    }
    debug_verify_phi_free(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::BinOp;
    use std::collections::BTreeSet;

    /// let x = 0; if c { x = 1 } else { x = 2 }; return x  — the classic
    /// φ example.
    fn phi_example() -> MirFunction {
        MirFunction {
            name: "t".into(),
            params: 1, // v0 = c
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
        }
    }

    #[test]
    fn construct_places_phi_at_join() {
        let mut f = phi_example();
        construct(&mut f);
        let join = &f.blocks[3];
        assert!(matches!(join.insts.first(), Some(Inst::Phi { .. })), "{f}");
        // Single static assignment: every def is unique.
        let mut defs = BTreeSet::new();
        for b in &f.blocks {
            for i in &b.insts {
                if let Some(d) = i.def() {
                    assert!(defs.insert(d), "double definition of {d} in\n{f}");
                }
            }
        }
    }

    /// Regression keyed to the verifier's `undefined-use` rule: a local
    /// first assigned inside a conditional reaches the join with no
    /// definition at all along the fall-through path, and Cytron
    /// renaming's stack fallback would leave the pre-rename register
    /// dangling in the φ. `construct` must repair this to *strict* SSA
    /// (a zero definition at entry) so every register has a def.
    #[test]
    fn construct_repairs_conditionally_assigned_locals_to_strict_ssa() {
        // if c { x = 5 } ; return x — x has no def on the else path.
        let mut f = MirFunction {
            name: "t".into(),
            params: 1, // v0 = c
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
                        value: 5,
                    }],
                    term: Term::Goto(BlockId(2)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 2,
        };
        construct(&mut f);
        let vs = crate::verify::verify_function(&f, crate::verify::Tier::Ssa);
        assert!(vs.is_empty(), "{}{f}", crate::verify::report(&vs));
    }

    #[test]
    fn destruct_removes_phis_and_stays_executable() {
        let mut f = phi_example();
        construct(&mut f);
        destruct(&mut f);
        for b in &f.blocks {
            for i in &b.insts {
                assert!(!matches!(i, Inst::Phi { .. }));
            }
        }
    }

    #[test]
    fn unreachable_block_removal_remaps_ids() {
        let mut f = phi_example();
        // Add a dangling block.
        f.blocks.push(Block {
            insts: vec![Inst::Bin {
                op: BinOp::Add,
                dst: VReg(9),
                lhs: VReg(0),
                rhs: VReg(0),
            }],
            term: Term::Ret(None),
        });
        remove_unreachable_blocks(&mut f);
        assert_eq!(f.blocks.len(), 4);
        // Terminators still point at valid blocks.
        for b in f.block_ids() {
            for s in f.block(b).term.succs() {
                assert!((s.0 as usize) < f.blocks.len());
            }
        }
    }

    #[test]
    fn loop_variable_gets_phi_in_header() {
        // i = 0; while (i < n) { i = i + 1 } return i
        let mut f = MirFunction {
            name: "loop".into(),
            params: 1, // v0 = n
            returns_value: true,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 0,
                    }],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Lt,
                        dst: VReg(2),
                        lhs: VReg(1),
                        rhs: VReg(0),
                    }],
                    term: Term::Br {
                        cond: VReg(2),
                        then_block: BlockId(2),
                        else_block: BlockId(3),
                    },
                },
                Block {
                    insts: vec![
                        Inst::Const {
                            dst: VReg(3),
                            value: 1,
                        },
                        Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(1),
                            lhs: VReg(1),
                            rhs: VReg(3),
                        },
                    ],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(1))),
                },
            ],
            next_vreg: 4,
        };
        construct(&mut f);
        let header = &f.blocks[1];
        assert!(
            matches!(header.insts.first(), Some(Inst::Phi { .. })),
            "{f}"
        );
        destruct(&mut f);
        for b in &f.blocks {
            for i in &b.insts {
                assert!(!matches!(i, Inst::Phi { .. }));
            }
        }
    }
}
