//! Stage 4: allocated [`VCode`] → [`AsmInst`] emission with block-layout
//! optimization.
//!
//! The emitter owns everything positional:
//!
//! - **Jump threading**: an empty block ending in `goto` is bypassed by
//!   retargeting every edge through it. Lowering adds no such block, so
//!   only a pipeline that leaves one behind gives it work: over the
//!   samples and generated seeds 1–300 that is `-O0` alone.
//! - **Block layout**: two orders are materialized — the natural
//!   lowering order and a greedy fall-through chain that places each
//!   block's preferred successor next (`goto` target, `br` else-edge,
//!   `switch` default) — and the smaller encoding wins.
//! - **Branch relaxation**: a conditional branch whose then-edge falls
//!   through is inverted (`bne` ⇄ `beq`), a `goto` to the next block
//!   emits nothing, and switch dispatch picks branch-chain or jump-table
//!   form per `switch_uses_table` (shared with lowering).
//! - **Peephole**: a final pass drops `mv rd, rd` (identity moves the
//!   allocator's hinting produced deliberately, e.g. a call result
//!   consumed in `r1`).

use super::vcode::{EmInst, Reg, VCode, VTerm};
use super::{AsmFunction, AsmInst, RegAllocStats, ZERO};
use crate::OptLevel;

/// Decides branch-chain vs jump-table dispatch for a `switch` with the
/// given case values. Shared with lowering, which must pick the same
/// strategy to know whether a chain scratch register is needed.
///
/// `-O0`/`-O1` always chain; `-O2` requires a reasonably dense table
/// (≥ 4 cases spanning at most 3× the case count); `-Os` compares exact
/// encoded cost (16 B dispatch + 4 B/entry rodata vs 8 B/case + 4 B).
pub(crate) fn switch_uses_table(level: OptLevel, values: &[i32]) -> bool {
    if values.is_empty() {
        return false;
    }
    let lo = values.iter().min().copied().expect("non-empty");
    let hi = values.iter().max().copied().expect("non-empty");
    let range = (i64::from(hi) - i64::from(lo) + 1) as usize;
    let chain_cost = values.len() * 8 + 4;
    let table_cost = 16 + range * 4;
    match level {
        OptLevel::O0 | OptLevel::O1 => false,
        OptLevel::O2 => values.len() >= 4 && range <= values.len() * 3,
        OptLevel::Os => range <= 1024 && table_cost < chain_cost,
    }
}

/// Emits one allocated function, choosing the cheaper of the natural and
/// greedy fall-through layouts.
pub fn emit_function(vc: &VCode, level: OptLevel, stats: RegAllocStats) -> AsmFunction {
    let redirect = thread_jumps(vc);
    let natural = natural_layout(vc, &redirect);
    let greedy = greedy_layout(vc, &redirect);
    let mut best = emit_layout(vc, level, &redirect, &natural);
    if greedy != natural {
        let alt = emit_layout(vc, level, &redirect, &greedy);
        if text_size(&alt) < text_size(&best) {
            best = alt;
        }
    }
    // An artifact holds its instructions for as long as it lives, so drop
    // the spare capacity emission's pushes left (up to half the vector).
    best.shrink_to_fit();
    AsmFunction {
        name: vc.name.clone(),
        exported: vc.exported,
        insts: best,
        stats,
    }
}

fn text_size(insts: &[AsmInst]) -> usize {
    insts.iter().map(AsmInst::size).sum()
}

/// Computes, per block, the block every edge into it should retarget to:
/// itself normally, or the final destination when it is an empty
/// `goto`-only chain link. Cycles of empty blocks keep their own index.
fn thread_jumps(vc: &VCode) -> Vec<usize> {
    let resolve = |start: usize| -> usize {
        let mut seen = vec![start];
        let mut cur = start;
        loop {
            let block = &vc.blocks[cur];
            let VTerm::Goto { target } = block.term else {
                return cur;
            };
            if !block.insts.is_empty() || seen.contains(&target) {
                return cur;
            }
            seen.push(target);
            cur = target;
        }
    };
    (0..vc.blocks.len()).map(resolve).collect()
}

/// Blocks reachable from the (redirected) entry, following redirected
/// edges.
fn reachable(vc: &VCode, redirect: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; vc.blocks.len()];
    let mut stack = vec![redirect[0]];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut seen[b], true) {
            continue;
        }
        for s in vc.blocks[b].term.succs() {
            stack.push(redirect[s]);
        }
    }
    seen
}

/// The lowering order: entry first, then ascending reachable blocks.
fn natural_layout(vc: &VCode, redirect: &[usize]) -> Vec<usize> {
    let live = reachable(vc, redirect);
    let entry = redirect[0];
    let mut order = vec![entry];
    order.extend((0..vc.blocks.len()).filter(|b| live[*b] && *b != entry));
    order
}

/// Greedy fall-through chaining: after each block, place its preferred
/// successor (the edge the terminator can elide a jump for) if still
/// unplaced; otherwise start a new chain at the lowest unplaced block.
fn greedy_layout(vc: &VCode, redirect: &[usize]) -> Vec<usize> {
    let live = reachable(vc, redirect);
    let n = vc.blocks.len();
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut cur = Some(redirect[0]);
    loop {
        let b = match cur {
            Some(b) if !placed[b] => b,
            _ => match (0..n).find(|b| live[*b] && !placed[*b]) {
                Some(b) => b,
                None => break,
            },
        };
        placed[b] = true;
        order.push(b);
        // Preference order: the edge whose jump the emitter elides when
        // its target is next.
        let prefs: Vec<usize> = match &vc.blocks[b].term {
            VTerm::Goto { target } => vec![*target],
            VTerm::Br {
                else_target,
                then_target,
                ..
            } => vec![*else_target, *then_target],
            VTerm::Switch { default, .. } => vec![*default],
            VTerm::Ret { .. } => vec![],
        };
        cur = prefs.into_iter().map(|t| redirect[t]).find(|t| !placed[*t]);
    }
    order
}

fn phys(r: Reg) -> u8 {
    r.phys().expect("emission runs on allocated vcode")
}

fn emit_layout(vc: &VCode, level: OptLevel, redirect: &[usize], order: &[usize]) -> Vec<AsmInst> {
    let mut out = Vec::new();
    for (pos, b) in order.iter().enumerate() {
        let next = order.get(pos + 1).copied();
        out.push(AsmInst::Label(*b));
        for inst in &vc.blocks[*b].insts {
            out.push(map_inst(inst));
        }
        emit_term(&vc.blocks[*b].term, level, redirect, next, &mut out);
    }
    peephole(&mut out);
    out
}

fn map_inst(inst: &EmInst) -> AsmInst {
    match inst {
        EmInst::Li { rd, imm } => AsmInst::Li {
            rd: phys(*rd),
            imm: *imm,
        },
        EmInst::Mv { rd, rs } => AsmInst::Mv {
            rd: phys(*rd),
            rs: phys(*rs),
        },
        EmInst::Alu { op, rd, rs1, rs2 } => AsmInst::Alu {
            op: *op,
            rd: phys(*rd),
            rs1: phys(*rs1),
            rs2: phys(*rs2),
        },
        EmInst::Lw { rd, base, off } => AsmInst::Lw {
            rd: phys(*rd),
            base: phys(*base),
            off: *off,
        },
        EmInst::Sw { src, base, off } => AsmInst::Sw {
            src: phys(*src),
            base: phys(*base),
            off: *off,
        },
        EmInst::La { rd, global, off } => AsmInst::La {
            rd: phys(*rd),
            global: *global,
            off: *off,
        },
        EmInst::LaFn { rd, func } => AsmInst::LaFn {
            rd: phys(*rd),
            func: *func,
        },
        EmInst::Jal { func, .. } => AsmInst::Jal { func: *func },
        EmInst::Jalr { ptr, .. } => AsmInst::Jalr { rs: phys(*ptr) },
        EmInst::Ecall { ext, args, ret } => AsmInst::Ecall {
            ext: *ext,
            nargs: args.len(),
            returns: ret.is_some(),
        },
    }
}

fn emit_term(
    term: &VTerm,
    level: OptLevel,
    redirect: &[usize],
    next: Option<usize>,
    out: &mut Vec<AsmInst>,
) {
    let at = |t: usize| redirect[t];
    match term {
        VTerm::Goto { target } => {
            if next != Some(at(*target)) {
                out.push(AsmInst::J { label: at(*target) });
            }
        }
        VTerm::Br {
            cond,
            then_target,
            else_target,
        } => {
            let c = phys(*cond);
            let (then_l, else_l) = (at(*then_target), at(*else_target));
            if next == Some(then_l) {
                // Invert: branch away on false, fall into the then-block.
                out.push(AsmInst::Beq {
                    rs1: c,
                    rs2: ZERO,
                    label: else_l,
                });
            } else {
                out.push(AsmInst::Bne {
                    rs1: c,
                    rs2: ZERO,
                    label: then_l,
                });
                if next != Some(else_l) {
                    out.push(AsmInst::J { label: else_l });
                }
            }
        }
        VTerm::Switch {
            val,
            tmp,
            cases,
            default,
        } => {
            let v = phys(*val);
            let default_l = at(*default);
            if cases.is_empty() {
                if next != Some(default_l) {
                    out.push(AsmInst::J { label: default_l });
                }
                return;
            }
            let values: Vec<i32> = cases.iter().map(|(c, _)| *c).collect();
            if switch_uses_table(level, &values) {
                let lo = values.iter().min().copied().expect("non-empty");
                let hi = values.iter().max().copied().expect("non-empty");
                let range = (i64::from(hi) - i64::from(lo) + 1) as usize;
                let mut labels = vec![default_l; range];
                for (c, t) in cases {
                    labels[(c - lo) as usize] = at(*t);
                }
                out.push(AsmInst::JumpTable {
                    rs: v,
                    lo,
                    labels,
                    default: default_l,
                });
            } else {
                let t = phys(tmp.expect("chain switches carry a scratch"));
                for (c, target) in cases {
                    out.push(AsmInst::Li { rd: t, imm: *c });
                    out.push(AsmInst::Beq {
                        rs1: v,
                        rs2: t,
                        label: at(*target),
                    });
                }
                if next != Some(default_l) {
                    out.push(AsmInst::J { label: default_l });
                }
            }
        }
        VTerm::Ret { .. } => out.push(AsmInst::Ret),
    }
}

/// Drops `mv rd, rd`: the identity moves the allocator's hinting
/// produced deliberately.
fn peephole(insts: &mut Vec<AsmInst>) {
    insts.retain(|inst| !matches!(inst, AsmInst::Mv { rd, rs } if rd == rs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::vcode::VBlock;
    use crate::mir::BinOp;

    fn ret_block(value: Option<u8>) -> VBlock {
        VBlock {
            insts: vec![],
            term: VTerm::Ret {
                value: value.map(Reg::Phys),
            },
        }
    }

    fn goto_block(target: usize) -> VBlock {
        VBlock {
            insts: vec![],
            term: VTerm::Goto { target },
        }
    }

    fn vcode(blocks: Vec<VBlock>) -> VCode {
        VCode {
            name: "t".into(),
            exported: true,
            params: vec![],
            blocks,
            next_vreg: 0,
        }
    }

    #[test]
    fn peephole_removes_identity_moves() {
        let mut insts = vec![
            AsmInst::Mv { rd: 3, rs: 3 },
            AsmInst::Li { rd: 1, imm: 4 },
            AsmInst::Ret,
        ];
        peephole(&mut insts);
        assert_eq!(insts, vec![AsmInst::Li { rd: 1, imm: 4 }, AsmInst::Ret]);
    }

    #[test]
    fn jump_threading_bypasses_empty_goto_blocks() {
        // bb0 -> bb1 (empty) -> bb2(ret): the emitted stream needs no J.
        let vc = vcode(vec![goto_block(1), goto_block(2), ret_block(None)]);
        let f = emit_function(&vc, OptLevel::O1, RegAllocStats::default());
        assert!(
            !f.insts.iter().any(|i| matches!(i, AsmInst::J { .. })),
            "{:?}",
            f.insts
        );
    }

    #[test]
    fn branch_with_then_fallthrough_is_inverted() {
        // bb0: br r1 ? bb1 : bb2, with bb1 next in layout.
        let vc = vcode(vec![
            VBlock {
                insts: vec![],
                term: VTerm::Br {
                    cond: Reg::Phys(1),
                    then_target: 1,
                    else_target: 2,
                },
            },
            ret_block(None),
            VBlock {
                insts: vec![EmInst::Li {
                    rd: Reg::Phys(1),
                    imm: 3,
                }],
                term: VTerm::Ret {
                    value: Some(Reg::Phys(1)),
                },
            },
        ]);
        let f = emit_function(&vc, OptLevel::O1, RegAllocStats::default());
        assert!(
            f.insts
                .iter()
                .any(|i| matches!(i, AsmInst::Beq { rs2: 0, .. })),
            "inverted branch expected: {:?}",
            f.insts
        );
        assert!(!f.insts.iter().any(|i| matches!(i, AsmInst::J { .. })));
    }

    #[test]
    fn layout_choice_prefers_fallthrough_chains() {
        // bb0 -> bb2; bb1 unreachable-ish ordering: natural order
        // (0,1,2) forces a jump, greedy (0,2,1) does not.
        let vc = vcode(vec![
            goto_block(2),
            VBlock {
                insts: vec![EmInst::Li {
                    rd: Reg::Phys(1),
                    imm: 1,
                }],
                term: VTerm::Ret {
                    value: Some(Reg::Phys(1)),
                },
            },
            VBlock {
                insts: vec![EmInst::Li {
                    rd: Reg::Phys(1),
                    imm: 2,
                }],
                term: VTerm::Br {
                    cond: Reg::Phys(1),
                    then_target: 1,
                    else_target: 1,
                },
            },
        ]);
        let f = emit_function(&vc, OptLevel::O1, RegAllocStats::default());
        assert!(
            !f.insts.iter().any(|i| matches!(i, AsmInst::J { .. })),
            "greedy layout should chain bb0→bb2: {:?}",
            f.insts
        );
    }

    #[test]
    fn switch_table_strategy_matches_lowering_policy() {
        let dense: Vec<i32> = (0..8).collect();
        assert!(!switch_uses_table(OptLevel::O0, &dense));
        assert!(!switch_uses_table(OptLevel::O1, &dense));
        assert!(switch_uses_table(OptLevel::O2, &dense));
        assert!(switch_uses_table(OptLevel::Os, &dense));
        let sparse = [0, 1000, 2000];
        assert!(!switch_uses_table(OptLevel::O2, &sparse));
        assert!(!switch_uses_table(OptLevel::Os, &sparse));
        assert!(!switch_uses_table(OptLevel::Os, &[]));
    }

    #[test]
    fn alu_on_phys_regs_maps_one_to_one() {
        let inst = EmInst::Alu {
            op: BinOp::Add,
            rd: Reg::Phys(5),
            rs1: Reg::Phys(6),
            rs2: Reg::Phys(7),
        };
        assert_eq!(
            map_inst(&inst),
            AsmInst::Alu {
                op: BinOp::Add,
                rd: 5,
                rs1: 6,
                rs2: 7
            }
        );
    }
}
