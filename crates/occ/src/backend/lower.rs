//! Stage 1: MIR → [`VCode`] lowering.
//!
//! Turns each reachable MIR block into a [`VBlock`] of [`EmInst`] over
//! virtual registers, in reverse postorder (so straight-line runs lower
//! contiguously and unreachable blocks vanish here rather than in
//! emission). Calls lower to the pseudo-ops
//! [`EmInst::Jal`]/[`EmInst::Jalr`]/[`EmInst::Ecall`] that carry their
//! argument and result registers as constrained operands — no physical
//! argument moves are materialized here; the allocator owns that.
//!
//! Lowering splits no edge: each reachable MIR block becomes exactly one
//! [`VBlock`]. The allocator gives every virtual register one location
//! over one contiguous range and inserts code only inside blocks, never
//! on an edge, so a critical edge needs no block of its own. An empty
//! block appended for one would stretch every range live across that
//! edge to the end of the function, over later calls and into a
//! callee-saved register.

use super::emit::switch_uses_table;
use super::vcode::{EmInst, Reg, VBlock, VCode, VTerm};
use super::{ARG_REGS, ZERO};
use crate::cfg;
use crate::mir::{BinOp, Inst, MirFunction, Term, UnOp};
use crate::{CompileError, OptLevel};

/// Lowers one MIR function to `VCode` with virtual-register operands.
///
/// Fails with [`CompileError::Internal`] on a φ-node (SSA must be
/// destructed before the backend runs), and with
/// [`CompileError::TooManyArgs`] on a function of more than four
/// parameters or a reachable call with more than four arguments: the
/// EM32 convention passes arguments in [`ARG_REGS`] only, and the inline
/// [`Operands`](super::vcode::Operands) list is sized for that bound.
/// The front end never produces either; a hand-built `Program` may.
pub fn lower_function(f: &MirFunction, level: OptLevel) -> Result<VCode, CompileError> {
    if f.params > ARG_REGS.len() {
        return Err(CompileError::TooManyArgs {
            function: f.name.clone(),
            arity: f.params,
        });
    }
    let order = cfg::reverse_postorder(f);
    // Lowered position of each block (only reachable blocks have one).
    let mut index = vec![usize::MAX; f.blocks.len()];
    for (i, b) in order.iter().enumerate() {
        index[b.0 as usize] = i;
    }

    let mut vc = VCode {
        name: f.name.clone(),
        exported: f.exported,
        params: (0..f.params).map(|p| crate::mir::VReg(p as u32)).collect(),
        blocks: Vec::with_capacity(order.len()),
        next_vreg: f.next_vreg,
    };
    for b in order {
        let block = f.block(b);
        let mut insts = Vec::with_capacity(block.insts.len());
        for inst in &block.insts {
            lower_inst(inst, &mut insts, &f.name)?;
        }
        let term = lower_term(&block.term, &index, level, &mut vc);
        vc.blocks.push(VBlock { insts, term });
    }
    Ok(vc)
}

fn v(r: crate::mir::VReg) -> Reg {
    Reg::Virt(r)
}

fn lower_inst(inst: &Inst, out: &mut Vec<EmInst>, fname: &str) -> Result<(), CompileError> {
    if let Inst::Call { args, .. } | Inst::CallExtern { args, .. } | Inst::CallInd { args, .. } =
        inst
    {
        if args.len() > ARG_REGS.len() {
            return Err(CompileError::TooManyArgs {
                function: format!("<call in {fname}>"),
                arity: args.len(),
            });
        }
    }
    match inst {
        Inst::Const { dst, value } => out.push(EmInst::Li {
            rd: v(*dst),
            imm: *value,
        }),
        Inst::Copy { dst, src } => out.push(EmInst::Mv {
            rd: v(*dst),
            rs: v(*src),
        }),
        Inst::Un { op, dst, src } => out.push(match op {
            UnOp::Neg => EmInst::Alu {
                op: BinOp::Sub,
                rd: v(*dst),
                rs1: Reg::Phys(ZERO),
                rs2: v(*src),
            },
            UnOp::Not => EmInst::Alu {
                op: BinOp::Eq,
                rd: v(*dst),
                rs1: v(*src),
                rs2: Reg::Phys(ZERO),
            },
        }),
        Inst::Bin { op, dst, lhs, rhs } => out.push(EmInst::Alu {
            op: *op,
            rd: v(*dst),
            rs1: v(*lhs),
            rs2: v(*rhs),
        }),
        Inst::Load { dst, addr } => out.push(EmInst::Lw {
            rd: v(*dst),
            base: v(*addr),
            off: 0,
        }),
        Inst::Store { addr, src } => out.push(EmInst::Sw {
            src: v(*src),
            base: v(*addr),
            off: 0,
        }),
        Inst::Addr {
            dst,
            global,
            offset,
        } => out.push(EmInst::La {
            rd: v(*dst),
            global: *global,
            off: *offset,
        }),
        Inst::FnAddr { dst, func } => out.push(EmInst::LaFn {
            rd: v(*dst),
            func: *func,
        }),
        Inst::Call { dst, func, args } => out.push(EmInst::Jal {
            func: *func,
            args: args.iter().map(|a| v(*a)).collect(),
            ret: dst.map(v),
        }),
        Inst::CallExtern { dst, ext, args } => out.push(EmInst::Ecall {
            ext: *ext,
            args: args.iter().map(|a| v(*a)).collect(),
            ret: dst.map(v),
        }),
        Inst::CallInd { dst, ptr, args } => out.push(EmInst::Jalr {
            ptr: v(*ptr),
            args: args.iter().map(|a| v(*a)).collect(),
            ret: dst.map(v),
        }),
        Inst::Phi { .. } => {
            return Err(CompileError::Internal(format!(
                "phi reached the backend in function `{fname}` (SSA not destructed)"
            )));
        }
    }
    Ok(())
}

fn lower_term(term: &Term, index: &[usize], level: OptLevel, vc: &mut VCode) -> VTerm {
    let at = |b: crate::mir::BlockId| -> usize {
        let i = index[b.0 as usize];
        assert!(i != usize::MAX, "terminator targets a reachable block");
        i
    };
    match term {
        Term::Goto(b) => VTerm::Goto { target: at(*b) },
        Term::Br {
            cond,
            then_block,
            else_block,
        } => VTerm::Br {
            cond: v(*cond),
            then_target: at(*then_block),
            else_target: at(*else_block),
        },
        Term::Switch {
            val,
            cases,
            default,
        } => {
            let values: Vec<i32> = cases.iter().map(|(c, _)| *c).collect();
            // Branch-chain lowering interleaves constant loads with the
            // scrutinee's compares, so it needs an early-def temporary;
            // jump tables index rodata and need none.
            let tmp = if !cases.is_empty() && !switch_uses_table(level, &values) {
                Some(Reg::Virt(vc.fresh()))
            } else {
                None
            };
            VTerm::Switch {
                val: v(*val),
                tmp,
                cases: cases.iter().map(|(c, b)| (*c, at(*b))).collect(),
                default: at(*default),
            }
        }
        Term::Ret(value) => VTerm::Ret {
            value: value.map(v),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{Block, BlockId, VReg};

    fn branchy() -> MirFunction {
        // bb0: br v0 ? bb1 : bb2; bb1: goto bb2; bb2: ret v0. The edge
        // bb0 -> bb2 is critical and still gets no block of its own.
        MirFunction {
            name: "f".into(),
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
                    term: Term::Goto(BlockId(2)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(VReg(0))),
                },
            ],
            next_vreg: 2,
        }
    }

    #[test]
    fn unreachable_blocks_are_dropped() {
        let mut f = branchy();
        f.blocks.push(Block {
            insts: vec![],
            term: Term::Ret(None),
        });
        let vc = lower_function(&f, OptLevel::O1).expect("lowers");
        assert_eq!(vc.blocks.len(), 3, "dead block not lowered");
    }

    #[test]
    fn phi_is_rejected() {
        let mut f = branchy();
        f.blocks[2].insts.push(Inst::Phi {
            dst: VReg(1),
            args: vec![],
        });
        assert!(matches!(
            lower_function(&f, OptLevel::O1),
            Err(CompileError::Internal(_))
        ));
    }

    #[test]
    fn chain_switches_get_an_early_def_temp_and_tables_do_not() {
        let mut f = branchy();
        let cases: Vec<(i32, BlockId)> = (0..8).map(|c| (c, BlockId(1))).collect();
        f.blocks[0].term = Term::Switch {
            val: VReg(0),
            cases,
            default: BlockId(2),
        };
        let chain = lower_function(&f, OptLevel::O1).expect("lowers");
        let VTerm::Switch { tmp, .. } = &chain.blocks[0].term else {
            panic!("switch survives lowering");
        };
        assert!(tmp.is_some(), "-O1 chains need a compare temp");
        let table = lower_function(&f, OptLevel::Os).expect("lowers");
        let VTerm::Switch { tmp, .. } = &table.blocks[0].term else {
            panic!("switch survives lowering");
        };
        assert!(tmp.is_none(), "-Os dense switches use a table");
    }
}
