//! `VCode`: machine-shaped code over virtual registers — the backend's
//! working representation between lowering and emission.
//!
//! A [`VCode`] is a list of basic blocks of [`EmInst`] — the
//! [`AsmInst`](super::AsmInst) shapes generalized over [`Reg`] operands —
//! plus a [`VTerm`] terminator per block. Before register allocation
//! operands are [`Reg::Virt`]; the allocator rewrites the `VCode` in
//! place so every operand is [`Reg::Phys`], with spill code, call-argument
//! moves and prologue/epilogue made explicit in the instruction stream.
//!
//! Each instruction describes itself to the allocator through two
//! queries: [`EmInst::operands`] (the use/def/early-def triples with
//! their [`Constraint`]s, as an inline [`Operands`] list of at most
//! [`MAX_OPERANDS`] entries) and [`EmInst::clobbers`] (a mask of the
//! physical registers the instruction may overwrite beyond its defs).
//! Neither allocates, so the allocator can ask for them per instruction
//! as often as it likes. The debug-build
//! [`VCode::verify_allocated`] re-checks both against the allocated
//! stream, the same way the [`crate::verify`] memory tier re-checks the
//! alias model: constraint satisfaction, early-def distinctness,
//! callee-saved discipline, and — via a physical-register liveness
//! analysis — that no value is live across an instruction that clobbers
//! its register.

use super::{is_callee_saved, ARG_REGS, RET_REG, SP, ZERO};
use crate::mir::{BinOp, VReg};

/// A register operand: virtual before allocation, physical after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reg {
    /// A virtual register, subject to allocation.
    Virt(VReg),
    /// A physical EM32 register.
    Phys(u8),
}

impl Reg {
    /// The physical register number, if allocated.
    pub fn phys(self) -> Option<u8> {
        match self {
            Reg::Phys(p) => Some(p),
            Reg::Virt(_) => None,
        }
    }
}

/// How an instruction touches an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read at the instruction.
    Use,
    /// Written after every use is read (may share a register with a use).
    Def,
    /// Written while same-instruction uses are still live — must not
    /// share a register with any of them.
    EarlyDef,
}

/// Where an operand is allowed to live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// Any allocatable register (or a spill slot).
    Any,
    /// Exactly this physical register, per the EM32 calling convention.
    /// The allocator treats it as a hint plus an interference fact; the
    /// spill rewriter inserts the satisfying moves.
    Fixed(u8),
}

/// One operand report: register, access kind, placement constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operand {
    /// The register.
    pub reg: Reg,
    /// Access kind.
    pub kind: OpKind,
    /// Placement constraint.
    pub constraint: Constraint,
}

impl Operand {
    fn new(reg: Reg, kind: OpKind, constraint: Constraint) -> Operand {
        Operand {
            reg,
            kind,
            constraint,
        }
    }
}

/// Capacity of an [`Operands`] list: the largest operand report is an
/// indirect call's — pointer, four arguments ([`ARG_REGS`]), result. The
/// backend rejects a wider call or function with
/// [`crate::CompileError::TooManyArgs`] before building `VCode`.
pub const MAX_OPERANDS: usize = 6;

/// An operand report held inline: at most [`MAX_OPERANDS`] entries and
/// no heap allocation. Dereferences to a slice of [`Operand`]s in report
/// order.
#[derive(Debug, Clone, Copy)]
pub struct Operands {
    ops: [Operand; MAX_OPERANDS],
    len: usize,
}

impl Operands {
    fn new() -> Operands {
        Operands {
            ops: [Operand::new(Reg::Phys(ZERO), OpKind::Use, Constraint::Any); MAX_OPERANDS],
            len: 0,
        }
    }

    fn push(&mut self, op: Operand) {
        self.ops[self.len] = op;
        self.len += 1;
    }

    fn with(mut self, op: Operand) -> Operands {
        self.push(op);
        self
    }
}

impl std::ops::Deref for Operands {
    type Target = [Operand];

    fn deref(&self) -> &[Operand] {
        &self.ops[..self.len]
    }
}

impl IntoIterator for Operands {
    type Item = Operand;
    type IntoIter = std::iter::Take<std::array::IntoIter<Operand, MAX_OPERANDS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a Operand;
    type IntoIter = std::slice::Iter<'a, Operand>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// An EM32 instruction shape over [`Reg`] operands. Call-shaped
/// instructions keep their argument and result registers as explicit
/// operand lists so the calling convention is visible to the allocator
/// (fixed constraints) and the verifier, instead of being hidden behind
/// pre-moved physical registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmInst {
    /// Load immediate.
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i32,
    },
    /// Register move.
    Mv {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// Three-register ALU operation.
    Alu {
        /// Operation.
        op: BinOp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// Word load `rd = mem[base + off]`.
    Lw {
        /// Destination.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// Word store `mem[base + off] = src`.
    Sw {
        /// Source register.
        src: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// Address formation: `rd = DATA_BASE + global_offset + off`.
    La {
        /// Destination.
        rd: Reg,
        /// Global index.
        global: usize,
        /// Extra byte offset.
        off: i32,
    },
    /// Code-address formation: `rd = &function`.
    LaFn {
        /// Destination.
        rd: Reg,
        /// Function index.
        func: usize,
    },
    /// Direct call. Arguments are fixed to [`ARG_REGS`], the result to
    /// [`RET_REG`]; the callee may clobber all of `r1..r4`.
    Jal {
        /// Callee function index.
        func: usize,
        /// Argument operands (fixed to `r1..rN`).
        args: Vec<Reg>,
        /// Result operand (fixed to `r1`), if the callee returns.
        ret: Option<Reg>,
    },
    /// Indirect call through a code address; same convention as [`EmInst::Jal`].
    Jalr {
        /// Register holding the target code address.
        ptr: Reg,
        /// Argument operands (fixed to `r1..rN`).
        args: Vec<Reg>,
        /// Result operand (fixed to `r1`), if the callee returns.
        ret: Option<Reg>,
    },
    /// Host-environment call. Clobbers only the argument registers it
    /// reads plus `r1` when it returns — the VM's `Ecall` writes nothing
    /// else, so values may stay in unused caller-saved registers across
    /// it.
    Ecall {
        /// Extern index.
        ext: usize,
        /// Argument operands (fixed to `r1..rN`).
        args: Vec<Reg>,
        /// Result operand (fixed to `r1`), if the extern returns.
        ret: Option<Reg>,
    },
}

impl EmInst {
    /// The operand report: every register this instruction touches, with
    /// access kind and placement constraint — uses before defs, a call's
    /// pointer before its arguments.
    ///
    /// # Panics
    ///
    /// Panics on a call with more than four arguments (more than
    /// [`ARG_REGS`] can carry).
    pub fn operands(&self) -> Operands {
        use Constraint::Any;
        use OpKind::{Def, Use};
        let ops = Operands::new();
        match self {
            EmInst::Li { rd, .. } | EmInst::La { rd, .. } | EmInst::LaFn { rd, .. } => {
                ops.with(Operand::new(*rd, Def, Any))
            }
            EmInst::Mv { rd, rs: src } | EmInst::Lw { rd, base: src, .. } => ops
                .with(Operand::new(*src, Use, Any))
                .with(Operand::new(*rd, Def, Any)),
            EmInst::Alu { rd, rs1, rs2, .. } => ops
                .with(Operand::new(*rs1, Use, Any))
                .with(Operand::new(*rs2, Use, Any))
                .with(Operand::new(*rd, Def, Any)),
            EmInst::Sw { src, base, .. } => ops
                .with(Operand::new(*src, Use, Any))
                .with(Operand::new(*base, Use, Any)),
            EmInst::Jal { args, ret, .. } | EmInst::Ecall { args, ret, .. } => {
                call_operands(ops, args, *ret)
            }
            EmInst::Jalr { ptr, args, ret } => {
                call_operands(ops.with(Operand::new(*ptr, Use, Any)), args, *ret)
            }
        }
    }

    /// Physical registers this instruction may overwrite beyond its defs,
    /// as a mask (bit `p` for register `p`).
    pub fn clobbers(&self) -> u16 {
        let mask = |regs: &[u8]| regs.iter().fold(0u16, |m, r| m | 1 << r);
        match self {
            // The callee runs arbitrary code: every caller-saved register
            // is fair game.
            EmInst::Jal { .. } | EmInst::Jalr { .. } => mask(&ARG_REGS),
            // The VM's Ecall reads r1..rN and writes only r1 when a
            // result is produced.
            EmInst::Ecall { args, ret, .. } => {
                mask(&ARG_REGS[..args.len()]) | if ret.is_some() { 1 << RET_REG } else { 0 }
            }
            _ => 0,
        }
    }
}

/// Appends a call's arguments (fixed to [`ARG_REGS`]) and result (fixed
/// to [`RET_REG`]).
fn call_operands(mut ops: Operands, args: &[Reg], ret: Option<Reg>) -> Operands {
    for (i, a) in args.iter().enumerate() {
        ops.push(Operand::new(
            *a,
            OpKind::Use,
            Constraint::Fixed(ARG_REGS[i]),
        ));
    }
    if let Some(r) = ret {
        ops.push(Operand::new(r, OpKind::Def, Constraint::Fixed(RET_REG)));
    }
    ops
}

/// A block terminator over [`Reg`] operands, with targets as `VCode`
/// block indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VTerm {
    /// Unconditional jump.
    Goto {
        /// Target block.
        target: usize,
    },
    /// Conditional branch on a 0/1 word.
    Br {
        /// Condition register.
        cond: Reg,
        /// Target when non-zero.
        then_target: usize,
        /// Target when zero.
        else_target: usize,
    },
    /// Multi-way branch. `tmp` is the branch-chain constant scratch —
    /// an **early-def**: the chain interleaves `li tmp, c; beq val, tmp`
    /// while `val` is still live, so they must not share a register.
    /// Jump-table lowerings carry no `tmp`.
    Switch {
        /// Scrutinee register.
        val: Reg,
        /// Branch-chain constant register (`None` for jump tables).
        tmp: Option<Reg>,
        /// `(case value, target)` pairs.
        cases: Vec<(i32, usize)>,
        /// Default target.
        default: usize,
    },
    /// Function return; the value is fixed to [`RET_REG`].
    Ret {
        /// Returned value, if any.
        value: Option<Reg>,
    },
}

impl VTerm {
    /// Successor block indices, in emission order (a `Switch`'s cases,
    /// then its default), without building a list.
    pub fn succs(&self) -> impl Iterator<Item = usize> + '_ {
        let (cases, tail): (&[(i32, usize)], [Option<usize>; 2]) = match self {
            VTerm::Goto { target } => (&[], [Some(*target), None]),
            VTerm::Br {
                then_target,
                else_target,
                ..
            } => (&[], [Some(*then_target), Some(*else_target)]),
            VTerm::Switch { cases, default, .. } => (cases, [Some(*default), None]),
            VTerm::Ret { .. } => (&[], [None, None]),
        };
        cases
            .iter()
            .map(|(_, t)| *t)
            .chain(tail.into_iter().flatten())
    }

    /// The operand report of the terminator.
    pub fn operands(&self) -> Operands {
        use Constraint::{Any, Fixed};
        use OpKind::{EarlyDef, Use};
        let ops = Operands::new();
        match self {
            VTerm::Goto { .. } | VTerm::Ret { value: None } => ops,
            VTerm::Br { cond, .. } => ops.with(Operand::new(*cond, Use, Any)),
            VTerm::Switch { val, tmp, .. } => {
                let ops = ops.with(Operand::new(*val, Use, Any));
                match tmp {
                    Some(t) => ops.with(Operand::new(*t, EarlyDef, Any)),
                    None => ops,
                }
            }
            VTerm::Ret { value: Some(v) } => ops.with(Operand::new(*v, Use, Fixed(RET_REG))),
        }
    }
}

/// One `VCode` basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VBlock {
    /// Straight-line instructions.
    pub insts: Vec<EmInst>,
    /// Terminator.
    pub term: VTerm,
}

/// Machine-shaped code for one function: one block per reachable MIR
/// block, in reverse postorder; block indices double as emission labels.
/// No edge gets a block of its own, because register allocation puts no
/// code on edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VCode {
    /// Symbol name.
    pub name: String,
    /// Callable from the host.
    pub exported: bool,
    /// Parameter virtual registers, in [`ARG_REGS`] order. Kept as
    /// metadata (not per-param moves) so the allocator can resolve all
    /// incoming-argument shuffles as one parallel move in the prologue.
    pub params: Vec<VReg>,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<VBlock>,
    /// Next free virtual register number (for lowering temporaries).
    pub next_vreg: u32,
}

impl VCode {
    /// Allocates a fresh virtual register.
    pub fn fresh(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    /// Verifies the post-allocation invariants; returns a description of
    /// the first violation. Intended for debug builds, mirroring the
    /// MIR-level [`crate::verify`] checker:
    ///
    /// 1. every operand is physical and within the register file;
    /// 2. every [`Constraint::Fixed`] operand sits in its register;
    /// 3. every [`OpKind::EarlyDef`] register differs from every
    ///    same-instruction use;
    /// 4. no write to `r0` or to a callee-saved register outside `saved`;
    /// 5. no physical register is live across an instruction that
    ///    clobbers it (checked by a backward liveness walk over physical
    ///    registers).
    pub fn verify_allocated(&self, saved: &[u8]) -> Result<(), String> {
        // Per-operand structural checks, gathering per-instruction
        // (uses, defs, clobbers) masks for the liveness walk.
        let mut block_insts: Vec<Vec<(u16, u16, u16)>> = Vec::with_capacity(self.blocks.len());
        for (bi, block) in self.blocks.iter().enumerate() {
            let mut masks = Vec::with_capacity(block.insts.len() + 1);
            let inst_ops = block
                .insts
                .iter()
                .map(|i| (i.operands(), i.clobbers()))
                .chain(std::iter::once((block.term.operands(), 0)));
            for (ii, (ops, clob_mask)) in inst_ops.enumerate() {
                let mut uses: u16 = 0;
                let mut defs: u16 = 0;
                for op in &ops {
                    let p = op.reg.phys().ok_or_else(|| {
                        format!(
                            "bb{bi} inst {ii}: virtual operand {:?} after allocation",
                            op.reg
                        )
                    })?;
                    if p >= 16 {
                        return Err(format!("bb{bi} inst {ii}: register r{p} out of range"));
                    }
                    if let Constraint::Fixed(want) = op.constraint {
                        if p != want {
                            return Err(format!(
                                "bb{bi} inst {ii}: fixed-r{want} operand allocated r{p}"
                            ));
                        }
                    }
                    match op.kind {
                        OpKind::Use => uses |= 1 << p,
                        OpKind::Def | OpKind::EarlyDef => {
                            if p == ZERO {
                                return Err(format!("bb{bi} inst {ii}: write to r0"));
                            }
                            if is_callee_saved(p) && !saved.contains(&p) {
                                return Err(format!(
                                    "bb{bi} inst {ii}: writes callee-saved r{p} without saving it"
                                ));
                            }
                            defs |= 1 << p;
                        }
                    }
                }
                for op in &ops {
                    if op.kind == OpKind::EarlyDef {
                        let p = op.reg.phys().expect("checked above");
                        if uses & (1 << p) != 0 {
                            return Err(format!(
                                "bb{bi} inst {ii}: early-def r{p} shares a register with a use"
                            ));
                        }
                    }
                }
                masks.push((uses, defs, clob_mask));
            }
            block_insts.push(masks);
        }

        // Physical-register liveness: block-level fixpoint, then a
        // backward walk checking clobbered registers are dead. The stack
        // pointer is implicitly live everywhere but never clobbered.
        let n = self.blocks.len();
        let mut use_mask = vec![0u16; n];
        let mut def_mask = vec![0u16; n];
        for (bi, masks) in block_insts.iter().enumerate() {
            for (uses, defs, _) in masks {
                use_mask[bi] |= uses & !def_mask[bi];
                def_mask[bi] |= defs;
            }
        }
        let mut live_in = vec![0u16; n];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                let mut out = 0u16;
                for s in self.blocks[bi].term.succs() {
                    out |= live_in[s];
                }
                let inn = use_mask[bi] | (out & !def_mask[bi]);
                if inn != live_in[bi] {
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        for (bi, masks) in block_insts.iter().enumerate() {
            let mut live = 0u16;
            for s in self.blocks[bi].term.succs() {
                live |= live_in[s];
            }
            for (ii, (uses, defs, clob)) in masks.iter().enumerate().rev() {
                live &= !defs;
                let bad = clob & live & !(1 << SP);
                if bad != 0 {
                    let r = bad.trailing_zeros();
                    return Err(format!(
                        "bb{bi} inst {ii}: r{r} is live across an instruction that clobbers it"
                    ));
                }
                live |= uses;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phys(p: u8) -> Reg {
        Reg::Phys(p)
    }

    #[test]
    fn operand_reports_follow_the_calling_convention() {
        let call = EmInst::Jal {
            func: 0,
            args: vec![Reg::Virt(VReg(3)), Reg::Virt(VReg(4))],
            ret: Some(Reg::Virt(VReg(5))),
        };
        let ops = call.operands();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].constraint, Constraint::Fixed(1));
        assert_eq!(ops[1].constraint, Constraint::Fixed(2));
        assert_eq!(ops[2].constraint, Constraint::Fixed(RET_REG));
        assert_eq!(ops[2].kind, OpKind::Def);
        assert_eq!(call.clobbers(), 0b1_1110, "r1..r4");
    }

    #[test]
    fn the_widest_operand_report_fits_inline() {
        let v = |n| Reg::Virt(VReg(n));
        let call = EmInst::Jalr {
            ptr: v(0),
            args: vec![v(1), v(2), v(3), v(4)],
            ret: Some(v(5)),
        };
        let ops = call.operands();
        assert_eq!(ops.len(), MAX_OPERANDS);
        assert_eq!(ops[0].constraint, Constraint::Any, "pointer first");
        let regs: Vec<Reg> = ops.into_iter().map(|o| o.reg).collect();
        assert_eq!(regs, (0..6).map(v).collect::<Vec<_>>());
        let term = VTerm::Switch {
            val: v(0),
            tmp: Some(v(1)),
            cases: vec![(0, 2), (1, 1)],
            default: 3,
        };
        assert_eq!(term.operands()[1].kind, OpKind::EarlyDef);
        assert_eq!(term.succs().collect::<Vec<_>>(), vec![2, 1, 3]);
        assert_eq!(VTerm::Ret { value: None }.operands().len(), 0);
        assert_eq!(VTerm::Ret { value: None }.succs().count(), 0);
    }

    #[test]
    fn ecall_clobbers_only_what_it_touches() {
        let e = EmInst::Ecall {
            ext: 0,
            args: vec![Reg::Virt(VReg(0))],
            ret: None,
        };
        assert_eq!(e.clobbers(), 1 << 1);
        let e2 = EmInst::Ecall {
            ext: 0,
            args: vec![],
            ret: Some(Reg::Virt(VReg(0))),
        };
        assert_eq!(e2.clobbers(), 1 << RET_REG);
    }

    #[test]
    fn verifier_accepts_a_trivial_allocated_function() {
        let vc = VCode {
            name: "ok".into(),
            exported: true,
            params: vec![],
            blocks: vec![VBlock {
                insts: vec![EmInst::Li {
                    rd: phys(1),
                    imm: 7,
                }],
                term: VTerm::Ret {
                    value: Some(phys(RET_REG)),
                },
            }],
            next_vreg: 0,
        };
        assert!(vc.verify_allocated(&[]).is_ok());
    }

    #[test]
    fn verifier_rejects_virtual_operands_and_broken_constraints() {
        let mut vc = VCode {
            name: "bad".into(),
            exported: true,
            params: vec![],
            blocks: vec![VBlock {
                insts: vec![EmInst::Li {
                    rd: Reg::Virt(VReg(0)),
                    imm: 7,
                }],
                term: VTerm::Ret { value: None },
            }],
            next_vreg: 1,
        };
        assert!(vc.verify_allocated(&[]).is_err(), "virtual operand");
        // A call arg allocated to the wrong fixed register.
        vc.blocks[0].insts = vec![EmInst::Jal {
            func: 0,
            args: vec![phys(2)],
            ret: None,
        }];
        let err = vc.verify_allocated(&[]).expect_err("fixed violated");
        assert!(err.contains("fixed-r1"), "{err}");
    }

    #[test]
    fn verifier_rejects_live_across_clobber() {
        // r2 is set before a Jal and used after it: the callee may
        // clobber r2, so this allocation is wrong.
        let vc = VCode {
            name: "clob".into(),
            exported: true,
            params: vec![],
            blocks: vec![VBlock {
                insts: vec![
                    EmInst::Li {
                        rd: phys(2),
                        imm: 5,
                    },
                    EmInst::Jal {
                        func: 0,
                        args: vec![],
                        ret: None,
                    },
                    EmInst::Mv {
                        rd: phys(1),
                        rs: phys(2),
                    },
                ],
                term: VTerm::Ret {
                    value: Some(phys(RET_REG)),
                },
            }],
            next_vreg: 0,
        };
        let err = vc.verify_allocated(&[]).expect_err("clobber crossing");
        assert!(err.contains("live across"), "{err}");
    }

    #[test]
    fn verifier_rejects_unsaved_callee_saved_writes() {
        let vc = VCode {
            name: "save".into(),
            exported: true,
            params: vec![],
            blocks: vec![VBlock {
                insts: vec![EmInst::Li {
                    rd: phys(5),
                    imm: 5,
                }],
                term: VTerm::Ret { value: None },
            }],
            next_vreg: 0,
        };
        assert!(vc.verify_allocated(&[]).is_err());
        assert!(vc.verify_allocated(&[5]).is_ok());
    }

    #[test]
    fn verifier_rejects_early_def_sharing_a_use_register() {
        let vc = VCode {
            name: "early".into(),
            exported: true,
            params: vec![],
            blocks: vec![
                VBlock {
                    insts: vec![EmInst::Li {
                        rd: phys(2),
                        imm: 1,
                    }],
                    term: VTerm::Switch {
                        val: phys(2),
                        tmp: Some(phys(2)),
                        cases: vec![(0, 1)],
                        default: 1,
                    },
                },
                VBlock {
                    insts: vec![],
                    term: VTerm::Ret { value: None },
                },
            ],
            next_vreg: 0,
        };
        let err = vc.verify_allocated(&[]).expect_err("early-def clash");
        assert!(err.contains("early-def"), "{err}");
    }
}
