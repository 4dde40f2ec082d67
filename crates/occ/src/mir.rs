//! The mid-level IR: three-address instructions over a control-flow graph.
//!
//! Everything is a 32-bit word. Locals and temporaries are virtual
//! registers; aggregates live in a flat global data image addressed by
//! byte offsets (the front end resolves struct/array accessors to address
//! arithmetic). Function addresses are first-class word values so that
//! const tables of function pointers survive to the data segment exactly
//! like in the paper's generated C++.

use std::fmt;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A basic-block id within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Binary ALU operations (comparisons produce 0/1 words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Division; division by zero yields zero (EM32 hardware semantics,
    /// matching the language definition).
    Div,
    /// Remainder; remainder by zero yields zero.
    Rem,
    And,
    Or,
    Xor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// Evaluates the operation on constant words.
    pub fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Eq => i32::from(a == b),
            BinOp::Ne => i32::from(a != b),
            BinOp::Lt => i32::from(a < b),
            BinOp::Le => i32::from(a <= b),
            BinOp::Gt => i32::from(a > b),
            BinOp::Ge => i32::from(a >= b),
        }
    }

    /// `true` if the operation is commutative.
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    /// Logical not on a 0/1 word.
    Not,
}

impl UnOp {
    /// Evaluates the operation on a constant word.
    pub fn eval(self, a: i32) -> i32 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => i32::from(a == 0),
        }
    }
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst = imm`.
    Const {
        /// Destination.
        dst: VReg,
        /// Immediate word.
        value: i32,
    },
    /// `dst = src`.
    Copy {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// `dst = op src`.
    Un {
        /// Operation.
        op: UnOp,
        /// Destination.
        dst: VReg,
        /// Operand.
        src: VReg,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// `dst = mem[addr]` (word load).
    Load {
        /// Destination.
        dst: VReg,
        /// Address register.
        addr: VReg,
    },
    /// `mem[addr] = src` (word store).
    Store {
        /// Address register.
        addr: VReg,
        /// Value register.
        src: VReg,
    },
    /// `dst = &global + offset` (address constant).
    Addr {
        /// Destination.
        dst: VReg,
        /// Global index in [`Program::globals`].
        global: usize,
        /// Byte offset.
        offset: i32,
    },
    /// `dst = &function` (code address constant).
    FnAddr {
        /// Destination.
        dst: VReg,
        /// Function index in [`Program::functions`].
        func: usize,
    },
    /// Direct call.
    Call {
        /// Result register for non-void callees.
        dst: Option<VReg>,
        /// Callee index.
        func: usize,
        /// Arguments (max 4).
        args: Vec<VReg>,
    },
    /// Call of a host/environment function.
    CallExtern {
        /// Result register.
        dst: Option<VReg>,
        /// Extern index in [`Program::externs`].
        ext: usize,
        /// Arguments (max 4).
        args: Vec<VReg>,
    },
    /// Indirect call through a code address.
    CallInd {
        /// Result register.
        dst: Option<VReg>,
        /// Register holding the code address.
        ptr: VReg,
        /// Arguments (max 4).
        args: Vec<VReg>,
    },
    /// SSA φ-node (only present between [`ssa::construct`](crate::ssa) and
    /// [`ssa::destruct`](crate::ssa)).
    Phi {
        /// Destination.
        dst: VReg,
        /// `(predecessor, value)` pairs.
        args: Vec<(BlockId, VReg)>,
    },
}

impl Inst {
    /// The defined register, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Addr { dst, .. }
            | Inst::FnAddr { dst, .. }
            | Inst::Phi { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } | Inst::CallExtern { dst, .. } | Inst::CallInd { dst, .. } => {
                *dst
            }
            Inst::Store { .. } => None,
        }
    }

    /// Mutable access to the defined register, if any. For calls this is
    /// the inner register of an existing `Some` destination; a void call
    /// has no definition to rewrite.
    pub fn def_mut(&mut self) -> Option<&mut VReg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Addr { dst, .. }
            | Inst::FnAddr { dst, .. }
            | Inst::Phi { dst, .. } => Some(dst),
            Inst::Call { dst, .. } | Inst::CallExtern { dst, .. } | Inst::CallInd { dst, .. } => {
                dst.as_mut()
            }
            Inst::Store { .. } => None,
        }
    }

    /// The used registers, in operand order (a call's pointer before its
    /// arguments, a φ's values in argument order), without allocating.
    pub fn uses(&self) -> Uses<'_> {
        let mut u = Uses {
            fixed: [VReg(0); 2],
            nfixed: 0,
            at: 0,
            args: [].iter(),
            phi: [].iter(),
        };
        match self {
            Inst::Const { .. } | Inst::Addr { .. } | Inst::FnAddr { .. } => {}
            Inst::Copy { src, .. } | Inst::Un { src, .. } | Inst::Load { addr: src, .. } => {
                u.fixed[0] = *src;
                u.nfixed = 1;
            }
            Inst::Bin { lhs: a, rhs: b, .. } | Inst::Store { addr: a, src: b } => {
                u.fixed = [*a, *b];
                u.nfixed = 2;
            }
            Inst::Call { args, .. } | Inst::CallExtern { args, .. } => u.args = args.iter(),
            Inst::CallInd { ptr, args, .. } => {
                u.fixed[0] = *ptr;
                u.nfixed = 1;
                u.args = args.iter();
            }
            Inst::Phi { args, .. } => u.phi = args.iter(),
        }
        u
    }

    /// Rewrites every used register through `f` (φ-nodes included).
    pub fn map_uses(&mut self, f: &mut impl FnMut(VReg) -> VReg) {
        match self {
            Inst::Const { .. } | Inst::Addr { .. } | Inst::FnAddr { .. } => {}
            Inst::Copy { src, .. } | Inst::Un { src, .. } => *src = f(*src),
            Inst::Load { addr, .. } => *addr = f(*addr),
            Inst::Bin { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Store { addr, src } => {
                *addr = f(*addr);
                *src = f(*src);
            }
            Inst::Call { args, .. } | Inst::CallExtern { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::CallInd { ptr, args, .. } => {
                *ptr = f(*ptr);
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Phi { args, .. } => {
                for (_, v) in args {
                    *v = f(*v);
                }
            }
        }
    }

    /// `true` if removing the instruction (when its result is unused)
    /// cannot change behaviour.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Inst::Const { .. }
                | Inst::Copy { .. }
                | Inst::Un { .. }
                | Inst::Bin { .. }
                | Inst::Load { .. }
                | Inst::Addr { .. }
                | Inst::FnAddr { .. }
                | Inst::Phi { .. }
        )
    }

    /// `true` if executing the instruction may read the global data
    /// image: loads, and calls (the callee may load). Extern calls are
    /// excluded: the EM32 `Ecall` passes arguments in registers only, so
    /// a host extern cannot observe memory.
    pub fn may_read_mem(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Call { .. } | Inst::CallInd { .. }
        )
    }

    /// `true` if executing the instruction may write the global data
    /// image: stores, and calls (the callee may store). Extern calls are
    /// excluded for the same reason as in [`Inst::may_read_mem`].
    pub fn may_write_mem(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. } | Inst::Call { .. } | Inst::CallInd { .. }
        )
    }

    /// The register holding the address a load or store accesses.
    pub fn mem_addr(&self) -> Option<VReg> {
        match self {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => Some(*addr),
            _ => None,
        }
    }
}

/// The registers an instruction reads, from [`Inst::uses`].
#[derive(Debug, Clone)]
pub struct Uses<'a> {
    /// Register operands that are fields of the instruction itself.
    fixed: [VReg; 2],
    nfixed: u8,
    at: u8,
    /// Call arguments, read after the fixed operands.
    args: std::slice::Iter<'a, VReg>,
    /// φ arguments.
    phi: std::slice::Iter<'a, (BlockId, VReg)>,
}

impl Iterator for Uses<'_> {
    type Item = VReg;

    fn next(&mut self) -> Option<VReg> {
        if self.at < self.nfixed {
            self.at += 1;
            return Some(self.fixed[usize::from(self.at - 1)]);
        }
        match self.args.next() {
            Some(v) => Some(*v),
            None => self.phi.next().map(|(_, v)| *v),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.nfixed - self.at) + self.args.len() + self.phi.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Uses<'_> {}

/// A block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// Unconditional jump.
    Goto(BlockId),
    /// Conditional branch on a 0/1 word.
    Br {
        /// Condition register.
        cond: VReg,
        /// Target when non-zero.
        then_block: BlockId,
        /// Target when zero.
        else_block: BlockId,
    },
    /// Multi-way branch.
    Switch {
        /// Scrutinee register.
        val: VReg,
        /// `(case value, target)` pairs.
        cases: Vec<(i32, BlockId)>,
        /// Default target.
        default: BlockId,
    },
    /// Function return.
    Ret(Option<VReg>),
}

impl Term {
    /// Successor blocks in order.
    pub fn succs(&self) -> Vec<BlockId> {
        match self {
            Term::Goto(b) => vec![*b],
            Term::Br {
                then_block,
                else_block,
                ..
            } => vec![*then_block, *else_block],
            Term::Switch { cases, default, .. } => {
                let mut v: Vec<BlockId> = cases.iter().map(|(_, b)| *b).collect();
                v.push(*default);
                v
            }
            Term::Ret(_) => vec![],
        }
    }

    /// The used register, if any (a terminator reads at most one).
    pub fn uses(&self) -> std::option::IntoIter<VReg> {
        match self {
            Term::Goto(_) | Term::Ret(None) => None,
            Term::Br { cond: v, .. } | Term::Switch { val: v, .. } | Term::Ret(Some(v)) => Some(*v),
        }
        .into_iter()
    }

    /// Rewrites used registers through `f`.
    pub fn map_uses(&mut self, f: &mut impl FnMut(VReg) -> VReg) {
        match self {
            Term::Br { cond, .. } => *cond = f(*cond),
            Term::Switch { val, .. } => *val = f(*val),
            Term::Ret(Some(v)) => *v = f(*v),
            _ => {}
        }
    }

    /// Rewrites successor block ids through `f`.
    pub fn map_succs(&mut self, f: &mut impl FnMut(BlockId) -> BlockId) {
        match self {
            Term::Goto(b) => *b = f(*b),
            Term::Br {
                then_block,
                else_block,
                ..
            } => {
                *then_block = f(*then_block);
                *else_block = f(*else_block);
            }
            Term::Switch { cases, default, .. } => {
                for (_, b) in cases {
                    *b = f(*b);
                }
                *default = f(*default);
            }
            Term::Ret(_) => {}
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// Terminator.
    pub term: Term,
}

/// A function in MIR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirFunction {
    /// Symbol name.
    pub name: String,
    /// Number of parameters (passed in `v0..vn`).
    pub params: usize,
    /// Whether the function produces a value.
    pub returns_value: bool,
    /// Exported (root for dead-function elimination, callable by the VM
    /// host).
    pub exported: bool,
    /// Blocks; entry is block 0.
    pub blocks: Vec<Block>,
    /// Next free virtual register number.
    pub next_vreg: u32,
}

impl MirFunction {
    /// Allocates a fresh virtual register.
    pub fn fresh(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    /// Iterates block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Immutable block access.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block access.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Total instruction count (a size proxy used by the inliner).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }
}

/// A global datum in the flat data image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalData {
    /// Symbol name.
    pub name: String,
    /// Size in bytes (word-aligned).
    pub size: usize,
    /// Initial words. `Word::FnAddr` entries are relocated to code
    /// addresses at layout time.
    pub words: Vec<Word>,
    /// `false` for rodata.
    pub mutable: bool,
}

/// One initialized word of global data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Word {
    /// Plain value.
    Int(i32),
    /// Address of a function (relocation).
    FnAddr(usize),
}

/// A whole program in MIR form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Functions; indices are call targets.
    pub functions: Vec<MirFunction>,
    /// Globals; indices are [`Inst::Addr`] targets.
    pub globals: Vec<GlobalData>,
    /// Extern names; indices are [`Inst::CallExtern`] targets.
    pub externs: Vec<String>,
}

impl fmt::Display for MirFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fn {}({} params){} {{",
            self.name,
            self.params,
            if self.returns_value { " -> val" } else { "" }
        )?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{i}:")?;
            for inst in &b.insts {
                writeln!(f, "  {inst:?}")?;
            }
            writeln!(f, "  {:?}", b.term)?;
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_matches_language_semantics() {
        assert_eq!(BinOp::Div.eval(7, 0), 0);
        assert_eq!(BinOp::Rem.eval(7, 0), 0);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Eq.eval(3, 3), 1);
        assert_eq!(BinOp::Add.eval(i32::MAX, 1), i32::MIN);
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Not.eval(0), 1);
        assert_eq!(UnOp::Not.eval(7), 0);
    }

    #[test]
    fn inst_def_use_sets() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: VReg(3),
            lhs: VReg(1),
            rhs: VReg(2),
        };
        assert_eq!(i.def(), Some(VReg(3)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![VReg(1), VReg(2)]);
        let call = Inst::CallInd {
            dst: None,
            ptr: VReg(7),
            args: vec![VReg(8), VReg(9)],
        };
        assert_eq!(call.uses().len(), 3);
        assert_eq!(
            call.uses().collect::<Vec<_>>(),
            vec![VReg(7), VReg(8), VReg(9)]
        );
        let phi = Inst::Phi {
            dst: VReg(4),
            args: vec![(BlockId(0), VReg(5)), (BlockId(1), VReg(6))],
        };
        assert_eq!(phi.uses().collect::<Vec<_>>(), vec![VReg(5), VReg(6)]);
        assert_eq!(
            Term::Ret(Some(VReg(2))).uses().collect::<Vec<_>>(),
            vec![VReg(2)]
        );
        assert_eq!(Term::Goto(BlockId(0)).uses().count(), 0);
        let s = Inst::Store {
            addr: VReg(4),
            src: VReg(5),
        };
        assert_eq!(s.def(), None);
        assert!(!Inst::Call {
            dst: None,
            func: 0,
            args: vec![]
        }
        .is_pure());
    }

    #[test]
    fn memory_effect_queries() {
        let load = Inst::Load {
            dst: VReg(1),
            addr: VReg(0),
        };
        assert!(load.may_read_mem() && !load.may_write_mem());
        assert_eq!(load.mem_addr(), Some(VReg(0)));
        let store = Inst::Store {
            addr: VReg(2),
            src: VReg(3),
        };
        assert!(store.may_write_mem() && !store.may_read_mem());
        assert_eq!(store.mem_addr(), Some(VReg(2)));
        let call = Inst::Call {
            dst: None,
            func: 0,
            args: vec![],
        };
        assert!(call.may_read_mem() && call.may_write_mem());
        assert_eq!(call.mem_addr(), None);
        // Externs pass registers only (EM32 `Ecall`): memory-transparent.
        let ext = Inst::CallExtern {
            dst: None,
            ext: 0,
            args: vec![],
        };
        assert!(!ext.may_read_mem() && !ext.may_write_mem());
    }

    #[test]
    fn term_succs() {
        let t = Term::Switch {
            val: VReg(0),
            cases: vec![(1, BlockId(1)), (2, BlockId(2))],
            default: BlockId(3),
        };
        assert_eq!(t.succs(), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(Term::Ret(None).succs(), vec![]);
    }

    #[test]
    fn map_uses_rewrites() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            dst: VReg(3),
            lhs: VReg(1),
            rhs: VReg(2),
        };
        i.map_uses(&mut |v| VReg(v.0 + 10));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![VReg(11), VReg(12)]);
    }
}
