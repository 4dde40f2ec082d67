//! EM32 backend: a Cranelift-shaped four-stage pipeline from MIR to
//! byte-accurate machine code.
//!
//! The backend is the measurement instrument of this whole repository —
//! the paper's numbers are "assembly code size in bytes", and every byte
//! reported here comes out of the stages below. The pipeline mirrors the
//! lowering → `VCode` → register allocation → emission architecture of
//! Cranelift-style code generators:
//!
//! | stage | module | input → output |
//! |-------|--------|----------------|
//! | 1. lowering | [`lower`] | MIR function → [`vcode::VCode`] over virtual registers, one block per reachable MIR block in reverse postorder (no edge is split: stage 2 puts code only inside blocks); more than four parameters or call arguments is [`CompileError::TooManyArgs`] |
//! | 2. register allocation | [`regalloc`] | `VCode` + dense block liveness ([`crate::cfg::Liveness`]) → live ranges, hints and locations in register-indexed `Vec`s → `VCode` over physical registers, spill code and prologue/epilogue inserted |
//! | 3. verification | [`vcode::VCode::verify_allocated`] | debug builds re-check every operand constraint and clobber fact post-allocation |
//! | 4. emission | [`emit`] | allocated `VCode` → [`AsmInst`] stream with layout optimization (fall-through ordering, jump-to-next elimination, identity-move removal) |
//!
//! Every stage reads an instruction's operands through
//! [`vcode::EmInst::operands`], an inline [`vcode::Operands`] list of at
//! most [`vcode::MAX_OPERANDS`] = 6 entries (an indirect call's pointer,
//! four arguments and result) that never touches the heap; stage 1's
//! argument-count check is what bounds it. No stage reads a clock: the
//! repository benchmark's traced run (`perfbench/`) times the backend as
//! one span around [`compile_program`] (`occ.backend_ms`).
//!
//! # EM32 ABI and register roles
//!
//! EM32 is a synthetic 32-bit RISC with a compressed-instruction subset
//! (2-byte `mv`/`ret`), 4-byte ALU/branch/memory forms and 8-byte address
//! formation, so `-Os` decisions have real bytes to win:
//!
//! | regs      | role                                                     |
//! |-----------|----------------------------------------------------------|
//! | `r0`      | hardwired zero ([`ZERO`])                                |
//! | `r1..r4`  | arguments / return value ([`ARG_REGS`], [`RET_REG`]); caller-saved, allocatable across call-free ranges |
//! | `r5..r11` | allocatable, callee-saved ([`ALLOC_REGS`])               |
//! | `r12,r13` | spill/rewrite scratch ([`SCRATCH0`], [`SCRATCH1`]); never allocated, never live across an instruction expansion |
//! | `r14`     | stack pointer ([`SP`])                                   |
//! | `r15`     | link register (managed by the VM)                        |
//!
//! A call passes up to four arguments in `r1..r4` and returns in `r1`.
//! Callees preserve `r5..r11` and `sp`; they may clobber `r1..r4` and
//! the scratch registers freely.
//!
//! # Operand constraints and clobbers
//!
//! Every [`vcode::EmInst`] reports its operands as
//! ([`vcode::Reg`], [`vcode::OpKind`], [`vcode::Constraint`]) triples:
//!
//! * **`Use`** — read at the instruction; the value's live range extends
//!   to this point.
//! * **`Def`** — written after all uses are read (an ALU result may
//!   share a register with its own source).
//! * **`EarlyDef`** — written *while uses are still live*, so it must
//!   not share a register with any same-instruction use. The branch-chain
//!   scratch of a lowered `Switch` is the canonical case: the chain
//!   interleaves `li tmp, c; beq val, tmp` while `val` stays live.
//! * **`Constraint::Fixed(p)`** — the operand must end up in physical
//!   register `p`: call arguments in [`ARG_REGS`], call results and the
//!   function return value in [`RET_REG`]. The allocator treats fixed
//!   constraints as placement hints plus interference facts; the spill
//!   rewriter materializes the moves; the debug-build verifier then
//!   checks the constraint literally holds.
//!
//! Call-shaped instructions additionally carry an explicit **clobber
//! set** — registers the instruction may overwrite beyond its defs.
//! `Jal`/`Jalr` clobber all of `r1..r4` (the callee runs arbitrary
//! code). `Ecall` is special-cased to its true VM semantics: the host
//! reads `r1..rN` and writes only `r1` when a result is produced, so
//! values can stay in unused caller-saved registers across an extern
//! call — a measurable size win over treating every call alike.
//!
//! # Example
//!
//! ```
//! use occ::{compile, OptLevel};
//! use tlang::{Expr, Function, Module, Stmt, Type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = Module::new("demo");
//! module.push_function(Function {
//!     name: "id".into(),
//!     params: vec![("x".into(), Type::I32)],
//!     ret: Type::I32,
//!     body: vec![Stmt::Return(Some(Expr::var("x")))],
//!     exported: true,
//! });
//! let artifact = compile(&module, OptLevel::Os)?;
//! // A leaf function whose value flows r1 -> r1 needs no frame at all:
//! // no spill slots, no saved callee-saved registers.
//! let stats = artifact.regalloc_stats();
//! assert_eq!(stats.spill_slots, 0);
//! assert_eq!(stats.saved_regs, 0);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::driver::Family;
use crate::mir::{BinOp, MirFunction, Program, Term, Word};
use crate::{CompileError, OptLevel};

pub mod emit;
pub mod lower;
pub mod regalloc;
pub mod vcode;

/// Base address of the data image in VM memory.
pub const DATA_BASE: u32 = 0x1_0000;
/// Base address of the text segment (function entry addresses).
pub const TEXT_BASE: u32 = 0x100_0000;

/// The hardwired-zero register `r0`.
pub const ZERO: u8 = 0;
/// The return-value register `r1`.
pub const RET_REG: u8 = 1;
/// Argument registers `r1..r4`, also the caller-saved allocatable pool.
pub const ARG_REGS: [u8; 4] = [1, 2, 3, 4];
/// Callee-saved allocatable registers `r5..r11`.
pub const ALLOC_REGS: [u8; 7] = [5, 6, 7, 8, 9, 10, 11];
/// First spill-rewrite scratch register `r12`.
pub const SCRATCH0: u8 = 12;
/// Second spill-rewrite scratch register `r13`.
pub const SCRATCH1: u8 = 13;
/// The stack pointer `r14`.
pub const SP: u8 = 14;

/// `true` for the callee-saved allocatable registers `r5..r11`.
pub(crate) fn is_callee_saved(r: u8) -> bool {
    (5..=11).contains(&r)
}

/// One EM32 instruction (labels are zero-size markers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmInst {
    /// Branch target marker.
    Label(usize),
    /// Load immediate.
    Li {
        /// Destination register.
        rd: u8,
        /// Immediate value.
        imm: i32,
    },
    /// Register move (compressed).
    Mv {
        /// Destination.
        rd: u8,
        /// Source.
        rs: u8,
    },
    /// Three-register ALU operation.
    Alu {
        /// Operation.
        op: BinOp,
        /// Destination.
        rd: u8,
        /// Left operand.
        rs1: u8,
        /// Right operand.
        rs2: u8,
    },
    /// Word load `rd = mem[base + off]`.
    Lw {
        /// Destination.
        rd: u8,
        /// Base register.
        base: u8,
        /// Byte offset.
        off: i32,
    },
    /// Word store `mem[base + off] = src`.
    Sw {
        /// Source register.
        src: u8,
        /// Base register.
        base: u8,
        /// Byte offset.
        off: i32,
    },
    /// Branch if equal.
    Beq {
        /// Left comparand.
        rs1: u8,
        /// Right comparand.
        rs2: u8,
        /// Target label.
        label: usize,
    },
    /// Branch if not equal.
    Bne {
        /// Left comparand.
        rs1: u8,
        /// Right comparand.
        rs2: u8,
        /// Target label.
        label: usize,
    },
    /// Unconditional jump to a label.
    J {
        /// Target label.
        label: usize,
    },
    /// Direct call.
    Jal {
        /// Callee function index.
        func: usize,
    },
    /// Indirect call through a register holding a code address.
    Jalr {
        /// Register with the target address.
        rs: u8,
    },
    /// Host-environment call.
    Ecall {
        /// Extern index.
        ext: usize,
        /// Number of register arguments.
        nargs: usize,
        /// Whether a result is produced in `r1`.
        returns: bool,
    },
    /// Function return (compressed).
    Ret,
    /// Address formation: `rd = DATA_BASE + global_offset + off`.
    La {
        /// Destination.
        rd: u8,
        /// Global index.
        global: usize,
        /// Extra byte offset.
        off: i32,
    },
    /// Code-address formation: `rd = &function`.
    LaFn {
        /// Destination.
        rd: u8,
        /// Function index.
        func: usize,
    },
    /// Bounds-checked jump table: `if rs in [lo, lo+n) goto labels[rs-lo]
    /// else default`. Costs 16 text bytes plus 4 rodata bytes per entry.
    JumpTable {
        /// Scrutinee register.
        rs: u8,
        /// Lowest covered value.
        lo: i32,
        /// Targets for `lo..lo+n`.
        labels: Vec<usize>,
        /// Out-of-range target.
        default: usize,
    },
}

impl AsmInst {
    /// Encoded size in text bytes.
    pub fn size(&self) -> usize {
        match self {
            AsmInst::Label(_) => 0,
            AsmInst::Mv { .. } | AsmInst::Ret => 2,
            AsmInst::Li { imm, .. } => {
                if i16::try_from(*imm).is_ok() {
                    4
                } else {
                    8
                }
            }
            AsmInst::La { .. } | AsmInst::LaFn { .. } => 8,
            AsmInst::JumpTable { .. } => 16,
            _ => 4,
        }
    }

    /// Additional rodata bytes (jump tables).
    pub fn rodata(&self) -> usize {
        match self {
            AsmInst::JumpTable { labels, .. } => labels.len() * 4,
            _ => 0,
        }
    }
}

/// Per-function register-allocation quality counters, surfaced on the
/// compiled artifact and gated by the bench regression CI stage exactly
/// like section sizes — an allocator decision that costs bytes should
/// fail the gate, not hide inside a total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegAllocStats {
    /// Stack slots the allocator spilled values into.
    pub spill_slots: usize,
    /// Callee-saved registers the prologue/epilogue must save/restore.
    pub saved_regs: usize,
    /// Text bytes of inserted spill code (slot loads and stores).
    pub spill_bytes: usize,
}

impl RegAllocStats {
    /// Accumulates another function's counters into this one.
    pub fn absorb(&mut self, other: RegAllocStats) {
        self.spill_slots += other.spill_slots;
        self.saved_regs += other.saved_regs;
        self.spill_bytes += other.spill_bytes;
    }
}

/// One assembled function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmFunction {
    /// Symbol name.
    pub name: String,
    /// Callable from the host.
    pub exported: bool,
    /// Instruction stream.
    pub insts: Vec<AsmInst>,
    /// Register-allocation quality counters for this function.
    pub stats: RegAllocStats,
}

impl AsmFunction {
    /// Text bytes of this function.
    pub fn text_size(&self) -> usize {
        self.insts.iter().map(AsmInst::size).sum()
    }

    /// Rodata bytes contributed by this function's jump tables.
    pub fn rodata_size(&self) -> usize {
        self.insts.iter().map(AsmInst::rodata).sum()
    }
}

/// An assembled global datum (function addresses resolved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmGlobal {
    /// Symbol name.
    pub name: String,
    /// Initialized words.
    pub words: Vec<i32>,
    /// `false` for rodata.
    pub mutable: bool,
    /// Byte offset within the data image.
    pub offset: u32,
}

/// A fully assembled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembly {
    /// Functions in layout order.
    pub functions: Vec<AsmFunction>,
    /// Data image.
    pub globals: Vec<AsmGlobal>,
    /// Extern names (`ecall` targets).
    pub externs: Vec<String>,
    /// Entry address of each function (`TEXT_BASE`-relative layout).
    pub fn_addrs: Vec<u32>,
}

/// Size accounting — the paper's "assembly code size (bytes)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SizeReport {
    /// Machine-code bytes.
    pub text: usize,
    /// Read-only data (const tables, jump tables).
    pub rodata: usize,
    /// Mutable data.
    pub data: usize,
}

impl SizeReport {
    /// Total image size.
    pub fn total(&self) -> usize {
        self.text + self.rodata + self.data
    }
}

impl fmt::Display for SizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "text {} + rodata {} + data {} = {} bytes",
            self.text,
            self.rodata,
            self.data,
            self.total()
        )
    }
}

impl Assembly {
    /// Computes the size report.
    pub fn sizes(&self) -> SizeReport {
        let mut r = SizeReport::default();
        for f in &self.functions {
            r.text += f.text_size();
            r.rodata += f.rodata_size();
        }
        for g in &self.globals {
            if g.mutable {
                r.data += g.words.len() * 4;
            } else {
                r.rodata += g.words.len() * 4;
            }
        }
        r
    }

    /// Whole-program register-allocation counters (sum over functions).
    pub fn regalloc_stats(&self) -> RegAllocStats {
        let mut total = RegAllocStats::default();
        for f in &self.functions {
            total.absorb(f.stats);
        }
        total
    }

    /// Per-function text sizes, for the dead-code report.
    pub fn function_sizes(&self) -> Vec<(String, usize)> {
        self.functions
            .iter()
            .map(|f| (f.name.clone(), f.text_size()))
            .collect()
    }

    /// Renders a human-readable listing.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.functions.iter().enumerate() {
            out.push_str(&format!(
                "{}: # {} bytes @0x{:x}\n",
                f.name,
                f.text_size(),
                self.fn_addrs[i]
            ));
            for inst in &f.insts {
                match inst {
                    AsmInst::Label(l) => out.push_str(&format!(".L{l}:\n")),
                    other => out.push_str(&format!("    {other:?}\n")),
                }
            }
        }
        for g in &self.globals {
            let kind = if g.mutable { ".data" } else { ".rodata" };
            out.push_str(&format!(
                "{kind} {}: {} bytes @0x{:x}\n",
                g.name,
                g.words.len() * 4,
                DATA_BASE + g.offset
            ));
        }
        out
    }
}

/// Compiles one MIR function through the full pipeline: lowering,
/// register allocation, (debug-build) verification, emission.
fn compile_function(f: &MirFunction, level: OptLevel) -> Result<AsmFunction, CompileError> {
    let mut vc = lower::lower_function(f, level)?;
    let alloc = regalloc::allocate(&mut vc);
    if cfg!(debug_assertions) {
        if let Err(e) = vc.verify_allocated(&alloc.saved) {
            return Err(CompileError::Internal(format!(
                "vcode verifier failed in `{}`: {e}",
                f.name
            )));
        }
    }
    Ok(emit::emit_function(&vc, level, alloc.stats))
}

/// Assembles a whole program: per-function compilation, layout, data-image
/// relocation.
///
/// # Errors
///
/// [`CompileError::TooManyArgs`] for a function of more than four
/// parameters or a call with more than four arguments (see
/// [`lower::lower_function`]), [`CompileError::Internal`] for a φ-node or,
/// in debug builds, an allocation the verifier rejects.
pub fn compile_program(program: &Program, level: OptLevel) -> Result<Assembly, CompileError> {
    assemble(program, level, None).map(|(asm, _)| asm)
}

/// [`compile_program`], taking a function's assembly from a level of
/// `family` whose optimized function of that name is equal and where
/// [`emit::switch_uses_table`] decides each of its `Switch`es as it does
/// at `level` — nothing else in the backend reads the level. Returns the
/// assembly and the number of functions taken.
pub(crate) fn assemble(
    program: &Program,
    level: OptLevel,
    family: Option<&Family>,
) -> Result<(Assembly, usize), CompileError> {
    let mut functions = Vec::with_capacity(program.functions.len());
    let mut reused = 0;
    for f in &program.functions {
        let earlier = family.into_iter().flat_map(Family::levels).find_map(|l| {
            let i = l
                .optimized
                .functions
                .iter()
                .position(|g| g.name == f.name)?;
            (l.optimized.functions[i] == *f && switches_agree(f, l.level, level))
                .then(|| &l.asm.functions[i])
        });
        functions.push(match earlier {
            Some(asm) => {
                reused += 1;
                asm.clone()
            }
            None => compile_function(f, level)?,
        });
    }
    // Text layout.
    let mut fn_addrs = Vec::with_capacity(functions.len());
    let mut cursor = TEXT_BASE;
    for f in &functions {
        fn_addrs.push(cursor);
        cursor += f.text_size() as u32;
    }
    // Data layout + relocation of function addresses.
    let mut globals = Vec::new();
    let mut offset = 0u32;
    for g in &program.globals {
        let words: Vec<i32> = g
            .words
            .iter()
            .map(|w| match w {
                Word::Int(v) => *v,
                Word::FnAddr(i) => fn_addrs[*i] as i32,
            })
            .collect();
        globals.push(AsmGlobal {
            name: g.name.clone(),
            words,
            mutable: g.mutable,
            offset,
        });
        offset += g.size as u32;
    }
    let asm = Assembly {
        functions,
        globals,
        externs: program.externs.clone(),
        fn_addrs,
    };
    Ok((asm, reused))
}

/// `true` when every `Switch` of `f` lowers to the same form at `a` and
/// at `b`.
fn switches_agree(f: &MirFunction, a: OptLevel, b: OptLevel) -> bool {
    a == b
        || f.blocks.iter().all(|blk| match &blk.term {
            Term::Switch { cases, .. } => {
                let values: Vec<i32> = cases.iter().map(|(c, _)| *c).collect();
                emit::switch_uses_table(a, &values) == emit::switch_uses_table(b, &values)
            }
            _ => true,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{Block, BlockId, Inst, Term, VReg};

    fn tiny_fn(name: &str, value: i32) -> MirFunction {
        MirFunction {
            name: name.into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![Block {
                insts: vec![Inst::Const {
                    dst: VReg(0),
                    value,
                }],
                term: Term::Ret(Some(VReg(0))),
            }],
            next_vreg: 1,
        }
    }

    #[test]
    fn compiles_tiny_function() {
        let f = tiny_fn("t", 7);
        let asm = compile_function(&f, OptLevel::O1).expect("compiles");
        assert!(asm.text_size() > 0);
        assert!(asm.insts.iter().any(|i| matches!(i, AsmInst::Ret)));
    }

    #[test]
    fn large_immediates_cost_more() {
        let small = compile_function(&tiny_fn("s", 7), OptLevel::O1).expect("ok");
        let large = compile_function(&tiny_fn("l", 1_000_000), OptLevel::O1).expect("ok");
        assert!(large.text_size() > small.text_size());
    }

    #[test]
    fn leaf_function_needs_no_frame() {
        // A call-free function keeps everything in caller-saved registers:
        // no saves, no slots, no prologue stores.
        let f = tiny_fn("leaf", 7);
        let asm = compile_function(&f, OptLevel::O1).expect("compiles");
        assert_eq!(asm.stats.saved_regs, 0, "{:?}", asm.insts);
        assert_eq!(asm.stats.spill_slots, 0);
        assert_eq!(asm.stats.spill_bytes, 0);
        assert!(!asm.insts.iter().any(|i| matches!(i, AsmInst::Sw { .. })));
    }

    #[test]
    fn values_live_across_calls_use_callee_saved_registers() {
        // v1 = 5; call f(); return v1  — v1 must survive the call, so it
        // needs a callee-saved register (and thus a frame).
        let f = MirFunction {
            name: "crosses".into(),
            params: 0,
            returns_value: true,
            exported: true,
            blocks: vec![Block {
                insts: vec![
                    Inst::Const {
                        dst: VReg(0),
                        value: 5,
                    },
                    Inst::Call {
                        dst: None,
                        func: 0,
                        args: vec![],
                    },
                ],
                term: Term::Ret(Some(VReg(0))),
            }],
            next_vreg: 1,
        };
        let asm = compile_function(&f, OptLevel::O1).expect("compiles");
        assert_eq!(asm.stats.saved_regs, 1, "{:?}", asm.insts);
        assert_eq!(asm.stats.spill_slots, 0);
    }

    #[test]
    fn values_dead_before_a_call_stay_caller_saved_across_a_critical_edge() {
        // bb0: v1 = 7; br v0 ? bb1 : bb2
        // bb1: goto bb2
        // bb2: call f(v1); call f(0); ret
        // v1 dies at the first call. The edge bb0 -> bb2 is critical; a
        // block for it, laid out after bb2, would stretch v1 over the
        // second call and into a callee-saved register.
        let call = |arg| Inst::Call {
            dst: None,
            func: 0,
            args: vec![VReg(arg)],
        };
        let f = MirFunction {
            name: "edge".into(),
            params: 1,
            returns_value: false,
            exported: true,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: VReg(1),
                        value: 7,
                    }],
                    term: Term::Br {
                        cond: VReg(0),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(2)),
                },
                Block {
                    insts: vec![
                        call(1),
                        Inst::Const {
                            dst: VReg(2),
                            value: 0,
                        },
                        call(2),
                    ],
                    term: Term::Ret(None),
                },
            ],
            next_vreg: 3,
        };
        let asm = compile_function(&f, OptLevel::O1).expect("compiles");
        assert_eq!(asm.stats.saved_regs, 0, "{:?}", asm.insts);
        assert_eq!(asm.stats.spill_slots, 0);
    }

    #[test]
    fn switch_lowering_strategy_depends_on_level() {
        let cases: Vec<(i32, BlockId)> = (0..8).map(|i| (i, BlockId(1))).collect();
        for (level, expect_table) in [(OptLevel::O1, false), (OptLevel::Os, true)] {
            let f = MirFunction {
                name: "sw".into(),
                params: 1,
                returns_value: false,
                exported: true,
                blocks: vec![
                    Block {
                        insts: vec![],
                        term: Term::Switch {
                            val: VReg(0),
                            cases: cases.clone(),
                            default: BlockId(1),
                        },
                    },
                    Block {
                        insts: vec![],
                        term: Term::Ret(None),
                    },
                ],
                next_vreg: 1,
            };
            let asm = compile_function(&f, level).expect("compiles");
            let has_table = asm
                .insts
                .iter()
                .any(|i| matches!(i, AsmInst::JumpTable { .. }));
            assert_eq!(has_table, expect_table, "{level}");
        }
    }

    #[test]
    fn program_layout_assigns_addresses_and_relocates() {
        let p = Program {
            functions: vec![tiny_fn("a", 1), tiny_fn("b", 2)],
            globals: vec![crate::mir::GlobalData {
                name: "tbl".into(),
                size: 8,
                words: vec![Word::FnAddr(1), Word::Int(5)],
                mutable: false,
            }],
            externs: vec![],
        };
        let asm = compile_program(&p, OptLevel::O1).expect("assembles");
        assert_eq!(asm.fn_addrs.len(), 2);
        assert!(asm.fn_addrs[1] > asm.fn_addrs[0]);
        assert_eq!(asm.globals[0].words[0], asm.fn_addrs[1] as i32);
        let sizes = asm.sizes();
        assert_eq!(sizes.rodata, 8);
        assert!(sizes.total() > 8);
    }

    #[test]
    fn listing_is_readable() {
        let p = Program {
            functions: vec![tiny_fn("main", 3)],
            globals: vec![],
            externs: vec![],
        };
        let asm = compile_program(&p, OptLevel::O1).expect("assembles");
        let text = asm.listing();
        assert!(text.contains("main:"));
        assert!(text.contains("Ret"));
    }

    #[test]
    fn over_long_argument_lists_are_errors_not_panics() {
        // A five-parameter function.
        let mut wide = tiny_fn("wide", 1);
        wide.params = 5;
        wide.next_vreg = 5;
        let p = Program {
            functions: vec![tiny_fn("main", 0), wide],
            globals: vec![],
            externs: vec![],
        };
        assert_eq!(
            compile_program(&p, OptLevel::O2).map(|_| ()),
            Err(CompileError::TooManyArgs {
                function: "wide".into(),
                arity: 5,
            })
        );
        // A five-argument call of each kind.
        let args: Vec<VReg> = vec![VReg(0); 5];
        for call in [
            Inst::Call {
                dst: None,
                func: 0,
                args: args.clone(),
            },
            Inst::CallExtern {
                dst: None,
                ext: 0,
                args: args.clone(),
            },
            Inst::CallInd {
                dst: Some(VReg(1)),
                ptr: VReg(0),
                args: args.clone(),
            },
        ] {
            let mut caller = tiny_fn("caller", 3);
            caller.next_vreg = 2;
            caller.blocks[0].insts.push(call);
            let p = Program {
                functions: vec![caller],
                globals: vec![],
                externs: vec!["env".into()],
            };
            assert!(
                matches!(
                    compile_program(&p, OptLevel::O0),
                    Err(CompileError::TooManyArgs { arity: 5, .. })
                ),
                "{:?}",
                p.functions[0].blocks[0].insts[1]
            );
            // Four arguments are the convention's limit, and fine.
            let mut p = p;
            if let Inst::Call { args, .. }
            | Inst::CallExtern { args, .. }
            | Inst::CallInd { args, .. } = &mut p.functions[0].blocks[0].insts[1]
            {
                args.pop();
            }
            compile_program(&p, OptLevel::O0).expect("four arguments compile");
        }
    }

    #[test]
    fn regalloc_stats_aggregate_over_functions() {
        let p = Program {
            functions: vec![tiny_fn("a", 1), tiny_fn("b", 2)],
            globals: vec![],
            externs: vec![],
        };
        let asm = compile_program(&p, OptLevel::O1).expect("assembles");
        let total = asm.regalloc_stats();
        let by_hand: usize = asm.functions.iter().map(|f| f.stats.spill_slots).sum();
        assert_eq!(total.spill_slots, by_hand);
    }
}
