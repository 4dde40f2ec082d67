//! One-time pre-decode of an [`Assembly`] into the dense internal form
//! the fast engine dispatches over (see the [module docs](super) for the
//! decode invariants this establishes).

use std::fmt;
use std::sync::Arc;

use super::STACK_SIZE;
use crate::backend::{AsmFunction, AsmGlobal, AsmInst, Assembly, DATA_BASE, TEXT_BASE};
use crate::mir::BinOp;

/// A decode-time rejection: malformed assembly is reported here, once,
/// instead of surfacing as a dispatch-time fault on some execution path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A branch or jump-table entry names a label the function does not
    /// define.
    UndefinedLabel {
        /// Function the reference appears in.
        func: String,
        /// The unresolvable label id.
        label: usize,
    },
    /// An `Ecall` names an extern index outside the extern table.
    UnknownExtern {
        /// Function the call appears in.
        func: String,
        /// The out-of-range extern index.
        ext: usize,
    },
    /// A direct call targets a function index outside the program.
    BadCallee {
        /// Function the call appears in.
        func: String,
        /// The out-of-range callee index.
        callee: usize,
    },
    /// An address formation names a global outside the data image.
    BadGlobal {
        /// Function the reference appears in.
        func: String,
        /// The out-of-range global index.
        global: usize,
    },
    /// An `Ecall` passes more arguments than the four argument registers
    /// of the EM32 calling convention.
    BadEcallArity {
        /// Function the call appears in.
        func: String,
        /// The oversized argument count.
        nargs: usize,
    },
    /// The program does not lay out exactly one code address per
    /// function.
    FnAddrCount {
        /// Number of functions.
        functions: usize,
        /// Number of function addresses.
        addrs: usize,
    },
    /// A function's code address cannot key the dense indirect-call map:
    /// it is below `TEXT_BASE`, not 2-aligned, at or past the end of the
    /// text the functions' sizes lay out from `TEXT_BASE`, 2^31 or more,
    /// or an earlier function's.
    BadFnAddr {
        /// The function laid out at the bad address.
        func: String,
        /// The offending code address.
        addr: u32,
    },
    /// An instruction names a register outside `r0`–`r15`.
    BadRegister {
        /// Function the instruction appears in.
        func: String,
        /// The out-of-range register number.
        reg: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UndefinedLabel { func, label } => {
                write!(f, "`{func}`: branch to undefined label {label}")
            }
            DecodeError::UnknownExtern { func, ext } => {
                write!(f, "`{func}`: ecall of unknown extern index {ext}")
            }
            DecodeError::BadCallee { func, callee } => {
                write!(f, "`{func}`: call of out-of-range function index {callee}")
            }
            DecodeError::BadGlobal { func, global } => {
                write!(f, "`{func}`: address of out-of-range global index {global}")
            }
            DecodeError::BadEcallArity { func, nargs } => {
                write!(f, "`{func}`: ecall passing {nargs} arguments (max 4)")
            }
            DecodeError::FnAddrCount { functions, addrs } => {
                write!(f, "{addrs} function addresses for {functions} functions")
            }
            DecodeError::BadFnAddr { func, addr } => {
                write!(f, "`{func}`: unmappable code address {addr:#x}")
            }
            DecodeError::BadRegister { func, reg } => {
                write!(f, "`{func}`: register r{reg} outside r0-r15")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The first register field of `inst` outside EM32's sixteen registers.
fn bad_register(inst: &AsmInst) -> Option<u8> {
    let fields = match *inst {
        AsmInst::Li { rd, .. } | AsmInst::La { rd, .. } | AsmInst::LaFn { rd, .. } => [rd, 0, 0],
        AsmInst::Mv { rd, rs } => [rd, rs, 0],
        AsmInst::Alu { rd, rs1, rs2, .. } => [rd, rs1, rs2],
        AsmInst::Lw { rd, base, .. } => [rd, base, 0],
        AsmInst::Sw { src, base, .. } => [src, base, 0],
        AsmInst::Beq { rs1, rs2, .. } | AsmInst::Bne { rs1, rs2, .. } => [rs1, rs2, 0],
        AsmInst::Jalr { rs } | AsmInst::JumpTable { rs, .. } => [rs, 0, 0],
        AsmInst::Label(_)
        | AsmInst::J { .. }
        | AsmInst::Jal { .. }
        | AsmInst::Ecall { .. }
        | AsmInst::Ret => return None,
    };
    fields.into_iter().find(|&r| r >= 16)
}

/// One pre-decoded micro-op. `Copy` by construction — variable-length
/// payloads (jump tables) live in the side pool of [`DecodedProgram`] —
/// so the dispatch loop fetches by value from one dense array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Fuel-charging no-op: the decoded form of any write whose
    /// destination is the hardwired-zero `r0`. Rewriting those here lets
    /// the dispatch loop write registers unconditionally — no op it
    /// executes ever names `r0` as a destination, so `regs[0] == 0` is an
    /// invariant, not a per-write check.
    Nop,
    /// `rd = imm` (`rd != 0`). Also the pre-split form of `La`/`LaFn`:
    /// the absolute address is computed at decode time.
    Li { rd: u8, imm: i32 },
    /// `rd = rs`.
    Mv { rd: u8, rs: u8 },
    /// `rd = rs1 op rs2`.
    Alu { op: BinOp, rd: u8, rs1: u8, rs2: u8 },
    /// `rd = mem[base + off]`.
    Lw { rd: u8, base: u8, off: i32 },
    /// `mem[base + off] = src`.
    Sw { src: u8, base: u8, off: i32 },
    /// Branch to the absolute op index `target` if `rs1 == rs2`.
    Beq { rs1: u8, rs2: u8, target: u32 },
    /// Branch to the absolute op index `target` if `rs1 != rs2`.
    Bne { rs1: u8, rs2: u8, target: u32 },
    /// Unconditional jump to the absolute op index `target`.
    Jmp { target: u32 },
    /// Direct call: push the return op index, continue at `entry`.
    Call { entry: u32 },
    /// Indirect call through the code address in `rs` (resolved through
    /// the dense [`DecodedProgram::code_map`] at dispatch time — the one
    /// target resolution that is genuinely run-time).
    CallInd { rs: u8 },
    /// Host-environment call.
    Ecall { ext: u16, nargs: u8, returns: bool },
    /// Return to the popped op index, or finish the run.
    Ret,
    /// Bounds-checked jump table; the payload lives in the
    /// [`TableMeta`] side pool so this (rare) op doesn't widen the whole
    /// enum past its 8-byte fetch.
    Table { meta: u32 },

    // ---- fused pairs (superinstructions) -------------------------------
    //
    // A decode-time peephole replaces the hottest adjacent fall-through
    // pairs with one op covering both, so the dispatch loop pays one
    // fetch + indirect branch for two instructions. The second slot of a
    // fused pair KEEPS its plain op (the fused op skips it with an extra
    // `pc += 1`), so branches into the middle of a pair stay valid and
    // every slot index is unchanged. Each fused arm re-checks and
    // re-decrements fuel between its two halves, so `OutOfFuel` fires at
    // exactly the same step as in the oracle. Register numbers are packed
    // two per byte (`hi << 4 | lo`) — a nibble is already `< 16`, which
    // also lets the register file be indexed without a bounds check.
    /// `Li` then `Alu` whose *right* operand is the value just loaded
    /// (`rs2 == rd_li`), the load-immediate-operand form: the dispatch
    /// arm feeds `imm` straight into the ALU instead of reloading it
    /// through the register file (cuts a store-to-load dependency).
    /// `rds` = `rd_li|rd`, `rs1` plain; fused only when the immediate
    /// fits `i16`.
    LiAluI {
        op: BinOp,
        rds: u8,
        rs1: u8,
        imm: i16,
    },
    /// `Li` then `Li`: `rd(rds hi) = imm1; rd(rds lo) = imm2` (both
    /// immediates fit `i16`).
    LiLi { rds: u8, imm1: i16, imm2: i16 },
    /// `Alu` then `Beq`/`Bne` (compare-and-branch): `ops` = [`BinOp`]
    /// nibble `<< 4 | is_eq`, `a` = `rd|rs1`, `b` = `rs2|brs1`, `c` =
    /// `brs2 << 4`. Fused only when the branch target fits `u16`.
    AluBr {
        ops: u8,
        a: u8,
        b: u8,
        c: u8,
        target: u16,
    },
    /// `Lw` then `Lw` (struct/context copies): `rds` = `rd1|rd2`,
    /// `bases` = `base1|base2`, offsets fit `i16`.
    LwLw {
        rds: u8,
        bases: u8,
        off1: i16,
        off2: i16,
    },
    /// `Sw` then `Sw`: `srcs` = `src1|src2`, `bases` = `base1|base2`,
    /// offsets fit `i16`.
    SwSw {
        srcs: u8,
        bases: u8,
        off1: i16,
        off2: i16,
    },
}

/// Reverse of `BinOp as u8` for the nibble-packed fused ops, padded to 16
/// entries so a masked nibble indexes it without a bounds check.
pub(crate) const BINOP_FROM_NIBBLE: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Add,
    BinOp::Add,
];

/// Packs two register numbers (each `< 16`) into one byte.
fn pack(hi: u8, lo: u8) -> u8 {
    debug_assert!(hi < 16 && lo < 16);
    (hi << 4) | lo
}

/// The decode-time peephole: greedily fuses adjacent fall-through pairs
/// within one function's slot range (left to right, first match wins).
/// The first slot gets the fused op; the second keeps its plain op as a
/// branch-target landing pad.
fn fuse_pairs(ops: &mut [Op]) {
    let mut i = 0;
    while i + 1 < ops.len() {
        if let Some(fused) = try_fuse(ops[i], ops[i + 1]) {
            ops[i] = fused;
            i += 2;
        } else {
            i += 1;
        }
    }
}

fn try_fuse(first: Op, second: Op) -> Option<Op> {
    match (first, second) {
        (Op::Li { rd: rd1, imm }, Op::Alu { op, rd, rs1, rs2 }) if rs2 == rd1 => Some(Op::LiAluI {
            op,
            rds: pack(rd1, rd),
            rs1,
            imm: i16::try_from(imm).ok()?,
        }),
        (Op::Li { rd: rd1, imm: i1 }, Op::Li { rd: rd2, imm: i2 }) => {
            let imm1 = i16::try_from(i1).ok()?;
            let imm2 = i16::try_from(i2).ok()?;
            Some(Op::LiLi {
                rds: pack(rd1, rd2),
                imm1,
                imm2,
            })
        }
        (
            Op::Alu { op, rd, rs1, rs2 },
            Op::Beq {
                rs1: b1,
                rs2: b2,
                target,
            },
        )
        | (
            Op::Alu { op, rd, rs1, rs2 },
            Op::Bne {
                rs1: b1,
                rs2: b2,
                target,
            },
        ) => {
            let target = u16::try_from(target).ok()?;
            let is_eq = matches!(second, Op::Beq { .. });
            Some(Op::AluBr {
                ops: pack(op as u8, u8::from(is_eq)),
                a: pack(rd, rs1),
                b: pack(rs2, b1),
                c: pack(b2, 0),
                target,
            })
        }
        (
            Op::Lw {
                rd: rd1,
                base: base1,
                off: o1,
            },
            Op::Lw {
                rd: rd2,
                base: base2,
                off: o2,
            },
        ) => {
            // Unlike `Li`/`Mv`/`Alu`, an `Lw` to `r0` survives decode
            // un-rewritten (it keeps its fault check), so an `r0`
            // destination can reach this point — and the fused arm
            // writes both destinations unconditionally. Don't fuse.
            if rd1 == 0 || rd2 == 0 {
                return None;
            }
            let off1 = i16::try_from(o1).ok()?;
            let off2 = i16::try_from(o2).ok()?;
            Some(Op::LwLw {
                rds: pack(rd1, rd2),
                bases: pack(base1, base2),
                off1,
                off2,
            })
        }
        (
            Op::Sw {
                src: s1,
                base: base1,
                off: o1,
            },
            Op::Sw {
                src: s2,
                base: base2,
                off: o2,
            },
        ) => {
            let off1 = i16::try_from(o1).ok()?;
            let off2 = i16::try_from(o2).ok()?;
            Some(Op::SwSw {
                srcs: pack(s1, s2),
                bases: pack(base1, base2),
                off1,
                off2,
            })
        }
        _ => None,
    }
}

/// Payload of one [`Op::Table`]: the bounds check and the slice of the
/// flat target pool it dispatches over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableMeta {
    pub rs: u8,
    pub lo: i32,
    /// First target in [`DecodedProgram::tables`].
    pub start: u32,
    pub len: u32,
    /// Absolute op index for out-of-range scrutinees.
    pub default: u32,
}

/// One function's decoded metadata.
#[derive(Debug, Clone)]
pub(crate) struct FnInfo {
    /// Symbol name (entry lookup only — never consulted mid-dispatch).
    pub name: String,
    /// Callable from the host.
    pub exported: bool,
    /// Absolute index of the function's first op.
    pub entry: u32,
}

/// The dense, pre-decoded form of an [`Assembly`]: one flat op array for
/// all functions, pre-resolved branch/call targets, a flat jump-table
/// pool, the extern name table and the initial memory image, beside the
/// assembly it was decoded from. Produced once per program by
/// [`DecodedProgram::decode`] (and carried on every
/// [`Artifact`](crate::Artifact)); both engines run one:
/// [`FastVm`](super::FastVm) its ops, [`Vm`](super::Vm) its assembly.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// The decoded assembly, shared with the compile that produced it.
    asm: Arc<Assembly>,
    pub(crate) ops: Vec<Op>,
    /// Flat pool of jump-table targets (absolute op indices).
    pub(crate) tables: Vec<u32>,
    /// One entry per `Op::Table`, indexed by its `meta` field.
    pub(crate) table_meta: Vec<TableMeta>,
    pub(crate) funcs: Vec<FnInfo>,
    pub(crate) externs: Vec<String>,
    /// Initial memory image: data segment + zeroed stack (see
    /// [`initial_memory`]).
    pub(crate) mem: Vec<u8>,
    /// Dense indirect-call resolution: `code_map[(addr - TEXT_BASE) / 2]`
    /// is the entry op index of the function laid out at code address
    /// `addr`, or `u32::MAX` between entries (EM32 code addresses are
    /// 2-aligned — compressed instructions are 2 bytes). One load per
    /// `Jalr` instead of a binary search.
    pub(crate) code_map: Vec<u32>,
}

impl DecodedProgram {
    /// Pre-decodes an assembly, validating every statically resolvable
    /// target (see the [module docs](super) for the invariant list). The
    /// program keeps a copy of `asm` for the oracle; a compile's
    /// [`Artifact`](crate::Artifact) shares its assembly instead.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`]; compiler-produced assemblies
    /// never fail (the backend only emits in-range references), so a
    /// failure here indicates a malformed hand-built program or a
    /// backend bug.
    pub fn decode(asm: &Assembly) -> Result<DecodedProgram, DecodeError> {
        DecodedProgram::decode_shared(Arc::new(asm.clone()))
    }

    /// [`decode`](DecodedProgram::decode) of an assembly the caller
    /// already shares, which the program keeps without a copy.
    pub(crate) fn decode_shared(asm: Arc<Assembly>) -> Result<DecodedProgram, DecodeError> {
        if asm.fn_addrs.len() != asm.functions.len() {
            return Err(DecodeError::FnAddrCount {
                functions: asm.functions.len(),
                addrs: asm.fn_addrs.len(),
            });
        }
        // Pass A: per-function entries and label -> local-op-index maps.
        // Every non-label instruction emits exactly one op; every
        // function gets one appended `Ret`, so a label at the very end
        // of the stream resolves to that implicit return.
        let mut entries: Vec<u32> = Vec::with_capacity(asm.functions.len());
        let mut label_maps: Vec<std::collections::BTreeMap<usize, u32>> =
            Vec::with_capacity(asm.functions.len());
        let mut cursor: u32 = 0;
        for f in &asm.functions {
            entries.push(cursor);
            let mut map = std::collections::BTreeMap::new();
            let mut local: u32 = 0;
            for inst in &f.insts {
                match inst {
                    AsmInst::Label(l) => {
                        map.insert(*l, local);
                    }
                    _ => local += 1,
                }
            }
            label_maps.push(map);
            cursor += local + 1; // + the appended Ret
        }

        // Pass B: emit ops with every target resolved to an absolute
        // op index.
        let mut ops: Vec<Op> = Vec::with_capacity(cursor as usize);
        let mut tables: Vec<u32> = Vec::new();
        let mut table_meta: Vec<TableMeta> = Vec::new();
        for (fi, f) in asm.functions.iter().enumerate() {
            let entry = entries[fi];
            let resolve = |label: usize| -> Result<u32, DecodeError> {
                label_maps[fi]
                    .get(&label)
                    .map(|local| entry + local)
                    .ok_or_else(|| DecodeError::UndefinedLabel {
                        func: f.name.clone(),
                        label,
                    })
            };
            for inst in &f.insts {
                // Before the `r0`-write decay below, which would hide a
                // bad source register of a decayed write.
                if let Some(reg) = bad_register(inst) {
                    return Err(DecodeError::BadRegister {
                        func: f.name.clone(),
                        reg,
                    });
                }
                let op = match inst {
                    AsmInst::Label(_) => continue,
                    // Pure ops writing `r0` decay to fuel-charging no-ops
                    // (reads have no side effects); `Lw` keeps its fault
                    // check, so it is not rewritten.
                    AsmInst::Li { rd: 0, .. } | AsmInst::Mv { rd: 0, .. } => Op::Nop,
                    AsmInst::Alu { rd: 0, .. } => Op::Nop,
                    AsmInst::Li { rd, imm } => Op::Li { rd: *rd, imm: *imm },
                    AsmInst::Mv { rd, rs } => Op::Mv { rd: *rd, rs: *rs },
                    AsmInst::Alu { op, rd, rs1, rs2 } => Op::Alu {
                        op: *op,
                        rd: *rd,
                        rs1: *rs1,
                        rs2: *rs2,
                    },
                    AsmInst::Lw { rd, base, off } => Op::Lw {
                        rd: *rd,
                        base: *base,
                        off: *off,
                    },
                    AsmInst::Sw { src, base, off } => Op::Sw {
                        src: *src,
                        base: *base,
                        off: *off,
                    },
                    AsmInst::Beq { rs1, rs2, label } => Op::Beq {
                        rs1: *rs1,
                        rs2: *rs2,
                        target: resolve(*label)?,
                    },
                    AsmInst::Bne { rs1, rs2, label } => Op::Bne {
                        rs1: *rs1,
                        rs2: *rs2,
                        target: resolve(*label)?,
                    },
                    AsmInst::J { label } => Op::Jmp {
                        target: resolve(*label)?,
                    },
                    AsmInst::Jal { func } => {
                        if *func >= asm.functions.len() {
                            return Err(DecodeError::BadCallee {
                                func: f.name.clone(),
                                callee: *func,
                            });
                        }
                        Op::Call {
                            entry: entries[*func],
                        }
                    }
                    AsmInst::Jalr { rs } => Op::CallInd { rs: *rs },
                    AsmInst::Ecall {
                        ext,
                        nargs,
                        returns,
                    } => {
                        if *ext >= asm.externs.len() {
                            return Err(DecodeError::UnknownExtern {
                                func: f.name.clone(),
                                ext: *ext,
                            });
                        }
                        // The calling convention has four argument
                        // registers; the compiler enforces this at the
                        // frontend (`TooManyArgs`), so an oversized
                        // arity is a malformed hand-built program.
                        if *nargs > 4 {
                            return Err(DecodeError::BadEcallArity {
                                func: f.name.clone(),
                                nargs: *nargs,
                            });
                        }
                        Op::Ecall {
                            ext: *ext as u16,
                            nargs: *nargs as u8,
                            returns: *returns,
                        }
                    }
                    AsmInst::Ret => Op::Ret,
                    AsmInst::La { rd, global, off } => {
                        let g = asm
                            .globals
                            .get(*global)
                            .ok_or_else(|| DecodeError::BadGlobal {
                                func: f.name.clone(),
                                global: *global,
                            })?;
                        if *rd == 0 {
                            Op::Nop
                        } else {
                            Op::Li {
                                rd: *rd,
                                imm: DATA_BASE as i32 + g.offset as i32 + off,
                            }
                        }
                    }
                    AsmInst::LaFn { rd, func } => {
                        let addr =
                            asm.fn_addrs
                                .get(*func)
                                .ok_or_else(|| DecodeError::BadCallee {
                                    func: f.name.clone(),
                                    callee: *func,
                                })?;
                        if *rd == 0 {
                            Op::Nop
                        } else {
                            Op::Li {
                                rd: *rd,
                                imm: *addr as i32,
                            }
                        }
                    }
                    AsmInst::JumpTable {
                        rs,
                        lo,
                        labels,
                        default,
                    } => {
                        let start = tables.len() as u32;
                        for l in labels {
                            let t = resolve(*l)?;
                            tables.push(t);
                        }
                        table_meta.push(TableMeta {
                            rs: *rs,
                            lo: *lo,
                            start,
                            len: labels.len() as u32,
                            default: resolve(*default)?,
                        });
                        Op::Table {
                            meta: table_meta.len() as u32 - 1,
                        }
                    }
                };
                ops.push(op);
            }
            // The implicit return of a void tail becomes an explicit op,
            // so "falling off the end" is ordinary dispatch.
            ops.push(Op::Ret);
            debug_assert_eq!(
                ops.len() as u32,
                entries.get(fi + 1).copied().unwrap_or(cursor)
            );
            // Superinstruction peephole over the finished function (slot
            // indices are final — the label maps above already resolved
            // against them, and fusing never moves a slot).
            fuse_pairs(&mut ops[entry as usize..]);
        }

        // Dense code map: text layout is a few KB at most, so a
        // half-word-granular table (u32 per 2 code bytes) costs little
        // and makes every `Jalr` a single load. The backend lays the
        // functions out back to back from `TEXT_BASE`, so every entry
        // lies inside the text and the map never outgrows it.
        let text: usize = asm.functions.iter().map(AsmFunction::text_size).sum();
        let mut code_map: Vec<u32> = Vec::new();
        for (f, (a, e)) in asm.functions.iter().zip(asm.fn_addrs.iter().zip(&entries)) {
            // An address below `TEXT_BASE` would underflow the index, an
            // odd one would truncate into the wrong slot, one of 2^31 or
            // more reads as negative from a register (the oracle would
            // still call it, the fast engine would not), one at or past
            // the end of the text would size the map by the address, not
            // the code (about 4 GiB for one function near 2^31), and a
            // shared one would let the later function shadow the earlier
            // — all malformed hand-built layouts, caught here once.
            let idx = a
                .checked_sub(TEXT_BASE)
                .filter(|off| off % 2 == 0 && (*off as usize) < text && i32::try_from(*a).is_ok())
                .map(|off| (off / 2) as usize)
                .filter(|&i| code_map.get(i).is_none_or(|&taken| taken == u32::MAX));
            let Some(idx) = idx else {
                return Err(DecodeError::BadFnAddr {
                    func: f.name.clone(),
                    addr: *a,
                });
            };
            if code_map.len() <= idx {
                code_map.resize(idx + 1, u32::MAX);
            }
            code_map[idx] = *e;
        }

        Ok(DecodedProgram {
            ops,
            tables,
            table_meta,
            funcs: asm
                .functions
                .iter()
                .zip(&entries)
                .map(|(f, e)| FnInfo {
                    name: f.name.clone(),
                    exported: f.exported,
                    entry: *e,
                })
                .collect(),
            externs: asm.externs.clone(),
            mem: initial_memory(&asm.globals),
            code_map,
            asm,
        })
    }

    /// The assembly this program was decoded from.
    pub fn assembly(&self) -> &Assembly {
        &self.asm
    }

    /// The absolute entry op index of an exported function.
    pub(crate) fn entry_of(&self, name: &str) -> Option<u32> {
        self.funcs
            .iter()
            .find(|f| f.exported && f.name == name)
            .map(|f| f.entry)
    }

    /// Number of decoded micro-ops (labels erased, implicit returns
    /// materialized) — the dense program's size.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// Builds the initial memory image for an assembly's globals: the data
/// segment at [`DATA_BASE`](crate::backend::DATA_BASE) followed by
/// [`STACK_SIZE`] zeroed stack bytes. Both engines start from this image
/// (the oracle takes it from its decode), so their address spaces are
/// bit-identical.
fn initial_memory(globals: &[AsmGlobal]) -> Vec<u8> {
    let data_len: usize = globals.iter().map(|g| g.words.len() * 4).sum();
    let mem_len = DATA_BASE as usize + data_len + STACK_SIZE;
    let mut mem = vec![0u8; mem_len];
    for g in globals {
        let base = DATA_BASE as usize + g.offset as usize;
        for (i, w) in g.words.iter().enumerate() {
            mem[base + i * 4..base + i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
    }
    mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RegAllocStats;

    fn func(name: &str, insts: Vec<AsmInst>) -> AsmFunction {
        AsmFunction {
            name: name.into(),
            exported: true,
            insts,
            stats: RegAllocStats::default(),
        }
    }

    /// The functions laid out back to back from `TEXT_BASE`, as the
    /// backend lays them out.
    fn asm(functions: Vec<AsmFunction>) -> Assembly {
        let fn_addrs = functions
            .iter()
            .scan(TEXT_BASE, |next, f| {
                let at = *next;
                *next += f.text_size() as u32;
                Some(at)
            })
            .collect();
        Assembly {
            functions,
            globals: vec![],
            externs: vec!["emit".into()],
            fn_addrs,
        }
    }

    #[test]
    fn labels_erased_and_implicit_ret_appended() {
        let a = asm(vec![func(
            "f",
            vec![
                AsmInst::Label(0),
                AsmInst::Li { rd: 1, imm: 7 },
                AsmInst::Label(1),
                AsmInst::Label(2),
            ],
        )]);
        let d = DecodedProgram::decode(&a).expect("decodes");
        // One real instruction + the appended Ret; three labels erased.
        assert_eq!(d.op_count(), 2);
        assert_eq!(d.ops[0], Op::Li { rd: 1, imm: 7 });
        assert_eq!(d.ops[1], Op::Ret);
    }

    #[test]
    fn end_label_resolves_to_implicit_ret() {
        // A branch to a label sitting after the last real instruction
        // must land on the materialized Ret, mirroring the oracle's
        // fall-off-the-end behaviour.
        let a = asm(vec![func(
            "f",
            vec![
                AsmInst::Beq {
                    rs1: 0,
                    rs2: 0,
                    label: 9,
                },
                AsmInst::Li { rd: 1, imm: 1 },
                AsmInst::Label(9),
            ],
        )]);
        let d = DecodedProgram::decode(&a).expect("decodes");
        assert_eq!(
            d.ops[0],
            Op::Beq {
                rs1: 0,
                rs2: 0,
                target: 2
            }
        );
        assert_eq!(d.ops[2], Op::Ret);
    }

    /// Both engines run only a [`DecodedProgram`], so decode's refusal
    /// refuses the program on both.
    #[test]
    fn malformed_programs_refused_alike_by_both_engines() {
        let ecall = |ext, nargs| AsmInst::Ecall {
            ext,
            nargs,
            returns: false,
        };
        let one = |inst| asm(vec![func("f", vec![AsmInst::Li { rd: 1, imm: 7 }, inst])]);
        let bad_register = |reg| DecodeError::BadRegister {
            func: "f".into(),
            reg,
        };
        let bad_callee = |callee| DecodeError::BadCallee {
            func: "f".into(),
            callee,
        };
        let mut cases = vec![
            // Unchecked, dispatch's `& 15` masks would run `r16` as `r0`,
            // the oracle would index past its register file, fusing the
            // leading `Li` with the next op would fail `pack`'s debug
            // assertion, and `Mv rd 0` would decay to a `Nop` that hides
            // its source.
            (one(AsmInst::Li { rd: 16, imm: 1 }), bad_register(16)),
            (
                one(AsmInst::Alu {
                    op: BinOp::Add,
                    rd: 1,
                    rs1: 1,
                    rs2: 16,
                }),
                bad_register(16),
            ),
            (one(AsmInst::Mv { rd: 0, rs: 16 }), bad_register(16)),
            (
                one(AsmInst::J { label: 42 }),
                DecodeError::UndefinedLabel {
                    func: "f".into(),
                    label: 42,
                },
            ),
            (
                asm(vec![func(
                    "f",
                    vec![
                        AsmInst::Label(0),
                        AsmInst::JumpTable {
                            rs: 1,
                            lo: 0,
                            labels: vec![0, 7],
                            default: 0,
                        },
                    ],
                )]),
                DecodeError::UndefinedLabel {
                    func: "f".into(),
                    label: 7,
                },
            ),
            // Unchecked, each of these would index past a table of the
            // oracle.
            (
                one(AsmInst::La {
                    rd: 1,
                    global: 2,
                    off: 0,
                }),
                DecodeError::BadGlobal {
                    func: "f".into(),
                    global: 2,
                },
            ),
            (one(AsmInst::LaFn { rd: 1, func: 9 }), bad_callee(9)),
            (one(AsmInst::Jal { func: 5 }), bad_callee(5)),
            (
                one(ecall(3, 0)),
                DecodeError::UnknownExtern {
                    func: "f".into(),
                    ext: 3,
                },
            ),
            (
                one(ecall(0, 5)),
                DecodeError::BadEcallArity {
                    func: "f".into(),
                    nargs: 5,
                },
            ),
            (
                one(ecall(0, 16)),
                DecodeError::BadEcallArity {
                    func: "f".into(),
                    nargs: 16,
                },
            ),
        ];
        // Below TEXT_BASE (would underflow the code-map index), odd
        // (would truncate into the wrong slot), past the 2-byte text
        // (0x7FFF_FFFE would size the map at about 4 GiB) and 2^31 (would
        // read as negative from a register).
        for addr in [
            TEXT_BASE - 2,
            TEXT_BASE + 1,
            TEXT_BASE + 2,
            0x7FFF_FFFE,
            1 << 31,
        ] {
            let mut a = asm(vec![func("f", vec![AsmInst::Ret])]);
            a.fn_addrs = vec![addr];
            let bad = DecodeError::BadFnAddr {
                func: "f".into(),
                addr,
            };
            cases.push((a, bad));
        }
        // An address with no function: unchecked, the fast engine would
        // find no entry at it and the oracle would index past its
        // function list.
        let mut extra = asm(vec![func(
            "f",
            vec![AsmInst::LaFn { rd: 1, func: 1 }, AsmInst::Jalr { rs: 1 }],
        )]);
        extra.fn_addrs.push(TEXT_BASE + 16);
        let count = DecodeError::FnAddrCount {
            functions: 1,
            addrs: 2,
        };
        cases.push((extra, count));
        // Two functions at one address: unchecked, the fast engine would
        // call the later (returning 9) and the oracle the earlier
        // (spinning until out of fuel).
        let mut shared = asm(vec![
            func(
                "f",
                vec![AsmInst::LaFn { rd: 5, func: 1 }, AsmInst::Jalr { rs: 5 }],
            ),
            func("spin", vec![AsmInst::Label(0), AsmInst::J { label: 0 }]),
            func("nine", vec![AsmInst::Li { rd: 1, imm: 9 }, AsmInst::Ret]),
        ]);
        shared.fn_addrs[2] = shared.fn_addrs[1];
        let addr = shared.fn_addrs[1];
        let clash = DecodeError::BadFnAddr {
            func: "nine".into(),
            addr,
        };
        cases.push((shared, clash));
        for (a, want) in cases {
            assert_eq!(DecodedProgram::decode(&a).unwrap_err(), want);
        }
        let top = asm(vec![func("f", vec![AsmInst::Mv { rd: 15, rs: 15 }])]);
        assert!(DecodedProgram::decode(&top).is_ok());
    }

    #[test]
    fn address_formation_pre_split_to_immediates() {
        let a = Assembly {
            functions: vec![func(
                "f",
                vec![
                    AsmInst::La {
                        rd: 2,
                        global: 0,
                        off: 4,
                    },
                    AsmInst::LaFn { rd: 3, func: 0 },
                ],
            )],
            globals: vec![AsmGlobal {
                name: "g".into(),
                words: vec![1, 2],
                mutable: true,
                offset: 8,
            }],
            externs: vec![],
            fn_addrs: vec![0x100_0000],
        };
        let d = DecodedProgram::decode(&a).expect("decodes");
        assert_eq!(
            d.ops[0],
            Op::Li {
                rd: 2,
                imm: DATA_BASE as i32 + 8 + 4
            }
        );
        assert_eq!(
            d.ops[1],
            Op::Li {
                rd: 3,
                imm: 0x100_0000
            }
        );
    }

    #[test]
    fn cross_function_targets_and_table_pool() {
        let a = asm(vec![
            func(
                "main",
                vec![
                    AsmInst::Jal { func: 1 },
                    AsmInst::Label(0),
                    AsmInst::JumpTable {
                        rs: 1,
                        lo: 0,
                        labels: vec![0],
                        default: 0,
                    },
                ],
            ),
            func("leaf", vec![AsmInst::Ret]),
        ]);
        let d = DecodedProgram::decode(&a).expect("decodes");
        // main: [Call, Table, Ret]; leaf entry = 3.
        assert_eq!(d.ops[0], Op::Call { entry: 3 });
        assert_eq!(d.ops[1], Op::Table { meta: 0 });
        assert_eq!(d.tables, vec![1]);
        assert_eq!(
            d.table_meta,
            vec![TableMeta {
                rs: 1,
                lo: 0,
                start: 0,
                len: 1,
                default: 1
            }]
        );
        assert_eq!(d.funcs[1].entry, 3);
        // fn 0 at TEXT_BASE (map index 0, entry 0), fn 1 after main's
        // 20 text bytes (map index 10, entry 3); the gap is poisoned.
        assert_eq!(d.code_map.len(), 11);
        assert_eq!(d.code_map[0], 0);
        assert_eq!(d.code_map[10], 3);
        assert!(d.code_map[1..10].iter().all(|&e| e == u32::MAX));
    }

    #[test]
    fn ops_stay_one_word_wide() {
        // The dispatch loop fetches ops by value; keeping every variant
        // within 8 bytes (jump-table payloads live in the side pool) is
        // load-bearing for its speed.
        assert!(
            std::mem::size_of::<Op>() <= 8,
            "{}",
            std::mem::size_of::<Op>()
        );
    }

    #[test]
    fn binop_nibbles_round_trip() {
        use crate::mir::BinOp;
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ] {
            assert_eq!(BINOP_FROM_NIBBLE[op as u8 as usize], op);
        }
    }

    #[test]
    fn r0_writes_decay_to_nops() {
        let a = asm(vec![func(
            "f",
            vec![
                AsmInst::Li { rd: 0, imm: 7 },
                AsmInst::Mv { rd: 0, rs: 3 },
                AsmInst::Alu {
                    op: BinOp::Add,
                    rd: 0,
                    rs1: 1,
                    rs2: 2,
                },
                AsmInst::Ret,
            ],
        )]);
        let d = DecodedProgram::decode(&a).expect("decodes");
        // Nop/Nop fuses into nothing (no rule), so all three survive as
        // plain Nops followed by the Rets.
        assert_eq!(d.ops[..3], [Op::Nop, Op::Nop, Op::Nop]);
    }

    #[test]
    fn hot_pairs_fuse_and_keep_the_second_slot() {
        let a = asm(vec![func(
            "f",
            vec![
                // Li feeds the Alu's right operand -> LiAluI.
                AsmInst::Li { rd: 3, imm: 40 },
                AsmInst::Alu {
                    op: BinOp::Add,
                    rd: 1,
                    rs1: 1,
                    rs2: 3,
                },
                // Store pair.
                AsmInst::Sw {
                    src: 1,
                    base: 14,
                    off: 0,
                },
                AsmInst::Sw {
                    src: 3,
                    base: 14,
                    off: 4,
                },
                AsmInst::Ret,
            ],
        )]);
        let d = DecodedProgram::decode(&a).expect("decodes");
        assert_eq!(
            d.ops[0],
            Op::LiAluI {
                op: BinOp::Add,
                rds: 0x31,
                rs1: 1,
                imm: 40,
            }
        );
        // The pair's second slot keeps its plain op as a branch-target
        // landing pad.
        assert_eq!(
            d.ops[1],
            Op::Alu {
                op: BinOp::Add,
                rd: 1,
                rs1: 1,
                rs2: 3,
            }
        );
        assert_eq!(
            d.ops[2],
            Op::SwSw {
                srcs: 0x13,
                bases: 0xee,
                off1: 0,
                off2: 4,
            }
        );
        assert_eq!(
            d.ops[3],
            Op::Sw {
                src: 3,
                base: 14,
                off: 4,
            }
        );
    }

    #[test]
    fn li_alu_fuses_only_through_the_right_operand_and_alu_pairs_stay_plain() {
        let alu = |rd, rs1, rs2| AsmInst::Alu {
            op: BinOp::Add,
            rd,
            rs1,
            rs2,
        };
        let plain = |inst: &AsmInst| match *inst {
            AsmInst::Li { rd, imm } => Op::Li { rd, imm },
            AsmInst::Alu { op, rd, rs1, rs2 } => Op::Alu { op, rd, rs1, rs2 },
            _ => unreachable!("{inst:?}"),
        };
        let li = AsmInst::Li { rd: 3, imm: 40 };
        // The loaded register read as the left operand, or not read at
        // all, and two `Alu`s in a row: each pair stays two plain ops.
        for pair in [
            [li.clone(), alu(1, 3, 2)],
            [li.clone(), alu(1, 2, 4)],
            [alu(3, 1, 2), alu(1, 3, 2)],
        ] {
            let d = DecodedProgram::decode(&asm(vec![func("f", pair.to_vec())])).expect("decodes");
            assert_eq!(
                d.ops,
                [plain(&pair[0]), plain(&pair[1]), Op::Ret],
                "{pair:?}"
            );
        }
        // In `Alu; Alu; Bne` the second `Alu` fuses with the branch.
        let d = DecodedProgram::decode(&asm(vec![func(
            "f",
            vec![
                alu(3, 1, 2),
                alu(4, 3, 2),
                AsmInst::Bne {
                    rs1: 4,
                    rs2: 0,
                    label: 0,
                },
                AsmInst::Label(0),
            ],
        )]))
        .expect("decodes");
        assert_eq!(d.ops[0], plain(&alu(3, 1, 2)));
        assert_eq!(
            d.ops[1],
            Op::AluBr {
                ops: pack(BinOp::Add as u8, 0),
                a: 0x43,
                b: 0x24,
                c: 0x00,
                target: 3,
            }
        );
    }

    #[test]
    fn lw_to_r0_never_fuses() {
        // `Lw` with `rd == 0` keeps its fault check (it is not rewritten
        // to `Nop`), but the fused `LwLw` arm writes both destinations
        // unconditionally — fusing such a pair would clobber the
        // hardwired zero. Both orders must stay plain.
        for (rd1, rd2) in [(0, 1), (1, 0), (0, 0)] {
            let a = asm(vec![func(
                "f",
                vec![
                    AsmInst::Lw {
                        rd: rd1,
                        base: 14,
                        off: 0,
                    },
                    AsmInst::Lw {
                        rd: rd2,
                        base: 14,
                        off: 4,
                    },
                ],
            )]);
            let d = DecodedProgram::decode(&a).expect("decodes");
            assert_eq!(
                d.ops[0],
                Op::Lw {
                    rd: rd1,
                    base: 14,
                    off: 0,
                },
                "rd pair ({rd1},{rd2}) must not fuse"
            );
        }
    }

    #[test]
    fn oversized_immediates_are_not_fused() {
        let a = asm(vec![func(
            "f",
            vec![
                AsmInst::Li {
                    rd: 3,
                    imm: 0x10_000,
                },
                AsmInst::Li { rd: 4, imm: 1 },
                AsmInst::Ret,
            ],
        )]);
        let d = DecodedProgram::decode(&a).expect("decodes");
        assert_eq!(
            d.ops[0],
            Op::Li {
                rd: 3,
                imm: 0x10_000,
            }
        );
    }
}
