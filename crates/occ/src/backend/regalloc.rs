//! Stage 2: liveness-range register allocation over virtual registers.
//!
//! A linear scan over **live ranges** built from block-level liveness
//! ([`cfg::solve_liveness`]) refined to instruction positions. Every
//! instruction occupies two positions — uses (and early-defs) read at
//! `2i`, defs write at `2i+1` — so a value dying at an instruction's use
//! can share a register with that instruction's result, while an
//! early-def cannot.
//!
//! Key properties:
//!
//! - **Caller-saved `r1..r4` are allocatable.** A range is only barred
//!   from a register that some call *inside* the range clobbers, so
//!   call-free ranges (and ranges crossing only `Ecall`s that leave the
//!   register alone) use the four caller-saved registers before touching
//!   callee-saved ones.
//! - **A range without a register lives in a stack slot.** A range that
//!   finds no acceptable free register when its turn comes gets a slot
//!   for its whole length; no range already placed is moved.
//! - **Spill code per use/def.** A spilled range reloads into a scratch
//!   register at each use and stores after each def; nothing routes every
//!   access through globally reserved scratches.
//! - **Calling convention by rewriting.** Fixed-register operands
//!   (call arguments/results, returned values) are satisfied here with
//!   parallel-move resolution (cycle-breaking through `r13`), then the
//!   call pseudo-ops collapse to their physical form.
//!
//! # Representation
//!
//! Everything the allocator keeps per virtual register — the live range,
//! the def and use hints, the final location — lives in a `Vec` indexed
//! by register number over `0..`[`VCode::next_vreg`] (the
//! [`crate::verify`] `vreg-out-of-range` rule keeps MIR registers below
//! it; a register beyond it widens the tables instead of panicking).
//! Block liveness is the dense [`cfg::Liveness`] the mid-end's
//! `copy-coalesce` also uses, gathered in the same single walk over the
//! operands that builds the ranges. Operands come from
//! [`EmInst::operands`] as an inline list of at most
//! [`MAX_OPERANDS`](super::vcode::MAX_OPERANDS) entries — pointer, four
//! arguments and result of the widest call — and clobbers as a register
//! mask, so the walk allocates nothing per instruction. The call list is
//! in position order, so the calls inside a range are found by binary
//! search; candidate registers are probed in order without building a
//! list; the rewrite reuses one parallel-move buffer and each block's
//! emptied instruction vector as the next block's output.
//!
//! The decisions are fixed by these orders: ranges are allocated in
//! `(start, register)` order; candidates are probed as def hint, use
//! hint, `r2, r3, r4, r1`, then the callee-saved `r5..r11` ascending,
//! and the first that is free and that no call inside the range
//! clobbers wins; slots are numbered in allocation order. Hints come
//! only from fixed constraints and parameters, which name `r1..r4`
//! alone, so the saved registers are always the prefix `r5..r(4+k)` of
//! the probe, and its first free callee-saved register is a saved one
//! whenever one is free.

use super::vcode::{Constraint, EmInst, OpKind, Reg, VCode, VTerm};
use super::{
    is_callee_saved, RegAllocStats, ALLOC_REGS, ARG_REGS, RET_REG, SCRATCH0, SCRATCH1, SP, ZERO,
};
use crate::cfg::{self, BlockSets};
use crate::mir::{BinOp, VReg};

/// Caller-saved probe order: keep `r1` last so it stays free for result
/// forwarding unless a hint asks for it.
const CALLER_ORDER: [u8; 4] = [2, 3, 4, 1];

/// The "no hint" entry of the per-register hint tables.
const NO_HINT: u8 = u8::MAX;

/// Where a virtual register lives for its whole range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// A physical register.
    Reg(u8),
    /// A stack slot (word index within the spill area).
    Slot(usize),
}

/// The allocator's summary, consumed by the verifier and the emitter.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Callee-saved registers in use, in prologue save order.
    pub saved: Vec<u8>,
    /// Allocation-quality counters for the size ledger.
    pub stats: RegAllocStats,
}

/// One contiguous live range (conservative over the linear block order).
#[derive(Debug, Clone, Copy)]
struct Range {
    start: u32,
    end: u32,
}

impl Range {
    /// The entry of a register that occurs nowhere.
    const NONE: Range = Range {
        start: u32::MAX,
        end: 0,
    };

    fn exists(&self) -> bool {
        self.start != u32::MAX
    }

    /// Extends the range to cover `pos`.
    fn touch(&mut self, pos: u32) {
        self.start = self.start.min(pos);
        self.end = self.end.max(pos);
    }
}

/// Allocates `vc` in place: after this call every operand is physical,
/// spill and calling-convention code is explicit, and each block with a
/// `Ret` terminator carries its epilogue.
pub fn allocate(vc: &mut VCode) -> Allocation {
    let intervals = build_ranges(vc);
    let (loc, saved, slots) = scan(&intervals);
    let spill_bytes = rewrite(vc, &loc, &saved, slots);
    Allocation {
        stats: RegAllocStats {
            spill_slots: slots,
            saved_regs: saved.len(),
            spill_bytes,
        },
        saved,
    }
}

/// The allocator's input, indexed by virtual-register number.
struct Intervals {
    /// Live range per register ([`Range::NONE`] if it never occurs).
    ranges: Vec<Range>,
    /// `(use-position, clobber mask)` per call instruction, in position
    /// order.
    calls: Vec<(u32, u16)>,
    /// Strong register preferences (fixed-def constraints, parameters).
    hint_def: Vec<u8>,
    /// Weak preferences (fixed-use constraints).
    hint_use: Vec<u8>,
}

fn build_ranges(vc: &VCode) -> Intervals {
    let params = vc.params.iter().map(|p| p.0 + 1).max().unwrap_or(0);
    let mut domain = vc.next_vreg.max(params) as usize;
    loop {
        match scan_operands(vc, domain) {
            Ok(iv) => return iv,
            Err(wider) => domain = wider,
        }
    }
}

/// One walk over every operand: block use/def sets, instruction-position
/// ranges, hints and calls; then block liveness extends each range over
/// the block boundaries it is live across. Fails with a wider domain if
/// a register lies at or beyond `domain`.
fn scan_operands(vc: &VCode, domain: usize) -> Result<Intervals, usize> {
    let n = vc.blocks.len();
    let mut sets = BlockSets::new(n, domain);
    let mut ranges = vec![Range::NONE; domain];
    let mut hint_def = vec![NO_HINT; domain];
    let mut hint_use = vec![NO_HINT; domain];
    let mut calls = Vec::new();
    // First and last position of each block.
    let mut bounds = Vec::with_capacity(n);
    // Instruction numbering: position 0 belongs to the parameters, each
    // instruction i reads at 2i and writes at 2i+1.
    let mut idx = 1u32;
    for (bi, block) in vc.blocks.iter().enumerate() {
        let first_pos = 2 * idx;
        let inst_ops = block
            .insts
            .iter()
            .map(|i| (i.operands(), i.clobbers()))
            .chain(std::iter::once((block.term.operands(), 0)));
        for (ops, clobbers) in inst_ops {
            let use_pos = 2 * idx;
            let def_pos = 2 * idx + 1;
            for op in ops {
                let Reg::Virt(v) = op.reg else { continue };
                let pos = match op.kind {
                    OpKind::Use => {
                        sets.read(bi, v);
                        use_pos
                    }
                    OpKind::EarlyDef => {
                        sets.write(bi, v);
                        use_pos
                    }
                    OpKind::Def => {
                        sets.write(bi, v);
                        def_pos
                    }
                };
                let vi = v.0 as usize;
                if vi >= domain {
                    continue; // `sets` asks for a wider domain below
                }
                if let Constraint::Fixed(p) = op.constraint {
                    let hint = match op.kind {
                        OpKind::Use => &mut hint_use[vi],
                        OpKind::Def | OpKind::EarlyDef => &mut hint_def[vi],
                    };
                    if *hint == NO_HINT {
                        *hint = p;
                    }
                }
                ranges[vi].touch(pos);
            }
            if clobbers != 0 {
                calls.push((use_pos, clobbers));
            }
            idx += 1;
        }
        bounds.push((first_pos, 2 * (idx - 1) + 1));
    }
    if let Some(wider) = sets.widened() {
        return Err(wider);
    }
    let live = cfg::solve_liveness(|b| vc.blocks[b].term.succs(), &sets);
    for (bi, &(first_pos, block_end)) in bounds.iter().enumerate() {
        for v in live.live_in.iter(bi) {
            ranges[v].touch(first_pos);
        }
        for v in live.live_out.iter(bi) {
            ranges[v].touch(block_end);
        }
    }
    // Parameters are defined at position 0 in ARG_REGS order; dead
    // parameters (no occurrences at all) get no range and no move.
    for (i, p) in vc.params.iter().enumerate() {
        let pi = p.0 as usize;
        if ranges[pi].exists() {
            ranges[pi].touch(0);
            if hint_def[pi] == NO_HINT {
                hint_def[pi] = ARG_REGS[i];
            }
        }
    }
    Ok(Intervals {
        ranges,
        calls,
        hint_def,
        hint_use,
    })
}

fn scan(iv: &Intervals) -> (Vec<Option<Loc>>, Vec<u8>, usize) {
    let mut order: Vec<u32> = (0..iv.ranges.len() as u32)
        .filter(|&v| iv.ranges[v as usize].exists())
        .collect();
    order.sort_unstable_by_key(|&v| (iv.ranges[v as usize].start, v));
    let mut active: Vec<(u32, u8)> = Vec::new(); // (end, register)
    let mut loc: Vec<Option<Loc>> = vec![None; iv.ranges.len()];
    let mut saved: Vec<u8> = Vec::new();
    let mut saved_mask = 0u16;
    let mut slots = 0usize;
    for v in order {
        let vi = v as usize;
        let r = iv.ranges[vi];
        active.retain(|(end, _)| *end >= r.start);
        // Calls strictly inside the range: the list is in position order.
        let first = iv.calls.partition_point(|(cp, _)| *cp <= r.start);
        let forbidden = iv.calls[first..]
            .iter()
            .take_while(|(cp, _)| *cp < r.end)
            .fold(0u16, |m, (_, mask)| m | mask);
        let taken = active.iter().fold(forbidden, |m, (_, p)| m | 1 << p);
        let candidate = [iv.hint_def[vi], iv.hint_use[vi]]
            .into_iter()
            .filter(|&p| p != NO_HINT)
            .chain(CALLER_ORDER)
            .chain(ALLOC_REGS)
            .find(|p| taken & (1 << p) == 0);
        loc[vi] = Some(match candidate {
            Some(p) => {
                if is_callee_saved(p) && saved_mask & (1 << p) == 0 {
                    saved.push(p);
                    saved_mask |= 1 << p;
                }
                active.push((r.end, p));
                Loc::Reg(p)
            }
            None => {
                slots += 1;
                Loc::Slot(slots - 1)
            }
        });
    }
    (loc, saved, slots)
}

/// A pending parallel-move source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Reg(u8),
    Slot(i32),
}

struct Rewriter<'a> {
    loc: &'a [Option<Loc>],
    saved: &'a [u8],
    frame: i32,
    spill_bytes: usize,
    /// The pending parallel moves of one call or prologue (kept for its
    /// capacity between uses).
    moves: Vec<(u8, Src)>,
}

impl Rewriter<'_> {
    fn slot_off(&self, slot: usize) -> i32 {
        ((self.saved.len() + slot) * 4) as i32
    }

    fn loc_of(&self, r: Reg) -> Loc {
        match r {
            Reg::Phys(p) => Loc::Reg(p),
            Reg::Virt(v) => self.loc[v.0 as usize].expect("every occurring vreg has a range"),
        }
    }

    fn load_slot(&mut self, rd: u8, slot: usize, out: &mut Vec<EmInst>) {
        out.push(EmInst::Lw {
            rd: Reg::Phys(rd),
            base: Reg::Phys(SP),
            off: self.slot_off(slot),
        });
        self.spill_bytes += 4;
    }

    fn store_slot(&mut self, src: u8, slot: usize, out: &mut Vec<EmInst>) {
        out.push(EmInst::Sw {
            src: Reg::Phys(src),
            base: Reg::Phys(SP),
            off: self.slot_off(slot),
        });
        self.spill_bytes += 4;
    }

    /// Rewrites one straight-line (non-call) instruction: reloads spilled
    /// uses into scratches (`r12`, then `r13`; once per register, in
    /// operand order), routes a spilled def through `r12`.
    fn rewrite_simple(&mut self, inst: &EmInst, out: &mut Vec<EmInst>) {
        let mut reloaded = [(Reg::Phys(ZERO), 0u8); 2];
        let mut nreloaded = 0;
        let mut def_store = None;
        for op in inst.operands() {
            match (op.kind, self.loc_of(op.reg)) {
                (OpKind::Use, Loc::Reg(_)) => {}
                (OpKind::Use, Loc::Slot(s)) => {
                    if !reloaded[..nreloaded].iter().any(|(r, _)| *r == op.reg) {
                        let p = [SCRATCH0, SCRATCH1][nreloaded];
                        self.load_slot(p, s, out);
                        reloaded[nreloaded] = (op.reg, p);
                        nreloaded += 1;
                    }
                }
                (OpKind::Def | OpKind::EarlyDef, Loc::Reg(p)) => def_store = Some((p, None)),
                (OpKind::Def | OpKind::EarlyDef, Loc::Slot(s)) => {
                    def_store = Some((SCRATCH0, Some(s)));
                }
            }
        }
        let map_use = |r: Reg| -> Reg {
            Reg::Phys(match self.loc_of(r) {
                Loc::Reg(p) => p,
                Loc::Slot(_) => {
                    reloaded[..nreloaded]
                        .iter()
                        .find(|(orig, _)| *orig == r)
                        .expect("spilled use was reloaded")
                        .1
                }
            })
        };
        let map_def = || Reg::Phys(def_store.expect("def operand was resolved").0);
        let rewritten = match *inst {
            EmInst::Li { imm, .. } => EmInst::Li { rd: map_def(), imm },
            EmInst::Mv { rs, .. } => EmInst::Mv {
                rd: map_def(),
                rs: map_use(rs),
            },
            EmInst::Alu { op, rs1, rs2, .. } => EmInst::Alu {
                op,
                rd: map_def(),
                rs1: map_use(rs1),
                rs2: map_use(rs2),
            },
            EmInst::Lw { base, off, .. } => EmInst::Lw {
                rd: map_def(),
                base: map_use(base),
                off,
            },
            EmInst::Sw { src, base, off } => EmInst::Sw {
                src: map_use(src),
                base: map_use(base),
                off,
            },
            EmInst::La { global, off, .. } => EmInst::La {
                rd: map_def(),
                global,
                off,
            },
            EmInst::LaFn { func, .. } => EmInst::LaFn {
                rd: map_def(),
                func,
            },
            EmInst::Jal { .. } | EmInst::Jalr { .. } | EmInst::Ecall { .. } => {
                unreachable!("calls are rewritten by rewrite_call: {inst:?}")
            }
        };
        out.push(rewritten);
        if let Some((p, Some(slot))) = def_store {
            self.store_slot(p, slot, out);
        }
    }

    /// Emits the pending parallel move set: register-to-register moves
    /// plus slot reloads, in an order that never overwrites a
    /// still-needed source; cycles break through `r13`.
    fn resolve_moves(&mut self, out: &mut Vec<EmInst>) {
        let mut pending = std::mem::take(&mut self.moves);
        pending.retain(|(d, s)| *s != Src::Reg(*d));
        while !pending.is_empty() {
            let ready = pending
                .iter()
                .position(|(d, _)| !pending.iter().any(|(_, s)| *s == Src::Reg(*d)));
            match ready {
                Some(i) => {
                    let (d, s) = pending.remove(i);
                    match s {
                        Src::Reg(p) => out.push(EmInst::Mv {
                            rd: Reg::Phys(d),
                            rs: Reg::Phys(p),
                        }),
                        Src::Slot(off) => {
                            out.push(EmInst::Lw {
                                rd: Reg::Phys(d),
                                base: Reg::Phys(SP),
                                off,
                            });
                            self.spill_bytes += 4;
                        }
                    }
                }
                None => {
                    // Every pending destination is also a pending source:
                    // a register cycle. Park one source in the scratch.
                    let Src::Reg(r) = pending[0].1 else {
                        unreachable!("slot sources never block a move")
                    };
                    out.push(EmInst::Mv {
                        rd: Reg::Phys(SCRATCH1),
                        rs: Reg::Phys(r),
                    });
                    for (_, s) in &mut pending {
                        if *s == Src::Reg(r) {
                            *s = Src::Reg(SCRATCH1);
                        }
                    }
                }
            }
        }
        self.moves = pending;
    }

    fn store_ret(&mut self, ret: Option<Reg>, out: &mut Vec<EmInst>) {
        let Some(r) = ret else { return };
        match self.loc_of(r) {
            Loc::Reg(p) => {
                if p != RET_REG {
                    out.push(EmInst::Mv {
                        rd: Reg::Phys(p),
                        rs: Reg::Phys(RET_REG),
                    });
                }
            }
            Loc::Slot(s) => self.store_slot(RET_REG, s, out),
        }
    }

    /// Rewrites a call pseudo-op in place to its physical form, preceded
    /// by the argument moves and followed by the result's store.
    fn rewrite_call(&mut self, mut inst: EmInst, out: &mut Vec<EmInst>) {
        let (ptr, args, ret) = match &mut inst {
            EmInst::Jal { args, ret, .. } | EmInst::Ecall { args, ret, .. } => (None, args, ret),
            EmInst::Jalr { ptr, args, ret } => (Some(ptr), args, ret),
            other => unreachable!("not a call: {other:?}"),
        };
        self.moves.clear();
        for (i, a) in args.iter_mut().enumerate() {
            let src = match self.loc_of(*a) {
                Loc::Reg(p) => Src::Reg(p),
                Loc::Slot(s) => Src::Slot(self.slot_off(s)),
            };
            self.moves.push((ARG_REGS[i], src));
            *a = Reg::Phys(ARG_REGS[i]);
        }
        if let Some(ptr) = ptr {
            // The target address must survive the argument moves: any
            // register outside the written ARG_REGS prefix does, a
            // spilled or argument-register pointer routes through r12
            // as one more parallel move.
            let ptr_phys = match self.loc_of(*ptr) {
                Loc::Reg(p) if !ARG_REGS[..args.len()].contains(&p) => p,
                Loc::Reg(p) => {
                    self.moves.push((SCRATCH0, Src::Reg(p)));
                    SCRATCH0
                }
                Loc::Slot(s) => {
                    let off = self.slot_off(s);
                    self.moves.push((SCRATCH0, Src::Slot(off)));
                    SCRATCH0
                }
            };
            *ptr = Reg::Phys(ptr_phys);
        }
        let value = *ret;
        *ret = value.map(|_| Reg::Phys(RET_REG));
        self.resolve_moves(out);
        out.push(inst);
        self.store_ret(value, out);
    }

    fn prologue(&mut self, params: &[VReg], out: &mut Vec<EmInst>) {
        if self.frame != 0 {
            out.push(EmInst::Li {
                rd: Reg::Phys(SCRATCH1),
                imm: self.frame,
            });
            out.push(EmInst::Alu {
                op: BinOp::Sub,
                rd: Reg::Phys(SP),
                rs1: Reg::Phys(SP),
                rs2: Reg::Phys(SCRATCH1),
            });
            for (i, r) in self.saved.iter().enumerate() {
                out.push(EmInst::Sw {
                    src: Reg::Phys(*r),
                    base: Reg::Phys(SP),
                    off: (i as i32) * 4,
                });
            }
        }
        // Incoming arguments: slot stores first (they clobber nothing),
        // then the register shuffle as one parallel move.
        self.moves.clear();
        for (i, p) in params.iter().enumerate() {
            match self.loc.get(p.0 as usize).copied().flatten() {
                Some(Loc::Reg(r)) => self.moves.push((r, Src::Reg(ARG_REGS[i]))),
                Some(Loc::Slot(s)) => self.store_slot(ARG_REGS[i], s, out),
                None => {} // dead parameter
            }
        }
        self.resolve_moves(out);
    }

    fn epilogue(&mut self, value: Option<Reg>, out: &mut Vec<EmInst>) {
        if let Some(r) = value {
            match self.loc_of(r) {
                Loc::Reg(p) => {
                    if p != RET_REG {
                        out.push(EmInst::Mv {
                            rd: Reg::Phys(RET_REG),
                            rs: Reg::Phys(p),
                        });
                    }
                }
                Loc::Slot(s) => self.load_slot(RET_REG, s, out),
            }
        }
        if self.frame != 0 {
            out.push(EmInst::Li {
                rd: Reg::Phys(SCRATCH1),
                imm: self.frame,
            });
            for (i, r) in self.saved.iter().enumerate() {
                out.push(EmInst::Lw {
                    rd: Reg::Phys(*r),
                    base: Reg::Phys(SP),
                    off: (i as i32) * 4,
                });
            }
            out.push(EmInst::Alu {
                op: BinOp::Add,
                rd: Reg::Phys(SP),
                rs1: Reg::Phys(SP),
                rs2: Reg::Phys(SCRATCH1),
            });
        }
    }

    /// The physical register a branch operand reads: its own, or `r12`
    /// after a reload.
    fn branch_operand(&mut self, r: &mut Reg, out: &mut Vec<EmInst>) {
        let p = match self.loc_of(*r) {
            Loc::Reg(p) => p,
            Loc::Slot(s) => {
                self.load_slot(SCRATCH0, s, out);
                SCRATCH0
            }
        };
        *r = Reg::Phys(p);
    }
}

fn rewrite(vc: &mut VCode, loc: &[Option<Loc>], saved: &[u8], slots: usize) -> usize {
    let mut rw = Rewriter {
        loc,
        saved,
        frame: ((saved.len() + slots) * 4) as i32,
        spill_bytes: 0,
        moves: Vec::new(),
    };
    let VCode { params, blocks, .. } = vc;
    // Each block's emptied input vector becomes the next block's output.
    let mut spare: Vec<EmInst> = Vec::new();
    for (bi, block) in blocks.iter_mut().enumerate() {
        let mut out = std::mem::take(&mut spare);
        out.reserve(block.insts.len() + 4);
        if bi == 0 {
            rw.prologue(params, &mut out);
        }
        let mut insts = std::mem::take(&mut block.insts);
        for inst in insts.drain(..) {
            match inst {
                EmInst::Jal { .. } | EmInst::Jalr { .. } | EmInst::Ecall { .. } => {
                    rw.rewrite_call(inst, &mut out);
                }
                _ => rw.rewrite_simple(&inst, &mut out),
            }
        }
        spare = insts;
        match &mut block.term {
            VTerm::Goto { .. } => {}
            VTerm::Br { cond, .. } => rw.branch_operand(cond, &mut out),
            VTerm::Switch { val, tmp, .. } => {
                rw.branch_operand(val, &mut out);
                // The chain temp needs no slot traffic: it is dead after
                // the terminator, so a spilled temp just runs in r13.
                if let Some(t) = tmp {
                    *t = Reg::Phys(match rw.loc_of(*t) {
                        Loc::Reg(p) => p,
                        Loc::Slot(_) => SCRATCH1,
                    });
                }
            }
            VTerm::Ret { value } => {
                rw.epilogue(*value, &mut out);
                *value = value.map(|_| Reg::Phys(RET_REG));
            }
        }
        block.insts = out;
    }
    rw.spill_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::VReg;

    fn vreg(n: u32) -> Reg {
        Reg::Virt(VReg(n))
    }

    fn single_block(insts: Vec<EmInst>, term: VTerm, params: usize, next_vreg: u32) -> VCode {
        VCode {
            name: "t".into(),
            exported: true,
            params: (0..params as u32).map(VReg).collect(),
            blocks: vec![super::super::vcode::VBlock { insts, term }],
            next_vreg,
        }
    }

    #[test]
    fn fixed_constraints_are_satisfied_by_moves() {
        // v2 = v0 + v1; call f(v1, v0); return the call's result.
        let mut vc = single_block(
            vec![
                EmInst::Alu {
                    op: BinOp::Add,
                    rd: vreg(2),
                    rs1: vreg(0),
                    rs2: vreg(1),
                },
                EmInst::Jal {
                    func: 0,
                    args: vec![vreg(1), vreg(0)],
                    ret: Some(vreg(3)),
                },
            ],
            VTerm::Ret {
                value: Some(vreg(3)),
            },
            2,
            4,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        let EmInst::Jal { args, ret, .. } = vc.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i, EmInst::Jal { .. }))
            .expect("call survives")
        else {
            unreachable!()
        };
        assert_eq!(args, &[Reg::Phys(1), Reg::Phys(2)]);
        assert_eq!(*ret, Some(Reg::Phys(RET_REG)));
    }

    #[test]
    fn swapped_call_arguments_resolve_without_losing_a_value() {
        // f(v1, v0) with v0, v1 hinted into each other's slots forces the
        // parallel-move resolver to sequence or break a cycle.
        let mut vc = single_block(
            vec![EmInst::Jal {
                func: 0,
                args: vec![vreg(1), vreg(0)],
                ret: None,
            }],
            VTerm::Ret { value: None },
            2,
            2,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
    }

    #[test]
    fn early_clobber_switch_temp_never_shares_the_scrutinee_register() {
        let mut vc = single_block(
            vec![EmInst::Li {
                rd: vreg(0),
                imm: 3,
            }],
            VTerm::Switch {
                val: vreg(0),
                tmp: Some(vreg(1)),
                cases: vec![(1, 0)],
                default: 0,
            },
            0,
            2,
        );
        // Make the terminator well-formed: a self-loop plus a return path
        // is overkill; point cases at block 0 and add no other blocks.
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        let VTerm::Switch { val, tmp, .. } = &vc.blocks[0].term else {
            unreachable!()
        };
        assert_ne!(val.phys(), tmp.expect("temp kept").phys());
    }

    #[test]
    fn leaf_functions_use_caller_saved_registers_only() {
        let mut vc = single_block(
            vec![
                EmInst::Li {
                    rd: vreg(0),
                    imm: 1,
                },
                EmInst::Li {
                    rd: vreg(1),
                    imm: 2,
                },
                EmInst::Alu {
                    op: BinOp::Add,
                    rd: vreg(2),
                    rs1: vreg(0),
                    rs2: vreg(1),
                },
            ],
            VTerm::Ret {
                value: Some(vreg(2)),
            },
            0,
            3,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        assert_eq!(alloc.stats.saved_regs, 0, "no callee-saved in a leaf");
        assert_eq!(alloc.stats.spill_slots, 0);
    }

    #[test]
    fn values_crossing_calls_avoid_clobbered_registers() {
        // v0 = 7; call f(); return v0 — v0 must not sit in r1..r4.
        let mut vc = single_block(
            vec![
                EmInst::Li {
                    rd: vreg(0),
                    imm: 7,
                },
                EmInst::Jal {
                    func: 0,
                    args: vec![],
                    ret: None,
                },
            ],
            VTerm::Ret {
                value: Some(vreg(0)),
            },
            0,
            1,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        assert_eq!(alloc.stats.saved_regs, 1);
    }

    #[test]
    fn values_crossing_a_gentle_ecall_stay_caller_saved() {
        // Ecall with one argument clobbers only r1: a value live across
        // it can keep r2..r4 and the function stays frameless.
        let mut vc = single_block(
            vec![
                EmInst::Li {
                    rd: vreg(0),
                    imm: 7,
                },
                EmInst::Li {
                    rd: vreg(1),
                    imm: 9,
                },
                EmInst::Ecall {
                    ext: 0,
                    args: vec![vreg(1)],
                    ret: None,
                },
            ],
            VTerm::Ret {
                value: Some(vreg(0)),
            },
            0,
            2,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        assert_eq!(alloc.stats.saved_regs, 0, "r2..r4 survive a 1-arg ecall");
    }

    #[test]
    fn registers_beyond_next_vreg_widen_the_tables() {
        // Malformed: next_vreg says 1, the code uses v0..v2. The
        // allocator must still place every register, not index past its
        // tables.
        let mut vc = single_block(
            vec![
                EmInst::Li {
                    rd: vreg(1),
                    imm: 1,
                },
                EmInst::Alu {
                    op: BinOp::Add,
                    rd: vreg(2),
                    rs1: vreg(0),
                    rs2: vreg(1),
                },
            ],
            VTerm::Ret {
                value: Some(vreg(2)),
            },
            1,
            1,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
    }

    #[test]
    fn high_pressure_spills_and_still_verifies() {
        // 14 simultaneously live values exceed the 11 allocatable
        // registers; the allocator must spill and the result must verify.
        // The three that start last, v11..v13, find every register taken
        // and live in slots: their `Li` writes r12 and a store follows.
        let n = 14u32;
        let mut insts: Vec<EmInst> = (0..n)
            .map(|i| EmInst::Li {
                rd: vreg(i),
                imm: i as i32,
            })
            .collect();
        let mut acc = n;
        insts.push(EmInst::Alu {
            op: BinOp::Add,
            rd: vreg(acc),
            rs1: vreg(0),
            rs2: vreg(1),
        });
        for i in 2..n {
            insts.push(EmInst::Alu {
                op: BinOp::Add,
                rd: vreg(acc + 1),
                rs1: vreg(acc),
                rs2: vreg(i),
            });
            acc += 1;
        }
        let mut vc = single_block(
            insts,
            VTerm::Ret {
                value: Some(vreg(acc)),
            },
            0,
            acc + 1,
        );
        let alloc = allocate(&mut vc);
        vc.verify_allocated(&alloc.saved).expect("valid allocation");
        assert_eq!(alloc.stats.spill_slots, 3, "pressure forces spills");
        assert!(alloc.stats.spill_bytes > 0);
        let insts = &vc.blocks[0].insts;
        let spilled: Vec<i32> = insts
            .windows(2)
            .filter_map(|w| match w {
                [EmInst::Li { rd, imm }, EmInst::Sw { src, .. }]
                    if *rd == Reg::Phys(SCRATCH0) && *src == Reg::Phys(SCRATCH0) =>
                {
                    Some(*imm)
                }
                _ => None,
            })
            .collect();
        assert_eq!(spilled, [11, 12, 13], "{insts:?}");
    }
}
