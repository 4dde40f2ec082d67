//! The EM32 virtual machines: a pre-decoded fast engine and a reference
//! oracle, kept trace-equal by contract and by the differential net.
//!
//! This module is the canonical two-engine execution contract. Two
//! engines execute the same [`Assembly`](crate::backend::Assembly):
//!
//! * **The oracle** ([`Vm`]) walks the [`AsmInst`](crate::backend::AsmInst)
//!   stream of a [`DecodedProgram`]'s assembly exactly as the emitter
//!   produced it (and as the pretty-printer prints it): label markers are
//!   skipped in place, branch targets are looked up in per-function label
//!   maps, calls are resolved by function index, indirect calls by a
//!   linear scan of the address table. Nothing is precomputed beyond the
//!   label maps (it ignores the decoded ops and takes only the memory
//!   image), so the oracle is a direct transcription of the EM32
//!   semantics — slow, but obviously faithful. It exists to *validate*: a
//!   compiled program must reproduce the extern-call trace of the `tlang`
//!   reference interpreter, and the fast engine must reproduce the
//!   oracle's.
//! * **The fast engine** ([`FastVm`]) executes a [`DecodedProgram`] — a
//!   one-time pre-decode of the assembly into one flat, dense array of
//!   `Copy` micro-ops shared by all functions — in a tight threaded-style
//!   dispatch loop: fetch `ops[pc]`, advance, one `match`, no per-step
//!   allocation, cloning, or name/label lookup of any kind.
//!
//! # Decode invariants
//!
//! [`DecodedProgram::decode`] establishes, or fails with a
//! [`DecodeError`] — at decode time, never at dispatch time:
//!
//! * every branch and jump-table target resolves to a valid op index of
//!   the same function (undefined labels are a decode error);
//! * every direct-call and address-formation target is a valid function,
//!   every extern index names a declared extern (passing at most the
//!   four argument registers of the calling convention), every global
//!   index an existing global;
//! * every register field names one of the sixteen registers `r0`–`r15`
//!   (checked before the `r0`-write decay below);
//! * the program lays out exactly one code address per function, each at
//!   or above `TEXT_BASE`, inside the text the functions' sizes lay out
//!   from there (so the code map below never outgrows the code), below
//!   2^31, 2-aligned and no earlier function's;
//! * label markers are erased entirely — they occupy no slot;
//! * address formation (`La`/`LaFn`) is pre-split into plain immediate
//!   loads of the absolute address;
//! * every function's op range ends in an explicit `Ret`: decode appends
//!   one, so "falling off the end" (a void tail) is ordinary dispatch;
//! * jump-table targets live in one flat side pool, keeping every op
//!   `Copy` and the instruction array dense;
//! * writes to the hardwired-zero register decay to `Nop` at decode time
//!   (`rd == 0` on `Li`/`Mv`/`Alu`/`La`/`LaFn`), so dispatch writes
//!   destination registers unconditionally and `regs[0] == 0` is an
//!   invariant, never a per-step check (`Lw` to `r0` is the one
//!   exception: it keeps its fault check, guards its write in dispatch,
//!   and is excluded from fusion);
//! * indirect-call resolution is a dense table: `code_map[(addr -
//!   TEXT_BASE) / 2]` maps every 2-aligned code address to its function's
//!   entry op index, or a poison value for addresses inside a function
//!   body — no search at dispatch time.
//!
//! Both engines run exactly the programs decode accepts, and the rules
//! exist only there: [`FastVm::new`] and [`Vm::new`] both take a
//! [`DecodedProgram`], so no engine can be built from a program decode
//! refuses. In an accepted one every label, function, global, extern and
//! register the oracle's walk indexes exists and every code address names
//! one function, so the engines cannot disagree on which programs run,
//! nor on what an indirect call reaches.
//!
//! # Superinstruction fusion
//!
//! After per-function decode, a peephole pass fuses hot adjacent
//! fall-through pairs (`Li`+`Alu` whose right operand is the loaded
//! register, `Li`+`Li`, `Alu`+branch, `Lw`+`Lw`, `Sw`+`Sw`, immediates
//! permitting) into single fused ops with nibble-packed register
//! fields. Fusion preserves the slot numbering: the second instruction
//! of a fused pair *keeps* its plain op in place, and the fused op skips
//! it with an extra `pc` bump — so branches into the middle of a pair
//! stay valid and no target needs rewriting. Each fused op re-checks fuel
//! between its two halves, so `OutOfFuel` faults land at exactly the same
//! instruction boundary as on the oracle, trace and count included.
//!
//! Fusion is measured to pay for itself. With the fused ops, the fusion
//! peephole and their dispatch arms removed, the repository benchmark's
//! `storm` workload (8 alternating 25 s pairs, seed 1, on a 2-core
//! x86-64 VM) fell from 9.44M to 8.32M events/s in the median, about
//! 12% (worse in 7 of 8 pairs), and its p90 event latency rose from
//! 0.111 to 0.134 µs (worse in 8 of 8). Each fused op also earns its
//! own place by its share of that workload's fetches: `LiAluI` takes
//! about 17% of them, each of the other four 2.5–3.4%. Other pairs are
//! left plain: fusing `Li`+`Alu` that reads the loaded register on the
//! left or not at all, and `Alu`+`Alu`, covered 0.6% of the fetches
//! and saved 0.4–0.5% of them.
//!
//! Only genuinely run-time faults remain at dispatch time: memory faults,
//! indirect calls to non-entry addresses, host rejections, and fuel
//! exhaustion.
//!
//! # Op coverage
//!
//! The fast engine exports a cheap coverage hook for fuzzing harnesses:
//! [`FastVm::run_with_coverage`] takes any [`CoverageSink`] and reports
//! the decoded-op index of every fetch to it. [`OpCoverage`] is the
//! standard sink — a fixed-size bitset over the program's op array
//! (one bit per [`DecodedProgram::op_count`] slot) with popcount and
//! merge — and [`NoCoverage`] is the zero-cost default that
//! [`FastVm::run`] monomorphizes away, so the plain dispatch loop stays
//! byte-for-byte the hot path the repository benchmark's `storm`
//! workload times.
//!
//! Coverage is recorded per *fetch*: a fused superinstruction lights the
//! bit of the pair's first slot only (its still-populated second slot is
//! lit only when a branch enters the pair mid-way). That makes the set
//! deterministic for a deterministic program + input sequence — the
//! property the fuzzer's corpus selection (keep inputs that light new
//! ops) depends on, and the one `occ::vm` unit tests pin.
//!
//! # Dispatch loop shape
//!
//! The fast engine's whole interpreter loop is: check fuel, fetch
//! `ops[pc]` (a `Copy` of a few bytes), pre-increment `pc`, and execute
//! one `match` arm; taken branches overwrite `pc` with a pre-resolved
//! absolute index. Calls push the return op index on an internal stack.
//! Register file and memory image are flat arrays owned by the engine.
//!
//! # What the oracle guarantees (the shared fuel/trace contract)
//!
//! Both engines implement [`Engine`] and must agree, for the same
//! program, entry point, arguments and fuel budget, on:
//!
//! * the returned value or the failure kind ([`VmError`] variants compare
//!   by kind and payload);
//! * the extern-call trace as observed by the host environment, even on
//!   a failed run (the trace up to the fault is identical);
//! * the executed-instruction count ([`Engine::executed`]): every
//!   instruction costs exactly one fuel unit, labels are free (they are
//!   zero-size markers, not instructions), and a void tail's implicit
//!   return costs one like the explicit `Ret` the decoder materializes.
//!
//! That deterministic count is the time-like axis of the bench
//! trajectory: the bench snapshot records it per machine × pattern ×
//! level cell from the canonical event storm, checks it against the
//! oracle's, and the regression gate locks it, so an "optimization"
//! that shrinks bytes but inflates dynamic instructions fails CI. The
//! MIR differential net (`tests/mir_differential.rs`) holds the two
//! engines to this contract over the generated corpus at every level,
//! including fuel-exhaustion points.
//!
//! # Example
//!
//! ```
//! use occ::vm::{DecodedProgram, Engine, FastVm, Vm};
//! use occ::{compile, OptLevel};
//! use tlang::{Expr, Function, Module, Stmt, Type, RecordingEnv};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = Module::new("demo");
//! module.push_function(Function {
//!     name: "answer".into(),
//!     params: vec![],
//!     ret: Type::I32,
//!     body: vec![Stmt::Return(Some(Expr::Int(40).add(Expr::Int(2))))],
//!     exported: true,
//! });
//! let artifact = compile(&module, OptLevel::Os)?;
//!
//! // The artifact carries the pre-decoded program; the fast engine and
//! // the oracle agree on result and executed-instruction count.
//! let mut fast = FastVm::new(artifact.decoded(), RecordingEnv::new());
//! let mut oracle = Vm::new(artifact.decoded(), RecordingEnv::new());
//! assert_eq!(fast.run("answer", &[])?, 42);
//! assert_eq!(oracle.run("answer", &[])?, 42);
//! assert_eq!(fast.executed(), oracle.executed());
//! # Ok(())
//! # }
//! ```

use std::fmt;

mod decode;
mod dispatch;
mod oracle;

pub use decode::{DecodeError, DecodedProgram};
pub use dispatch::FastVm;
pub use oracle::Vm;

/// Bytes reserved for the stack above the data image.
pub(crate) const STACK_SIZE: usize = 64 * 1024;
/// Register index of the stack pointer.
pub(crate) const SP: usize = 14;
/// Default instruction budget of a fresh engine.
pub(crate) const DEFAULT_FUEL: u64 = 50_000_000;

/// An execution failure.
///
/// The fast engine's dispatch loop returns this enum, so its layout
/// shapes the loop's machine code, and a new variant must keep it. The
/// layout matters: a variant holding a `String` and a `u8` made the enum
/// niche-encoded, and the repository benchmark's `storm` workload lost
/// 5.5% of its events per second (10 alternating 25 s pairs, seed 1, on a
/// 2-core x86-64 VM); a one-byte field alone shrinks the tag to one byte.
/// Box a payload that would change it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Call of an unknown exported function.
    UnknownFunction(String),
    /// Memory access outside the address space.
    MemoryFault {
        /// Offending byte address.
        addr: i64,
    },
    /// Indirect call to an address that is not a function entry.
    BadCodeAddress(i32),
    /// The instruction budget was exhausted.
    OutOfFuel,
    /// The host environment rejected an extern call.
    Host(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UnknownFunction(n) => write!(f, "unknown exported function `{n}`"),
            VmError::MemoryFault { addr } => write!(f, "memory fault at 0x{addr:x}"),
            VmError::BadCodeAddress(a) => write!(f, "indirect call to bad address 0x{a:x}"),
            VmError::OutOfFuel => write!(f, "instruction budget exhausted"),
            VmError::Host(msg) => write!(f, "host rejected extern call: {msg}"),
        }
    }
}

impl std::error::Error for VmError {}

/// The shared engine interface: what both EM32 execution engines expose,
/// so harnesses (the MIR differential net, the bench snapshot's storms)
/// can drive either one generically and diff them.
///
/// Implementations must honour the fuel/trace contract in the
/// [module docs](self): one fuel unit per executed instruction, identical
/// traces, faults and [`executed`](Engine::executed) counts for the same
/// program and inputs.
pub trait Engine {
    /// Calls an exported function with up to four arguments; returns the
    /// value left in `r1`. Memory persists across calls, matching how the
    /// compiled program would behave on a device.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    fn call(&mut self, name: &str, args: &[i32]) -> Result<i32, VmError>;

    /// Instructions executed so far, accumulated across
    /// [`call`](Engine::call)s. Labels are free; a void tail's implicit
    /// return counts as one. Deterministic for a deterministic program +
    /// input sequence — the regression-gated "time" metric.
    fn executed(&self) -> u64;

    /// Replaces the remaining instruction budget.
    fn set_fuel(&mut self, fuel: u64);
}

/// A consumer of per-fetch op-coverage events from the fast engine.
///
/// [`FastVm::run_with_coverage`] calls [`record`](CoverageSink::record)
/// with the decoded-op index of every fetch (fused pairs report their
/// first slot; see the [module docs](self)). Implementations must be
/// cheap — the hook sits inside the dispatch loop.
pub trait CoverageSink {
    /// Observes one fetched decoded-op index.
    fn record(&mut self, op_index: u32);
}

/// The zero-cost [`CoverageSink`]: every record call inlines to nothing,
/// so [`FastVm::run`] keeps the exact uninstrumented dispatch loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCoverage;

impl CoverageSink for NoCoverage {
    #[inline(always)]
    fn record(&mut self, _op_index: u32) {}
}

/// A bitset of executed decoded-op indices — the standard
/// [`CoverageSink`] for coverage-guided fuzzing (`bench::fuzz` keeps a
/// corpus entry whenever its run lights bits no earlier run did).
///
/// Out-of-range indices are ignored rather than growing the set, so a
/// sink sized with [`OpCoverage::for_program`] can never allocate inside
/// the dispatch loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpCoverage {
    bits: Vec<u64>,
    ops: usize,
}

impl OpCoverage {
    /// An empty set over `op_count` decoded-op slots.
    pub fn new(op_count: usize) -> OpCoverage {
        OpCoverage {
            bits: vec![0; op_count.div_ceil(64)],
            ops: op_count,
        }
    }

    /// An empty set sized for `prog`'s op array.
    pub fn for_program(prog: &DecodedProgram) -> OpCoverage {
        OpCoverage::new(prog.op_count())
    }

    /// Number of op slots the set ranges over.
    pub fn op_count(&self) -> usize {
        self.ops
    }

    /// Number of distinct op indices recorded so far.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether op index `i` has been recorded.
    pub fn covers(&self, i: usize) -> bool {
        self.bits
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Unions `other` into `self`; returns how many bits were *newly*
    /// set — the fuzzer's "did this input reach anything new" signal.
    pub fn merge(&mut self, other: &OpCoverage) -> usize {
        let mut fresh = 0;
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            let new = o & !*w;
            fresh += new.count_ones() as usize;
            *w |= new;
        }
        fresh
    }
}

impl CoverageSink for OpCoverage {
    #[inline]
    fn record(&mut self, op_index: u32) {
        let i = op_index as usize;
        if let Some(w) = self.bits.get_mut(i / 64) {
            *w |= 1u64 << (i % 64);
        }
    }
}
