//! The fast EM32 engine: a tight threaded-style dispatch loop over a
//! [`DecodedProgram`] (see the [module docs](super) for the loop shape
//! and the contract it shares with the oracle).

use tlang::{Env, Value};

use super::decode::{DecodedProgram, Op, BINOP_FROM_NIBBLE};
use super::{CoverageSink, Engine, NoCoverage, VmError, DEFAULT_FUEL, SP};

/// The fast EM32 machine instance. Executes pre-decoded micro-ops; like
/// the oracle, memory persists across [`run`](FastVm::run) calls.
pub struct FastVm<'a, E> {
    prog: &'a DecodedProgram,
    mem: Vec<u8>,
    regs: [i32; 16],
    env: E,
    fuel: u64,
    executed: u64,
    /// Return-pc stack, kept on the machine so repeated short calls
    /// (event dispatch) don't pay a fresh allocation each time.
    stack: Vec<u32>,
    /// Memo of the last entry lookup: event storms call the same one or
    /// two exported functions millions of times.
    last_entry: Option<(String, u32)>,
}

impl<'a, E: Env> FastVm<'a, E> {
    /// Creates a machine with the program's data image loaded.
    pub fn new(prog: &'a DecodedProgram, env: E) -> FastVm<'a, E> {
        FastVm {
            prog,
            mem: prog.mem.clone(),
            regs: [0; 16],
            env,
            fuel: DEFAULT_FUEL,
            executed: 0,
            stack: Vec::new(),
            last_entry: None,
        }
    }

    /// Overrides the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// The host environment (e.g. a recorded trace).
    pub fn env(&self) -> &E {
        &self.env
    }

    /// Consumes the machine, returning the host environment.
    pub fn into_env(self) -> E {
        self.env
    }

    /// Instructions executed so far (see [`Engine::executed`]).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Calls an exported function with up to four arguments; returns `r1`.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run(&mut self, name: &str, args: &[i32]) -> Result<i32, VmError> {
        // `NoCoverage::record` inlines to nothing, so this
        // monomorphization *is* the uninstrumented hot loop.
        self.run_with_coverage(name, args, &mut NoCoverage)
    }

    /// [`run`](FastVm::run), reporting every fetched decoded-op index to
    /// `cov` (fused pairs report the pair's first slot; see the
    /// [module docs](super) on coverage).
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run_with_coverage<C: CoverageSink>(
        &mut self,
        name: &str,
        args: &[i32],
        cov: &mut C,
    ) -> Result<i32, VmError> {
        let prog = self.prog;
        let entry = match &self.last_entry {
            // Event storms call the same exported function millions of
            // times; one short string compare replaces the table walk.
            Some((cached, e)) if cached == name => *e,
            _ => {
                let e = prog
                    .entry_of(name)
                    .ok_or_else(|| VmError::UnknownFunction(name.to_string()))?;
                self.last_entry = Some((name.to_string(), e));
                e
            }
        };
        for (i, a) in args.iter().enumerate().take(4) {
            self.regs[1 + i] = *a;
        }
        self.regs[SP] = self.mem.len() as i32;
        // The destructure splits `self` into disjoint borrows, so the
        // dispatch loop indexes straight into the fields (no per-call
        // copy of the register file) while the fuel counter — the one
        // per-step scalar — lives in a local. Everything is written back
        // on every exit path — including faults, whose executed counts
        // the oracle must match.
        let FastVm {
            regs,
            mem,
            env,
            stack,
            ..
        } = self;
        stack.clear();
        let ops: &[Op] = &prog.ops;
        let fuel_start = self.fuel;
        let mut fuel = self.fuel;
        let mut pc = entry as usize;
        // The whole interpreter: check fuel, fetch a Copy op, advance,
        // one match. Taken branches overwrite `pc` with a pre-resolved
        // absolute index; nothing is looked up by name or label.
        let result = loop {
            if fuel == 0 {
                break Err(VmError::OutOfFuel);
            }
            fuel -= 1;
            cov.record(pc as u32);
            let op = ops[pc];
            pc += 1;
            match op {
                Op::Nop => {}
                // The decoder rewrote every `r0`-destination write to
                // `Nop`, so these stores are unconditional — `regs[0]`
                // can never be clobbered.
                Op::Li { rd, imm } => regs[(rd & 15) as usize] = imm,
                Op::Mv { rd, rs } => regs[(rd & 15) as usize] = regs[(rs & 15) as usize],
                Op::Alu { op, rd, rs1, rs2 } => {
                    regs[(rd & 15) as usize] =
                        op.eval(regs[(rs1 & 15) as usize], regs[(rs2 & 15) as usize]);
                }
                Op::Lw { rd, base, off } => {
                    match checked_load(mem, i64::from(regs[(base & 15) as usize]) + i64::from(off))
                    {
                        Ok(v) => {
                            if rd != 0 {
                                regs[(rd & 15) as usize] = v;
                            }
                        }
                        Err(e) => break Err(e),
                    }
                }
                Op::Sw { src, base, off } => {
                    let v = regs[(src & 15) as usize];
                    if let Err(e) = checked_store(
                        mem,
                        i64::from(regs[(base & 15) as usize]) + i64::from(off),
                        v,
                    ) {
                        break Err(e);
                    }
                }
                Op::Beq { rs1, rs2, target } => {
                    if regs[(rs1 & 15) as usize] == regs[(rs2 & 15) as usize] {
                        pc = target as usize;
                    }
                }
                Op::Bne { rs1, rs2, target } => {
                    if regs[(rs1 & 15) as usize] != regs[(rs2 & 15) as usize] {
                        pc = target as usize;
                    }
                }
                Op::Jmp { target } => pc = target as usize,
                Op::Call { entry } => {
                    stack.push(pc as u32);
                    pc = entry as usize;
                }
                Op::CallInd { rs } => {
                    let addr = regs[(rs & 15) as usize];
                    let off = i64::from(addr) - i64::from(crate::backend::TEXT_BASE);
                    let target = if off >= 0 && off % 2 == 0 {
                        prog.code_map
                            .get((off / 2) as usize)
                            .copied()
                            .unwrap_or(u32::MAX)
                    } else {
                        u32::MAX
                    };
                    if target == u32::MAX {
                        break Err(VmError::BadCodeAddress(addr));
                    }
                    stack.push(pc as u32);
                    pc = target as usize;
                }
                Op::Ecall {
                    ext,
                    nargs,
                    returns,
                } => {
                    let name = &prog.externs[ext as usize];
                    // Up to four register arguments by the EM32 calling
                    // convention: an exact-size stack buffer per arity,
                    // no per-call heap and no unused `Value` drops.
                    let buf: [Value; 4];
                    let args: &[Value] = match nargs {
                        0 => &[],
                        1 => {
                            buf = [
                                Value::Int(regs[1]),
                                Value::Int(0),
                                Value::Int(0),
                                Value::Int(0),
                            ];
                            &buf[..1]
                        }
                        2 => {
                            buf = [
                                Value::Int(regs[1]),
                                Value::Int(regs[2]),
                                Value::Int(0),
                                Value::Int(0),
                            ];
                            &buf[..2]
                        }
                        3 => {
                            buf = [
                                Value::Int(regs[1]),
                                Value::Int(regs[2]),
                                Value::Int(regs[3]),
                                Value::Int(0),
                            ];
                            &buf[..3]
                        }
                        _ => {
                            buf = [
                                Value::Int(regs[1]),
                                Value::Int(regs[2]),
                                Value::Int(regs[3]),
                                Value::Int(regs[4]),
                            ];
                            &buf[..4]
                        }
                    };
                    match env.call_extern(name, args) {
                        Ok(result) => {
                            if returns {
                                regs[1] = match result {
                                    Value::Int(v) => v,
                                    Value::Bool(b) => i32::from(b),
                                    _ => 0,
                                };
                            }
                        }
                        Err(msg) => break Err(VmError::Host(msg)),
                    }
                }
                Op::Ret => match stack.pop() {
                    Some(rpc) => pc = rpc as usize,
                    None => break Ok(regs[1]),
                },
                // Fused pairs: two instructions per fetch. Each arm
                // re-checks fuel between its halves so `OutOfFuel` lands
                // on exactly the same step as in the oracle; `pc` ends up
                // past the pair's (still-populated) second slot.
                Op::LiAluI { op, rds, rs1, imm } => {
                    let imm = i32::from(imm);
                    regs[(rds >> 4) as usize] = imm;
                    if fuel == 0 {
                        break Err(VmError::OutOfFuel);
                    }
                    fuel -= 1;
                    regs[(rds & 15) as usize] = op.eval(regs[(rs1 & 15) as usize], imm);
                    pc += 1;
                }
                Op::LiLi { rds, imm1, imm2 } => {
                    regs[(rds >> 4) as usize] = i32::from(imm1);
                    if fuel == 0 {
                        break Err(VmError::OutOfFuel);
                    }
                    fuel -= 1;
                    regs[(rds & 15) as usize] = i32::from(imm2);
                    pc += 1;
                }
                Op::AluBr {
                    ops: o,
                    a,
                    b,
                    c,
                    target,
                } => {
                    regs[(a >> 4) as usize] = BINOP_FROM_NIBBLE[(o >> 4) as usize]
                        .eval(regs[(a & 15) as usize], regs[(b >> 4) as usize]);
                    if fuel == 0 {
                        break Err(VmError::OutOfFuel);
                    }
                    fuel -= 1;
                    let taken =
                        (regs[(b & 15) as usize] == regs[(c >> 4) as usize]) == (o & 1 == 1);
                    if taken {
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                }
                // `try_fuse` refuses `Lw` pairs with an `r0` destination
                // (a plain `Lw` to `r0` keeps its fault check but must
                // not write), so both stores are unconditional here.
                Op::LwLw {
                    rds,
                    bases,
                    off1,
                    off2,
                } => {
                    match checked_load(
                        mem,
                        i64::from(regs[(bases >> 4) as usize]) + i64::from(off1),
                    ) {
                        Ok(v) => regs[(rds >> 4) as usize] = v,
                        Err(e) => break Err(e),
                    }
                    if fuel == 0 {
                        break Err(VmError::OutOfFuel);
                    }
                    fuel -= 1;
                    match checked_load(
                        mem,
                        i64::from(regs[(bases & 15) as usize]) + i64::from(off2),
                    ) {
                        Ok(v) => regs[(rds & 15) as usize] = v,
                        Err(e) => break Err(e),
                    }
                    pc += 1;
                }
                Op::SwSw {
                    srcs,
                    bases,
                    off1,
                    off2,
                } => {
                    let v = regs[(srcs >> 4) as usize];
                    if let Err(e) = checked_store(
                        mem,
                        i64::from(regs[(bases >> 4) as usize]) + i64::from(off1),
                        v,
                    ) {
                        break Err(e);
                    }
                    if fuel == 0 {
                        break Err(VmError::OutOfFuel);
                    }
                    fuel -= 1;
                    let v = regs[(srcs & 15) as usize];
                    if let Err(e) = checked_store(
                        mem,
                        i64::from(regs[(bases & 15) as usize]) + i64::from(off2),
                        v,
                    ) {
                        break Err(e);
                    }
                    pc += 1;
                }
                Op::Table { meta } => {
                    let t = prog.table_meta[meta as usize];
                    let v = i64::from(regs[(t.rs & 15) as usize]) - i64::from(t.lo);
                    pc = if v >= 0 && v < i64::from(t.len) {
                        prog.tables[(t.start + v as u32) as usize] as usize
                    } else {
                        t.default as usize
                    };
                }
            }
        };
        self.fuel = fuel;
        // One fuel unit per executed instruction, so the count falls out
        // of the budget delta.
        self.executed += fuel_start - fuel;
        result
    }
}

fn checked_load(mem: &[u8], addr: i64) -> Result<i32, VmError> {
    let a = usize::try_from(addr).map_err(|_| VmError::MemoryFault { addr })?;
    match mem.get(a..a + 4) {
        Some(bytes) => Ok(i32::from_le_bytes(bytes.try_into().expect("4 bytes"))),
        None => Err(VmError::MemoryFault { addr }),
    }
}

fn checked_store(mem: &mut [u8], addr: i64, value: i32) -> Result<(), VmError> {
    let a = usize::try_from(addr).map_err(|_| VmError::MemoryFault { addr })?;
    match mem.get_mut(a..a + 4) {
        Some(bytes) => {
            bytes.copy_from_slice(&value.to_le_bytes());
            Ok(())
        }
        None => Err(VmError::MemoryFault { addr }),
    }
}

impl<E: Env> Engine for FastVm<'_, E> {
    fn call(&mut self, name: &str, args: &[i32]) -> Result<i32, VmError> {
        self.run(name, args)
    }

    fn executed(&self) -> u64 {
        self.executed
    }

    fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }
}

#[cfg(test)]
mod tests {
    use super::super::Vm;
    use super::*;
    use crate::backend::{AsmFunction, AsmInst, Assembly, RegAllocStats};
    use crate::{compile, OptLevel};
    use tlang::{Expr, ExternDecl, Function, Module, Place, RecordingEnv, Stmt, Type};

    /// Runs both engines on the same compiled module and asserts the full
    /// contract: result, extern trace and executed count all agree.
    fn assert_parity(m: &Module, entry: &str, args: &[i32]) {
        m.check().expect("typed");
        for level in OptLevel::all() {
            let artifact = compile(m, level).expect("compiles");
            let mut fast = FastVm::new(artifact.decoded(), RecordingEnv::new());
            let mut oracle = Vm::new(artifact.decoded(), RecordingEnv::new());
            let rf = fast.run(entry, args);
            let ro = oracle.run(entry, args);
            assert_eq!(rf, ro, "{level}: results diverge");
            assert_eq!(
                fast.executed(),
                oracle.executed(),
                "{level}: executed counts diverge"
            );
            assert_eq!(
                fast.into_env().calls,
                oracle.into_env().calls,
                "{level}: extern traces diverge"
            );
        }
    }

    #[test]
    fn loop_with_externs_full_parity() {
        let mut m = Module::new("m");
        m.push_extern(ExternDecl {
            name: "env_emit".into(),
            params: vec![Type::I32],
            ret: Type::Void,
        });
        m.push_function(Function {
            name: "main".into(),
            params: vec![("n".into(), Type::I32)],
            ret: Type::I32,
            body: vec![
                Stmt::Let {
                    name: "i".into(),
                    ty: Type::I32,
                    init: Some(Expr::Int(0)),
                },
                Stmt::While {
                    cond: Expr::var("i").bin(tlang::BinOp::Lt, Expr::var("n")),
                    body: vec![
                        Stmt::Expr(Expr::Call("env_emit".into(), vec![Expr::var("i")])),
                        Stmt::Assign {
                            place: Place::var("i"),
                            value: Expr::var("i").add(Expr::Int(1)),
                        },
                    ],
                },
                Stmt::Return(Some(Expr::var("i"))),
            ],
            exported: true,
        });
        assert_parity(&m, "main", &[5]);
    }

    #[test]
    fn switch_dispatch_parity() {
        let mut m = Module::new("m");
        m.push_function(Function {
            name: "sel".into(),
            params: vec![("k".into(), Type::I32)],
            ret: Type::I32,
            body: vec![Stmt::Switch {
                scrutinee: Expr::var("k"),
                cases: (0..8)
                    .map(|i| (i, vec![Stmt::Return(Some(Expr::Int(100 + i)))]))
                    .collect(),
                default: vec![Stmt::Return(Some(Expr::Int(-1)))],
            }],
            exported: true,
        });
        m.check().expect("typed");
        for k in -1..9 {
            assert_parity(&m, "sel", &[k]);
        }
    }

    fn raw(insts: Vec<AsmInst>) -> Assembly {
        Assembly {
            functions: vec![AsmFunction {
                name: "f".into(),
                exported: true,
                insts,
                stats: RegAllocStats::default(),
            }],
            globals: vec![],
            externs: vec![],
            fn_addrs: vec![0x100_0000],
        }
    }

    /// Both engines on a hand-built assembly: same fault kind and payload,
    /// same executed count up to the fault.
    fn assert_fault_parity(asm: &Assembly, expected: VmError) {
        let prog = DecodedProgram::decode(asm).expect("decodes");
        let mut fast = FastVm::new(&prog, RecordingEnv::new());
        let mut oracle = Vm::new(&prog, RecordingEnv::new());
        assert_eq!(fast.run("f", &[]), Err(expected.clone()));
        assert_eq!(oracle.run("f", &[]), Err(expected));
        assert_eq!(fast.executed(), oracle.executed());
    }

    #[test]
    fn memory_fault_parity() {
        // Negative address...
        assert_fault_parity(
            &raw(vec![
                AsmInst::Li { rd: 5, imm: -8 },
                AsmInst::Lw {
                    rd: 1,
                    base: 5,
                    off: 0,
                },
            ]),
            VmError::MemoryFault { addr: -8 },
        );
        // ...and past the end of the address space, on the store path.
        assert_fault_parity(
            &raw(vec![
                AsmInst::Li {
                    rd: 5,
                    imm: i32::MAX,
                },
                AsmInst::Sw {
                    src: 0,
                    base: 5,
                    off: 0,
                },
            ]),
            VmError::MemoryFault {
                addr: i64::from(i32::MAX),
            },
        );
    }

    #[test]
    fn bad_code_address_parity() {
        // An indirect call through a register holding a non-entry address
        // is the one target resolution that stays run-time in both
        // engines.
        assert_fault_parity(
            &raw(vec![
                AsmInst::Li { rd: 5, imm: 1234 },
                AsmInst::Jalr { rs: 5 },
            ]),
            VmError::BadCodeAddress(1234),
        );
    }

    #[test]
    fn unknown_function_parity() {
        let asm = raw(vec![AsmInst::Ret]);
        let prog = DecodedProgram::decode(&asm).expect("decodes");
        let mut fast = FastVm::new(&prog, RecordingEnv::new());
        let mut oracle = Vm::new(&prog, RecordingEnv::new());
        assert_eq!(
            fast.run("nope", &[]),
            Err(VmError::UnknownFunction("nope".into()))
        );
        assert_eq!(
            oracle.run("nope", &[]),
            Err(VmError::UnknownFunction("nope".into()))
        );
    }

    #[test]
    fn fuel_exhaustion_parity_at_every_budget() {
        // For every fuel budget below the full cost, both engines must
        // fail identically; at the full cost, both must succeed. This
        // pins the per-instruction fuel accounting op by op.
        let mut m = Module::new("m");
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![
                Stmt::Let {
                    name: "i".into(),
                    ty: Type::I32,
                    init: Some(Expr::Int(0)),
                },
                Stmt::While {
                    cond: Expr::var("i").bin(tlang::BinOp::Lt, Expr::Int(3)),
                    body: vec![Stmt::Assign {
                        place: Place::var("i"),
                        value: Expr::var("i").add(Expr::Int(1)),
                    }],
                },
                Stmt::Return(Some(Expr::var("i"))),
            ],
            exported: true,
        });
        m.check().expect("typed");
        let artifact = compile(&m, OptLevel::O0).expect("compiles");
        let mut full = FastVm::new(artifact.decoded(), RecordingEnv::new());
        full.run("main", &[]).expect("runs");
        let cost = full.executed();
        assert!(cost > 4);
        for fuel in [0, 1, cost / 2, cost - 1] {
            let mut fast = FastVm::new(artifact.decoded(), RecordingEnv::new()).with_fuel(fuel);
            let mut oracle = Vm::new(artifact.decoded(), RecordingEnv::new()).with_fuel(fuel);
            assert_eq!(
                fast.run("main", &[]),
                Err(VmError::OutOfFuel),
                "fuel={fuel}"
            );
            assert_eq!(
                oracle.run("main", &[]),
                Err(VmError::OutOfFuel),
                "fuel={fuel}"
            );
            assert_eq!(fast.executed(), oracle.executed(), "fuel={fuel}");
            assert_eq!(
                fast.executed(),
                fuel,
                "fast engine burns exactly the budget"
            );
        }
        let mut fast = FastVm::new(artifact.decoded(), RecordingEnv::new()).with_fuel(cost);
        let mut oracle = Vm::new(artifact.decoded(), RecordingEnv::new()).with_fuel(cost);
        assert_eq!(fast.run("main", &[]).expect("exact budget"), 3);
        assert_eq!(oracle.run("main", &[]).expect("exact budget"), 3);
    }

    #[test]
    fn adjacent_loads_to_r0_keep_hardwired_zero() {
        // Two adjacent `Lw`s into `r0` must not fuse into `LwLw` (whose
        // arm writes both destinations unconditionally): after executing
        // them over a nonzero word, `r0` must still read as zero on both
        // engines.
        let asm = raw(vec![
            AsmInst::Li { rd: 5, imm: 0 },
            AsmInst::Li { rd: 6, imm: 99 },
            AsmInst::Sw {
                src: 6,
                base: 5,
                off: 0,
            },
            AsmInst::Lw {
                rd: 0,
                base: 5,
                off: 0,
            },
            AsmInst::Lw {
                rd: 0,
                base: 5,
                off: 0,
            },
            AsmInst::Mv { rd: 1, rs: 0 },
            AsmInst::Ret,
        ]);
        let prog = DecodedProgram::decode(&asm).expect("decodes");
        let mut fast = FastVm::new(&prog, RecordingEnv::new());
        let mut oracle = Vm::new(&prog, RecordingEnv::new());
        assert_eq!(fast.run("f", &[]), Ok(0), "r0 clobbered on fast engine");
        assert_eq!(oracle.run("f", &[]), Ok(0));
        assert_eq!(fast.executed(), oracle.executed());
    }

    /// A module whose dispatch takes visibly different paths per input:
    /// coverage over `sel(k)` must grow with new `k` and nothing else.
    fn coverage_module() -> Module {
        let mut m = Module::new("m");
        m.push_function(Function {
            name: "sel".into(),
            params: vec![("k".into(), Type::I32)],
            ret: Type::I32,
            body: vec![Stmt::Switch {
                scrutinee: Expr::var("k"),
                cases: (0..6)
                    .map(|i| {
                        (
                            i,
                            vec![Stmt::Return(Some(
                                Expr::Int(10 * i).add(Expr::var("k").add(Expr::Int(i))),
                            ))],
                        )
                    })
                    .collect(),
                default: vec![Stmt::Return(Some(Expr::Int(-1)))],
            }],
            exported: true,
        });
        m.check().expect("typed");
        m
    }

    fn coverage_of(prog: &DecodedProgram, inputs: &[i32]) -> super::super::OpCoverage {
        let mut cov = super::super::OpCoverage::for_program(prog);
        let mut vm = FastVm::new(prog, RecordingEnv::new());
        for k in inputs {
            vm.run_with_coverage("sel", &[*k], &mut cov).expect("runs");
        }
        cov
    }

    #[test]
    fn op_coverage_is_deterministic_across_runs() {
        let m = coverage_module();
        for level in OptLevel::all() {
            let artifact = compile(&m, level).expect("compiles");
            let prog = artifact.decoded();
            let a = coverage_of(prog, &[0, 3, 9]);
            let b = coverage_of(prog, &[0, 3, 9]);
            // Bit-identical sets for the same program + input sequence —
            // the property corpus selection depends on.
            assert_eq!(a, b, "{level}: coverage not deterministic");
            assert!(a.count() > 0, "{level}: nothing recorded");
            assert!(a.count() <= prog.op_count());
        }
    }

    #[test]
    fn op_coverage_grows_with_new_paths_only() {
        let m = coverage_module();
        let artifact = compile(&m, OptLevel::O2).expect("compiles");
        let prog = artifact.decoded();
        let mut total = coverage_of(prog, &[1]);
        // A genuinely new dispatch path lights new ops...
        let fresh = total.merge(&coverage_of(prog, &[4]));
        assert!(fresh > 0, "new case arm should light new ops");
        // ...while replaying an already-covered input lights none.
        assert_eq!(total.merge(&coverage_of(prog, &[1])), 0);
        assert_eq!(total.merge(&coverage_of(prog, &[4])), 0);
    }

    #[test]
    fn run_and_run_with_coverage_agree_on_the_contract() {
        // The instrumented entry point must not perturb semantics:
        // result, trace and executed count match the plain loop.
        let m = coverage_module();
        let artifact = compile(&m, OptLevel::Os).expect("compiles");
        let prog = artifact.decoded();
        let mut plain = FastVm::new(prog, RecordingEnv::new());
        let mut inst = FastVm::new(prog, RecordingEnv::new());
        let mut cov = super::super::OpCoverage::for_program(prog);
        for k in [-1, 0, 2, 5, 7] {
            assert_eq!(
                plain.run("sel", &[k]),
                inst.run_with_coverage("sel", &[k], &mut cov)
            );
        }
        assert_eq!(plain.executed(), inst.executed());
        assert_eq!(plain.into_env().calls, inst.into_env().calls);
    }

    #[test]
    fn memory_persists_across_calls_like_oracle() {
        use tlang::{GlobalDef, Init};
        let mut m = Module::new("m");
        m.push_global(GlobalDef {
            name: "counter".into(),
            ty: Type::I32,
            init: Init::Int(0),
            mutable: true,
        });
        m.push_function(Function {
            name: "bump".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![
                Stmt::Assign {
                    place: Place::var("counter"),
                    value: Expr::var("counter").add(Expr::Int(1)),
                },
                Stmt::Return(Some(Expr::var("counter"))),
            ],
            exported: true,
        });
        m.check().expect("typed");
        let artifact = compile(&m, OptLevel::Os).expect("compiles");
        let mut vm = FastVm::new(artifact.decoded(), RecordingEnv::new());
        assert_eq!(vm.run("bump", &[]).expect("runs"), 1);
        assert_eq!(vm.run("bump", &[]).expect("runs"), 2);
        assert_eq!(vm.run("bump", &[]).expect("runs"), 3);
    }
}
