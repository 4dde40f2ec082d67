//! The reference EM32 interpreter: the oracle half of the two-engine
//! contract (see the [module docs](super)).
//!
//! Walks the [`AsmInst`] stream of a decoded program's assembly directly
//! with per-function label maps — it takes only decode's verdict and
//! memory image from the [`DecodedProgram`], and clones nothing per step
//! (instructions are borrowed from the assembly, never copied), so every
//! step is a plain transcription of the EM32 semantics the backend
//! assumes (hardwired `r0`, word-addressed little-endian memory, division
//! by zero yielding zero, link handling via an internal return stack).

use tlang::{Env, Value};

use crate::backend::{AsmInst, Assembly, DATA_BASE};

use super::{DecodedProgram, Engine, VmError, DEFAULT_FUEL, SP};

/// The reference EM32 machine instance. Memory (and therefore the state
/// machine's context) persists across [`run`](Vm::run) calls, matching
/// how the compiled program would behave on a device.
pub struct Vm<'a, E> {
    asm: &'a Assembly,
    mem: Vec<u8>,
    regs: [i32; 16],
    env: E,
    fuel: u64,
    executed: u64,
    /// Per-function label -> instruction index maps.
    labels: Vec<std::collections::BTreeMap<usize, usize>>,
}

impl<'a, E: Env> Vm<'a, E> {
    /// Creates a machine with the program's data image loaded.
    ///
    /// The oracle runs exactly the programs [`DecodedProgram::decode`]
    /// accepts, like the fast engine: it walks the decoded program's
    /// assembly and ignores its ops. So every rule lives in decode alone,
    /// and every index the walk below takes is in range.
    pub fn new(prog: &'a DecodedProgram, env: E) -> Vm<'a, E> {
        let asm = prog.assembly();
        let labels = asm
            .functions
            .iter()
            .map(|f| {
                f.insts
                    .iter()
                    .enumerate()
                    .filter_map(|(i, inst)| match inst {
                        AsmInst::Label(l) => Some((*l, i)),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        Vm {
            asm,
            mem: prog.mem.clone(),
            regs: [0; 16],
            env,
            fuel: DEFAULT_FUEL,
            executed: 0,
            labels,
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
        // Copy out the `&'a Assembly` so instruction borrows don't hold
        // a borrow of `self` across the mutating match arms below — this
        // is what lets the hot loop index/borrow instead of cloning.
        let asm = self.asm;
        let func = asm
            .functions
            .iter()
            .position(|f| f.name == name && f.exported)
            .ok_or_else(|| VmError::UnknownFunction(name.to_string()))?;
        for (i, a) in args.iter().enumerate().take(4) {
            self.regs[1 + i] = *a;
        }
        self.regs[SP] = self.mem.len() as i32;
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let mut fi = func;
        let mut pc = 0usize;
        loop {
            let insts = &asm.functions[fi].insts;
            if pc < insts.len() {
                if let AsmInst::Label(_) = insts[pc] {
                    // Zero-size marker: free, like the decoder erasing it.
                    pc += 1;
                    continue;
                }
            }
            if self.fuel == 0 {
                return Err(VmError::OutOfFuel);
            }
            self.fuel -= 1;
            self.executed += 1;
            if pc >= insts.len() {
                // Fell off the end: a void tail's implicit return, charged
                // like the explicit `Ret` the decoder materializes.
                match stack.pop() {
                    Some((rf, rpc)) => {
                        fi = rf;
                        pc = rpc;
                        continue;
                    }
                    None => return Ok(self.regs[1]),
                }
            }
            match &insts[pc] {
                AsmInst::Label(_) => unreachable!("labels are skipped above"),
                AsmInst::Li { rd, imm } => {
                    self.write(*rd, *imm);
                    pc += 1;
                }
                AsmInst::Mv { rd, rs } => {
                    let v = self.regs[*rs as usize];
                    self.write(*rd, v);
                    pc += 1;
                }
                AsmInst::Alu { op, rd, rs1, rs2 } => {
                    let v = op.eval(self.regs[*rs1 as usize], self.regs[*rs2 as usize]);
                    self.write(*rd, v);
                    pc += 1;
                }
                AsmInst::Lw { rd, base, off } => {
                    let v = self.load(i64::from(self.regs[*base as usize]) + i64::from(*off))?;
                    self.write(*rd, v);
                    pc += 1;
                }
                AsmInst::Sw { src, base, off } => {
                    let v = self.regs[*src as usize];
                    self.store(i64::from(self.regs[*base as usize]) + i64::from(*off), v)?;
                    pc += 1;
                }
                AsmInst::Beq { rs1, rs2, label } => {
                    if self.regs[*rs1 as usize] == self.regs[*rs2 as usize] {
                        pc = self.label(fi, *label);
                    } else {
                        pc += 1;
                    }
                }
                AsmInst::Bne { rs1, rs2, label } => {
                    if self.regs[*rs1 as usize] != self.regs[*rs2 as usize] {
                        pc = self.label(fi, *label);
                    } else {
                        pc += 1;
                    }
                }
                AsmInst::J { label } => pc = self.label(fi, *label),
                AsmInst::Jal { func } => {
                    stack.push((fi, pc + 1));
                    fi = *func;
                    pc = 0;
                }
                AsmInst::Jalr { rs } => {
                    let addr = self.regs[*rs as usize];
                    let target = asm
                        .fn_addrs
                        .iter()
                        .position(|a| *a as i32 == addr)
                        .ok_or(VmError::BadCodeAddress(addr))?;
                    stack.push((fi, pc + 1));
                    fi = target;
                    pc = 0;
                }
                AsmInst::Ecall {
                    ext,
                    nargs,
                    returns,
                } => {
                    let name = &asm.externs[*ext];
                    let args: Vec<Value> =
                        (0..*nargs).map(|i| Value::Int(self.regs[1 + i])).collect();
                    let result = self.env.call_extern(name, &args).map_err(VmError::Host)?;
                    if *returns {
                        let v = match result {
                            Value::Int(v) => v,
                            Value::Bool(b) => i32::from(b),
                            _ => 0,
                        };
                        self.write(1, v);
                    }
                    pc += 1;
                }
                AsmInst::Ret => match stack.pop() {
                    Some((rf, rpc)) => {
                        fi = rf;
                        pc = rpc;
                    }
                    None => return Ok(self.regs[1]),
                },
                AsmInst::La { rd, global, off } => {
                    let g = &asm.globals[*global];
                    let addr = DATA_BASE as i32 + g.offset as i32 + off;
                    self.write(*rd, addr);
                    pc += 1;
                }
                AsmInst::LaFn { rd, func } => {
                    let addr = asm.fn_addrs[*func] as i32;
                    self.write(*rd, addr);
                    pc += 1;
                }
                AsmInst::JumpTable {
                    rs,
                    lo,
                    labels,
                    default,
                } => {
                    let v = i64::from(self.regs[*rs as usize]) - i64::from(*lo);
                    let target = if v >= 0 && (v as usize) < labels.len() {
                        labels[v as usize]
                    } else {
                        *default
                    };
                    pc = self.label(fi, target);
                }
            }
        }
    }

    fn write(&mut self, rd: u8, value: i32) {
        if rd != 0 {
            self.regs[rd as usize] = value;
        }
    }

    /// The instruction index of `label` in function `fi` (decode has
    /// checked that every branch target is defined).
    fn label(&self, fi: usize, label: usize) -> usize {
        self.labels[fi][&label]
    }

    fn load(&self, addr: i64) -> Result<i32, VmError> {
        let a = usize::try_from(addr).map_err(|_| VmError::MemoryFault { addr })?;
        if a + 4 > self.mem.len() {
            return Err(VmError::MemoryFault { addr });
        }
        let bytes: [u8; 4] = self.mem[a..a + 4].try_into().expect("4 bytes");
        Ok(i32::from_le_bytes(bytes))
    }

    fn store(&mut self, addr: i64, value: i32) -> Result<(), VmError> {
        let a = usize::try_from(addr).map_err(|_| VmError::MemoryFault { addr })?;
        if a + 4 > self.mem.len() {
            return Err(VmError::MemoryFault { addr });
        }
        self.mem[a..a + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }
}

impl<E: Env> Engine for Vm<'_, E> {
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
    use super::*;
    use crate::{compile, OptLevel};
    use tlang::{
        Expr, ExternDecl, Function, GlobalDef, Init, Module, Place, RecordingEnv, Stmt, StructDef,
        Type,
    };

    fn run_main(module: &Module, level: OptLevel) -> (i32, RecordingEnv) {
        let artifact = compile(module, level).expect("compiles");
        let mut vm = Vm::new(artifact.decoded(), RecordingEnv::new());
        let r = vm.run("main", &[]).expect("runs");
        (r, vm.into_env())
    }

    /// The master correctness check: VM result == tlang interpreter result
    /// at every optimization level.
    fn assert_all_levels(module: &Module, expected: i32) {
        module.check().expect("typed");
        let mut interp = tlang::Interpreter::new(module, RecordingEnv::new());
        let oracle = interp.call("main", &[]).expect("interprets");
        if let Some(tlang::Value::Int(v)) = oracle {
            assert_eq!(v, expected, "oracle disagrees with test expectation");
        }
        let oracle_calls = interp.into_env().calls;
        for level in OptLevel::all() {
            let (r, env) = run_main(module, level);
            assert_eq!(r, expected, "{level}: wrong result");
            assert_eq!(env.calls, oracle_calls, "{level}: extern trace differs");
        }
    }

    #[test]
    fn arithmetic_pipeline() {
        let mut m = Module::new("m");
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![
                Stmt::Let {
                    name: "x".into(),
                    ty: Type::I32,
                    init: Some(Expr::Int(6)),
                },
                Stmt::Let {
                    name: "y".into(),
                    ty: Type::I32,
                    init: Some(Expr::var("x").bin(tlang::BinOp::Mul, Expr::Int(7))),
                },
                Stmt::Return(Some(Expr::var("y").bin(tlang::BinOp::Sub, Expr::Int(2)))),
            ],
            exported: true,
        });
        assert_all_levels(&m, 40);
    }

    #[test]
    fn loops_and_branches() {
        // sum of 0..10 with an early break at 7 -> 0+..+6 = 21.
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
                Stmt::Let {
                    name: "acc".into(),
                    ty: Type::I32,
                    init: Some(Expr::Int(0)),
                },
                Stmt::While {
                    cond: Expr::var("i").bin(tlang::BinOp::Lt, Expr::Int(10)),
                    body: vec![
                        Stmt::If {
                            cond: Expr::var("i").eq(Expr::Int(7)),
                            then_body: vec![Stmt::Break],
                            else_body: vec![],
                        },
                        Stmt::Assign {
                            place: Place::var("acc"),
                            value: Expr::var("acc").add(Expr::var("i")),
                        },
                        Stmt::Assign {
                            place: Place::var("i"),
                            value: Expr::var("i").add(Expr::Int(1)),
                        },
                    ],
                },
                Stmt::Return(Some(Expr::var("acc"))),
            ],
            exported: true,
        });
        assert_all_levels(&m, 21);
    }

    #[test]
    fn globals_structs_and_extern_trace() {
        let mut m = Module::new("m");
        m.push_struct(StructDef {
            name: "Ctx".into(),
            fields: vec![("state".into(), Type::I32), ("n".into(), Type::I32)],
        });
        m.push_extern(ExternDecl {
            name: "env_emit".into(),
            params: vec![Type::I32, Type::I32],
            ret: Type::Void,
        });
        m.push_global(GlobalDef {
            name: "ctx".into(),
            ty: Type::Struct("Ctx".into()),
            init: Init::Struct(vec![Init::Int(3), Init::Int(10)]),
            mutable: true,
        });
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![
                Stmt::Assign {
                    place: Place::var("ctx").field("n"),
                    value: Expr::Place(Place::var("ctx").field("n")).add(Expr::Int(5)),
                },
                Stmt::Expr(Expr::Call(
                    "env_emit".into(),
                    vec![
                        Expr::Place(Place::var("ctx").field("state")),
                        Expr::Place(Place::var("ctx").field("n")),
                    ],
                )),
                Stmt::Return(Some(Expr::Place(Place::var("ctx").field("n")))),
            ],
            exported: true,
        });
        assert_all_levels(&m, 15);
    }

    #[test]
    fn switch_dispatch_all_levels() {
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
        for level in OptLevel::all() {
            let artifact = compile(&m, level).expect("compiles");
            let mut vm = Vm::new(artifact.decoded(), RecordingEnv::new());
            for k in -1..9 {
                let want = if (0..8).contains(&k) { 100 + k } else { -1 };
                assert_eq!(vm.run("sel", &[k]).expect("runs"), want, "{level} k={k}");
            }
        }
    }

    #[test]
    fn indirect_calls_through_data_tables() {
        let mut m = Module::new("m");
        m.push_extern(ExternDecl {
            name: "env_emit".into(),
            params: vec![Type::I32],
            ret: Type::Void,
        });
        for (name, v) in [("h0", 7), ("h1", 8)] {
            m.push_function(Function {
                name: name.into(),
                params: vec![],
                ret: Type::Void,
                body: vec![Stmt::Expr(Expr::Call(
                    "env_emit".into(),
                    vec![Expr::Int(v)],
                ))],
                exported: false,
            });
        }
        m.push_global(GlobalDef {
            name: "tbl".into(),
            ty: Type::Array(Box::new(Type::fn_ptr(vec![], Type::Void)), 2),
            init: Init::Array(vec![Init::FnAddr("h0".into()), Init::FnAddr("h1".into())]),
            mutable: false,
        });
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::Void,
            body: vec![
                Stmt::Expr(Expr::CallPtr(
                    Box::new(Expr::Place(Place::var("tbl").index(Expr::Int(1)))),
                    vec![],
                )),
                Stmt::Expr(Expr::CallPtr(
                    Box::new(Expr::Place(Place::var("tbl").index(Expr::Int(0)))),
                    vec![],
                )),
            ],
            exported: true,
        });
        m.check().expect("typed");
        for level in OptLevel::all() {
            let artifact = compile(&m, level).expect("compiles");
            let mut vm = Vm::new(artifact.decoded(), RecordingEnv::new());
            vm.run("main", &[]).expect("runs");
            assert_eq!(
                vm.into_env().calls,
                vec![
                    ("env_emit".to_string(), vec![8]),
                    ("env_emit".to_string(), vec![7])
                ],
                "{level}"
            );
        }
    }

    #[test]
    fn memory_persists_across_calls() {
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
        let mut vm = Vm::new(artifact.decoded(), RecordingEnv::new());
        assert_eq!(vm.run("bump", &[]).expect("runs"), 1);
        assert_eq!(vm.run("bump", &[]).expect("runs"), 2);
        assert_eq!(vm.run("bump", &[]).expect("runs"), 3);
    }

    #[test]
    fn out_of_fuel_reported() {
        let mut m = Module::new("m");
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::Void,
            body: vec![Stmt::While {
                cond: Expr::Bool(true),
                body: vec![],
            }],
            exported: true,
        });
        let artifact = compile(&m, OptLevel::O0).expect("compiles");
        let mut vm = Vm::new(artifact.decoded(), RecordingEnv::new()).with_fuel(10_000);
        assert_eq!(vm.run("main", &[]), Err(VmError::OutOfFuel));
    }

    #[test]
    fn labels_cost_no_fuel() {
        // A branchy function executes label markers on every path; the
        // executed count must reflect instructions only. Exact parity
        // with the fast engine (which erases labels at decode time) is
        // asserted in the dispatch tests and the differential net; here
        // we pin that the count is below the raw stream length times the
        // iteration count on a label-dense -O0 body.
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
                    cond: Expr::var("i").bin(tlang::BinOp::Lt, Expr::Int(4)),
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
        let labels = artifact.assembly().functions[0]
            .insts
            .iter()
            .filter(|i| matches!(i, AsmInst::Label(_)))
            .count();
        assert!(labels > 0, "-O0 loop body should carry labels");
        let mut vm = Vm::new(artifact.decoded(), RecordingEnv::new());
        assert_eq!(vm.run("main", &[]).expect("runs"), 4);
        assert!(vm.executed() > 0);
        // Re-running accumulates.
        let first = vm.executed();
        vm.run("main", &[]).expect("runs");
        assert_eq!(vm.executed(), first * 2, "deterministic accumulation");
    }
}
