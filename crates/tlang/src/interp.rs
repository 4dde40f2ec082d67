//! Reference interpreter for modules: the compiler-correctness oracle.
//!
//! `occ` (the optimizing compiler) is validated by differential testing:
//! a compiled program executed on the EM32 VM must produce exactly the
//! environment-call trace this interpreter produces for the same source and
//! inputs. The interpreter is deliberately simple and close to the language
//! definition.

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::{BinOp, Expr, Function, Init, Module, Place, Stmt, Type, UnOp};

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// 32-bit integer.
    Int(i32),
    /// Boolean.
    Bool(bool),
    /// Function pointer (by name; the checker guarantees it exists).
    Fn(String),
    /// Array value.
    Array(Vec<Value>),
    /// Struct value (fields in definition order).
    Struct(Vec<Value>),
}

impl Value {
    fn as_int(&self) -> Result<i32, ExecError> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(ExecError::TypeConfusion(format!(
                "expected int, found {other:?}"
            ))),
        }
    }

    fn as_bool(&self) -> Result<bool, ExecError> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(ExecError::TypeConfusion(format!(
                "expected bool, found {other:?}"
            ))),
        }
    }
}

/// The host environment: receives extern calls (`env_emit`, ...).
pub trait Env {
    /// Handles one extern call; returns the call's result value (ignored
    /// for void externs — return `Value::Int(0)`).
    ///
    /// # Errors
    ///
    /// Returns a message when the host rejects the call; execution aborts
    /// with [`ExecError::Host`].
    fn call_extern(&mut self, name: &str, args: &[Value]) -> Result<Value, String>;
}

/// An [`Env`] that records every extern call — the observable trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingEnv {
    /// `(extern name, integer arguments)` in call order.
    pub calls: Vec<(String, Vec<i32>)>,
}

impl RecordingEnv {
    /// Creates an empty recorder.
    pub fn new() -> RecordingEnv {
        RecordingEnv::default()
    }
}

impl Env for RecordingEnv {
    fn call_extern(&mut self, name: &str, args: &[Value]) -> Result<Value, String> {
        let ints: Result<Vec<i32>, String> = args
            .iter()
            .map(|v| match v {
                Value::Int(i) => Ok(*i),
                Value::Bool(b) => Ok(i32::from(*b)),
                other => Err(format!("non-scalar extern argument {other:?}")),
            })
            .collect();
        self.calls.push((name.to_string(), ints?));
        Ok(Value::Int(0))
    }
}

/// An execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Call of an unknown function.
    UnknownFunction(String),
    /// Read of an unknown variable (checker bypassed).
    UnknownVariable(String),
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// Index used.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Value used at the wrong type (checker bypassed).
    TypeConfusion(String),
    /// The step budget was exhausted (runaway loop).
    OutOfFuel,
    /// The host environment rejected an extern call.
    Host(String),
    /// A non-void function returned no value (checker bypassed).
    MissingValue(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ExecError::UnknownVariable(n) => write!(f, "unknown variable `{n}`"),
            ExecError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds (len {len})")
            }
            ExecError::TypeConfusion(msg) => write!(f, "type confusion: {msg}"),
            ExecError::OutOfFuel => write!(f, "execution step budget exhausted"),
            ExecError::Host(msg) => write!(f, "host rejected extern call: {msg}"),
            ExecError::MissingValue(n) => write!(f, "function `{n}` returned no value"),
        }
    }
}

impl std::error::Error for ExecError {}

enum Flow {
    Normal,
    Break,
    Return(Option<Value>),
}

/// An executing module instance. Globals persist across calls, so a state
/// machine's context survives between `sm_step` invocations exactly as it
/// does in the compiled program.
pub struct Interpreter<'m, E> {
    module: &'m Module,
    globals: BTreeMap<String, Value>,
    env: E,
    fuel: u64,
}

impl<'m, E: Env> Interpreter<'m, E> {
    /// Creates an instance with initialized globals and a step budget of
    /// 10 million statements.
    pub fn new(module: &'m Module, env: E) -> Interpreter<'m, E> {
        let mut globals = BTreeMap::new();
        for g in &module.globals {
            globals.insert(g.name.clone(), value_of_init(module, &g.ty, &g.init));
        }
        Interpreter {
            module,
            globals,
            env,
            fuel: 10_000_000,
        }
    }

    /// Overrides the step budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// The host environment (e.g. to read a recorded trace).
    pub fn env(&self) -> &E {
        &self.env
    }

    /// Consumes the interpreter, returning the host environment.
    pub fn into_env(self) -> E {
        self.env
    }

    /// Reads a global's current value.
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Calls a function by name with scalar arguments.
    ///
    /// # Errors
    ///
    /// Fails on unknown functions, out-of-fuel, host rejection, or — for
    /// unchecked modules — dynamic type errors.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, ExecError> {
        let func = self
            .module
            .function(name)
            .ok_or_else(|| ExecError::UnknownFunction(name.to_string()))?
            .clone();
        self.call_function(&func, args)
    }

    fn call_function(
        &mut self,
        func: &Function,
        args: &[Value],
    ) -> Result<Option<Value>, ExecError> {
        let mut locals: BTreeMap<String, Value> = BTreeMap::new();
        for ((pname, _), arg) in func.params.iter().zip(args) {
            locals.insert(pname.clone(), arg.clone());
        }
        match self.exec_block(&func.body, &mut locals)? {
            Flow::Return(v) => Ok(v),
            _ if func.ret == Type::Void => Ok(None),
            _ => Err(ExecError::MissingValue(func.name.clone())),
        }
    }

    fn exec_block(
        &mut self,
        body: &[Stmt],
        locals: &mut BTreeMap<String, Value>,
    ) -> Result<Flow, ExecError> {
        for stmt in body {
            match self.exec_stmt(stmt, locals)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn burn(&mut self) -> Result<(), ExecError> {
        if self.fuel == 0 {
            return Err(ExecError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        locals: &mut BTreeMap<String, Value>,
    ) -> Result<Flow, ExecError> {
        self.burn()?;
        match stmt {
            Stmt::Let { name, ty, init } => {
                let value = match init {
                    Some(e) => self.eval(e, locals)?,
                    None => default_value(self.module, ty),
                };
                locals.insert(name.clone(), value);
                Ok(Flow::Normal)
            }
            Stmt::Assign { place, value } => {
                let v = self.eval(value, locals)?;
                self.store(place, v, locals)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval(cond, locals)?.as_bool()? {
                    self.exec_block(then_body, locals)
                } else {
                    self.exec_block(else_body, locals)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    self.burn()?;
                    if !self.eval(cond, locals)?.as_bool()? {
                        break;
                    }
                    match self.exec_block(body, locals)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                let v = i64::from(self.eval(scrutinee, locals)?.as_int()?);
                let body = cases
                    .iter()
                    .find(|(c, _)| *c == v)
                    .map(|(_, b)| b)
                    .unwrap_or(default);
                self.exec_block(body, locals)
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(e) => Some(self.eval(e, locals)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Expr(e) => {
                self.eval(e, locals)?;
                Ok(Flow::Normal)
            }
            Stmt::Break => Ok(Flow::Break),
        }
    }

    fn eval(
        &mut self,
        expr: &Expr,
        locals: &mut BTreeMap<String, Value>,
    ) -> Result<Value, ExecError> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v as i32)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Place(p) => self.load(p, locals),
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, locals)?;
                match op {
                    UnOp::Neg => Ok(Value::Int(v.as_int()?.wrapping_neg())),
                    UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                let l = self.eval(lhs, locals)?;
                let r = self.eval(rhs, locals)?;
                eval_binop(*op, &l, &r)
            }
            Expr::Call(name, args) => {
                let argv: Result<Vec<Value>, ExecError> =
                    args.iter().map(|a| self.eval(a, locals)).collect();
                let argv = argv?;
                if self.module.function(name).is_some() {
                    let func = self.module.function(name).expect("checked").clone();
                    Ok(self.call_function(&func, &argv)?.unwrap_or(Value::Int(0)))
                } else if self.module.extern_decl(name).is_some() {
                    self.env.call_extern(name, &argv).map_err(ExecError::Host)
                } else {
                    Err(ExecError::UnknownFunction(name.clone()))
                }
            }
            Expr::CallPtr(callee, args) => {
                let target = self.eval(callee, locals)?;
                let Value::Fn(name) = target else {
                    return Err(ExecError::TypeConfusion(format!(
                        "indirect call through non-function {target:?}"
                    )));
                };
                let argv: Result<Vec<Value>, ExecError> =
                    args.iter().map(|a| self.eval(a, locals)).collect();
                let func = self
                    .module
                    .function(&name)
                    .ok_or(ExecError::UnknownFunction(name))?
                    .clone();
                Ok(self.call_function(&func, &argv?)?.unwrap_or(Value::Int(0)))
            }
            Expr::FnAddr(name) => Ok(Value::Fn(name.clone())),
        }
    }

    fn load(
        &mut self,
        place: &Place,
        locals: &mut BTreeMap<String, Value>,
    ) -> Result<Value, ExecError> {
        match place {
            Place::Var(name) => {
                if let Some(v) = locals.get(name) {
                    return Ok(v.clone());
                }
                self.globals
                    .get(name)
                    .cloned()
                    .ok_or_else(|| ExecError::UnknownVariable(name.clone()))
            }
            Place::Field(base, field) => {
                let bv = self.load(base, locals)?;
                let idx = self.field_index(base, field, locals)?;
                match bv {
                    Value::Struct(fields) => fields
                        .get(idx)
                        .cloned()
                        .ok_or_else(|| ExecError::TypeConfusion("bad field index".into())),
                    other => Err(ExecError::TypeConfusion(format!(
                        "field access on {other:?}"
                    ))),
                }
            }
            Place::Index(base, index) => {
                let i = i64::from(self.eval(index, locals)?.as_int()?);
                let bv = self.load(base, locals)?;
                match bv {
                    Value::Array(items) => {
                        let len = items.len();
                        usize::try_from(i)
                            .ok()
                            .and_then(|i| items.into_iter().nth(i))
                            .ok_or(ExecError::IndexOutOfBounds { index: i, len })
                    }
                    other => Err(ExecError::TypeConfusion(format!("indexing {other:?}"))),
                }
            }
        }
    }

    /// Resolves a field name to its index using the static type of `base`.
    fn field_index(
        &mut self,
        base: &Place,
        field: &str,
        locals: &BTreeMap<String, Value>,
    ) -> Result<usize, ExecError> {
        let ty = self.static_type_of_place(base, locals)?;
        let Type::Struct(name) = ty else {
            return Err(ExecError::TypeConfusion(format!(
                "field `.{field}` on non-struct"
            )));
        };
        let def = self
            .module
            .struct_def(&name)
            .ok_or_else(|| ExecError::UnknownVariable(name.clone()))?;
        def.field(field)
            .map(|(i, _)| i)
            .ok_or_else(|| ExecError::UnknownVariable(format!("{name}.{field}")))
    }

    fn static_type_of_place(
        &self,
        place: &Place,
        locals: &BTreeMap<String, Value>,
    ) -> Result<Type, ExecError> {
        match place {
            Place::Var(name) => {
                if locals.contains_key(name) {
                    // Locals are scalars; fields are never accessed on them,
                    // but we still need a type: reconstruct from the value.
                    return Ok(match locals[name] {
                        Value::Int(_) => Type::I32,
                        Value::Bool(_) => Type::Bool,
                        Value::Fn(_) => Type::fn_ptr(vec![], Type::Void),
                        _ => Type::I32,
                    });
                }
                self.module
                    .global(name)
                    .map(|g| g.ty.clone())
                    .ok_or_else(|| ExecError::UnknownVariable(name.clone()))
            }
            Place::Field(base, field) => {
                let bt = self.static_type_of_place(base, locals)?;
                let Type::Struct(name) = bt else {
                    return Err(ExecError::TypeConfusion("field on non-struct".into()));
                };
                let def = self
                    .module
                    .struct_def(&name)
                    .ok_or(ExecError::UnknownVariable(name))?;
                def.field(field)
                    .map(|(_, t)| t.clone())
                    .ok_or_else(|| ExecError::UnknownVariable(field.to_string()))
            }
            Place::Index(base, _) => {
                let bt = self.static_type_of_place(base, locals)?;
                match bt {
                    Type::Array(elem, _) => Ok(*elem),
                    _ => Err(ExecError::TypeConfusion("index on non-array".into())),
                }
            }
        }
    }

    fn store(
        &mut self,
        place: &Place,
        value: Value,
        locals: &mut BTreeMap<String, Value>,
    ) -> Result<(), ExecError> {
        // Resolve the chain of accessors into a mutable slot.
        enum Step {
            Field(usize),
            Index(usize),
        }
        let mut steps = Vec::new();
        let mut cursor = place;
        loop {
            match cursor {
                Place::Var(_) => break,
                Place::Field(base, field) => {
                    let idx = self.field_index(base, field, locals)?;
                    steps.push(Step::Field(idx));
                    cursor = base;
                }
                Place::Index(base, index) => {
                    let i = i64::from(self.eval(index, locals)?.as_int()?);
                    let i = usize::try_from(i)
                        .map_err(|_| ExecError::IndexOutOfBounds { index: i, len: 0 })?;
                    steps.push(Step::Index(i));
                    cursor = base;
                }
            }
        }
        let Place::Var(root) = cursor else {
            unreachable!("loop exits only at Var");
        };
        let slot = if let Some(v) = locals.get_mut(root) {
            v
        } else {
            self.globals
                .get_mut(root)
                .ok_or_else(|| ExecError::UnknownVariable(root.clone()))?
        };
        let mut target = slot;
        for step in steps.iter().rev() {
            target = match (step, target) {
                (Step::Field(i), Value::Struct(fields)) => {
                    let len = fields.len();
                    fields.get_mut(*i).ok_or(ExecError::IndexOutOfBounds {
                        index: *i as i64,
                        len,
                    })?
                }
                (Step::Index(i), Value::Array(items)) => {
                    let len = items.len();
                    items.get_mut(*i).ok_or(ExecError::IndexOutOfBounds {
                        index: *i as i64,
                        len,
                    })?
                }
                _ => return Err(ExecError::TypeConfusion("bad store path".into())),
            };
        }
        *target = value;
        Ok(())
    }
}

fn default_value(module: &Module, ty: &Type) -> Value {
    match ty {
        Type::I32 | Type::Void => Value::Int(0),
        Type::Bool => Value::Bool(false),
        Type::FnPtr { .. } => Value::Int(0),
        Type::Array(elem, n) => Value::Array(vec![default_value(module, elem); *n]),
        Type::Struct(name) => {
            let def = module.struct_def(name).expect("checked struct");
            Value::Struct(
                def.fields
                    .iter()
                    .map(|(_, t)| default_value(module, t))
                    .collect(),
            )
        }
    }
}

fn value_of_init(module: &Module, ty: &Type, init: &Init) -> Value {
    match (ty, init) {
        (_, Init::Zero) => default_value(module, ty),
        (Type::I32, Init::Int(v)) => Value::Int(*v as i32),
        (Type::Bool, Init::Bool(b)) => Value::Bool(*b),
        (Type::FnPtr { .. }, Init::FnAddr(name)) => Value::Fn(name.clone()),
        (Type::Array(elem, _), Init::Array(items)) => Value::Array(
            items
                .iter()
                .map(|i| value_of_init(module, elem, i))
                .collect(),
        ),
        (Type::Struct(name), Init::Struct(items)) => {
            let def = module.struct_def(name).expect("checked struct");
            Value::Struct(
                def.fields
                    .iter()
                    .zip(items)
                    .map(|((_, t), i)| value_of_init(module, t, i))
                    .collect(),
            )
        }
        _ => default_value(module, ty),
    }
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, ExecError> {
    use BinOp::*;
    Ok(match op {
        Add => Value::Int(l.as_int()?.wrapping_add(r.as_int()?)),
        Sub => Value::Int(l.as_int()?.wrapping_sub(r.as_int()?)),
        Mul => Value::Int(l.as_int()?.wrapping_mul(r.as_int()?)),
        Div => {
            let (a, b) = (l.as_int()?, r.as_int()?);
            Value::Int(if b == 0 { 0 } else { a.wrapping_div(b) })
        }
        Rem => {
            let (a, b) = (l.as_int()?, r.as_int()?);
            Value::Int(if b == 0 { 0 } else { a.wrapping_rem(b) })
        }
        Eq => Value::Bool(values_eq(l, r)?),
        Ne => Value::Bool(!values_eq(l, r)?),
        Lt => Value::Bool(l.as_int()? < r.as_int()?),
        Le => Value::Bool(l.as_int()? <= r.as_int()?),
        Gt => Value::Bool(l.as_int()? > r.as_int()?),
        Ge => Value::Bool(l.as_int()? >= r.as_int()?),
        And => Value::Bool(l.as_bool()? && r.as_bool()?),
        Or => Value::Bool(l.as_bool()? || r.as_bool()?),
    })
}

fn values_eq(l: &Value, r: &Value) -> Result<bool, ExecError> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(a == b),
        (Value::Bool(a), Value::Bool(b)) => Ok(a == b),
        (Value::Fn(a), Value::Fn(b)) => Ok(a == b),
        _ => Err(ExecError::TypeConfusion("mixed-type equality".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ExternDecl, GlobalDef, StructDef};

    fn run_main(m: &Module) -> (Option<Value>, RecordingEnv) {
        let mut i = Interpreter::new(m, RecordingEnv::new());
        let r = i.call("main", &[]).expect("runs");
        (r, i.into_env())
    }

    #[test]
    fn arithmetic_and_locals() {
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
                Stmt::Return(Some(Expr::var("x").bin(BinOp::Mul, Expr::Int(7)))),
            ],
            exported: true,
        });
        m.check().expect("typed");
        assert_eq!(run_main(&m).0, Some(Value::Int(42)));
    }

    #[test]
    fn division_by_zero_is_zero() {
        let mut m = Module::new("m");
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![Stmt::Return(Some(
                Expr::Int(9).bin(BinOp::Div, Expr::Int(0)),
            ))],
            exported: true,
        });
        assert_eq!(run_main(&m).0, Some(Value::Int(0)));
    }

    #[test]
    fn while_loop_sums() {
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
                    cond: Expr::var("i").bin(BinOp::Lt, Expr::Int(5)),
                    body: vec![
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
        m.check().expect("typed");
        assert_eq!(run_main(&m).0, Some(Value::Int(10)));
    }

    #[test]
    fn break_exits_loop() {
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
                    cond: Expr::Bool(true),
                    body: vec![
                        Stmt::Assign {
                            place: Place::var("i"),
                            value: Expr::var("i").add(Expr::Int(1)),
                        },
                        Stmt::If {
                            cond: Expr::var("i").bin(BinOp::Ge, Expr::Int(3)),
                            then_body: vec![Stmt::Break],
                            else_body: vec![],
                        },
                    ],
                },
                Stmt::Return(Some(Expr::var("i"))),
            ],
            exported: true,
        });
        m.check().expect("typed");
        assert_eq!(run_main(&m).0, Some(Value::Int(3)));
    }

    #[test]
    fn switch_selects_case_and_default() {
        let mut m = Module::new("m");
        m.push_function(Function {
            name: "sel".into(),
            params: vec![("k".into(), Type::I32)],
            ret: Type::I32,
            body: vec![Stmt::Switch {
                scrutinee: Expr::var("k"),
                cases: vec![
                    (0, vec![Stmt::Return(Some(Expr::Int(100)))]),
                    (5, vec![Stmt::Return(Some(Expr::Int(500)))]),
                ],
                default: vec![Stmt::Return(Some(Expr::Int(-1)))],
            }],
            exported: true,
        });
        m.check().expect("typed");
        let mut i = Interpreter::new(&m, RecordingEnv::new());
        assert_eq!(
            i.call("sel", &[Value::Int(5)]).expect("runs"),
            Some(Value::Int(500))
        );
        assert_eq!(
            i.call("sel", &[Value::Int(9)]).expect("runs"),
            Some(Value::Int(-1))
        );
    }

    #[test]
    fn globals_persist_across_calls() {
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
        let mut i = Interpreter::new(&m, RecordingEnv::new());
        i.call("bump", &[]).expect("runs");
        assert_eq!(i.call("bump", &[]).expect("runs"), Some(Value::Int(2)));
    }

    #[test]
    fn struct_fields_and_arrays() {
        let mut m = Module::new("m");
        m.push_struct(StructDef {
            name: "Ctx".into(),
            fields: vec![
                ("state".into(), Type::I32),
                ("flags".into(), Type::Array(Box::new(Type::I32), 3)),
            ],
        });
        m.push_global(GlobalDef {
            name: "ctx".into(),
            ty: Type::Struct("Ctx".into()),
            init: Init::Zero,
            mutable: true,
        });
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![
                Stmt::Assign {
                    place: Place::var("ctx").field("state"),
                    value: Expr::Int(7),
                },
                Stmt::Assign {
                    place: Place::var("ctx").field("flags").index(Expr::Int(2)),
                    value: Expr::Int(9),
                },
                Stmt::Return(Some(Expr::Place(Place::var("ctx").field("state")).add(
                    Expr::Place(Place::var("ctx").field("flags").index(Expr::Int(2))),
                ))),
            ],
            exported: true,
        });
        m.check().expect("typed");
        assert_eq!(run_main(&m).0, Some(Value::Int(16)));
    }

    #[test]
    fn extern_calls_are_recorded() {
        let mut m = Module::new("m");
        m.push_extern(ExternDecl {
            name: "env_emit".into(),
            params: vec![Type::I32, Type::I32],
            ret: Type::Void,
        });
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::Void,
            body: vec![
                Stmt::Expr(Expr::Call(
                    "env_emit".into(),
                    vec![Expr::Int(3), Expr::Int(4)],
                )),
                Stmt::Expr(Expr::Call(
                    "env_emit".into(),
                    vec![Expr::Int(5), Expr::Int(6)],
                )),
            ],
            exported: true,
        });
        m.check().expect("typed");
        let (_, env) = run_main(&m);
        assert_eq!(
            env.calls,
            vec![
                ("env_emit".to_string(), vec![3, 4]),
                ("env_emit".to_string(), vec![5, 6]),
            ]
        );
    }

    #[test]
    fn indirect_calls_through_const_table() {
        let mut m = Module::new("m");
        m.push_extern(ExternDecl {
            name: "env_emit".into(),
            params: vec![Type::I32],
            ret: Type::Void,
        });
        for (name, v) in [("h0", 100), ("h1", 200)] {
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
            name: "handlers".into(),
            ty: Type::Array(Box::new(Type::fn_ptr(vec![], Type::Void)), 2),
            init: Init::Array(vec![Init::FnAddr("h0".into()), Init::FnAddr("h1".into())]),
            mutable: false,
        });
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::Void,
            body: vec![Stmt::Expr(Expr::CallPtr(
                Box::new(Expr::Place(Place::var("handlers").index(Expr::Int(1)))),
                vec![],
            ))],
            exported: true,
        });
        m.check().expect("typed");
        let (_, env) = run_main(&m);
        assert_eq!(env.calls, vec![("env_emit".to_string(), vec![200])]);
    }

    #[test]
    fn out_of_fuel_detected() {
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
        let mut i = Interpreter::new(&m, RecordingEnv::new()).with_fuel(1000);
        assert_eq!(i.call("main", &[]), Err(ExecError::OutOfFuel));
    }

    #[test]
    fn index_out_of_bounds_detected() {
        let mut m = Module::new("m");
        m.push_global(GlobalDef {
            name: "arr".into(),
            ty: Type::Array(Box::new(Type::I32), 2),
            init: Init::Zero,
            mutable: true,
        });
        m.push_function(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![Stmt::Return(Some(Expr::Place(
                Place::var("arr").index(Expr::Int(5)),
            )))],
            exported: true,
        });
        let mut i = Interpreter::new(&m, RecordingEnv::new());
        assert!(matches!(
            i.call("main", &[]),
            Err(ExecError::IndexOutOfBounds { .. })
        ));
    }
}
