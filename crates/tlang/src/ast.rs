//! Abstract syntax of the target language.

use std::fmt;

/// A type of the target language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit signed integer (the embedded `int`).
    I32,
    /// Boolean (lowered to a byte by the backend).
    Bool,
    /// No value; only valid as a return type.
    Void,
    /// A named struct type.
    Struct(String),
    /// Fixed-size array.
    Array(Box<Type>, usize),
    /// Pointer to a function with the given signature.
    FnPtr {
        /// Parameter types.
        params: Vec<Type>,
        /// Return type.
        ret: Box<Type>,
    },
}

impl Type {
    /// Convenience constructor for a function-pointer type.
    pub fn fn_ptr(params: Vec<Type>, ret: Type) -> Type {
        Type::FnPtr {
            params,
            ret: Box::new(ret),
        }
    }

    /// `true` for types a local variable or parameter may have (scalars and
    /// function pointers; aggregates live in globals only).
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::I32 | Type::Bool | Type::FnPtr { .. })
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::I32 => write!(f, "i32"),
            Type::Bool => write!(f, "bool"),
            Type::Void => write!(f, "void"),
            Type::Struct(name) => write!(f, "struct {name}"),
            Type::Array(elem, n) => write!(f, "{elem}[{n}]"),
            Type::FnPtr { params, ret } => {
                write!(f, "fn(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ") -> {ret}")
            }
        }
    }
}

/// Binary operators. `And`/`Or` are strict (non-short-circuit) boolean
/// operators, matching the model-level action language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; division by zero yields zero (embedded-friendly totalized
    /// semantics shared with the model level).
    Div,
    /// Remainder; remainder by zero yields zero.
    Rem,
    /// Equality (ints or bools).
    Eq,
    /// Inequality.
    Ne,
    /// Less-than (ints).
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Strict boolean and.
    And,
    /// Strict boolean or.
    Or,
}

impl BinOp {
    /// Surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&",
            BinOp::Or => "|",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Boolean not.
    Not,
}

/// A *place*: something that designates a storage location (local,
/// parameter, global, struct field, array element).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Place {
    /// A named local, parameter or global (resolution order: local scope,
    /// then globals).
    Var(String),
    /// A struct field of a place.
    Field(Box<Place>, String),
    /// An array element of a place.
    Index(Box<Place>, Box<Expr>),
}

impl Place {
    /// Convenience constructor for a named place.
    pub fn var(name: impl Into<String>) -> Place {
        Place::Var(name.into())
    }

    /// Selects a field of this place.
    pub fn field(self, name: impl Into<String>) -> Place {
        Place::Field(Box::new(self), name.into())
    }

    /// Indexes this place.
    pub fn index(self, index: Expr) -> Place {
        Place::Index(Box::new(self), Box::new(index))
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// 32-bit integer literal (stored widened; the checker rejects
    /// out-of-range literals).
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Read of a place.
    Place(Place),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Direct call of a module function or extern.
    Call(String, Vec<Expr>),
    /// Indirect call through a function-pointer expression.
    CallPtr(Box<Expr>, Vec<Expr>),
    /// Address of a module function (a function-pointer value).
    FnAddr(String),
}

// `add` intentionally shadows the `std::ops::Add` method name: it builds
// an AST node by value rather than evaluating, so the operator trait would
// misleadingly suggest arithmetic.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Reads a named variable.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Place(Place::var(name))
    }

    /// Builds `self OP rhs`.
    pub fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// Builds `self == rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }

    /// Builds `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// Declares a scalar local, optionally initialized.
    Let {
        /// Local name.
        name: String,
        /// Declared type (must be scalar).
        ty: Type,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Stores into a place.
    Assign {
        /// Destination.
        place: Place,
        /// Value.
        value: Expr,
    },
    /// Conditional.
    If {
        /// Condition (boolean).
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch.
        else_body: Vec<Stmt>,
    },
    /// Loop.
    While {
        /// Loop condition (boolean).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Multi-way branch on an integer scrutinee. Cases do not fall through
    /// (each case body is a block, as in the generated nested-switch code).
    Switch {
        /// Scrutinee (integer).
        scrutinee: Expr,
        /// `(value, body)` arms.
        cases: Vec<(i64, Vec<Stmt>)>,
        /// Default arm.
        default: Vec<Stmt>,
    },
    /// Returns from the function.
    Return(Option<Expr>),
    /// Evaluates an expression for effect (calls).
    Expr(Expr),
    /// Exits the innermost `While` loop.
    Break,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<(String, Type)>,
}

impl StructDef {
    /// Index and type of a field.
    pub fn field(&self, name: &str) -> Option<(usize, &Type)> {
        self.fields
            .iter()
            .enumerate()
            .find(|(_, (f, _))| f == name)
            .map(|(i, (_, t))| (i, t))
    }
}

/// Declaration of an environment (host) function, e.g. `env_emit`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExternDecl {
    /// Extern name.
    pub name: String,
    /// Parameter types (scalars).
    pub params: Vec<Type>,
    /// Return type (scalar or void).
    pub ret: Type,
}

/// Static initializer for a global.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Init {
    /// Integer value.
    Int(i64),
    /// Boolean value.
    Bool(bool),
    /// Array elements.
    Array(Vec<Init>),
    /// Struct fields in order.
    Struct(Vec<Init>),
    /// Address of a module function.
    FnAddr(String),
    /// Zero-initialized.
    Zero,
}

/// A global variable or constant table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalDef {
    /// Global name.
    pub name: String,
    /// Type (any type, aggregates allowed).
    pub ty: Type,
    /// Initializer.
    pub init: Init,
    /// `false` for `const` data (the backend places it in rodata).
    pub mutable: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters (scalar types only).
    pub params: Vec<(String, Type)>,
    /// Return type.
    pub ret: Type,
    /// Body.
    pub body: Vec<Stmt>,
    /// Exported functions are roots for dead-function elimination and are
    /// callable from the host/VM.
    pub exported: bool,
}

/// A compilation unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Environment function declarations.
    pub externs: Vec<ExternDecl>,
    /// Globals (mutable data and const tables).
    pub globals: Vec<GlobalDef>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Adds a struct definition.
    pub fn push_struct(&mut self, def: StructDef) {
        self.structs.push(def);
    }

    /// Adds an extern declaration.
    pub fn push_extern(&mut self, decl: ExternDecl) {
        self.externs.push(decl);
    }

    /// Adds a global.
    pub fn push_global(&mut self, def: GlobalDef) {
        self.globals.push(def);
    }

    /// Adds a function.
    pub fn push_function(&mut self, func: Function) {
        self.functions.push(func);
    }

    /// Looks up a struct by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up an extern by name.
    pub fn extern_decl(&self, name: &str) -> Option<&ExternDecl> {
        self.externs.iter().find(|e| e.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalDef> {
        self.globals.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::Array(Box::new(Type::I32), 4).to_string(), "i32[4]");
        assert_eq!(
            Type::fn_ptr(vec![Type::I32], Type::Void).to_string(),
            "fn(i32) -> void"
        );
    }

    #[test]
    fn scalar_classification() {
        assert!(Type::I32.is_scalar());
        assert!(Type::fn_ptr(vec![], Type::Void).is_scalar());
        assert!(!Type::Array(Box::new(Type::I32), 2).is_scalar());
        assert!(!Type::Struct("S".into()).is_scalar());
    }

    #[test]
    fn struct_field_lookup() {
        let s = StructDef {
            name: "Ctx".into(),
            fields: vec![("a".into(), Type::I32), ("b".into(), Type::Bool)],
        };
        assert_eq!(s.field("b").map(|(i, _)| i), Some(1));
        assert!(s.field("zzz").is_none());
    }

    #[test]
    fn module_lookups() {
        let mut m = Module::new("m");
        m.push_function(Function {
            name: "f".into(),
            params: vec![],
            ret: Type::Void,
            body: vec![],
            exported: false,
        });
        m.push_global(GlobalDef {
            name: "g".into(),
            ty: Type::I32,
            init: Init::Int(0),
            mutable: true,
        });
        assert!(m.function("f").is_some());
        assert!(m.global("g").is_some());
        assert!(m.function("g").is_none());
    }

    #[test]
    fn place_builders_nest() {
        let p = Place::var("tbl").index(Expr::Int(3)).field("handler");
        assert!(matches!(p, Place::Field(_, _)));
    }
}
