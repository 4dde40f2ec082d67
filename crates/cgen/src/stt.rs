//! The State Transition Table pattern (§III.B): "a 2 dimensions table
//! describing the relation between states and events", scanned by a small
//! generic engine.
//!
//! Per region the generator emits flattened `first`/`count` index tables
//! (state-major), parallel rule arrays (`target`, guard and effect function
//! pointers) and per-state enter/exit function-pointer tables. The engine is
//! shared logic but instantiated per region, so a removed composite removes
//! its whole table block *and* engine instance.
//!
//! Crucially for the paper's argument, every enter/exit/guard/effect
//! function is **address-taken** through these const tables: a compiler's
//! dead-function elimination must treat them all as live even when the
//! state they implement can never be reached.

use tlang::{Expr, Function, GlobalDef, Init, Module, Place, Stmt, Type};
use umlsm::{RegionId, StateKind, Trigger};

use crate::actions::{lower_actions, lower_expr, CTX};
use crate::common::Gen;
use crate::CodegenError;

pub(crate) fn emit(gen: &Gen) -> Result<Module, CodegenError> {
    let mut module = Module::new(format!("{}_stt", gen.m.name()));
    let (ctx_def, ctx_global) = gen.ctx_items();
    module.push_struct(ctx_def);
    for e in gen.externs() {
        module.push_extern(e);
    }
    module.push_global(ctx_global);
    for f in gen.state_functions()? {
        module.push_function(f);
    }

    // Shared trivial guard/effect used by table entries without their own.
    module.push_function(Function {
        name: "guard_true".into(),
        params: vec![],
        ret: Type::Bool,
        body: vec![Stmt::Return(Some(Expr::Bool(true)))],
        exported: false,
    });
    module.push_function(Function {
        name: "effect_none".into(),
        params: vec![],
        ret: Type::Void,
        body: vec![],
        exported: false,
    });

    for (rid, _) in gen.m.regions() {
        emit_region_tables(gen, rid, &mut module)?;
    }
    for (rid, _) in gen.m.regions() {
        module.push_function(region_engine(gen, rid)?);
    }

    // sm_step: bounds-check the event code, then run the root engine.
    let ne = gen.codes.event_count() as i64;
    module.push_function(Function {
        name: "sm_step".into(),
        params: vec![("ev".into(), Type::I32)],
        ret: Type::Void,
        body: vec![
            Stmt::If {
                cond: Expr::var("ev").bin(tlang::BinOp::Lt, Expr::Int(0)).bin(
                    tlang::BinOp::Or,
                    Expr::var("ev").bin(tlang::BinOp::Ge, Expr::Int(ne)),
                ),
                then_body: vec![Stmt::Return(None)],
                else_body: vec![],
            },
            Stmt::Expr(Expr::Call(
                format!("dispatch_{}", gen.region_field(gen.m.root())),
                vec![Expr::var("ev")],
            )),
        ],
        exported: true,
    });
    module.push_function(gen.sm_init()?);
    module.push_function(gen.sm_state());
    Ok(module)
}

/// One rule of a region's transition table.
struct Rule {
    target_code: i64,
    guard_fn: String,
    effect_fn: String,
}

fn emit_region_tables(gen: &Gen, rid: RegionId, module: &mut Module) -> Result<(), CodegenError> {
    let field = gen.region_field(rid).to_string();
    let states = gen.m.states_in(rid);
    let ns = states.len();
    let ne = gen.codes.event_count();

    let mut first = vec![-1i64; ns * ne];
    let mut count = vec![0i64; ns * ne];
    let mut rules: Vec<Rule> = Vec::new();

    for s in &states {
        let s_code = gen.state_code(*s) as usize;
        for (code, transitions) in gen.transitions_by_event(*s) {
            let cell = s_code * ne + code as usize;
            first[cell] = rules.len() as i64;
            let mut n = 0i64;
            for (tid, t) in transitions {
                let Trigger::Event(_) = t.trigger else {
                    continue;
                };
                if t.guard.as_ref().is_some_and(|g| g.is_const_false()) {
                    continue; // statically dead rule: the table never lists it
                }
                let guard_fn = match &t.guard {
                    None => "guard_true".to_string(),
                    Some(g) if g.is_const_true() => "guard_true".to_string(),
                    Some(g) => {
                        let name = format!("guard_{tid}");
                        module.push_function(Function {
                            name: name.clone(),
                            params: vec![],
                            ret: Type::Bool,
                            body: vec![Stmt::Return(Some(lower_expr(g)?))],
                            exported: false,
                        });
                        name
                    }
                };
                let effect_fn = if t.effect.is_empty() {
                    "effect_none".to_string()
                } else {
                    let name = format!("effect_{tid}");
                    module.push_function(Function {
                        name: name.clone(),
                        params: vec![],
                        ret: Type::Void,
                        body: lower_actions(&t.effect, &gen.codes)?,
                        exported: false,
                    });
                    name
                };
                rules.push(Rule {
                    target_code: gen.state_code(t.target),
                    guard_fn,
                    effect_fn,
                });
                n += 1;
            }
            count[cell] = n;
        }
    }

    let int_array = |name: &str, data: &[i64]| GlobalDef {
        name: name.to_string(),
        ty: Type::Array(Box::new(Type::I32), data.len()),
        init: Init::Array(data.iter().map(|v| Init::Int(*v)).collect()),
        mutable: false,
    };
    module.push_global(int_array(&format!("t_{field}_first"), &first));
    module.push_global(int_array(&format!("t_{field}_count"), &count));
    module.push_global(int_array(
        &format!("t_{field}_target"),
        &rules.iter().map(|r| r.target_code).collect::<Vec<_>>(),
    ));
    module.push_global(GlobalDef {
        name: format!("t_{field}_guard"),
        ty: Type::Array(Box::new(Type::fn_ptr(vec![], Type::Bool)), rules.len()),
        init: Init::Array(
            rules
                .iter()
                .map(|r| Init::FnAddr(r.guard_fn.clone()))
                .collect(),
        ),
        mutable: false,
    });
    module.push_global(GlobalDef {
        name: format!("t_{field}_effect"),
        ty: Type::Array(Box::new(Type::fn_ptr(vec![], Type::Void)), rules.len()),
        init: Init::Array(
            rules
                .iter()
                .map(|r| Init::FnAddr(r.effect_fn.clone()))
                .collect(),
        ),
        mutable: false,
    });
    // Enter/exit dispatch tables: the address-taken closure of every state's
    // implementation.
    module.push_global(GlobalDef {
        name: format!("t_{field}_enter"),
        ty: Type::Array(Box::new(Type::fn_ptr(vec![], Type::Void)), ns),
        init: Init::Array(
            states
                .iter()
                .map(|s| Init::FnAddr(gen.enter_name(*s)))
                .collect(),
        ),
        mutable: false,
    });
    module.push_global(GlobalDef {
        name: format!("t_{field}_exit"),
        ty: Type::Array(Box::new(Type::fn_ptr(vec![], Type::Void)), ns),
        init: Init::Array(
            states
                .iter()
                .map(|s| Init::FnAddr(gen.exit_name(*s)))
                .collect(),
        ),
        mutable: false,
    });
    Ok(())
}

/// The table-scanning engine of one region.
fn region_engine(gen: &Gen, rid: RegionId) -> Result<Function, CodegenError> {
    let field = gen.region_field(rid).to_string();
    let ne = gen.codes.event_count() as i64;
    let states = gen.m.states_in(rid);

    let mut body = vec![
        Stmt::Let {
            name: "s".into(),
            ty: Type::I32,
            init: Some(Expr::Place(Place::var(CTX).field(field.clone()))),
        },
        Stmt::If {
            cond: Expr::var("s").bin(tlang::BinOp::Lt, Expr::Int(0)),
            then_body: vec![Stmt::Return(Some(Expr::Bool(false)))],
            else_body: vec![],
        },
    ];
    // Innermost-first: active composite substates dispatch into their own
    // region engine before this one.
    let composite_cases: Vec<(i64, Vec<Stmt>)> = states
        .iter()
        .filter_map(|s| match gen.m.state(*s).kind {
            StateKind::Composite(sub) => Some((
                gen.state_code(*s),
                vec![Stmt::If {
                    cond: Expr::Call(
                        format!("dispatch_{}", gen.region_field(sub)),
                        vec![Expr::var("ev")],
                    ),
                    then_body: vec![Stmt::Return(Some(Expr::Bool(true)))],
                    else_body: vec![],
                }],
            )),
            _ => None,
        })
        .collect();
    if !composite_cases.is_empty() {
        body.push(Stmt::Switch {
            scrutinee: Expr::var("s"),
            cases: composite_cases,
            default: vec![],
        });
    }

    let idx = |name: &str, e: Expr| Expr::Place(Place::var(format!("t_{field}_{name}")).index(e));
    body.extend([
        Stmt::Let {
            name: "base".into(),
            ty: Type::I32,
            init: Some(
                Expr::var("s")
                    .bin(tlang::BinOp::Mul, Expr::Int(ne))
                    .add(Expr::var("ev")),
            ),
        },
        Stmt::Let {
            name: "head".into(),
            ty: Type::I32,
            init: Some(idx("first", Expr::var("base"))),
        },
        Stmt::Let {
            name: "k".into(),
            ty: Type::I32,
            init: Some(Expr::Int(0)),
        },
        // The rule count is indexed straight out of the table in the
        // loop condition, like the naive generated C++ the paper
        // compiles, so it is loaded on every iteration. The generated
        // code stays naive on purpose: caching the count in a local here
        // would be an optimization of the generator, not of the compiler
        // the experiment measures.
        Stmt::While {
            cond: Expr::var("k").bin(tlang::BinOp::Lt, idx("count", Expr::var("base"))),
            body: vec![
                Stmt::If {
                    cond: Expr::CallPtr(
                        Box::new(idx("guard", Expr::var("head").add(Expr::var("k")))),
                        vec![],
                    ),
                    then_body: vec![
                        Stmt::Expr(Expr::CallPtr(Box::new(idx("exit", Expr::var("s"))), vec![])),
                        Stmt::Expr(Expr::CallPtr(
                            Box::new(idx("effect", Expr::var("head").add(Expr::var("k")))),
                            vec![],
                        )),
                        Stmt::Expr(Expr::CallPtr(
                            Box::new(idx(
                                "enter",
                                idx("target", Expr::var("head").add(Expr::var("k"))),
                            )),
                            vec![],
                        )),
                        Stmt::Return(Some(Expr::Bool(true))),
                    ],
                    else_body: vec![],
                },
                Stmt::Assign {
                    place: Place::var("k"),
                    value: Expr::var("k").add(Expr::Int(1)),
                },
            ],
        },
        Stmt::Return(Some(Expr::Bool(false))),
    ]);

    Ok(Function {
        name: format!("dispatch_{field}"),
        params: vec![("ev".into(), Type::I32)],
        ret: Type::Bool,
        body,
        exported: false,
    })
}

#[cfg(test)]
mod tests {
    use crate::{generate, Pattern};
    use umlsm::samples;

    #[test]
    fn emits_tables_and_engine() {
        let m = samples::flat_unreachable();
        let g = generate(&m, Pattern::StateTable).expect("generates");
        let src = g.module.to_source();
        assert!(src.contains("const t_state_first"));
        assert!(src.contains("const t_state_enter"));
        assert!(src.contains("fn dispatch_state"));
        assert!(src.contains("while "));
    }

    #[test]
    fn composite_region_gets_own_table_block() {
        let m = samples::hierarchical_never_active();
        let g = generate(&m, Pattern::StateTable).expect("generates");
        let src = g.module.to_source();
        assert!(src.contains("t_s3_state_first"), "{src}");
        assert!(src.contains("fn dispatch_s3_state"));
    }

    #[test]
    fn dead_state_functions_are_address_taken() {
        // S2's enter/exit appear in the const tables even though S2 is
        // unreachable: the compiler must keep them (paper §III.C).
        let m = samples::flat_unreachable();
        let g = generate(&m, Pattern::StateTable).expect("generates");
        let src = g.module.to_source();
        assert!(src.contains("&enter_S2"));
        assert!(src.contains("&exit_S2"));
    }
}
