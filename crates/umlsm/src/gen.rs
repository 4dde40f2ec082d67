//! Seeded random-machine generation and a line-based text form for
//! regression corpora.
//!
//! This module is the scenario scale-out substrate: the five hand-written
//! [`samples`](crate::samples) exercise the toolchain on machines a human
//! thought of, while [`generate`] produces an unbounded, *fully
//! deterministic* stream of machines over the whole implemented feature
//! space — hierarchy depth, guard density, completion-transition chains,
//! final states, unreachable states, variable counts — for the
//! differential fuzz harness (`bench::fuzz`) to drive through every code
//! generator and optimization level against the [`Interp`](crate::Interp)
//! oracle.
//!
//! # Determinism
//!
//! `generate(seed, cfg)` is a pure function of its arguments: the same
//! seed and knobs produce a byte-identical machine (asserted via
//! [`to_text`]) on every run, on every thread, in any order. All
//! randomness comes from a self-contained [`GenRng`] (splitmix64); no
//! global state, time, or platform entropy is consulted. That is what
//! makes a fuzz finding reproducible from its seed alone.
//!
//! # Generated shape invariants
//!
//! Every generated machine passes [`validate`](crate::StateMachine::validate)
//! *by construction*, and stays inside the subset the code generators
//! accept (the paper's fixed semantics — completion priority on,
//! innermost-first; history pseudostates and orthogonal regions are
//! outside the implemented subset, so the generator does not produce
//! them):
//!
//! * every region holds at least one non-final state, and its first
//!   non-final state is the region's initial state;
//! * completion transitions only target *later* states (in creation
//!   order) of the same region, so chained completion transitions form a
//!   DAG — the static acyclicity check of the code generators and the
//!   interpreter's chain bound can never fire;
//! * guards are well-typed boolean expressions; assignments drift each
//!   variable by a small bounded step (`±4`, a small constant, or a
//!   modulus), keeping every intermediate value inside `i32` for the
//!   sequence lengths the harness drives, so the model's `i64` arithmetic
//!   and the EM32's `i32` arithmetic cannot diverge by overflow alone;
//! * a knob-controlled fraction of states is left unreachable (no
//!   incoming arc), exercising the optimizer's dead-state analysis.
//!
//! # Text form
//!
//! [`to_text`] / [`from_text`] round-trip a machine through a line-based
//! format used for the committed regression corpus (`tests/regressions/`
//! at the workspace root). The format preserves everything dispatch
//! priority depends on: per-region state order and global transition
//! order. Grammar (one declaration per line, `#` starts a comment):
//!
//! ```text
//! machine <name>
//! chain <max-completion-chain>
//! var <name> <initial>
//! event <name>
//! state <name> <region>        region = `root` or owning composite name
//! composite <name> <region>
//! final <name> <region>
//! initial <region> <state>
//! ieffect <region> <action>...
//! entry <state> <action>...
//! exit <state> <action>...
//! t <src> <dst> <event|--> [when <expr>] [do <action>...]
//! ```
//!
//! `--` marks a completion trigger. Expressions and actions are
//! s-expressions: `(v x)`, `42`, `true`, `(+ a b)`, `(neg a)`,
//! `(not a)`, `(set x e)`, `(emit sig)`, `(emit1 sig e)`,
//! `(if c (then a...) (else a...))`. [`from_text`] validates the parsed
//! machine, so a corpus file can never smuggle an ill-formed model into a
//! test run. To promote a fuzz divergence to a regression, serialize the
//! shrunk machine with [`to_text`], append its event sequence as an
//! `events <name>...` line, and drop the file in `tests/regressions/`
//! (the `fuzz` bench binary does this with `FUZZ_PROMOTE=1`).

use std::collections::BTreeMap;
use std::fmt;

use crate::action::Action;
use crate::expr::{BinOp, Expr, UnOp};
use crate::ids::{EventId, RegionId, StateId};
use crate::machine::{StateKind, StateMachine, Transition, Trigger};
use crate::semantics::Semantics;

// ----------------------------------------------------------------------
// Deterministic RNG
// ----------------------------------------------------------------------

/// A tiny deterministic generator (splitmix64): one `u64` of state, full
/// 64-bit output, no global state. Good enough statistics for shape
/// generation, and trivially reproducible from the seed.
#[derive(Debug, Clone)]
pub struct GenRng(u64);

impl GenRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> GenRng {
        GenRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform value in `lo..=hi` (collapses to `lo` when `hi <= lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// `true` with probability `p`% (clamped to 0..=100).
    pub fn pct(&mut self, p: u32) -> bool {
        (self.next_u64() % 100) < u64::from(p.min(100))
    }

    /// Picks a slice element uniformly.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

// ----------------------------------------------------------------------
// Knobs
// ----------------------------------------------------------------------

/// Size and density knobs of the machine generator — the feature-space
/// axes of the fuzz corpus. All percentages are `0..=100`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Minimum number of states (floored at 2).
    pub min_states: usize,
    /// Maximum number of states. Keep below the completion-chain bound
    /// (the generator widens `max_completion_chain` if necessary).
    pub max_states: usize,
    /// Maximum composite-nesting depth below the root region.
    pub max_depth: u32,
    /// Chance that a new state is a composite (opening a nested region).
    pub composite_pct: u32,
    /// Chance that a new state is a final state.
    pub final_pct: u32,
    /// Minimum number of distinct events (floored at 1).
    pub min_events: usize,
    /// Maximum number of distinct events.
    pub max_events: usize,
    /// Minimum number of context variables.
    pub min_variables: usize,
    /// Maximum number of context variables.
    pub max_variables: usize,
    /// Chance that a transition carries a guard.
    pub guard_pct: u32,
    /// Chance that a state grows a completion transition to a later
    /// sibling.
    pub completion_pct: u32,
    /// Chance that a non-initial state is left without incoming arc
    /// (unreachable — optimizer food).
    pub unreachable_pct: u32,
    /// Chance that a state/transition/region carries actions.
    pub action_pct: u32,
    /// Upper bound on extra random transitions per region (cycles,
    /// self-loops, conflicts) beyond the reachability spanning arcs.
    pub max_extra_transitions: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            min_states: 4,
            max_states: 14,
            max_depth: 3,
            composite_pct: 25,
            final_pct: 12,
            min_events: 1,
            max_events: 6,
            min_variables: 0,
            max_variables: 4,
            guard_pct: 40,
            completion_pct: 30,
            unreachable_pct: 10,
            action_pct: 55,
            max_extra_transitions: 5,
        }
    }
}

impl GenConfig {
    /// A smaller shape for quick smoke runs and shrinking experiments.
    pub fn tiny() -> GenConfig {
        GenConfig {
            min_states: 2,
            max_states: 6,
            max_depth: 1,
            max_events: 3,
            max_variables: 2,
            max_extra_transitions: 2,
            ..GenConfig::default()
        }
    }
}

// ----------------------------------------------------------------------
// Generation
// ----------------------------------------------------------------------

/// Per-region bookkeeping while a machine grows.
struct RegionCtx {
    region: RegionId,
    depth: u32,
    /// Non-final states, in creation order (= id order within region).
    states: Vec<StateId>,
    finals: Vec<StateId>,
}

/// Generates one machine. Pure in `(seed, cfg)`: see the
/// [module docs](self) for determinism and shape invariants.
pub fn generate(seed: u64, cfg: &GenConfig) -> StateMachine {
    let mut rng = GenRng::new(seed);
    let mut m = StateMachine::new(format!("fz{seed:016x}"));

    let n_vars = rng.range(cfg.min_variables, cfg.max_variables);
    let vars: Vec<String> = (0..n_vars).map(|i| format!("v{i}")).collect();
    for v in &vars {
        let init = rng.below(9) as i64;
        m.set_variable(v.clone(), init);
    }

    let n_events = rng.range(cfg.min_events.max(1), cfg.max_events.max(1));
    let events: Vec<EventId> = (0..n_events)
        .map(|i| m.add_event(format!("ev{i}")))
        .collect();
    let signals: Vec<String> = (0..5).map(|i| format!("sig{i}")).collect();

    // --- state skeleton -------------------------------------------------
    let n_states = rng.range(cfg.min_states.max(2), cfg.max_states.max(2));
    let mut regions: Vec<RegionCtx> = vec![RegionCtx {
        region: m.root(),
        depth: 0,
        states: Vec::new(),
        finals: Vec::new(),
    }];
    let mut made = 0usize;
    let mut name_idx = 0usize;
    while made < n_states {
        // The first state is a plain root state so the root region is
        // always enterable; afterwards states land in a random region.
        let ri = if made == 0 {
            0
        } else {
            rng.below(regions.len())
        };
        let rid = regions[ri].region;
        let depth = regions[ri].depth;
        let name = format!("S{name_idx}");
        name_idx += 1;
        let want_composite =
            made > 0 && depth < cfg.max_depth && made + 1 < n_states && rng.pct(cfg.composite_pct);
        if want_composite {
            let (sid, nested) = m.add_composite_state(rid, name);
            regions[ri].states.push(sid);
            // A nested region must hold a non-final state to be
            // enterable; seed it with one simple child immediately.
            let child_name = format!("S{name_idx}");
            name_idx += 1;
            let child = m.add_state(nested, child_name);
            regions.push(RegionCtx {
                region: nested,
                depth: depth + 1,
                states: vec![child],
                finals: Vec::new(),
            });
            made += 2;
        } else if made > 0 && !regions[ri].states.is_empty() && rng.pct(cfg.final_pct) {
            let sid = m.add_final_state(rid, name);
            regions[ri].finals.push(sid);
            made += 1;
        } else {
            let sid = m.add_state(rid, name);
            regions[ri].states.push(sid);
            made += 1;
        }
    }

    // --- wiring ---------------------------------------------------------
    for ctx in &regions {
        let ss = &ctx.states;
        m.region_mut(ctx.region).initial = Some(ss[0]);
        if rng.pct(cfg.action_pct) {
            let n = 1 + rng.below(2);
            let acts = gen_actions(&mut rng, &vars, &signals, n);
            m.region_mut(ctx.region).initial_effect = acts;
        }
        // Reachability spanning arcs: state k gets an event arc from an
        // earlier sibling — unless the unreachable knob leaves it dark.
        for k in 1..ss.len() {
            if rng.pct(cfg.unreachable_pct) {
                continue;
            }
            let src = ss[rng.below(k)];
            let t = gen_event_transition(&mut rng, cfg, &vars, &signals, &events, src, ss[k]);
            m.add_transition(t);
        }
        // Final states usually get an entry arc too.
        for &f in &ctx.finals {
            if rng.pct(75) {
                let src = *rng.pick(ss);
                let t = gen_event_transition(&mut rng, cfg, &vars, &signals, &events, src, f);
                m.add_transition(t);
            }
        }
        // Completion transitions, forward-only: a state may complete into
        // a strictly later sibling or a final of its region, so chained
        // completions always make progress (see module docs).
        for (i, &s) in ss.iter().enumerate() {
            if !rng.pct(cfg.completion_pct) {
                continue;
            }
            let mut targets: Vec<StateId> = ss[i + 1..].to_vec();
            targets.extend(&ctx.finals);
            if targets.is_empty() {
                continue;
            }
            let target = *rng.pick(&targets);
            let guard = if rng.pct(cfg.guard_pct) {
                Some(gen_bool_expr(&mut rng, &vars, 1))
            } else {
                None
            };
            let effect = if rng.pct(cfg.action_pct) {
                let n = 1 + rng.below(2);
                gen_actions(&mut rng, &vars, &signals, n)
            } else {
                Vec::new()
            };
            m.add_transition(Transition {
                source: s,
                target,
                trigger: Trigger::Completion,
                guard,
                effect,
            });
        }
        // Extra event arcs: cycles, self-loops, conflicting triggers.
        let extra = rng.range(0, cfg.max_extra_transitions);
        let mut all_targets: Vec<StateId> = ss.clone();
        all_targets.extend(&ctx.finals);
        for _ in 0..extra {
            let src = *rng.pick(ss);
            let dst = *rng.pick(&all_targets);
            let t = gen_event_transition(&mut rng, cfg, &vars, &signals, &events, src, dst);
            m.add_transition(t);
        }
    }

    // --- behaviours -----------------------------------------------------
    for ctx in &regions {
        for &s in &ctx.states {
            if rng.pct(cfg.action_pct) {
                let n = 1 + rng.below(2);
                m.state_mut(s).entry = gen_actions(&mut rng, &vars, &signals, n);
            }
            if rng.pct(cfg.action_pct) {
                let n = 1 + rng.below(2);
                m.state_mut(s).exit = gen_actions(&mut rng, &vars, &signals, n);
            }
        }
    }

    // Forward-only completion chains are bounded by the state count;
    // widen the semantic chain bound if a huge knob setting could
    // otherwise trip the interpreter's safety net.
    m.set_semantics(Semantics {
        max_completion_chain: 64u32.max(n_states as u32 + 1),
        ..Semantics::default()
    });

    debug_assert!(
        m.validate().is_ok(),
        "generator invariant broken: {:?}",
        m.validate()
    );
    m
}

fn gen_event_transition(
    rng: &mut GenRng,
    cfg: &GenConfig,
    vars: &[String],
    signals: &[String],
    events: &[EventId],
    source: StateId,
    target: StateId,
) -> Transition {
    let trigger = Trigger::Event(*rng.pick(events));
    let guard = if rng.pct(cfg.guard_pct) {
        Some(gen_bool_expr(rng, vars, 1))
    } else {
        None
    };
    let effect = if rng.pct(cfg.action_pct) {
        let n = 1 + rng.below(2);
        gen_actions(rng, vars, signals, n)
    } else {
        Vec::new()
    };
    Transition {
        source,
        target,
        trigger,
        guard,
        effect,
    }
}

/// An integer leaf: a small constant or a variable.
fn gen_int_leaf(rng: &mut GenRng, vars: &[String]) -> Expr {
    if !vars.is_empty() && rng.pct(60) {
        Expr::var(rng.pick(vars).clone())
    } else {
        Expr::int(rng.below(17) as i64 - 8)
    }
}

/// A bounded integer expression. Multiplication only ever combines two
/// leaves, so with the bounded variable drift (see [`gen_assign`]) every
/// intermediate stays far inside `i32` — the model's `i64` arithmetic and
/// the target's `i32` arithmetic cannot be told apart by overflow.
fn gen_int_expr(rng: &mut GenRng, vars: &[String], depth: u32) -> Expr {
    if depth == 0 {
        return gen_int_leaf(rng, vars);
    }
    match rng.below(7) {
        0 => gen_int_leaf(rng, vars),
        1 => gen_int_expr(rng, vars, depth - 1).add(gen_int_expr(rng, vars, depth - 1)),
        2 => gen_int_expr(rng, vars, depth - 1).sub(gen_int_expr(rng, vars, depth - 1)),
        3 => gen_int_leaf(rng, vars).mul(gen_int_leaf(rng, vars)),
        4 => gen_int_expr(rng, vars, depth - 1).div(gen_int_expr(rng, vars, depth - 1)),
        5 => gen_int_expr(rng, vars, depth - 1).rem(gen_int_expr(rng, vars, depth - 1)),
        _ => gen_int_expr(rng, vars, depth - 1).neg(),
    }
}

/// A well-typed boolean expression (comparison, conjunction, negation, or
/// rarely a constant — constant-false guards are optimizer food).
fn gen_bool_expr(rng: &mut GenRng, vars: &[String], depth: u32) -> Expr {
    let cmp = |rng: &mut GenRng, vars: &[String]| {
        let l = gen_int_expr(rng, vars, 1);
        let r = gen_int_expr(rng, vars, 1);
        match rng.below(6) {
            0 => l.eq(r),
            1 => l.ne(r),
            2 => l.lt(r),
            3 => l.le(r),
            4 => l.gt(r),
            _ => l.ge(r),
        }
    };
    if depth == 0 {
        return cmp(rng, vars);
    }
    match rng.below(8) {
        0 => gen_bool_expr(rng, vars, depth - 1).and(gen_bool_expr(rng, vars, depth - 1)),
        1 => gen_bool_expr(rng, vars, depth - 1).or(gen_bool_expr(rng, vars, depth - 1)),
        2 => gen_bool_expr(rng, vars, depth - 1).not(),
        3 => Expr::bool(rng.pct(50)),
        _ => cmp(rng, vars),
    }
}

/// A bounded-drift assignment: constants, copies, `±c` steps (`c <= 4`),
/// or a modulus — never `var * var`, so repeated execution drifts each
/// variable by at most a small constant per action.
fn gen_assign(rng: &mut GenRng, vars: &[String]) -> Action {
    let target = rng.pick(vars).clone();
    let value = match rng.below(5) {
        0 => Expr::int(rng.below(17) as i64 - 8),
        1 => Expr::var(rng.pick(vars).clone()),
        2 => Expr::var(target.clone()).add(Expr::int(rng.below(4) as i64 + 1)),
        3 => Expr::var(target.clone()).sub(Expr::int(rng.below(4) as i64 + 1)),
        _ => Expr::var(rng.pick(vars).clone())
            .add(Expr::int(rng.below(9) as i64))
            .rem(Expr::int(rng.below(7) as i64 + 3)),
    };
    Action::assign(target, value)
}

fn gen_action(rng: &mut GenRng, vars: &[String], signals: &[String], depth: u32) -> Action {
    let can_assign = !vars.is_empty();
    match rng.below(if depth > 0 { 4 } else { 3 }) {
        0 if can_assign => gen_assign(rng, vars),
        1 => Action::emit(rng.pick(signals).clone()),
        2 => Action::emit_arg(rng.pick(signals).clone(), gen_int_expr(rng, vars, 2)),
        3 => {
            let cond = gen_bool_expr(rng, vars, 1);
            let then_n = 1 + rng.below(2);
            let then_actions = gen_actions_at(rng, vars, signals, then_n, depth - 1);
            let else_n = rng.below(2);
            let else_actions = gen_actions_at(rng, vars, signals, else_n, depth - 1);
            Action::if_else(cond, then_actions, else_actions)
        }
        _ => Action::emit(rng.pick(signals).clone()),
    }
}

fn gen_actions_at(
    rng: &mut GenRng,
    vars: &[String],
    signals: &[String],
    n: usize,
    depth: u32,
) -> Vec<Action> {
    (0..n)
        .map(|_| gen_action(rng, vars, signals, depth))
        .collect()
}

/// A short action list (possibly containing one level of `if`).
fn gen_actions(rng: &mut GenRng, vars: &[String], signals: &[String], n: usize) -> Vec<Action> {
    gen_actions_at(rng, vars, signals, n, 1)
}

// ----------------------------------------------------------------------
// Text serialization
// ----------------------------------------------------------------------

/// A serialization or parse failure of the regression text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line of the failure; 0 for whole-machine failures.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for TextError {}

fn text_err(line: usize, msg: impl Into<String>) -> TextError {
    TextError {
        line,
        msg: msg.into(),
    }
}

fn ident_ok(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn check_ident(what: &str, s: &str) -> Result<(), TextError> {
    if ident_ok(s) {
        Ok(())
    } else {
        Err(text_err(0, format!("{what} `{s}` is not an identifier")))
    }
}

/// Serializes a machine into the line-based text form (see the
/// [module docs](self) for the grammar).
///
/// # Errors
///
/// Fails when the machine cannot be represented: a name is not an
/// identifier, the semantics differ from the paper's fixed variation
/// points (the chain bound is the one recorded knob), or a region is
/// orphaned (unreachable from the state tree).
pub fn to_text(m: &StateMachine) -> Result<String, TextError> {
    let sem = m.semantics();
    if !sem.completion_priority {
        return Err(text_err(
            0,
            "only the paper's fixed semantics can be serialized",
        ));
    }
    check_ident("machine name", m.name())?;
    let mut out = String::new();
    out.push_str(&format!("machine {}\n", m.name()));
    out.push_str(&format!("chain {}\n", sem.max_completion_chain));
    for (name, init) in m.variables() {
        check_ident("variable", name)?;
        out.push_str(&format!("var {name} {init}\n"));
    }
    for (_, e) in m.events() {
        check_ident("event", &e.name)?;
        out.push_str(&format!("event {}\n", e.name));
    }
    // States in region-DFS order, each region's states in id order, a
    // composite's nested region right after its declaration: declaration
    // always precedes use, and per-region order (= dispatch priority
    // order) survives the round-trip.
    let mut region_order: Vec<(RegionId, String)> = Vec::new();
    let mut state_order: Vec<StateId> = Vec::new();
    fn visit(
        m: &StateMachine,
        rid: RegionId,
        label: String,
        out: &mut String,
        region_order: &mut Vec<(RegionId, String)>,
        state_order: &mut Vec<StateId>,
    ) -> Result<(), TextError> {
        region_order.push((rid, label.clone()));
        for sid in m.states_in(rid) {
            let s = m.state(sid);
            check_ident("state", &s.name)?;
            state_order.push(sid);
            match s.kind {
                StateKind::Simple => out.push_str(&format!("state {} {label}\n", s.name)),
                StateKind::Final => out.push_str(&format!("final {} {label}\n", s.name)),
                StateKind::Composite(sub) => {
                    out.push_str(&format!("composite {} {label}\n", s.name));
                    visit(m, sub, s.name.clone(), out, region_order, state_order)?;
                }
            }
        }
        Ok(())
    }
    visit(
        m,
        m.root(),
        "root".to_string(),
        &mut out,
        &mut region_order,
        &mut state_order,
    )?;
    if region_order.len() != m.regions().count() {
        return Err(text_err(
            0,
            "machine has orphan regions unreachable from the state tree",
        ));
    }
    for (rid, label) in &region_order {
        let r = m.region(*rid);
        if let Some(init) = r.initial {
            out.push_str(&format!("initial {label} {}\n", m.state(init).name));
        }
        if !r.initial_effect.is_empty() {
            out.push_str(&format!(
                "ieffect {label} {}\n",
                w_actions(&r.initial_effect)
            ));
        }
    }
    for &sid in &state_order {
        let s = m.state(sid);
        if !s.entry.is_empty() {
            out.push_str(&format!("entry {} {}\n", s.name, w_actions(&s.entry)));
        }
        if !s.exit.is_empty() {
            out.push_str(&format!("exit {} {}\n", s.name, w_actions(&s.exit)));
        }
    }
    for (_, t) in m.transitions() {
        let src = &m.state(t.source).name;
        let dst = &m.state(t.target).name;
        let trig = match t.trigger {
            Trigger::Completion => "--".to_string(),
            Trigger::Event(e) => {
                let name = &m.event(e).name;
                check_ident("event", name)?;
                name.clone()
            }
        };
        out.push_str(&format!("t {src} {dst} {trig}"));
        if let Some(g) = &t.guard {
            out.push_str(&format!(" when {}", w_expr(g)));
        }
        if !t.effect.is_empty() {
            out.push_str(&format!(" do {}", w_actions(&t.effect)));
        }
        out.push('\n');
    }
    Ok(out)
}

fn w_expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Bool(b) => b.to_string(),
        Expr::Var(n) => format!("(v {n})"),
        Expr::Unary(UnOp::Neg, a) => format!("(neg {})", w_expr(a)),
        Expr::Unary(UnOp::Not, a) => format!("(not {})", w_expr(a)),
        Expr::Binary(op, a, b) => format!("({} {} {})", op.symbol(), w_expr(a), w_expr(b)),
    }
}

fn w_action(a: &Action) -> String {
    match a {
        Action::Assign { var, value } => format!("(set {var} {})", w_expr(value)),
        Action::Emit { signal, arg: None } => format!("(emit {signal})"),
        Action::Emit {
            signal,
            arg: Some(arg),
        } => format!("(emit1 {signal} {})", w_expr(arg)),
        Action::If {
            cond,
            then_actions,
            else_actions,
        } => {
            let mut s = format!("(if {} (then", w_expr(cond));
            for a in then_actions {
                s.push(' ');
                s.push_str(&w_action(a));
            }
            s.push(')');
            if !else_actions.is_empty() {
                s.push_str(" (else");
                for a in else_actions {
                    s.push(' ');
                    s.push_str(&w_action(a));
                }
                s.push(')');
            }
            s.push(')');
            s
        }
    }
}

fn w_actions(actions: &[Action]) -> String {
    actions.iter().map(w_action).collect::<Vec<_>>().join(" ")
}

// --- parsing ----------------------------------------------------------

/// Splits a line into whitespace-separated tokens with `(` and `)` as
/// their own tokens.
fn tokenize(s: &str) -> Vec<String> {
    s.replace('(', " ( ")
        .replace(')', " ) ")
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

struct TokStream<'a> {
    toks: &'a [String],
    pos: usize,
    line: usize,
}

impl<'a> TokStream<'a> {
    fn peek(&self) -> Option<&'a str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Result<&'a str, TextError> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or_else(|| text_err(self.line, "unexpected end of line"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: &str) -> Result<(), TextError> {
        let t = self.next()?;
        if t == tok {
            Ok(())
        } else {
            Err(text_err(self.line, format!("expected `{tok}`, got `{t}`")))
        }
    }
}

fn parse_expr(ts: &mut TokStream) -> Result<Expr, TextError> {
    let t = ts.next()?;
    if t != "(" {
        if t == "true" {
            return Ok(Expr::bool(true));
        }
        if t == "false" {
            return Ok(Expr::bool(false));
        }
        return t
            .parse::<i64>()
            .map(Expr::int)
            .map_err(|_| text_err(ts.line, format!("expected expression atom, got `{t}`")));
    }
    let head = ts.next()?;
    let e = match head {
        "v" => Expr::var(ts.next()?.to_string()),
        "neg" => parse_expr(ts)?.neg(),
        "not" => parse_expr(ts)?.not(),
        _ => {
            let op = match head {
                "+" => BinOp::Add,
                "-" => BinOp::Sub,
                "*" => BinOp::Mul,
                "/" => BinOp::Div,
                "%" => BinOp::Rem,
                "==" => BinOp::Eq,
                "!=" => BinOp::Ne,
                "<" => BinOp::Lt,
                "<=" => BinOp::Le,
                ">" => BinOp::Gt,
                ">=" => BinOp::Ge,
                "&&" => BinOp::And,
                "||" => BinOp::Or,
                _ => return Err(text_err(ts.line, format!("unknown operator `{head}`"))),
            };
            let a = parse_expr(ts)?;
            let b = parse_expr(ts)?;
            Expr::Binary(op, Box::new(a), Box::new(b))
        }
    };
    ts.expect(")")?;
    Ok(e)
}

fn parse_action(ts: &mut TokStream) -> Result<Action, TextError> {
    ts.expect("(")?;
    let head = ts.next()?;
    let a = match head {
        "set" => {
            let var = ts.next()?.to_string();
            let value = parse_expr(ts)?;
            Action::assign(var, value)
        }
        "emit" => Action::emit(ts.next()?.to_string()),
        "emit1" => {
            let signal = ts.next()?.to_string();
            let arg = parse_expr(ts)?;
            Action::emit_arg(signal, arg)
        }
        "if" => {
            let cond = parse_expr(ts)?;
            ts.expect("(")?;
            ts.expect("then")?;
            let mut then_actions = Vec::new();
            while ts.peek() == Some("(") {
                then_actions.push(parse_action(ts)?);
            }
            ts.expect(")")?;
            let mut else_actions = Vec::new();
            if ts.peek() == Some("(") {
                // Could be `(else ...)` — nothing else may follow `then`.
                ts.expect("(")?;
                ts.expect("else")?;
                while ts.peek() == Some("(") {
                    else_actions.push(parse_action(ts)?);
                }
                ts.expect(")")?;
            }
            Action::if_else(cond, then_actions, else_actions)
        }
        _ => return Err(text_err(ts.line, format!("unknown action `{head}`"))),
    };
    ts.expect(")")?;
    Ok(a)
}

fn parse_actions(ts: &mut TokStream) -> Result<Vec<Action>, TextError> {
    let mut out = Vec::new();
    while ts.peek() == Some("(") {
        out.push(parse_action(ts)?);
    }
    if let Some(t) = ts.peek() {
        return Err(text_err(ts.line, format!("trailing token `{t}`")));
    }
    Ok(out)
}

/// Parses the line-based text form back into a machine and validates it.
///
/// # Errors
///
/// Fails on malformed syntax, references to undeclared names, or a
/// machine that does not pass [`validate`](StateMachine::validate).
pub fn from_text(text: &str) -> Result<StateMachine, TextError> {
    let mut m: Option<StateMachine> = None;
    let mut chain: u32 = Semantics::default().max_completion_chain;
    let mut states: BTreeMap<String, StateId> = BTreeMap::new();
    let mut regions: BTreeMap<String, RegionId> = BTreeMap::new();
    let mut events: BTreeMap<String, EventId> = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks = tokenize(line);
        let mut ts = TokStream {
            toks: &toks,
            pos: 0,
            line: lineno,
        };
        let kw = ts.next()?;
        if kw == "machine" {
            if m.is_some() {
                return Err(text_err(lineno, "duplicate `machine` line"));
            }
            let name = ts.next()?.to_string();
            let sm = StateMachine::new(name);
            regions.insert("root".to_string(), sm.root());
            m = Some(sm);
            continue;
        }
        let sm = m
            .as_mut()
            .ok_or_else(|| text_err(lineno, "`machine` line must come first"))?;
        let lookup_region =
            |regions: &BTreeMap<String, RegionId>, name: &str| -> Result<RegionId, TextError> {
                regions
                    .get(name)
                    .copied()
                    .ok_or_else(|| text_err(lineno, format!("unknown region `{name}`")))
            };
        let lookup_state =
            |states: &BTreeMap<String, StateId>, name: &str| -> Result<StateId, TextError> {
                states
                    .get(name)
                    .copied()
                    .ok_or_else(|| text_err(lineno, format!("unknown state `{name}`")))
            };
        match kw {
            "chain" => {
                chain = ts
                    .next()?
                    .parse::<u32>()
                    .map_err(|_| text_err(lineno, "bad chain bound"))?;
            }
            "var" => {
                let name = ts.next()?.to_string();
                let init = ts
                    .next()?
                    .parse::<i64>()
                    .map_err(|_| text_err(lineno, "bad variable initial value"))?;
                sm.set_variable(name, init);
            }
            "event" => {
                let name = ts.next()?.to_string();
                let id = sm.add_event(name.clone());
                events.insert(name, id);
            }
            "state" | "final" | "composite" => {
                let name = ts.next()?.to_string();
                let region = lookup_region(&regions, ts.next()?)?;
                if states.contains_key(&name) {
                    return Err(text_err(lineno, format!("duplicate state `{name}`")));
                }
                let sid = match kw {
                    "state" => sm.add_state(region, name.clone()),
                    "final" => sm.add_final_state(region, name.clone()),
                    _ => {
                        let (sid, nested) = sm.add_composite_state(region, name.clone());
                        regions.insert(name.clone(), nested);
                        sid
                    }
                };
                states.insert(name, sid);
            }
            "initial" => {
                let region = lookup_region(&regions, ts.next()?)?;
                let init = lookup_state(&states, ts.next()?)?;
                sm.region_mut(region).initial = Some(init);
            }
            "ieffect" => {
                let region = lookup_region(&regions, ts.next()?)?;
                sm.region_mut(region).initial_effect = parse_actions(&mut ts)?;
            }
            "entry" | "exit" => {
                let sid = lookup_state(&states, ts.next()?)?;
                let actions = parse_actions(&mut ts)?;
                if kw == "entry" {
                    sm.state_mut(sid).entry = actions;
                } else {
                    sm.state_mut(sid).exit = actions;
                }
            }
            "t" => {
                let source = lookup_state(&states, ts.next()?)?;
                let target = lookup_state(&states, ts.next()?)?;
                let trig = ts.next()?;
                let trigger = if trig == "--" {
                    Trigger::Completion
                } else {
                    let id = events
                        .get(trig)
                        .copied()
                        .ok_or_else(|| text_err(lineno, format!("unknown event `{trig}`")))?;
                    Trigger::Event(id)
                };
                let mut guard = None;
                if ts.peek() == Some("when") {
                    ts.expect("when")?;
                    guard = Some(parse_expr(&mut ts)?);
                }
                let mut effect = Vec::new();
                if ts.peek() == Some("do") {
                    ts.expect("do")?;
                    effect = parse_actions(&mut ts)?;
                } else if let Some(t) = ts.peek() {
                    return Err(text_err(lineno, format!("trailing token `{t}`")));
                }
                sm.add_transition(Transition {
                    source,
                    target,
                    trigger,
                    guard,
                    effect,
                });
            }
            _ => return Err(text_err(lineno, format!("unknown keyword `{kw}`"))),
        }
    }
    let mut sm = m.ok_or_else(|| text_err(0, "missing `machine` line"))?;
    sm.set_semantics(Semantics {
        max_completion_chain: chain,
        ..Semantics::default()
    });
    sm.validate()
        .map_err(|e| text_err(0, format!("parsed machine is ill-formed: {e}")))?;
    Ok(sm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interp;

    #[test]
    fn same_seed_same_machine() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let a = to_text(&generate(seed, &cfg)).expect("serializes");
            let b = to_text(&generate(seed, &cfg)).expect("serializes");
            assert_eq!(a, b, "seed {seed} not deterministic");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        let a = to_text(&generate(1, &cfg)).expect("serializes");
        let b = to_text(&generate(2, &cfg)).expect("serializes");
        assert_ne!(a, b);
    }

    #[test]
    fn generated_machines_validate_and_boot() {
        for seed in 0..200 {
            let m = generate(seed, &GenConfig::default());
            m.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // Initial entry + completion chains must settle without
            // tripping the chain bound or an evaluation error.
            Interp::new(&m).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
    }

    #[test]
    fn knobs_steer_the_shape() {
        // All-composite vs never-composite: the nesting knob must bite.
        let deep = GenConfig {
            composite_pct: 100,
            max_depth: 4,
            min_states: 12,
            max_states: 12,
            ..GenConfig::default()
        };
        let flat = GenConfig {
            composite_pct: 0,
            ..deep.clone()
        };
        let has_composite = |m: &StateMachine| {
            m.states()
                .any(|(_, s)| matches!(s.kind, StateKind::Composite(_)))
        };
        assert!(has_composite(&generate(7, &deep)));
        assert!(!has_composite(&generate(7, &flat)));
        // Guard density at 0 produces no guards at all.
        let unguarded = GenConfig {
            guard_pct: 0,
            ..GenConfig::default()
        };
        let m = generate(7, &unguarded);
        assert!(m.transitions().all(|(_, t)| t.guard.is_none()));
    }

    #[test]
    fn roundtrip_is_a_fixpoint() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let m = generate(seed, &cfg);
            let text = to_text(&m).expect("serializes");
            let parsed = from_text(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{text}"));
            let text2 = to_text(&parsed).expect("re-serializes");
            assert_eq!(text, text2, "seed {seed}: round-trip not a fixpoint");
            assert_eq!(m.semantics(), parsed.semantics());
        }
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        // The oracle's observable trace must survive the round-trip —
        // the property the committed regression corpus depends on.
        let cfg = GenConfig::default();
        for seed in 0..30 {
            let m = generate(seed, &cfg);
            let parsed = from_text(&to_text(&m).expect("serializes")).expect("reparses");
            let names: Vec<String> = m.events().map(|(_, e)| e.name.clone()).collect();
            let mut a = Interp::new(&m).expect("boots");
            let mut b = Interp::new(&parsed).expect("boots");
            for name in names.iter().cycle().take(12) {
                a.step_by_name(name).expect("steps");
                b.step_by_name(name).expect("steps");
            }
            assert_eq!(
                a.trace().observable(),
                b.trace().observable(),
                "seed {seed}"
            );
            assert_eq!(a.configuration(), b.configuration(), "seed {seed}");
        }
    }

    #[test]
    fn samples_roundtrip() {
        for (name, m) in [
            ("flat", crate::samples::flat_unreachable()),
            ("hier", crate::samples::hierarchical_never_active()),
            ("cruise", crate::samples::cruise_control()),
            ("protocol", crate::samples::protocol_handler()),
            ("scaling", crate::samples::flat_with_unreachable(4)),
        ] {
            let text = to_text(&m).unwrap_or_else(|e| panic!("{name}: {e}"));
            let parsed = from_text(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
            let text2 = to_text(&parsed).expect("re-serializes");
            assert_eq!(text, text2, "{name}: round-trip not a fixpoint");
        }
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(from_text("").is_err());
        assert!(from_text("state A root").is_err(), "machine line required");
        assert!(from_text("machine m\nstate A nowhere").is_err());
        assert!(from_text("machine m\nt A B go").is_err());
        // Parses but fails validation: a region with states needs an
        // initial state.
        assert!(from_text("machine m\nstate A root").is_err());
        // Ill-typed constructs still parse (validation is structural),
        // but unknown variables are rejected.
        let err = from_text("machine m\nstate A root\ninitial root A\nentry A (set ghost 1)")
            .expect_err("unknown variable");
        assert!(err.msg.contains("ill-formed"), "{err}");
    }

    #[test]
    fn adversarial_mutations_of_generated_machines_are_rejected() {
        // Drive the validator's reject paths from *generated* shapes: the
        // fuzz harness leans on validate() to keep shrink candidates
        // honest, so these paths must actually fire.
        let cfg = GenConfig {
            composite_pct: 100,
            min_states: 10,
            max_states: 14,
            ..GenConfig::default()
        };
        let m0 = generate(3, &cfg);
        let (cid, nested) = m0
            .states()
            .find_map(|(sid, s)| match s.kind {
                StateKind::Composite(r) => Some((sid, r)),
                _ => None,
            })
            .expect("composite_pct=100 yields a composite");

        // Orphan region: clear the composite's back-pointer.
        let mut m = m0.clone();
        m.region_mut(nested).owner = None;
        assert!(matches!(
            m.validate(),
            Err(crate::ValidateError::OrphanRegion { .. })
        ));

        // Cross-region transition: retarget an outer arc into the nested
        // region.
        let mut m = m0.clone();
        let inner_state = m.states_in(nested)[0];
        let tid = m
            .transitions()
            .find_map(|(tid, t)| (t.source != cid && t.target != cid).then_some(tid))
            .expect("an unrelated transition exists");
        let source = m.transition(tid).source;
        if m.state(source).parent != m.state(inner_state).parent {
            m.transition_mut(tid).target = inner_state;
            assert!(matches!(
                m.validate(),
                Err(crate::ValidateError::CrossRegionTransition { .. })
            ));
        }

        // Duplicate state name: rename one state onto another.
        let mut m = m0.clone();
        let names: Vec<StateId> = m.states().map(|(sid, _)| sid).collect();
        let stolen = m.state(names[0]).name.clone();
        m.state_mut(names[1]).name = stolen;
        assert!(matches!(
            m.validate(),
            Err(crate::ValidateError::DuplicateStateName(_))
        ));
    }

    #[test]
    fn rng_is_stable() {
        // The splitmix64 stream is part of the reproducibility contract:
        // changing it silently re-rolls every seed in the corpus.
        let mut r = GenRng::new(42);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                13679457532755275413,
                2949826092126892291,
                5139283748462763858,
                6349198060258255764,
            ]
        );
    }
}
