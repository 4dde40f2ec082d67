//! Compilation driver: content-addressed artifact caching and a shared
//! worker pool — the toolchain's session layer.
//!
//! [`compile`](crate::compile) is a pure function; production scale means
//! calling it millions of times over largely overlapping inputs (bench
//! matrices, pass-ordering sweeps, fuzz corpora). A [`Driver`] wraps it
//! in a session that makes repeated work free, and [`parallel_map`] lets
//! callers run independent work in parallel. This module doc is the
//! canonical contract for the three mechanisms involved.
//!
//! # Content addressing
//!
//! A *job* is a `(tlang::Module, OptLevel)` pair. [`job_hash`] serializes
//! the job to canonical bytes — a deterministic, tagged, length-prefixed
//! encoding of the whole AST (no pointer identity, no hash-map iteration
//! order) — and hashes them, behind the level, with the hand-rolled
//! 128-bit FNV-1a in this module (no crates.io).
//!
//! The hash carries no toolchain salt. Artifacts live only in the memory
//! of the process that compiled them, so a cached artifact can never
//! outlive the pass roster, backend or format that produced it: a
//! toolchain change is a new binary, and a new binary starts with an
//! empty cache.
//!
//! # The artifact cache
//!
//! A `HashMap<u128, Arc<Artifact>>` behind a mutex that is only ever held
//! for lookups and inserts, never across a compile (the sfuzz code-cache
//! discipline: compile outside the lock, publish under it). Two threads
//! racing on the same cold key may both compile; compilation is
//! deterministic, the artifacts are byte-identical, and the first insert
//! wins — a benign duplicate, not a correctness hazard. Nothing is
//! persisted: no process reads an artifact another process compiled.
//!
//! # The shared worker pool
//!
//! [`parallel_map`] fans a slice out over a `std::thread::scope` worker
//! pool pulling indices from a shared atomic cursor and funneling
//! `(index, result)` pairs through an mpsc channel. Results come back in
//! item order; `threads == 0` uses the host's available parallelism. A
//! [`Driver`] is `Sync`, so a parallel batch of compiles is
//! [`parallel_map`] over the jobs calling [`Driver::compile`], as the
//! example below does.
//!
//! # Observability
//!
//! Every session counts jobs served, cache hits and misses
//! ([`DriverStats`]). Nothing in the driver reads a clock: the
//! repository benchmark (`perfbench/`) times the toolchain from outside,
//! and its traced run reports each compile stage (`occ.lower_ms`,
//! `occ.opt_ms.<level>`, `occ.backend_ms`, `occ.vm.decode_ms`) and the
//! warm path (`occ.driver.hash_us`, `occ.driver.lookup_us`).
//!
//! # Example
//!
//! ```
//! use occ::driver::{parallel_map, Driver};
//! use occ::OptLevel;
//! use tlang::{Expr, Function, Module, Stmt, Type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = Module::new("demo");
//! module.push_function(Function {
//!     name: "answer".into(),
//!     params: vec![],
//!     ret: Type::I32,
//!     body: vec![Stmt::Return(Some(Expr::Int(42)))],
//!     exported: true,
//! });
//!
//! let driver = Driver::new();
//! let cold = driver.compile(&module, OptLevel::Os)?;
//! let warm = driver.compile(&module, OptLevel::Os)?;
//! // The warm call is a cache hit: the very same artifact comes back.
//! assert!(std::sync::Arc::ptr_eq(&cold, &warm));
//! let stats = driver.stats();
//! assert_eq!((stats.jobs, stats.mem_hits, stats.misses), (2, 1, 1));
//!
//! // A batch fans out over the shared worker pool and comes back in job
//! // order; the -Os job is a hit.
//! let jobs = vec![(module.clone(), OptLevel::O0), (module, OptLevel::Os)];
//! let results = parallel_map(&jobs, 2, |(m, level)| driver.compile(m, *level));
//! assert!(results.iter().all(Result::is_ok));
//! assert!(std::sync::Arc::ptr_eq(results[1].as_ref().expect("hit"), &cold));
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use crate::{Artifact, CompileError, OptLevel};

// ---------------------------------------------------------------------
// FNV-1a hashing (hand-rolled; no crates.io)
// ---------------------------------------------------------------------

const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x100000001b3;
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental 64-bit FNV-1a hasher (the bench snapshot's per-cell
/// assembly digests).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV64_OFFSET)
    }

    /// Absorbs bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Incremental 128-bit FNV-1a hasher — the content-address space of the
/// artifact cache. 128 bits keep accidental collisions out of reach for
/// any realistic corpus size.
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

impl Fnv128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv128 {
        Fnv128(FNV128_OFFSET)
    }

    /// Absorbs bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u128::from(*b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

// ---------------------------------------------------------------------
// Canonical job serialization + hashing
// ---------------------------------------------------------------------

/// Content-hashes one `(module, level)` job: the level, then the
/// canonical byte serialization of the whole AST. Equal jobs hash equal
/// on every run; any AST difference — a renamed function, a changed
/// literal, a reordered global — changes the hash.
pub fn job_hash(module: &tlang::Module, level: OptLevel) -> u128 {
    let mut h = Fnv128::new();
    h.write(&[level_code(level)]);
    h.write(&serialize_job(module));
    h.finish()
}

/// The canonical byte serialization of a module: deterministic, tagged,
/// length-prefixed. This is the hashed representation, exposed so tests
/// can assert canonicity directly.
pub fn serialize_job(module: &tlang::Module) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    ser_str(&mut out, &module.name);
    out.extend_from_slice(&(module.structs.len() as u32).to_le_bytes());
    for s in &module.structs {
        ser_str(&mut out, &s.name);
        out.extend_from_slice(&(s.fields.len() as u32).to_le_bytes());
        for (name, ty) in &s.fields {
            ser_str(&mut out, name);
            ser_type(&mut out, ty);
        }
    }
    out.extend_from_slice(&(module.externs.len() as u32).to_le_bytes());
    for e in &module.externs {
        ser_str(&mut out, &e.name);
        out.extend_from_slice(&(e.params.len() as u32).to_le_bytes());
        for p in &e.params {
            ser_type(&mut out, p);
        }
        ser_type(&mut out, &e.ret);
    }
    out.extend_from_slice(&(module.globals.len() as u32).to_le_bytes());
    for g in &module.globals {
        ser_str(&mut out, &g.name);
        ser_type(&mut out, &g.ty);
        ser_init(&mut out, &g.init);
        out.push(u8::from(g.mutable));
    }
    out.extend_from_slice(&(module.functions.len() as u32).to_le_bytes());
    for f in &module.functions {
        ser_str(&mut out, &f.name);
        out.extend_from_slice(&(f.params.len() as u32).to_le_bytes());
        for (name, ty) in &f.params {
            ser_str(&mut out, name);
            ser_type(&mut out, ty);
        }
        ser_type(&mut out, &f.ret);
        ser_stmts(&mut out, &f.body);
        out.push(u8::from(f.exported));
    }
    out
}

fn level_code(level: OptLevel) -> u8 {
    match level {
        OptLevel::O0 => 0,
        OptLevel::O1 => 1,
        OptLevel::O2 => 2,
        OptLevel::Os => 3,
    }
}

fn ser_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn ser_type(out: &mut Vec<u8>, ty: &tlang::Type) {
    match ty {
        tlang::Type::I32 => out.push(0),
        tlang::Type::Bool => out.push(1),
        tlang::Type::Void => out.push(2),
        tlang::Type::Struct(name) => {
            out.push(3);
            ser_str(out, name);
        }
        tlang::Type::Array(elem, n) => {
            out.push(4);
            ser_type(out, elem);
            out.extend_from_slice(&(*n as u64).to_le_bytes());
        }
        tlang::Type::FnPtr { params, ret } => {
            out.push(5);
            out.extend_from_slice(&(params.len() as u32).to_le_bytes());
            for p in params {
                ser_type(out, p);
            }
            ser_type(out, ret);
        }
    }
}

fn ser_place(out: &mut Vec<u8>, place: &tlang::Place) {
    match place {
        tlang::Place::Var(name) => {
            out.push(0);
            ser_str(out, name);
        }
        tlang::Place::Field(base, name) => {
            out.push(1);
            ser_place(out, base);
            ser_str(out, name);
        }
        tlang::Place::Index(base, index) => {
            out.push(2);
            ser_place(out, base);
            ser_expr(out, index);
        }
    }
}

fn bin_op_code(op: tlang::BinOp) -> u8 {
    use tlang::BinOp::*;
    match op {
        Add => 0,
        Sub => 1,
        Mul => 2,
        Div => 3,
        Rem => 4,
        Eq => 5,
        Ne => 6,
        Lt => 7,
        Le => 8,
        Gt => 9,
        Ge => 10,
        And => 11,
        Or => 12,
    }
}

fn ser_expr(out: &mut Vec<u8>, expr: &tlang::Expr) {
    match expr {
        tlang::Expr::Int(v) => {
            out.push(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        tlang::Expr::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        tlang::Expr::Place(p) => {
            out.push(2);
            ser_place(out, p);
        }
        tlang::Expr::Unary(op, e) => {
            out.push(3);
            out.push(match op {
                tlang::UnOp::Neg => 0,
                tlang::UnOp::Not => 1,
            });
            ser_expr(out, e);
        }
        tlang::Expr::Binary(op, l, r) => {
            out.push(4);
            out.push(bin_op_code(*op));
            ser_expr(out, l);
            ser_expr(out, r);
        }
        tlang::Expr::Call(name, args) => {
            out.push(5);
            ser_str(out, name);
            out.extend_from_slice(&(args.len() as u32).to_le_bytes());
            for a in args {
                ser_expr(out, a);
            }
        }
        tlang::Expr::CallPtr(target, args) => {
            out.push(6);
            ser_expr(out, target);
            out.extend_from_slice(&(args.len() as u32).to_le_bytes());
            for a in args {
                ser_expr(out, a);
            }
        }
        tlang::Expr::FnAddr(name) => {
            out.push(7);
            ser_str(out, name);
        }
    }
}

fn ser_stmts(out: &mut Vec<u8>, stmts: &[tlang::Stmt]) {
    out.extend_from_slice(&(stmts.len() as u32).to_le_bytes());
    for s in stmts {
        ser_stmt(out, s);
    }
}

fn ser_stmt(out: &mut Vec<u8>, stmt: &tlang::Stmt) {
    match stmt {
        tlang::Stmt::Let { name, ty, init } => {
            out.push(0);
            ser_str(out, name);
            ser_type(out, ty);
            match init {
                None => out.push(0),
                Some(e) => {
                    out.push(1);
                    ser_expr(out, e);
                }
            }
        }
        tlang::Stmt::Assign { place, value } => {
            out.push(1);
            ser_place(out, place);
            ser_expr(out, value);
        }
        tlang::Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            out.push(2);
            ser_expr(out, cond);
            ser_stmts(out, then_body);
            ser_stmts(out, else_body);
        }
        tlang::Stmt::While { cond, body } => {
            out.push(3);
            ser_expr(out, cond);
            ser_stmts(out, body);
        }
        tlang::Stmt::Switch {
            scrutinee,
            cases,
            default,
        } => {
            out.push(4);
            ser_expr(out, scrutinee);
            out.extend_from_slice(&(cases.len() as u32).to_le_bytes());
            for (value, body) in cases {
                out.extend_from_slice(&value.to_le_bytes());
                ser_stmts(out, body);
            }
            ser_stmts(out, default);
        }
        tlang::Stmt::Return(e) => {
            out.push(5);
            match e {
                None => out.push(0),
                Some(e) => {
                    out.push(1);
                    ser_expr(out, e);
                }
            }
        }
        tlang::Stmt::Expr(e) => {
            out.push(6);
            ser_expr(out, e);
        }
        tlang::Stmt::Break => out.push(7),
    }
}

fn ser_init(out: &mut Vec<u8>, init: &tlang::Init) {
    match init {
        tlang::Init::Int(v) => {
            out.push(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        tlang::Init::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        tlang::Init::Array(items) => {
            out.push(2);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for i in items {
                ser_init(out, i);
            }
        }
        tlang::Init::Struct(items) => {
            out.push(3);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for i in items {
                ser_init(out, i);
            }
        }
        tlang::Init::FnAddr(name) => {
            out.push(4);
            ser_str(out, name);
        }
        tlang::Init::Zero => out.push(5),
    }
}

// ---------------------------------------------------------------------
// The shared worker pool
// ---------------------------------------------------------------------

/// Fans `items` out over a scoped `std::thread` worker pool — a shared
/// atomic job cursor, one worker per thread, `(index, result)` pairs
/// funneled back through an mpsc channel — and returns the results in
/// item order. `threads == 0` uses the host's available parallelism;
/// the pool never spawns more workers than items.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
    .min(items.len())
    .max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index delivered exactly once"))
        .collect()
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    jobs: AtomicUsize,
    mem_hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Cumulative counters of one [`Driver`] session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Jobs served ([`Driver::compile`] calls).
    pub jobs: usize,
    /// Jobs answered from the artifact cache.
    pub mem_hits: usize,
    /// Jobs that compiled from scratch.
    pub misses: usize,
}

impl DriverStats {
    /// Cache hits (the same count as [`DriverStats::mem_hits`]).
    pub fn hits(&self) -> usize {
        self.mem_hits
    }

    /// Fraction of jobs answered from the cache (0.0 with no jobs).
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.hits() as f64 / self.jobs as f64
        }
    }

    /// One human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "{} jobs: {} hit ({:.1}%), {} compiled",
            self.jobs,
            self.hits(),
            100.0 * self.hit_rate(),
            self.misses,
        )
    }
}

/// A compilation session: a content-addressed in-memory artifact cache
/// around [`crate::compile`]. See the module doc for the full contract.
pub struct Driver {
    mem: Mutex<HashMap<u128, Arc<Artifact>>>,
    counters: Counters,
}

impl Default for Driver {
    fn default() -> Driver {
        Driver::new()
    }
}

impl Driver {
    /// A session with an empty artifact cache.
    pub fn new() -> Driver {
        Driver {
            mem: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// Compiles one job through the cache: a hit returns the cached
    /// artifact; a miss compiles (outside any lock) and publishes the
    /// result.
    ///
    /// # Errors
    ///
    /// Exactly [`crate::compile`]'s errors.
    pub fn compile(
        &self,
        module: &tlang::Module,
        level: OptLevel,
    ) -> Result<Arc<Artifact>, CompileError> {
        self.counters.jobs.fetch_add(1, Ordering::Relaxed);
        let key = job_hash(module, level);

        let hit = self.lock_mem().get(&key).cloned();
        if let Some(artifact) = hit {
            self.counters.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(artifact);
        }

        // Miss: compile with no lock held. A concurrent thread racing on
        // the same key compiles the same bytes; the or_insert below keeps
        // whichever artifact published first.
        let artifact = crate::compile(module, level)?;
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let artifact = self
            .lock_mem()
            .entry(key)
            .or_insert_with(|| Arc::new(artifact))
            .clone();
        Ok(artifact)
    }

    /// A snapshot of this session's cumulative counters.
    pub fn stats(&self) -> DriverStats {
        DriverStats {
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            mem_hits: self.counters.mem_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry of the artifact cache, returning how many were
    /// evicted. Cumulative counters are untouched, and outstanding
    /// `Arc<Artifact>` handles stay valid.
    ///
    /// Corpus-scale callers (the fuzz harness compiles thousands of
    /// *distinct* machines through one session, so the cache buys nothing
    /// across cases) call this between batches to bound the session's
    /// footprint while still getting within-case hits — every shrink
    /// candidate and every event sequence of a case re-hits its cells.
    pub fn evict_memory(&self) -> usize {
        let mut mem = self.lock_mem();
        let n = mem.len();
        mem.clear();
        n
    }

    fn lock_mem(&self) -> std::sync::MutexGuard<'_, HashMap<u128, Arc<Artifact>>> {
        self.mem.lock().expect("driver cache lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlang::{Expr, Function, Module, Stmt, Type};

    fn module_returning(name: &str, value: i64) -> Module {
        let mut m = Module::new(name);
        m.push_function(Function {
            name: "answer".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![Stmt::Return(Some(Expr::Int(value)))],
            exported: true,
        });
        m
    }

    #[test]
    fn job_hash_is_stable_and_content_sensitive() {
        let m = module_returning("demo", 42);
        assert_eq!(
            job_hash(&m, OptLevel::Os),
            job_hash(&m.clone(), OptLevel::Os),
            "equal jobs must hash equal"
        );
        assert_ne!(
            job_hash(&m, OptLevel::Os),
            job_hash(&m, OptLevel::O2),
            "the level is part of the job"
        );
        assert_ne!(
            job_hash(&m, OptLevel::Os),
            job_hash(&module_returning("demo", 43), OptLevel::Os),
            "a changed literal must change the hash"
        );
        assert_ne!(
            job_hash(&m, OptLevel::Os),
            job_hash(&module_returning("demo2", 42), OptLevel::Os),
            "the module name is part of the job"
        );
    }

    #[test]
    fn memory_tier_serves_repeats() {
        let driver = Driver::new();
        let m = module_returning("demo", 1);
        let a = driver.compile(&m, OptLevel::Os).expect("compiles");
        let b = driver.compile(&m, OptLevel::Os).expect("hits");
        assert!(Arc::ptr_eq(&a, &b));
        let stats = driver.stats();
        assert_eq!((stats.jobs, stats.mem_hits, stats.misses), (2, 1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
        // Distinct levels are distinct jobs.
        driver.compile(&m, OptLevel::O0).expect("compiles");
        assert_eq!(driver.stats().misses, 2);
        assert_eq!(driver.stats().render(), "3 jobs: 1 hit (33.3%), 2 compiled");
    }

    #[test]
    fn parallel_map_preserves_order_at_any_width() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7, 0] {
            let out = parallel_map(&items, threads, |i| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
        assert!(parallel_map(&[] as &[usize], 4, |i| *i).is_empty());
    }

    #[test]
    fn batch_compiles_every_job_in_order() {
        let driver = Driver::new();
        let jobs: Vec<(Module, OptLevel)> = (0..6)
            .map(|i| (module_returning("m", i), OptLevel::Os))
            .chain(std::iter::once((module_returning("m", 0), OptLevel::Os)))
            .collect();
        let results = parallel_map(&jobs, 4, |(m, level)| driver.compile(m, *level));
        assert_eq!(results.len(), 7);
        assert!(results.iter().all(Result::is_ok));
        // The duplicate job is the same artifact as its first occurrence.
        let first = results[0].as_ref().expect("ok");
        let dup = results[6].as_ref().expect("ok");
        assert_eq!(dup.assembly(), first.assembly());
        let stats = driver.stats();
        assert_eq!(stats.jobs, 7);
        // 6 distinct jobs; the duplicate either hit the cache or raced a
        // concurrent compile of the same key (benign, byte-identical).
        assert!(stats.misses >= 6 && stats.misses <= 7, "{stats:?}");
    }

    #[test]
    fn batch_reports_compile_errors_per_job() {
        let driver = Driver::new();
        let mut bad = Module::new("bad");
        bad.push_function(Function {
            name: "f".into(),
            params: vec![],
            ret: Type::I32,
            body: vec![], // missing return: fails the type check
            exported: true,
        });
        let jobs = vec![
            (module_returning("ok", 1), OptLevel::Os),
            (bad, OptLevel::Os),
        ];
        let results = parallel_map(&jobs, 2, |(m, level)| driver.compile(m, *level));
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CompileError::Check(_))));
    }
}
