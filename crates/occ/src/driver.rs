//! Compilation driver: content-addressed artifact caching, work shared
//! between the levels of a module, and a shared worker pool — the
//! toolchain's session layer.
//!
//! [`compile`](crate::compile) is a pure function; production scale means
//! calling it millions of times over largely overlapping inputs (bench
//! matrices, pass-ordering sweeps, fuzz corpora), nearly always at every
//! level of each module. A [`Driver`] wraps it in a session that makes
//! repeated work free and compiles the levels of a module as one family,
//! and [`parallel_map`] lets callers run independent work in parallel.
//! This module doc is the canonical contract for the mechanisms involved.
//!
//! # Content addressing
//!
//! A *job* is a `(tlang::Module, OptLevel)` pair. [`job_hash`] feeds the
//! job's derived [`Hash`] — every node of the `tlang` AST, then the
//! level — through a private [`Hasher`] adapter into the hand-rolled
//! 128-bit FNV-1a in this module (no crates.io). The adapter writes
//! lengths and enum tags as LEB128 varints and everything else as the
//! derive gives it; [`serialize_job`] sends the module's share of the
//! same bytes to a vector instead. The encoding is derived from the type
//! definitions, so there is no hand-written copy of the AST to keep in
//! step: a field added to a `tlang` node is part of the key at once. It
//! is deterministic (no pointer identity, no hash-map iteration order)
//! and self-delimiting, so distinct jobs give distinct bytes. The hash
//! state before the level is the module's own content hash, which keys
//! its level family (below) at no extra cost.
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
//! # Level families
//!
//! The levels of one module repeat each other's work: each type-checks
//! and lowers the same module, and `-O2` and `-Os` run one SSA roster,
//! differing only in the inliner's threshold and in how the backend
//! lowers a `Switch`. A session therefore keeps, beside the artifact
//! cache, the *family* of each recently compiled module — keyed by the
//! module's content hash, the [`job_hash`] state before the level — and
//! a miss takes from it what another level of the module already did:
//!
//! | stage | taken from an earlier level | when |
//! |-------|-----------------------------|------|
//! | front end | the lowered program, copied only by a level that runs a pass | always: the `tlang` check and [`lower_module`](crate::lower::lower_module) run once per module |
//! | mid-end | a function's optimized body and the [`PassStats`](crate::PassStats) it added | the SSA roster, the [`MemoryModel`](crate::mem::MemoryModel) and the function entering the per-function pipeline are each equal (`==`) |
//! | backend | a function's [`AsmFunction`](crate::backend::AsmFunction) | the optimized function is equal, and the switch-lowering rule picks the same form for each of its `Switch`es at both levels |
//!
//! The conditions are what the stages read: the per-function pipeline
//! depends only on its roster, its model and the function (the reuse
//! contract of [`crate::opt`]), and the backend reads the level only to
//! choose a `Switch`'s form. So every artifact — assembly, pass
//! statistics, register-allocation counters, decoded program — is
//! byte-identical to a fresh [`compile`](crate::compile), in any order
//! of levels and modules. [`compile`](crate::compile) runs the same
//! stage sequence with no family: nothing to take, nothing kept.
//!
//! **Memory.** A family holds its module's lowered program, which
//! `-O0` shares, and per compiled level above `-O0` the optimized
//! program; the assembly is shared with the cached artifact. A level
//! also keeps the functions entering its per-function pipeline, but only
//! while a level it has not compiled runs the same roster (in practice
//! `-O2` for `-Os`, or `-Os` for `-O2`). A session keeps the families of
//! the two most recently compiled modules and drops the older one when a
//! third compiles: callers compile a module's levels back to back, which
//! needs one, and the second serves one other module interleaved (two
//! workers sharing a session). [`Driver::evict_memory`] drops every
//! family with the artifacts.
//!
//! **Locking.** Like the artifact cache, the family store is locked only
//! to copy a family out (reference counts, no function) and to merge a
//! compiled level back in, never across a compile. Racing misses on one
//! module each do their own work; the family keeps the first per level.
//!
//! ```
//! use occ::driver::Driver;
//! use occ::OptLevel;
//! use tlang::{Expr, Function, Module, Stmt, Type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = Module::new("family");
//! module.push_function(Function {
//!     name: "twice".into(),
//!     params: vec![("x".into(), Type::I32)],
//!     ret: Type::I32,
//!     body: vec![Stmt::Return(Some(Expr::var("x").add(Expr::var("x"))))],
//!     exported: true,
//! });
//!
//! let driver = Driver::new();
//! driver.compile(&module, OptLevel::O2)?;
//! let os = driver.compile(&module, OptLevel::Os)?;
//! // -Os took `twice` from -O2 at the mid-end and at the backend ...
//! let stats = driver.stats();
//! assert_eq!((stats.mid_end_reused, stats.backend_reused), (1, 1));
//! // ... and built exactly what a fresh compile builds.
//! let fresh = occ::compile(&module, OptLevel::Os)?;
//! assert_eq!(os.assembly(), fresh.assembly());
//! assert_eq!(os.pass_stats(), fresh.pass_stats());
//! # Ok(())
//! # }
//! ```
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
//! Every session counts jobs served, cache hits and misses, and the
//! functions its level families supplied to the mid-end and to the
//! backend ([`DriverStats`]). Nothing in the driver reads a clock: the
//! repository benchmark (`perfbench/`) times the toolchain from outside,
//! and its traced run reports each compile stage (`occ.lower_ms`,
//! `occ.opt_ms.<level>`, `occ.backend_ms`, `occ.vm.decode_ms`) and the
//! warm path (`occ.driver.hash_us`, `occ.driver.lookup_us`). Its stages
//! run one by one with no family, so they time the work a level does
//! alone, not what a family saves.
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
//! assert_eq!((stats.jobs, stats.hits(), stats.misses), (2, 1, 1));
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
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::mir::Program;
use crate::opt::MidEndWork;
use crate::{Artifact, Assembly, CompileError, OptLevel};

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
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Fnv128 {
        Fnv128(FNV128_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u128::from(*b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    fn finish(&self) -> u128 {
        self.0
    }
}

// ---------------------------------------------------------------------
// Job encoding + hashing
// ---------------------------------------------------------------------

/// The one encoding of a job: hands every byte a derived [`Hash`] writes
/// to its sink (the FNV-128 state or a byte vector), with lengths
/// (`write_usize`) and enum tags (`write_isize`) as LEB128 varints —
/// seven bits per byte, so a small value takes one byte. Strings end in
/// `0xff` and the other integers are fixed-width, so the encoding is
/// self-delimiting.
struct Encoder<F: FnMut(&[u8])>(F);

impl<F: FnMut(&[u8])> Hasher for Encoder<F> {
    fn write(&mut self, bytes: &[u8]) {
        (self.0)(bytes);
    }

    fn write_usize(&mut self, mut n: usize) {
        let mut buf = [0u8; 10];
        let mut len = 0;
        while n >= 0x80 {
            buf[len] = n as u8 | 0x80;
            n >>= 7;
            len += 1;
        }
        buf[len] = n as u8;
        (self.0)(&buf[..=len]);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_usize(n as usize);
    }

    fn finish(&self) -> u64 {
        unreachable!("the encoder only forwards bytes; its sink holds the result")
    }
}

/// Content-hashes one `(module, level)` job: FNV-128 over
/// [`serialize_job`]'s bytes followed by the level's tag byte, streamed
/// without building the vector. Equal jobs hash equal on every run; any
/// AST difference — a renamed function, a changed literal, a reordered
/// global — changes the hash.
pub fn job_hash(module: &tlang::Module, level: OptLevel) -> u128 {
    keys(module, level).1
}

/// The module's family key and the job's [`job_hash`], from one pass
/// over the module: the FNV-128 state after [`serialize_job`]'s bytes,
/// and after the level's tag byte too.
fn keys(module: &tlang::Module, level: OptLevel) -> (u128, u128) {
    let mut h = Fnv128::new();
    module.hash(&mut Encoder(|bytes: &[u8]| h.write(bytes)));
    let family = h.finish();
    level.hash(&mut Encoder(|bytes: &[u8]| h.write(bytes)));
    (family, h.finish())
}

/// The bytes [`job_hash`] hashes before the level: the module's derived
/// [`Hash`] through the varint encoder. Exposed so callers can measure
/// what is hashed.
pub fn serialize_job(module: &tlang::Module) -> Vec<u8> {
    let mut out = Vec::new();
    module.hash(&mut Encoder(|bytes: &[u8]| out.extend_from_slice(bytes)));
    out
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
// Level families
// ---------------------------------------------------------------------

/// The most families a session keeps; the least recently compiled
/// module's goes first. Why two: [Level families](self#level-families).
const FAMILIES: usize = 2;

/// The work the compiled levels of one module leave for its other levels
/// (see [Level families](self#level-families)). A clone shares what the
/// original holds.
#[derive(Clone, Default)]
pub(crate) struct Family {
    /// The checked and lowered module.
    pub(crate) lowered: Option<Arc<Program>>,
    levels: Vec<Arc<LevelWork>>,
}

impl Family {
    /// The compiled levels, in the order they were added.
    pub(crate) fn levels(&self) -> impl Iterator<Item = &LevelWork> {
        self.levels.iter().map(Arc::as_ref)
    }

    /// Whether `level` is compiled.
    pub(crate) fn has(&self, level: OptLevel) -> bool {
        self.levels.iter().any(|l| l.level == level)
    }

    /// Adds a compiled level's work.
    pub(crate) fn push(&mut self, work: LevelWork) {
        self.levels.push(Arc::new(work));
    }

    /// Adds another family's level, unless this one has that level.
    fn adopt(&mut self, work: Arc<LevelWork>) {
        if !self.has(work.level) {
            self.levels.push(work);
        }
    }
}

/// One compiled level of a module: what its mid-end and backend did.
pub(crate) struct LevelWork {
    pub(crate) level: OptLevel,
    pub(crate) mid_end: MidEndWork,
    /// The program the backend compiled; at `-O0`, which runs no pass,
    /// the family's lowered program itself.
    pub(crate) optimized: Arc<Program>,
    /// Its assembly: `asm.functions[i]` is `optimized.functions[i]`'s.
    pub(crate) asm: Arc<Assembly>,
    /// Functions whose assembly came from another level.
    pub(crate) asm_reused: usize,
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    jobs: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    mid_end_reused: AtomicUsize,
    backend_reused: AtomicUsize,
}

/// Cumulative counters of one [`Driver`] session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Jobs served ([`Driver::compile`] calls).
    pub jobs: usize,
    hits: usize,
    /// Jobs that compiled from scratch.
    pub misses: usize,
    /// Functions whose optimized body and pass statistics a compiled job
    /// took from another level of its module.
    pub mid_end_reused: usize,
    /// Functions whose assembly a compiled job took from another level of
    /// its module.
    pub backend_reused: usize,
}

impl DriverStats {
    /// Jobs answered from the artifact cache.
    pub fn hits(&self) -> usize {
        self.hits
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
            "{} jobs: {} hit ({:.1}%), {} compiled; functions reused: {} optimized, {} assembled",
            self.jobs,
            self.hits(),
            100.0 * self.hit_rate(),
            self.misses,
            self.mid_end_reused,
            self.backend_reused,
        )
    }
}

/// A compilation session: a content-addressed in-memory artifact cache
/// around [`crate::compile`], sharing work between the levels of a
/// module. See the module doc for the full contract.
pub struct Driver {
    mem: Mutex<HashMap<u128, Arc<Artifact>>>,
    /// `(module key, family)`, at most [`FAMILIES`], least recently
    /// compiled first.
    families: Mutex<Vec<(u128, Family)>>,
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
            families: Mutex::new(Vec::new()),
            counters: Counters::default(),
        }
    }

    /// Compiles one job through the cache: a hit returns the cached
    /// artifact; a miss compiles (outside any lock), reusing what other
    /// levels of the module left in its family, and publishes the
    /// artifact and this level's work.
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
        let (family_key, key) = keys(module, level);

        let hit = self.lock_mem().get(&key).cloned();
        if let Some(artifact) = hit {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(artifact);
        }

        // Miss: compile from a copy of the module's family with no lock
        // held. A concurrent thread racing on the same key compiles the
        // same bytes; the or_insert below keeps whichever artifact
        // published first, and the family keeps the first work per level.
        let mut family = self.family(family_key);
        let artifact = crate::compile_level(module, level, Some(&mut family))?;
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let work = family.levels().last().expect("the compile added its level");
        let counters = &self.counters;
        counters
            .mid_end_reused
            .fetch_add(work.mid_end.reused, Ordering::Relaxed);
        counters
            .backend_reused
            .fetch_add(work.asm_reused, Ordering::Relaxed);
        self.keep_family(family_key, family);
        let artifact = self
            .lock_mem()
            .entry(key)
            .or_insert_with(|| Arc::new(artifact))
            .clone();
        Ok(artifact)
    }

    /// A copy of the family kept under `key`, or an empty one.
    fn family(&self, key: u128) -> Family {
        let families = self.lock_families();
        families
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, fam)| fam.clone())
            .unwrap_or_default()
    }

    /// Merges `family` into the one kept under `key`, which becomes the
    /// most recent; the least recent beyond [`FAMILIES`] is dropped.
    fn keep_family(&self, key: u128, family: Family) {
        let mut families = self.lock_families();
        let mut kept = match families.iter().position(|(k, _)| *k == key) {
            Some(i) => families.remove(i).1,
            None => Family::default(),
        };
        if kept.lowered.is_none() {
            kept.lowered = family.lowered;
        }
        for work in family.levels {
            kept.adopt(work);
        }
        families.push((key, kept));
        let dropped = (families.len() > FAMILIES).then(|| families.remove(0));
        // Free the dropped family's functions after the lock is released.
        drop(families);
        drop(dropped);
    }

    /// A snapshot of this session's cumulative counters.
    pub fn stats(&self) -> DriverStats {
        DriverStats {
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            mid_end_reused: self.counters.mid_end_reused.load(Ordering::Relaxed),
            backend_reused: self.counters.backend_reused.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry of the artifact cache and every level family,
    /// returning how many artifacts were evicted. Cumulative counters are
    /// untouched, and outstanding `Arc<Artifact>` handles stay valid.
    ///
    /// Corpus-scale callers (the fuzz harness compiles thousands of
    /// *distinct* machines through one session, so the cache buys nothing
    /// across cases) call this between batches to bound the session's
    /// footprint while still getting within-case hits — every shrink
    /// candidate and every event sequence of a case re-hits its cells.
    pub fn evict_memory(&self) -> usize {
        self.lock_families().clear();
        let mut mem = self.lock_mem();
        let n = mem.len();
        mem.clear();
        n
    }

    fn lock_mem(&self) -> MutexGuard<'_, HashMap<u128, Arc<Artifact>>> {
        self.mem.lock().expect("driver cache lock poisoned")
    }

    fn lock_families(&self) -> MutexGuard<'_, Vec<(u128, Family)>> {
        self.families.lock().expect("driver family lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlang::{Expr, ExternDecl, Function, GlobalDef, Init, Module, Stmt, StructDef, Type};

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
    fn every_ast_field_is_part_of_the_job() {
        let mut base = module_returning("demo", 42);
        base.push_struct(StructDef {
            name: "Ctx".into(),
            fields: vec![("state".into(), Type::I32)],
        });
        base.push_extern(ExternDecl {
            name: "emit".into(),
            params: vec![Type::I32],
            ret: Type::Void,
        });
        base.push_global(GlobalDef {
            name: "g".into(),
            ty: Type::I32,
            init: Init::Int(0),
            mutable: true,
        });
        type Edit = fn(&mut Module);
        let edits: [(&str, Edit); 16] = [
            ("Module.name", |m| m.name.push('2')),
            ("StructDef.name", |m| m.structs[0].name.push('2')),
            ("StructDef field name", |m| {
                m.structs[0].fields[0].0.push('2')
            }),
            ("StructDef field type", |m| {
                m.structs[0].fields[0].1 = Type::Bool
            }),
            ("ExternDecl.name", |m| m.externs[0].name.push('2')),
            ("ExternDecl.params", |m| m.externs[0].params.push(Type::I32)),
            ("ExternDecl.ret", |m| m.externs[0].ret = Type::I32),
            ("GlobalDef.name", |m| m.globals[0].name.push('2')),
            ("GlobalDef.ty", |m| m.globals[0].ty = Type::Bool),
            ("GlobalDef.init", |m| m.globals[0].init = Init::Int(1)),
            ("GlobalDef.mutable", |m| m.globals[0].mutable = false),
            ("Function.name", |m| m.functions[0].name.push('2')),
            ("Function.params", |m| {
                m.functions[0].params.push(("x".into(), Type::I32));
            }),
            ("Function.ret", |m| m.functions[0].ret = Type::Bool),
            ("Function.body", |m| m.functions[0].body.push(Stmt::Break)),
            ("Function.exported", |m| m.functions[0].exported = false),
        ];
        let base_hash = job_hash(&base, OptLevel::O2);
        for (field, edit) in edits {
            let mut edited = base.clone();
            edit(&mut edited);
            assert_ne!(job_hash(&edited, OptLevel::O2), base_hash, "{field}");
        }
    }

    #[test]
    fn job_hash_is_fnv128_over_serialize_job_then_the_level() {
        let m = module_returning("demo", 42);
        let mut module = Fnv128::new();
        module.write(&serialize_job(&m));
        for level in OptLevel::all() {
            let mut h = Fnv128(module.finish());
            h.write(&[level as u8]);
            assert_eq!(keys(&m, level), (module.finish(), h.finish()), "{level:?}");
            assert_eq!(job_hash(&m, level), h.finish(), "{level:?}");
        }
        // Strings end in 0xff; the four empty lists are one-byte lengths.
        assert_eq!(serialize_job(&Module::new("m")), b"m\xff\0\0\0\0");
    }

    #[test]
    fn varints_take_seven_bits_per_byte() {
        let varint = |n: usize| {
            let mut out = Vec::new();
            Encoder(|bytes: &[u8]| out.extend_from_slice(bytes)).write_usize(n);
            out
        };
        assert_eq!(varint(0), [0]);
        assert_eq!(varint(127), [0x7f]);
        assert_eq!(varint(128), [0x80, 0x01]);
        assert_eq!(varint(300), [0xac, 0x02]);
        assert_eq!(varint(usize::MAX).len(), usize::BITS.div_ceil(7) as usize);
    }

    #[test]
    fn families_are_bounded_and_dropped_by_eviction() {
        let driver = Driver::new();
        // Whether -Os of module `i` takes its function from -O2.
        let os_reuses = |i: i64| {
            let before = driver.stats().mid_end_reused;
            driver
                .compile(&module_returning("m", i), OptLevel::Os)
                .expect("compiles");
            driver.stats().mid_end_reused > before
        };
        let o2 = |i: i64| {
            driver
                .compile(&module_returning("m", i), OptLevel::O2)
                .expect("compiles");
        };
        // A module's family outlives one other module's compile ...
        o2(0);
        o2(1);
        assert!(os_reuses(0));
        // ... but not two: module 1's went when 0 and 2 compiled after it.
        o2(2);
        assert!(!os_reuses(1));
        assert_eq!(driver.lock_families().len(), FAMILIES);
        o2(3);
        driver.evict_memory();
        assert!(!os_reuses(3));
        assert_eq!(driver.lock_families().len(), 1);
    }

    #[test]
    fn memory_tier_serves_repeats() {
        let driver = Driver::new();
        let m = module_returning("demo", 1);
        let a = driver.compile(&m, OptLevel::Os).expect("compiles");
        let b = driver.compile(&m, OptLevel::Os).expect("hits");
        assert!(Arc::ptr_eq(&a, &b));
        let stats = driver.stats();
        assert_eq!((stats.jobs, stats.hits(), stats.misses), (2, 1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
        // Distinct levels are distinct jobs.
        driver.compile(&m, OptLevel::O0).expect("compiles");
        assert_eq!(driver.stats().misses, 2);
        assert_eq!(
            driver.stats().render(),
            "3 jobs: 1 hit (33.3%), 2 compiled; functions reused: 0 optimized, 0 assembled"
        );
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
