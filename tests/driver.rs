//! Driver-layer integration tests: content-hash determinism,
//! byte-identical artifacts across repeat runs and thread counts, and
//! cached artifacts equal to fresh compiles, statistics included.

use std::sync::Arc;

use cgen::Pattern;
use occ::driver::{job_hash, parallel_map, Driver};
use occ::{Artifact, OptLevel};

/// A realistic job: the flat sample machine generated with the Nested
/// Switch pattern.
fn sample_module() -> tlang::Module {
    cgen::generate(&umlsm::samples::flat_unreachable(), Pattern::NestedSwitch)
        .expect("generates")
        .module
}

fn assert_artifacts_equal(a: &Artifact, b: &Artifact) {
    assert_eq!(a.assembly(), b.assembly(), "assembly must be identical");
    assert_eq!(a.pass_stats(), b.pass_stats(), "PassStats must be equal");
    assert_eq!(
        a.regalloc_stats(),
        b.regalloc_stats(),
        "RegAllocStats must be equal"
    );
    assert_eq!(a.surviving_functions(), b.surviving_functions());
    assert_eq!(a.level(), b.level());
}

#[test]
fn same_job_hashes_and_compiles_identically_across_repeat_runs() {
    let module = sample_module();
    assert_eq!(
        job_hash(&module, OptLevel::O2),
        job_hash(&sample_module(), OptLevel::O2),
        "independent generations of the same machine must hash equal"
    );
    // Two fresh compiles (no cache involved) are byte-identical.
    let a = occ::compile(&module, OptLevel::O2).expect("compiles");
    let b = occ::compile(&module, OptLevel::O2).expect("compiles");
    assert_artifacts_equal(&a, &b);
}

#[test]
fn batch_artifacts_are_byte_identical_across_thread_counts() {
    let module = sample_module();
    let jobs: Vec<(tlang::Module, OptLevel)> = OptLevel::all()
        .into_iter()
        .map(|level| (module.clone(), level))
        .collect();
    // One driver per thread count: each batch compiles cold, so the
    // comparison is compile-vs-compile, not compile-vs-cache.
    let batch = |threads| {
        let driver = Driver::new();
        parallel_map(&jobs, threads, |(module, level)| {
            driver.compile(module, *level)
        })
    };
    let (serial, parallel) = (batch(1), batch(4));
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        let (s, p) = (s.as_ref().expect("ok"), p.as_ref().expect("ok"));
        assert_artifacts_equal(s, p);
        assert_eq!(p.level(), jobs[i].1, "results must come back in job order");
    }
}

#[test]
fn cached_artifacts_equal_fresh_compiles() {
    let module = sample_module();
    let fresh = occ::compile(&module, OptLevel::Os).expect("compiles");
    let driver = Driver::new();
    let cold = driver.compile(&module, OptLevel::Os).expect("compiles");
    let warm = driver.compile(&module, OptLevel::Os).expect("hits");
    assert!(Arc::ptr_eq(&cold, &warm), "a hit must share the Arc");
    assert_artifacts_equal(&fresh, &warm);
    let stats = driver.stats();
    assert_eq!((stats.hits(), stats.misses), (1, 1));
}

#[test]
fn parallel_map_is_order_preserving_and_complete() {
    let items: Vec<u32> = (0..257).collect();
    for threads in [1, 3, 8, 0] {
        let doubled = parallel_map(&items, threads, |x| x * 2);
        assert_eq!(doubled.len(), items.len());
        assert!(doubled.iter().enumerate().all(|(i, v)| *v == 2 * i as u32));
    }
}
