//! Driver-layer integration tests: content-hash determinism,
//! byte-identical artifacts across repeat runs and thread counts, cached
//! artifacts equal to fresh compiles, statistics included, and level
//! families that share work between the levels of a module without
//! changing a byte, whatever order the levels come in.

use std::sync::Arc;

use cgen::Pattern;
use occ::driver::{job_hash, parallel_map, Driver};
use occ::{Artifact, OptLevel};
use umlsm::gen::GenConfig;
use umlsm::{samples, StateMachine};

/// A realistic job: the flat sample machine generated with the Nested
/// Switch pattern.
fn sample_module() -> tlang::Module {
    cgen::generate(&samples::flat_unreachable(), Pattern::NestedSwitch)
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
    assert_eq!(
        a.decoded().op_count(),
        b.decoded().op_count(),
        "decoded op counts must be equal"
    );
}

fn sample_machines() -> Vec<StateMachine> {
    vec![
        samples::flat_unreachable(),
        samples::hierarchical_never_active(),
        samples::cruise_control(),
        samples::protocol_handler(),
    ]
}

/// Every pattern's module of each machine, original and model-optimized.
fn modules_of(machines: &[StateMachine]) -> Vec<tlang::Module> {
    let optimizer = mbo::Optimizer::with_all();
    let mut modules = Vec::new();
    for machine in machines {
        let optimized = optimizer.optimize(machine).expect("optimizes").machine;
        for m in [machine, &optimized] {
            for pattern in Pattern::all() {
                modules.push(cgen::generate(m, pattern).expect("generates").module);
            }
        }
    }
    modules
}

/// The samples plus `umlsm::gen` seeds 1–8, original and optimized, in
/// every pattern, each with its four fresh `occ::compile` artifacts.
fn family_corpus() -> Vec<(tlang::Module, Vec<Artifact>)> {
    let mut machines = sample_machines();
    machines.extend((1..=8).map(|seed| umlsm::gen::generate(seed, &GenConfig::default())));
    modules_of(&machines)
        .into_iter()
        .map(|module| {
            let fresh = OptLevel::all()
                .into_iter()
                .map(|level| occ::compile(&module, level).expect("compiles"))
                .collect();
            (module, fresh)
        })
        .collect()
}

fn fresh_at(fresh: &[Artifact], level: OptLevel) -> &Artifact {
    &fresh[level as usize]
}

#[test]
fn level_families_compile_like_fresh_compiles_in_any_order() {
    use OptLevel::{Os, O0, O1, O2};
    let corpus = family_corpus();
    for order in [[O0, O1, O2, Os], [Os, O2, O1, O0], [Os, O0, O2, O1]] {
        for (module, fresh) in &corpus {
            let driver = Driver::new();
            for level in order {
                let got = driver.compile(module, level).expect("compiles");
                assert_artifacts_equal(&got, fresh_at(fresh, level));
            }
        }
    }
    // Interleaved modules: A's family survives B's compile.
    for pair in corpus.chunks_exact(2) {
        let [(a, a_fresh), (b, b_fresh)] = pair else {
            unreachable!("chunks of two");
        };
        let driver = Driver::new();
        for (module, fresh, level) in [(a, a_fresh, O2), (b, b_fresh, O2), (a, a_fresh, Os)] {
            let got = driver.compile(module, level).expect("compiles");
            assert_artifacts_equal(&got, fresh_at(fresh, level));
        }
        assert!(driver.stats().mid_end_reused > 0, "A@Os reuses A@O2");
    }
    // A parallel batch racing on the same families.
    let jobs: Vec<(usize, OptLevel)> = (0..corpus.len())
        .flat_map(|i| OptLevel::all().map(|level| (i, level)))
        .collect();
    let driver = Driver::new();
    let results = parallel_map(&jobs, 4, |&(i, level)| driver.compile(&corpus[i].0, level));
    for (&(i, level), got) in jobs.iter().zip(&results) {
        assert_artifacts_equal(
            got.as_ref().expect("compiles"),
            fresh_at(&corpus[i].1, level),
        );
    }
}

#[test]
fn os_reuses_the_o2_mid_end_on_the_samples() {
    let (mut functions, mut reused) = (0, 0);
    for module in modules_of(&sample_machines()) {
        let driver = Driver::new();
        driver.compile(&module, OptLevel::O2).expect("compiles");
        let before = driver.stats().mid_end_reused;
        let os = driver.compile(&module, OptLevel::Os).expect("compiles");
        functions += os.surviving_functions().len();
        reused += driver.stats().mid_end_reused - before;
    }
    assert!(
        reused * 10 >= functions * 9,
        "-Os reused {reused} of {functions} functions after -O2"
    );
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
