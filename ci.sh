#!/usr/bin/env bash
# CI gate for the mbot workspace. Run from the repository root:
#
#   ./ci.sh            # full gate: fmt, clippy, rustdoc, release build,
#                      # release tests (256 MIR net cases), dev-profile
#                      # occ + mbot tests under OCC_VERIFY=each, bench
#                      # smoke, perfbench smoke, differential fuzz smoke,
#                      # regression gate (a fresh snapshot, with the
#                      # two-engine storm check, must equal the committed
#                      # bench_baseline.txt line for line)
#   ./ci.sh --fast     # quick gate: fmt, clippy, rustdoc, dev tests
#
# Mirrors the tier-1 verify command of ROADMAP.md plus style gates, the
# verify-each dev-profile run, the bench-binary smoke loop, the
# repository-benchmark and differential fuzz smokes, and the regression
# gate: every fact of the fresh snapshot (sizes, register-allocation
# counters, canonical-storm counts, warm cache hits, assembly digests,
# per-pass effects) must equal the committed bench_baseline.txt. Every
# stage's wall-clock time is reported at the end so slow stages are
# visible in CI logs.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# The full gate's dev-profile stage runs the occ::verify static checker
# after *every* mid-end pass (OCC_VERIFY=each), not just at pipeline
# boundaries, so an invariant breakage is blamed on the pass and stage
# that introduced it. Debug-build-only, like the VCode verifier; the
# --fast gate keeps the default boundary-only checks.
occ_verify_mode=each

rustdoc_check() {
    # The occ::opt / occ::mem module rustdoc is the canonical pipeline
    # and alias-model documentation (ROADMAP.md only points there), so
    # broken links and missing docs fail both gates.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

stage_names=()
stage_secs=()

# run_stage <name> <command...> — echoes, times, and records one stage.
run_stage() {
    local name="$1"
    shift
    echo "==> $name"
    local t0=$SECONDS
    "$@"
    stage_names+=("$name")
    stage_secs+=($((SECONDS - t0)))
}

perfbench_smoke() {
    # The repository benchmark (perfbench/, its own Cargo package) builds
    # against the toolchain crates by path, so an `occ` API change that
    # breaks it, or output its correctness check rejects, must fail here.
    # Each workload runs one second; perfbench exits non-zero unless its
    # JSON line reports `"correct": true`. `compile` runs traced, so its
    # staged compile — each stage called on its own, nothing shared
    # between levels — must match what `Driver::compile` built with level
    # families sharing work.
    local workload trace
    for workload in compile storm recompile; do
        trace=0
        [[ $workload == compile ]] && trace=1
        echo "    perfbench smoke: $workload (--trace $trace)"
        cargo run --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seconds 1 --trace "$trace" > /dev/null
    done
}

bench_smoke() {
    # Smoke-run every bench binary: a mid-end regression that only breaks
    # artifact generation (a panic, a failed shape check, an incomplete
    # table) must fail CI, not wait for the next manual regeneration.
    # Each runs exactly as it does by hand (scaling's full sweep included).
    local bin
    for bin in figure1 table1 table2 scaling deadcode twostep; do
        echo "    bench smoke: $bin"
        cargo run --release -q -p bench --bin "$bin" > /dev/null
    done
}

run_stage "cargo fmt --check" cargo fmt --all -- --check

# The whole workspace is clippy-clean; keep it that way. (The issue floor
# was umlsm + mbo only, but every crate currently passes -D warnings.)
run_stage "cargo clippy --workspace -D warnings" \
    cargo clippy --locked --workspace --all-targets -- -D warnings

run_stage "cargo doc (rustdoc -D warnings)" rustdoc_check

if [[ $fast -eq 1 ]]; then
    run_stage "cargo test --workspace (dev)" cargo test --locked --workspace -q
else
    run_stage "cargo build --release" \
        cargo build --locked --release --workspace --all-targets
    # Release builds run the MIR differential property net at 256 cases
    # per property, debug builds at 96 (they verify after every pass).
    run_stage "cargo test --workspace --release (256 MIR net cases)" \
        cargo test --locked --workspace --release -q
    # The backend's VCode verifier and the occ::verify pipeline hooks are
    # debug-only (`cfg!(debug_assertions)` compiles them out of release
    # artifacts), so the gate must run the occ and root-matrix tests
    # under the dev profile too — this is the stage where every
    # register-allocation constraint and every MIR/SSA invariant is
    # actually re-checked, per pass (OCC_VERIFY=$occ_verify_mode).
    run_stage "cargo test -p occ -p mbot (debug: verifiers active, OCC_VERIFY=$occ_verify_mode)" \
        env OCC_VERIFY=$occ_verify_mode cargo test --locked -p occ -p mbot -q
    run_stage "bench smoke (6 binaries)" bench_smoke
    run_stage "perfbench smoke (compile, storm, recompile; 1 s each)" perfbench_smoke
    # Differential fuzz smoke: a deterministic-seed corpus of generated
    # machines (umlsm::gen) runs the whole chain differentially — model
    # interpreter oracle vs tlang reference vs compiled EM32 on both
    # engines, 3 patterns × 4 levels per case, with coverage-guided
    # event sequences — plus the coverage duel (guided evolution must
    # reach ops pure random never does at the same budget). Exit is
    # nonzero on any divergence; deepen ad hoc with e.g.
    # FUZZ_CASES=5000 FUZZ_SECS=600. Its own timed stage line tracks
    # corpus throughput in CI logs.
    run_stage "bench differential fuzz smoke (FUZZ_CASES=${FUZZ_CASES:-500})" \
        env FUZZ_CASES="${FUZZ_CASES:-500}" cargo run --release -q -p bench --bin fuzz
    # Regression gate: one rule. `regress` measures every sample machine
    # × pattern × level cell afresh and fails unless the snapshot text
    # equals the committed bench_baseline.txt line for line, printing
    # each differing fact as a `-` (baseline) and `+` (fresh) line. The
    # measurement itself fails, naming the cell, when a canonical storm
    # faults or the fast engine and the reference oracle disagree on it.
    # Any change to a fact, an improvement too, fails until the baseline
    # is refreshed deliberately and its diff explained:
    #   cargo run --release -p bench --bin snapshot
    run_stage "bench regression gate" \
        cargo run --release -q -p bench --bin regress -- bench_baseline.txt
fi

echo
echo "stage timings:"
for i in "${!stage_names[@]}"; do
    printf '  %3ss  %s\n' "${stage_secs[$i]}" "${stage_names[$i]}"
done
echo "CI gate passed."
