#!/usr/bin/env bash
# Tier-1 gate plus the instrumentation feature matrix.
#
# The structured-event trace (scc-hw's `trace` cargo feature) claims to be
# zero-cost when disabled: the same call sites compile in both
# configurations, with `TraceRing` collapsing to a zero-sized type. That
# claim only holds while both halves of the matrix keep building, so CI
# exercises default and `--features trace` on every run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: default features =="
cargo build --release
cargo test -q

echo "== clippy: workspace, default features =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy: workspace, trace feature =="
cargo clippy --workspace --all-targets \
    --features scc-hw/trace,scc-kernel/trace,scc-mailbox/trace,metalsvm/trace,scc-bench/trace,scc-explore/trace,integration-tests/trace \
    -- -D warnings

echo "== trace feature: release build =="
cargo build --release --features trace \
    -p scc-hw -p scc-kernel -p scc-mailbox -p metalsvm \
    -p scc-bench -p integration-tests

echo "== trace feature: tests (ring + shadow-clock identity) =="
cargo test -q --features trace -p scc-hw
cargo test -q --features trace -p integration-tests --test instrumentation

# The parallel conservative executor (host_fast.parallel, DESIGN.md §8)
# must replay the serial baton schedule bit for bit. The shadow suite runs
# both executors on every workload; crossing it with the trace feature also
# compares the per-core event rings event for event.
echo "== parallel executor: shadow suite, default features =="
cargo test -q -p integration-tests --test parallel_shadow

echo "== parallel executor: shadow suite, trace feature =="
cargo test -q --features trace -p integration-tests --test parallel_shadow

# The epoch engine's determinism must hold regardless of how many host
# threads actually run simulated cores: SCC_PAR_HOST_THREADS gates the
# number of concurrently running cores (DESIGN.md §8), and each cap
# produces different host interleavings of the demoted fast paths. The
# conflict stress suite runs alongside because contended same-object races
# are where a cap-dependent bug would surface first.
for threads in 2 4; do
    echo "== parallel executor: shadow + stress, SCC_PAR_HOST_THREADS=$threads =="
    SCC_PAR_HOST_THREADS=$threads cargo test -q -p integration-tests \
        --test parallel_shadow --test parallel_stress
done

# The svm-check consistency checker (DESIGN.md §9). The test suite covers
# both halves of its story: with the trace feature every clean app must be
# finding-free and every buggy fixture must yield exactly its planted
# finding (online sink and offline replay agreeing); without it the
# checker must be a perfect no-op.
echo "== svmcheck: checker suite, trace feature =="
cargo test -q --features trace -p integration-tests --test checker
cargo test -q -p scc-checker

echo "== svmcheck: checker suite, no-op without the trace feature =="
cargo test -q -p integration-tests --test checker

# End-to-end offline path: trace the clean 48-core Laplace run and every
# buggy fixture, then re-parse the logs with the svmcheck binary. The
# Laplace log must be clean; each fixture log must contain exactly its
# planted finding.
echo "== svmcheck: offline gate over captured traces =="
# One traced svmbench build serves every traced harness below.
cargo build -q --release --features trace -p scc-bench --bin svmbench
cargo build -q --release -p scc-checker --bin svmcheck
./target/release/svmbench trace_laplace --quick
./target/release/svmbench trace_fixture
./target/release/svmcheck results/TRACE_laplace.log
./target/release/svmcheck --expect stale-read results/TRACE_stale_read.log
./target/release/svmcheck --expect grant-by-non-owner results/TRACE_forged_grant.log
./target/release/svmcheck --expect unreleased-lock results/TRACE_unreleased_lock.log
./target/release/svmcheck --expect release-not-held results/TRACE_double_release.log
./target/release/svmcheck --expect acquire-without-invalidate results/TRACE_acquire_no_invalidate.log
./target/release/svmcheck --expect release-without-flush results/TRACE_release_no_flush.log

# The svm-kv service (DESIGN.md §13): the partitioned key-value store
# over SVM with mailbox RPC. The crate suite runs the service end to end
# on the simulated cluster (reply validation, sealed-partition rejection,
# seed-reproducibility); the cross-crate suite holds the latency
# histogram to its error bound against a naive model and diffs serial vs
# parallel-executor runs bit for bit. The traced smoke then proves the
# instrumentation free, checks every detector online, and re-parses the
# exported protocol log with the svmcheck binary — a clean kv run under
# strong + LRC partitions must stay finding-free offline too.
echo "== svm-kv: service suite =="
cargo test -q -p scc-kv
cargo test -q -p integration-tests --test kv

echo "== svm-kv: traced smoke + svmcheck offline gate =="
./target/release/svmbench trace_kv --quick
./target/release/svmcheck results/TRACE_kv.log

# Schedule exploration + fault injection (DESIGN.md §10). The smoke sweep
# runs the whole registry on fixed budgets: clean apps must stay clean
# under the baton, sampled random seeds and a dropped-doorbell fault plan
# (recovering via mbx.retries); all eight planted bugs — six checker
# fixtures plus the two schedule-sensitive ones — must be found and shrunk
# to replay files that re-trigger. Exit status 0 is exactly that gate.
echo "== svmexplore: schedule/fault exploration smoke =="
cargo build -q --release --features trace -p scc-explore --bin svmexplore
./target/release/svmexplore --seeds 24 --out results \
    --json results/EXPLORE_summary.json

echo "== svmexplore: explorer suite, both feature halves =="
cargo test -q --features trace -p integration-tests --test explore
cargo test -q -p integration-tests --test explore
cargo test -q -p scc-explore

# Coverage-guided schedule fuzzing (DESIGN.md §16). The bounded smoke
# campaign must find both planted schedule bugs, keep every clean app
# free of false findings, and beat the blind sweep on total executions
# to find them — `--bench` asserts all of that plus the 64-core leg
# (corpus growth, zero false findings on 8x8x1:4) and exits non-zero
# otherwise. Fixed seed, ≤200 executions per app; the whole leg is
# seconds. The property/determinism suites ride along: fault-plan
# round-trips, counter windows, and the two-process reproducibility
# check (which spawns the svmfuzz binary itself).
echo "== svmfuzz: fuzzing suite, both feature halves =="
cargo test -q --features trace -p scc-explore
cargo test -q -p scc-explore

echo "== svmfuzz: bounded smoke + blind-sweep benchmark (scc48 + mesh64) =="
cargo build -q --release --features trace -p scc-explore --bin svmfuzz
./target/release/svmfuzz --execs 200 --seed 2 --out results \
    --json results/FUZZ_summary.json
./target/release/svmfuzz --bench results/BENCH_fuzz.json --execs 40 --seed 2 \
    --out results

# Configurable topology (DESIGN.md §11). The machine shape is a runtime
# parameter; the suites above all ran the scc48 preset via the default.
# These legs re-run the determinism-critical suites on non-SCC shapes:
# the serial/parallel shadow comparison and the consistency checker on
# the 128-core 8x8 mesh, and the schedule/fault exploration smoke on a
# 64-core single-core-per-tile mesh. A topology-dependent assumption
# (fixed 48-core tables, 64-bit core masks, hardcoded hop counts) fails
# these legs even while every scc48 leg stays green.
echo "== topology: parallel shadow suite on mesh8x8 (128 cores) =="
SCC_TOPOLOGY=mesh8x8 cargo test -q -p integration-tests --test parallel_shadow

echo "== topology: checker suite on mesh8x8 (128 cores), trace feature =="
SCC_TOPOLOGY=mesh8x8 cargo test -q --features trace -p integration-tests --test checker

echo "== topology: svmexplore smoke on a 64-core 8x8 mesh =="
SCC_TOPOLOGY=8x8x1:4 ./target/release/svmexplore --seeds 8 --out results \
    --json results/EXPLORE_mesh64.json

# Topology-aware collectives (DESIGN.md §12). CollMode::Tree is the
# default, so every suite above already exercised the MPB-tree barrier;
# these legs make the comparison explicit. The agreement suite pins both
# modes in-config (barrier-only apps bit-identical, f64 sums within
# rounding); the mesh8x8 legs then re-run the determinism-critical
# suites with SCC_COLL=tree spelled out — serial/parallel bit-identity
# and svm-check cleanliness on the tree path at 128 cores — plus one
# SCC_COLL=flat shadow leg so the escape hatch stays honest.
echo "== collectives: flat-vs-tree agreement suite =="
cargo test -q -p integration-tests --test collectives

echo "== collectives: mesh8x8 shadow suite, SCC_COLL=tree =="
SCC_TOPOLOGY=mesh8x8 SCC_COLL=tree cargo test -q -p integration-tests \
    --test parallel_shadow

echo "== collectives: mesh8x8 checker suite, SCC_COLL=tree, trace feature =="
SCC_TOPOLOGY=mesh8x8 SCC_COLL=tree cargo test -q --features trace \
    -p integration-tests --test checker

echo "== collectives: scc48 shadow suite, SCC_COLL=flat (escape hatch) =="
SCC_COLL=flat cargo test -q -p integration-tests --test parallel_shadow

# The 512-core acceptance: Laplace on the full mesh16x32 preset must
# complete under the serial AND the parallel executor bit-identically,
# with svm-check clean over both runs' event streams (the machine is big
# enough that the SVM layer runs its sharded per-MC directories). Release
# profile: four 512-core runs are minutes of CPU without optimisation,
# hence the #[ignore] on the test in the dev-profile suite above.
echo "== topology: 512-core mesh16x32 Laplace acceptance (release, trace) =="
cargo test --release --features trace -p integration-tests \
    --test topology_scale -- --ignored

echo "ci/check.sh: all green"
