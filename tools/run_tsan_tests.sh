#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs them.
#
# Usage: tools/run_tsan_tests.sh [build-dir]
#
# The parallel sweep engine is the only multi-threaded code in the tree, so
# this focuses on the tests that exercise it: the pool/ParallelFor unit
# tests, the cross-thread-count determinism suite, the golden sweep, and
# the RNG splitter. Set COPART_SANITIZE=address via -DCOPART_SANITIZE in a
# separate build dir for an ASan/UBSan pass instead.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCOPART_SANITIZE=thread

TESTS=(
  # Compiled miss-ratio curves are interned process-wide and their sub-grid
  # memo fills lazily; the fleet's node workers reach both concurrently.
  cache_compiled_mrc_test
  # The fleet controller ticks hundreds of nodes on the pool every epoch
  # and scores placement and migration candidates with a parallel what-if
  # fan-out (cluster_test runs the placement one at 4 threads); the
  # chaos suite additionally fans 200 whole fleet schedules out on the
  # outer pool. Both must stay race-free and thread-count-invariant.
  cluster_test
  cluster_chaos_test
  common_parallel_test
  common_rng_test
  core_chaos_property_test
  # Sensing: the accuracy harness fans its A/B cells out on the pool, and
  # the sensing chaos suite drives noisy PMCs + resctrl faults through the
  # hardened control loop; both must stay race-free. The determinism suite
  # below also pins the sensing comparison byte-identical across thread
  # counts.
  core_classifier_accuracy_test
  core_sensing_chaos_test
  # Partition policies: the conformance suite pins thread-count invariance
  # of the policy A/B harness, the policy chaos suite fans 100 fault
  # schedules per rival policy out on the pool, and the A/B golden suite is
  # the serialized cross-thread contract.
  core_policy_conformance_test
  core_policy_chaos_test
  harness_policy_ab_golden_test
  # SLO governors: the governor A/B harness fans scenario x governor cells
  # out on the pool (learned-governor state is per-cell, never shared), the
  # chaos floor property runs every registered governor under fault
  # schedules, and the surrogate suites back the scenarios the A/B grid is
  # built from. The determinism suite below also pins the A/B JSON + CSV
  # byte-identical across thread counts.
  slo_governor_test
  core_slo_property_test
  harness_governor_ab_golden_test
  serve_queue_model_test
  workload_phases_test
  harness_determinism_test
  harness_golden_test
  harness_heatmap_test
  harness_replication_test
  # The serve harness fans the three comparison cells out on the pool and
  # must stay race-free; its golden suite is the cross-thread contract.
  harness_serve_test
  harness_static_oracle_test
  # Epoch fast-path invariants (incremental tick tiers, snapshot/rollback
  # bit-identity): the machine itself is single-threaded, but the oracle and
  # determinism suites drive it from pool workers, so the kernel-config
  # equivalence must hold under TSan instrumentation too.
  machine_incremental_test
  machine_snapshot_test
  # Observability: the SPSC trace ring and the tracer's per-thread ring
  # registration are lock-free code on the sweep workers' hot path, and the
  # chaos-audit suite drives them through the full hardened control loop.
  obs_audit_golden_test
  obs_chaos_audit_test
  obs_metrics_registry_test
  obs_trace_export_test
  obs_trace_ring_test
)

cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

FILTER="$(IFS='|'; echo "${TESTS[*]}")"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -R "^(${FILTER})$"
