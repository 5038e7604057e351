// Randomized fault-schedule ("chaos") harness for the hardened controller.
//
// Each schedule builds a consolidated machine, lets the resource manager
// converge, then unleashes a storm: a random subset of the substrate's
// fault points (resctrl group operations, schemata writes, PMC reads) is
// armed with random probabilities and burst lengths, optionally alongside
// app churn. Every control period a set of safety invariants is asserted:
//
//   - the manager's system state stays structurally valid,
//   - every applied way mask is non-empty and contiguous (the CAT rule),
//   - every live admitted app stays accounted for by the manager,
//   - after the storm clears, the manager leaves the degraded phase.
//
// Everything derives deterministically from the schedule seed, so a failing
// schedule is reported by seed and replays bit-for-bit (the determinism
// contract of common/parallel.h; the suite fans out one schedule per cell).
// Exercised by tests/core_chaos_property_test.cc and `copartctl chaos`.
#ifndef COPART_HARNESS_CHAOS_H_
#define COPART_HARNESS_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/obs.h"

namespace copart {

struct ChaosScheduleConfig {
  uint64_t seed = 0;

  // Phase lengths, in control periods.
  int warmup_periods = 30;    // Fault-free convergence before the storm.
  int storm_periods = 80;     // Faults armed (and apps churning).
  int recovery_periods = 240;  // Faults cleared; the manager must recover.

  // Consolidation size range (inclusive).
  int min_apps = 2;
  int max_apps = 5;

  // Randomly terminate / launch apps during the storm.
  bool allow_app_churn = true;

  double control_period_sec = 0.5;

  // Optional observability bundle for THIS schedule (audit log + trace of
  // the hardened manager, fault-injector hit counts absorbed into the
  // metrics at the end). Not owned; null = off. Suite fan-outs must give
  // each cell its own bundle — see the RunChaosSuite metrics overload.
  Observability* obs = nullptr;
};

struct ChaosScheduleResult {
  uint64_t seed = 0;
  bool passed = false;
  std::string failure;        // First violated invariant; empty when passed.
  int failure_period = -1;    // Global period index of the violation.

  // Telemetry aggregated over the run (for suite-level sanity assertions).
  uint64_t injected_failures = 0;
  uint64_t actuation_failures = 0;
  uint64_t rollbacks = 0;
  uint64_t degraded_entries = 0;
  // Control periods that began in the degraded phase.
  uint64_t degraded_ticks = 0;
  uint64_t degraded_recoveries = 0;
  uint64_t quarantines = 0;
  bool ended_degraded = false;
};

// Runs one schedule to completion. Deterministic in config.seed.
ChaosScheduleResult RunChaosSchedule(const ChaosScheduleConfig& config);

struct ChaosSuiteConfig {
  uint64_t base_seed = 0xC0CA05ULL;
  int num_schedules = 200;
  // Template for every schedule; its seed is overwritten per index.
  ChaosScheduleConfig schedule;
};

struct ChaosSuiteResult {
  int num_schedules = 0;
  int num_passed = 0;
  std::vector<ChaosScheduleResult> failures;  // Failing schedules only.

  // Aggregates across all schedules (passed and failed).
  uint64_t injected_failures = 0;
  uint64_t actuation_failures = 0;
  uint64_t rollbacks = 0;
  uint64_t degraded_entries = 0;
  uint64_t degraded_ticks = 0;
  uint64_t degraded_recoveries = 0;
  uint64_t quarantines = 0;
};

// Fans the schedules out across the pool (one cell per schedule, seeded by
// index — bit-identical for every thread count) and aggregates.
ChaosSuiteResult RunChaosSuite(const ChaosSuiteConfig& config,
                               const ParallelConfig& parallel);

// Same fan-out, additionally collecting per-cell metrics: each schedule
// gets a private MetricsRegistry (manager counters + fault-injector hit
// counts) and the registries are merged into `metrics` serially in cell
// index order — the same reduction discipline as every other sweep, so the
// merged registry is bit-identical for every thread count. `metrics` may
// be null (degenerates to the plain overload).
ChaosSuiteResult RunChaosSuite(const ChaosSuiteConfig& config,
                               const ParallelConfig& parallel,
                               MetricsRegistry* metrics);

}  // namespace copart

#endif  // COPART_HARNESS_CHAOS_H_
