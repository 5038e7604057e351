// Request-serving scenario harness (paper §6.3 on the serve engine).
//
// Couples src/serve's discrete-event LC servers to the epoch simulator and
// a partitioning policy: each control period the harness feeds every LC
// app's offered load to the policy, advances the machine one epoch, and
// serves the epoch's arrivals at the service rate implied by the app's
// effective IPS under its current CLOS mask + MBA level. Every mode runs
// one ResourceManager, ticked once per control period:
//
//   kCopartSlo   — params.slo.enabled: the SLO governor sizes each LC
//                  slice (ways first, then batch MBA protection) and CoPart
//                  runs fairness allocation for the batch apps over the
//                  remaining pool.
//   kEqualShare  — the "eq" policy: one static equal split of the whole
//                  machine across all apps (LC apps first, then batch), MBA
//                  throttled evenly.
//   kNoPart      — the "nopart" policy: one shared full-pool group at MBA
//                  100, bit-identical to every app in CLOS 0.
//
// The static modes admit the LC apps like batch apps. An app whose
// admission is refused keeps running unmanaged in the default group.
//
// Everything is seed-deterministic: LC server streams are forked from the
// scenario seed by LC index, and RunServeComparison's per-mode fan-out
// follows the parallel sweep determinism contract, so results (and the
// exported CSV/trace/audit/metrics artifacts) are bit-identical across
// --threads.
#ifndef COPART_HARNESS_SERVE_H_
#define COPART_HARNESS_SERVE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/copart_params.h"
#include "machine/machine_config.h"
#include "obs/obs.h"
#include "serve/arrival.h"
#include "workload/workload.h"

namespace copart {

enum class ServeMode { kCopartSlo, kEqualShare, kNoPart };

const char* ServeModeName(ServeMode mode);

// One latency-critical surrogate: a workload descriptor plus its open-loop
// arrival trace and queue parameters. SLO and per-request instruction
// demand default to the descriptor's values when left at 0.
struct ServeLcSpec {
  WorkloadDescriptor workload;
  uint32_t cores = 8;
  ArrivalConfig arrival;
  double slo_p95_ms = 0.0;               // 0 = workload.slo_p95_ms.
  double instructions_per_request = 0.0; // 0 = workload default.
  bool exponential_service = true;
  size_t queue_capacity = 1 << 16;
  // When true, the SLO governor's capability model is measured rather than
  // analytic: each candidate way width is scored by a what-if epoch solve
  // (harness/whatif.h's snapshot/rollback evaluator) with the LC slice at
  // that width against the colocated batch set. Slower to set up, but the
  // model then sees the same contention physics the machine will apply.
  bool whatif_capability = false;
};

struct ServeBatchSpec {
  WorkloadDescriptor workload;
  uint32_t cores = 4;
};

struct ServeScenarioConfig {
  MachineConfig machine;
  double duration_sec = 60.0;
  double control_period_sec = 0.1;
  uint64_t seed = 42;
  std::vector<ServeLcSpec> lc_apps;     // 1-2 surrogates.
  std::vector<ServeBatchSpec> batch_apps;
  ServeMode mode = ServeMode::kCopartSlo;
  // slo.enabled is forced on in CoPart mode and off in the static modes,
  // which also override partition_policy.
  ResourceManagerParams copart_params;
  // Optional observability bundle: the manager's audit records and the
  // serve metrics land here. Not owned; null = off.
  Observability* obs = nullptr;
};

// One control period's telemetry, tracking the primary LC app (index 0).
struct ServeSample {
  double time = 0.0;
  double offered_rps = 0.0;   // Measured arrivals / dt.
  double p95_ms = 0.0;        // This epoch's completions (0 when none).
  double p99_ms = 0.0;
  uint64_t queue_depth = 0;
  uint32_t lc_ways = 0;       // Ways in the LC app's CLOS mask.
  // The batch pool's MBA ceiling under SLO; the batch apps' CLOS MBA level
  // in the static modes.
  uint32_t batch_max_mba = 100;
  double batch_unfairness = 0.0;
  std::string phase;          // CoPart phase name, or the mode name.
};

// Run-level aggregate for one LC app.
struct ServeLcResult {
  std::string name;
  double slo_p95_ms = 0.0;
  uint64_t arrivals = 0;
  uint64_t completions = 0;
  uint64_t drops = 0;
  uint64_t queue_depth_end = 0;
  // Percentiles of the cumulative sojourn-time sketch over the whole run.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  // Fraction of epochs violating the SLO (epoch p95 above the SLO, or a
  // stalled epoch: zero completions with requests waiting).
  double slo_violation_fraction = 0.0;
};

struct ServeScenarioResult {
  ServeMode mode = ServeMode::kCopartSlo;
  std::vector<ServeSample> samples;
  std::vector<ServeLcResult> lc;
  // Mean of the per-epoch instantaneous batch unfairness samples.
  double mean_batch_unfairness = 0.0;
  // Whole-run batch unfairness (Eq. 1/Eq. 2 over run-average IPS) — directly
  // comparable with harness/experiment.h's ExperimentResult::unfairness.
  double run_batch_unfairness = 0.0;
  uint64_t copart_adaptations = 0;  // 0 in the static modes.
  uint64_t slo_resizes = 0;
};

// Predicted LC service capacity (IPS) with `ways` LLC ways at MBA 100,
// using the same CPI model as the machine — what a Heracles-style manager
// would fit from its own profiling. Shared by the serve harness and the
// SLO governor models it builds.
double PredictLcCapabilityIps(const WorkloadDescriptor& lc, uint32_t lc_cores,
                              uint32_t ways, const MachineConfig& machine);

ServeScenarioResult RunServeScenario(const ServeScenarioConfig& config);

// Runs the same scenario under all three modes (CoPart cell first; the
// config's mode field is ignored). `config.obs` is attached only to the
// CoPart cell. `parallel` fans the three cells out; results are
// bit-identical for every thread count.
struct ServeComparisonResult {
  ServeScenarioResult copart;
  ServeScenarioResult equal_share;
  ServeScenarioResult no_part;
};
ServeComparisonResult RunServeComparison(const ServeScenarioConfig& config,
                                         const ParallelConfig& parallel = {});

// Canonical full-precision (%.17g) serialization of a comparison — the
// byte-exact surface pinned by tests/golden/serve_golden.json and checked
// by `copartctl governors` before trusting the extracted threshold
// governor. Every 10th sample of each mode's trajectory is included.
std::string SerializeServeComparison(const ServeComparisonResult& comparison);

// Per-period CSV (header + one row per sample) for plotting.
Status WriteServeCsv(const ServeScenarioResult& result,
                     const std::string& path);

// The §6.3 serving scenario: one memcached surrogate (8 cores) against the
// Word Count and Kmeans batch surrogates (4 cores each), driven by a burst
// trace whose peak exceeds what EqualShare and NoPart can serve within the
// 1 ms p95 SLO but stays within the SLO governor's reach.
ServeScenarioConfig Section63ServeScenario();

// The Fig. 15 case study (§6.3): the same three apps for 400 s at a 0.5 s
// control period. The offered load steps from 75 to 150 krps at t = 99.4 s
// and back at t = 299.4 s; batch MBA protection engages above 100 krps.
ServeScenarioConfig Fig15ServeScenario();

}  // namespace copart

#endif  // COPART_HARNESS_SERVE_H_
