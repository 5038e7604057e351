// Partition-policy A/B harness (DESIGN.md §14).
//
// Runs per-app CoPart and the clustered LFOC / LFOC+ / CBP rivals
// (core/partition_policy.h) — or any other registered policies — over the
// same scenarios and reports the three headline metrics side by side:
// unfairness (Eq. 2), throughput (geomean IPS), and the SLO-violation
// rate (fraction of apps slowed beyond a threshold). Scenarios are the
// paper's seven mix families plus a many-apps consolidation (48 single-core
// apps on a 64-core box with 16 CLOSes) that per-app CoPart structurally
// cannot cover — its way/CLOS admission leaves most of the apps unmanaged,
// which the table surfaces via the `unmanaged` column.
//
// Cells fan out across ParallelConfig threads with the usual determinism
// contract (each cell depends only on its index; reduction is serial in
// index order), so the serialized result is bit-identical for every
// --threads value — pinned by tests/harness_policy_ab_golden_test.cc and
// the conformance suite.
#ifndef COPART_HARNESS_POLICY_AB_H_
#define COPART_HARNESS_POLICY_AB_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "harness/experiment.h"
#include "harness/mix.h"

namespace copart {

struct PolicyAbScenario {
  std::string name;
  WorkloadMix mix;
  MachineConfig machine;
  ResourcePool pool{.first_way = 0, .num_ways = 11, .max_mba_percent = 100};
  // 0 = derive from machine cores / mix size (RunExperiment's rule).
  uint32_t cores_per_app = 0;
};

struct PolicyAbConfig {
  // Registry names to compare; defaults to CoPart and its three rivals
  // (the baselines are registered too, but the A/B leaves them out).
  std::vector<std::string> policies{"copart", "lfoc", "lfoc+", "cbp"};
  // The paper's seven mix families at `paper_mix_app_count` apps each.
  bool include_paper_mixes = true;
  size_t paper_mix_app_count = 6;
  // App count of the many-apps scenario; 0 disables it.
  size_t many_apps = 48;
  double duration_sec = 50.0;
  double control_period_sec = 0.5;
  // An app counts as SLO-violating when its Eq. 1 slowdown exceeds this.
  double slo_slowdown_threshold = 2.0;
  ParallelConfig parallel;
};

struct PolicyAbCell {
  std::string scenario;
  std::string policy;
  size_t num_apps = 0;
  // Apps the policy's admission refused (ran unmanaged in CLOS 0).
  size_t unmanaged_apps = 0;
  double unfairness = 0.0;
  double throughput_geomean = 0.0;
  // Fraction of apps with slowdown > slo_slowdown_threshold.
  double slo_violation_rate = 0.0;
};

struct PolicyAbResult {
  std::vector<PolicyAbCell> cells;  // Scenario-major, policy-minor order.
  SweepStats stats;
};

// The 48-on-64-core consolidation: the Table 2 roster cycled app_count
// times, one core each, on a machine scaled to 4x the paper box (64 cores,
// 112 GB/s) but with the same 11-way LLC and 16 CLOSes — capacity and CLOS
// count are exactly what commodity parts do NOT scale with core count.
PolicyAbScenario ManyAppsScenario(size_t app_count = 48);

// The scenario list RunPolicyAb executes for `config`.
std::vector<PolicyAbScenario> PolicyAbScenarios(const PolicyAbConfig& config);

// Runs |scenarios| x |policies| cells across config.parallel threads.
PolicyAbResult RunPolicyAb(const PolicyAbConfig& config);

// Full-precision (%.17g) serialization, the golden/determinism surface.
std::string PolicyAbToJson(const PolicyAbResult& result);

// Aligned table plus a verdict line for the many-apps scenario.
void PrintPolicyAbTable(const PolicyAbResult& result, std::FILE* out = stdout);

}  // namespace copart

#endif  // COPART_HARNESS_POLICY_AB_H_
