// What-if analysis: predict the consequences of a candidate allocation for
// a set of workloads without running a live experiment.
//
// A consolidation operator (or an outer scheduler choosing colocations)
// often wants "if I put these apps together under this partitioning, who
// slows down and by how much?". PredictOutcome builds a noise-free machine
// clone, applies the candidate SystemState, solves one epoch, and returns
// per-app slowdowns plus the unfairness and aggregate throughput — the
// same evaluator the offline ST search uses internally, exposed as a
// library surface (and as `copartctl`'s oracle/compare data source).
// For scoring *many* candidate states over one fixed set of workloads
// (placement oracles, neighbor searches), WhatIfEvaluator amortizes the
// machine construction: it launches the workloads once and evaluates each
// candidate by applying its partitioning + one epoch — O(apps) per
// candidate instead of O(machine construction + profiling), bit-identical
// to PredictOutcome.
#ifndef COPART_HARNESS_WHATIF_H_
#define COPART_HARNESS_WHATIF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/system_state.h"
#include "machine/machine_config.h"
#include "machine/simulated_machine.h"
#include "workload/workload.h"

namespace copart {

struct WhatIfOutcome {
  std::vector<std::string> app_names;
  std::vector<double> predicted_ips;
  std::vector<double> solo_full_ips;
  std::vector<double> slowdowns;
  double unfairness = 0.0;
  double throughput_geomean = 0.0;
};

// Predicts the steady-state outcome of running `workloads` under `state`.
// The state must cover exactly workloads.size() apps and be Valid().
// cores_per_app = 0 (the default) gives each app its descriptor's own
// num_threads; a positive value overrides uniformly.
WhatIfOutcome PredictOutcome(const std::vector<WorkloadDescriptor>& workloads,
                             const SystemState& state,
                             const MachineConfig& machine_config = {},
                             uint32_t cores_per_app = 0);

// Convenience: the equal-share outcome for a quick colocation sanity check.
WhatIfOutcome PredictEqualShareOutcome(
    const std::vector<WorkloadDescriptor>& workloads,
    const ResourcePool& pool, const MachineConfig& machine_config = {},
    uint32_t cores_per_app = 0);

// Outcome under a miss-minimizing UCP way split (core/ucp_policy.h) at the
// pool's MBA ceiling — a cheap proxy for what a converged dynamic
// partitioner (CoPart) will reach on the node, and therefore the right
// basis for placement decisions (the fleet's what-if-best placement and
// its migration planner, cluster/fleet.h).
WhatIfOutcome PredictUcpOutcome(
    const std::vector<WorkloadDescriptor>& workloads,
    const ResourcePool& pool, const MachineConfig& machine_config = {},
    uint32_t cores_per_app = 0);

// Reusable evaluator for scoring many candidate allocations over a fixed
// set of workloads. Construction launches the workloads once on a noise-free
// machine and computes the solo-full references; each Evaluate() applies the
// candidate state and solves one epoch. For phase-free workloads candidates
// apply directly on top of the previous one (the solve is a pure function of
// the partitioning inputs, so the drifting clock is irrelevant), which lets
// a candidate differing only in MBA levels reuse the machine's cached
// capacity fixed point — the dominant move in coordinate-descent searches.
// Phased workloads roll back to a baseline Snapshot() first so every
// candidate is scored at the same instant. Results are bit-identical to
// PredictOutcome on the same inputs; EvaluateInto is allocation-free once
// the outcome vectors reach steady size.
class WhatIfEvaluator {
 public:
  explicit WhatIfEvaluator(const std::vector<WorkloadDescriptor>& workloads,
                           const MachineConfig& machine_config = {},
                           uint32_t cores_per_app = 0);

  // Predicts the steady-state outcome of `state`, which must cover exactly
  // NumApps() apps and be Valid().
  WhatIfOutcome Evaluate(const SystemState& state);
  void EvaluateInto(const SystemState& state, WhatIfOutcome* outcome);

  // The UCP way split of this evaluator's apps within `pool`
  // (ComputeUcpAllocation reads only descriptors, cores and the config).
  SystemState UcpAllocation(const ResourcePool& pool) const;

  size_t NumApps() const { return apps_.size(); }

 private:
  SimulatedMachine machine_;
  std::vector<std::string> app_names_;
  std::vector<AppId> apps_;
  std::vector<double> solo_full_ips_;
  bool has_phases_ = false;
  MachineSnapshot baseline_;
};

}  // namespace copart

#endif  // COPART_HARNESS_WHATIF_H_
