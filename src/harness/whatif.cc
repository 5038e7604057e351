#include "harness/whatif.h"

#include "cache/way_mask.h"
#include "common/logging.h"
#include "core/ucp_policy.h"
#include "machine/simulated_machine.h"
#include "metrics/fairness.h"

namespace copart {
namespace {

MachineConfig NoiseFreeConfig(const MachineConfig& machine_config) {
  MachineConfig config = machine_config;
  config.ips_noise_sigma = 0.0;
  return config;
}

}  // namespace

WhatIfEvaluator::WhatIfEvaluator(
    const std::vector<WorkloadDescriptor>& workloads,
    const MachineConfig& machine_config, uint32_t cores_per_app)
    : machine_(NoiseFreeConfig(machine_config)) {
  CHECK(!workloads.empty());
  app_names_.reserve(workloads.size());
  apps_.reserve(workloads.size());
  solo_full_ips_.reserve(workloads.size());
  for (size_t i = 0; i < workloads.size(); ++i) {
    const uint32_t cores =
        cores_per_app > 0 ? cores_per_app : workloads[i].num_threads;
    Result<AppId> app = machine_.LaunchApp(workloads[i], cores);
    CHECK(app.ok()) << app.status().ToString();
    apps_.push_back(*app);
    machine_.AssignAppToClos(*app, static_cast<uint32_t>(i + 1));
    app_names_.push_back(workloads[i].short_name);
    solo_full_ips_.push_back(machine_.SoloFullResourceIps(workloads[i], cores));
    has_phases_ = has_phases_ || !workloads[i].phases.empty();
  }
  baseline_ = machine_.Snapshot();
}

void WhatIfEvaluator::EvaluateInto(const SystemState& state,
                                   WhatIfOutcome* outcome) {
  CHECK_EQ(state.NumApps(), apps_.size());
  CHECK(state.Valid()) << state.ToString();
  // The solve is a pure function of (masks, MBA, membership, phase params):
  // for phase-free workloads the clock and counters drifting across
  // evaluations cannot affect it, so candidates are applied directly on top
  // of the previous one. The value-comparing mutators then leave untouched
  // CLOSes clean, and a candidate differing only in MBA levels — the common
  // move in coordinate-descent searches — takes the machine's cheap
  // bandwidth-tier partial solve. With phased workloads the inputs do
  // depend on the clock, so roll back to the baseline to pin every
  // evaluation at the same instant.
  if (has_phases_) {
    machine_.Restore(baseline_);
  }
  const uint32_t num_ways = machine_.config().llc.num_ways;
  for (size_t i = 0; i < apps_.size(); ++i) {
    const uint32_t clos = static_cast<uint32_t>(i + 1);
    Result<WayMask> mask = WayMask::FromBits(state.WayMaskBits(i), num_ways);
    CHECK(mask.ok()) << mask.status().ToString();
    machine_.SetClosWayMask(clos, *mask);
    machine_.SetClosMbaLevel(clos, state.allocation(i).mba_level);
  }

  // The analytic model is memoryless: one epoch is the steady state.
  machine_.AdvanceTime(0.1);
  outcome->app_names = app_names_;
  outcome->solo_full_ips = solo_full_ips_;
  outcome->predicted_ips.resize(apps_.size());
  outcome->slowdowns.resize(apps_.size());
  for (size_t i = 0; i < apps_.size(); ++i) {
    const double ips = machine_.LastEpoch(apps_[i]).ips;
    outcome->predicted_ips[i] = ips;
    outcome->slowdowns[i] = Slowdown(solo_full_ips_[i], ips);
  }
  outcome->unfairness = Unfairness(outcome->slowdowns);
  outcome->throughput_geomean = GeoMeanThroughput(outcome->predicted_ips);
}

SystemState WhatIfEvaluator::UcpAllocation(const ResourcePool& pool) const {
  return ComputeUcpAllocation(machine_, apps_, pool);
}

WhatIfOutcome WhatIfEvaluator::Evaluate(const SystemState& state) {
  WhatIfOutcome outcome;
  EvaluateInto(state, &outcome);
  return outcome;
}

WhatIfOutcome PredictOutcome(const std::vector<WorkloadDescriptor>& workloads,
                             const SystemState& state,
                             const MachineConfig& machine_config,
                             uint32_t cores_per_app) {
  WhatIfEvaluator evaluator(workloads, machine_config, cores_per_app);
  return evaluator.Evaluate(state);
}

WhatIfOutcome PredictEqualShareOutcome(
    const std::vector<WorkloadDescriptor>& workloads,
    const ResourcePool& pool, const MachineConfig& machine_config,
    uint32_t cores_per_app) {
  return PredictOutcome(workloads,
                        SystemState::EqualShare(pool, workloads.size()),
                        machine_config, cores_per_app);
}

WhatIfOutcome PredictUcpOutcome(
    const std::vector<WorkloadDescriptor>& workloads,
    const ResourcePool& pool, const MachineConfig& machine_config,
    uint32_t cores_per_app) {
  WhatIfEvaluator evaluator(workloads, machine_config, cores_per_app);
  return evaluator.Evaluate(evaluator.UcpAllocation(pool));
}

}  // namespace copart
