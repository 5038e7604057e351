// Experiment runner: executes a workload mix under a resource allocation
// policy for a fixed duration and reports the paper's metrics.
//
// Methodology mirrors §3.3/§6.1: each mix runs for `duration_sec` (50 s in
// the paper); per-app IPS is instructions executed over the whole run
// divided by the duration (profiling/exploration transients included, as on
// real hardware); Slowdown_i uses the machine's solo-full-resource IPS as
// the Eq. 1 reference; Unfairness is Eq. 2; throughput is the geometric
// mean of per-app IPS (Fig. 17).
#ifndef COPART_HARNESS_EXPERIMENT_H_
#define COPART_HARNESS_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/copart_params.h"
#include "core/partition_policy.h"
#include "core/system_state.h"
#include "harness/mix.h"
#include "machine/app_id.h"
#include "machine/machine_config.h"
#include "machine/simulated_machine.h"
#include "obs/obs.h"

namespace copart {

struct ExperimentConfig {
  MachineConfig machine;
  ResourcePool pool{.first_way = 0, .num_ways = 11, .max_mba_percent = 100};
  double duration_sec = 50.0;
  double control_period_sec = 0.5;
  // Cores per app; 0 = derive from the mix size (16 / count).
  uint32_t cores_per_app = 0;
  // Fan-out width for sweeps built on top of RunExperiment (the replication
  // matrix and the figure benches). A single experiment's control loop is
  // inherently sequential and ignores this.
  ParallelConfig parallel;
  // Optional observability bundle (DESIGN.md §8): attached to the resource
  // manager that drives the policy — every policy, baselines included —
  // and the manager's metrics are exported into it when the run ends. Not
  // owned; null = observability off.
  Observability* obs = nullptr;
};

// What a PolicyFactory hands RunExperiment: the label the result reports,
// the driver's parameters, and the policy the driver runs.
struct ExperimentPolicy {
  std::string name;
  ResourceManagerParams params;
  std::unique_ptr<PartitionPolicy> policy;
};

// Creates the policy once the apps are launched (ST and UCP derive their
// state from the machine and the apps).
using PolicyFactory = std::function<ExperimentPolicy(
    const SimulatedMachine& machine, const std::vector<AppId>& apps,
    const ResourcePool& pool)>;

struct ExperimentResult {
  std::string policy_name;
  std::string mix_name;
  std::vector<std::string> app_names;
  std::vector<double> avg_ips;        // Whole-run per-app IPS.
  std::vector<double> solo_full_ips;  // Eq. 1 reference.
  std::vector<double> slowdowns;
  double unfairness = 0.0;
  double throughput_geomean = 0.0;
  // Mean getNextSystemState wall time (0 for static policies) — Fig. 16.
  double avg_exploration_us = 0.0;
  // Apps the manager refused to admit: they ran unpartitioned in the
  // default group. Per-app policies hit this past their way/CLOS budget or
  // when admission's resctrl writes fail; clustered policies admit every
  // app unless the binding write fails.
  size_t unmanaged_apps = 0;
};

// Runs `mix` under the policy produced by `factory`, driven by one
// ResourceManager over the whole-run pool.
ExperimentResult RunExperiment(const WorkloadMix& mix,
                               const PolicyFactory& factory,
                               const ExperimentConfig& config);

// Standard policy factories, keyed by the paper's names.
PolicyFactory EqFactory();
PolicyFactory NoPartFactory();
PolicyFactory CoPartFactory(ResourceManagerParams params = {});
PolicyFactory CatOnlyFactory(ResourceManagerParams params = {});
PolicyFactory MbaOnlyFactory(ResourceManagerParams params = {});
// ST: runs the offline search (harness/static_oracle.h) once the apps are
// launched, against a noise-free clone of the machine.
PolicyFactory StaticOracleFactory();
// UCP: the miss-minimizing utility-based partitioner (core/ucp_policy.h) —
// an extension baseline beyond the paper's four.
PolicyFactory UcpFactory();
// dCat: the feedback-driven dynamic LLC-only partitioner
// (core/dcat_policy.h), distilled from the paper's closest related work.
PolicyFactory DcatFactory();

// The registry policy named by params.partition_policy (see
// core/partition_policy.h), reported under that name. Like every factory,
// admission failures leave apps unmanaged in the default group
// (ExperimentResult::unmanaged_apps) instead of aborting, so per-app CoPart
// can be A/B'd on scenarios past its CLOS budget.
PolicyFactory PartitionPolicyFactory(ResourceManagerParams params);

// The paper's five policies in Fig. 12 order: EQ, ST, CAT-only, MBA-only,
// CoPart.
std::vector<std::pair<std::string, PolicyFactory>> StandardPolicies();

}  // namespace copart

#endif  // COPART_HARNESS_EXPERIMENT_H_
