#include "harness/experiment.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "core/resource_manager.h"
#include "core/static_policy.h"
#include "core/ucp_policy.h"
#include "harness/static_oracle.h"
#include "metrics/fairness.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"

namespace copart {
namespace {

// A factory for the registry policy `registry_name`, reported as `label`.
PolicyFactory RegistryFactory(std::string label,
                              ResourceManagerParams params,
                              std::string registry_name) {
  params.partition_policy = std::move(registry_name);
  return [label = std::move(label), params](const SimulatedMachine&,
                                            const std::vector<AppId>&,
                                            const ResourcePool&) {
    return ExperimentPolicy{
        label, params, MakePartitionPolicy(params.partition_policy, params)};
  };
}

}  // namespace

ExperimentResult RunExperiment(const WorkloadMix& mix,
                               const PolicyFactory& factory,
                               const ExperimentConfig& config) {
  CHECK(!mix.apps.empty());
  const uint32_t cores =
      config.cores_per_app > 0 ? config.cores_per_app
                               : config.machine.num_cores /
                                     static_cast<uint32_t>(mix.apps.size());
  CHECK_GE(cores, 1u);

  SimulatedMachine machine(config.machine);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);

  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : mix.apps) {
    Result<AppId> app = machine.LaunchApp(descriptor, cores);
    CHECK(app.ok()) << app.status().ToString();
    apps.push_back(*app);
  }

  ExperimentPolicy policy = factory(machine, apps, config.pool);
  ResourceManager manager(&resctrl, &monitor, policy.params,
                          std::move(policy.policy));
  manager.SetObservability(config.obs);
  manager.SetResourcePool(config.pool);
  ExperimentResult result;
  for (AppId app : apps) {
    if (!manager.AddApp(app).ok()) {
      // Refused (way/CLOS budget, or a failed admission write): the app
      // keeps running in the default group, unpartitioned.
      ++result.unmanaged_apps;
    }
  }

  const int periods = static_cast<int>(
      std::llround(config.duration_sec / config.control_period_sec));
  for (int period = 0; period < periods; ++period) {
    machine.AdvanceTime(config.control_period_sec);
    manager.Tick();
  }

  result.policy_name = policy.name;
  result.mix_name = mix.name;
  const double elapsed = machine.now();
  for (size_t i = 0; i < apps.size(); ++i) {
    result.app_names.push_back(mix.apps[i].short_name);
    const double avg_ips = machine.Counters(apps[i]).instructions / elapsed;
    result.avg_ips.push_back(avg_ips);
    result.solo_full_ips.push_back(
        machine.SoloFullResourceIps(mix.apps[i], cores));
    result.slowdowns.push_back(
        Slowdown(result.solo_full_ips.back(), avg_ips));
  }
  result.unfairness = Unfairness(result.slowdowns);
  result.throughput_geomean = GeoMeanThroughput(result.avg_ips);
  result.avg_exploration_us = manager.exploration_time_stats().mean();
  manager.ExportMetrics(ObsMetrics(config.obs));
  return result;
}

PolicyFactory EqFactory() { return RegistryFactory("EQ", {}, "eq"); }

PolicyFactory NoPartFactory() {
  return RegistryFactory("NoPart", {}, "nopart");
}

PolicyFactory CoPartFactory(ResourceManagerParams params) {
  return RegistryFactory("CoPart", std::move(params), "copart");
}

PolicyFactory CatOnlyFactory(ResourceManagerParams params) {
  return RegistryFactory("CAT-only", std::move(params), "cat-only");
}

PolicyFactory MbaOnlyFactory(ResourceManagerParams params) {
  return RegistryFactory("MBA-only", std::move(params), "mba-only");
}

PolicyFactory StaticOracleFactory() {
  return [](const SimulatedMachine& machine, const std::vector<AppId>& apps,
            const ResourcePool& pool) {
    // Serial: the factory can run inside a parallel replication fan-out,
    // where a nested parallel region is rejected.
    StaticOracleResult oracle = FindStaticOracleState(
        machine, apps, pool, ParallelConfig{.num_threads = 1});
    return ExperimentPolicy{"ST", {},
                            std::make_unique<StaticPartitionPolicy>(
                                "st", std::move(oracle.best_state))};
  };
}

PolicyFactory UcpFactory() {
  return [](const SimulatedMachine& machine, const std::vector<AppId>& apps,
            const ResourcePool& pool) {
    return ExperimentPolicy{"UCP", {},
                            std::make_unique<StaticPartitionPolicy>(
                                "ucp", ComputeUcpAllocation(machine, apps,
                                                            pool))};
  };
}

PolicyFactory DcatFactory() { return RegistryFactory("dCat", {}, "dcat"); }

PolicyFactory PartitionPolicyFactory(ResourceManagerParams params) {
  std::string name =
      params.partition_policy.empty() ? "copart" : params.partition_policy;
  return RegistryFactory(name, std::move(params), name);
}

std::vector<std::pair<std::string, PolicyFactory>> StandardPolicies() {
  return {{"EQ", EqFactory()},
          {"ST", StaticOracleFactory()},
          {"CAT-only", CatOnlyFactory()},
          {"MBA-only", MbaOnlyFactory()},
          {"CoPart", CoPartFactory()}};
}

}  // namespace copart
