#include "cluster/cluster.h"

#include <limits>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "harness/whatif.h"
#include "obs/metrics_registry.h"
#include "metrics/fairness.h"

namespace copart {

ClusterNode::ClusterNode(std::string name,
                         const MachineConfig& machine_config,
                         const ResourceManagerParams& manager_params,
                         bool manage)
    : name_(std::move(name)),
      manage_(manage),
      machine_(machine_config),
      resctrl_(&machine_),
      monitor_(&machine_),
      manager_(&resctrl_, &monitor_, manager_params) {}

Result<AppId> ClusterNode::Admit(const WorkloadDescriptor& workload,
                                 uint32_t cores) {
  Result<AppId> app = machine_.LaunchApp(workload, cores);
  if (!app.ok()) {
    return app.status();
  }
  if (!manage_) {
    return app;  // Unmanaged node: the app shares the default group.
  }
  Status added = manager_.AddApp(*app);
  if (!added.ok()) {
    RollbackLaunch(*app);
    return added;
  }
  return app;
}

Result<AppId> ClusterNode::AdmitLatencyCritical(
    const WorkloadDescriptor& workload, uint32_t cores,
    const LcAppModel& model) {
  Result<AppId> app = machine_.LaunchApp(workload, cores);
  if (!app.ok()) {
    return app.status();
  }
  if (!manage_) {
    return app;
  }
  Status registered = manager_.SetLatencyCriticalApp(*app, model);
  if (!registered.ok()) {
    RollbackLaunch(*app);
    return registered;
  }
  return app;
}

void ClusterNode::RollbackLaunch(AppId app) {
  FaultInjector* injector = machine_.config().fault_injector;
  Status terminated =
      injector != nullptr &&
              injector->ShouldFail(fault_points::kClusterAdmitRollback)
          ? UnavailableError("injected: admit rollback terminate")
          : machine_.TerminateApp(app);
  if (!terminated.ok()) {
    // A CHECK here would take down the whole fleet over one zombie. The
    // app was never accepted by the manager; park it on a quarantine list
    // (it squats on its cores until the node reboots) and let the caller
    // see the original admit error.
    quarantined_apps_.push_back(app);
    LOG_WARNING << name_ << ": admit rollback could not terminate app "
                << app.value() << ", quarantined: " << terminated.ToString();
  }
}

Status ClusterNode::Evict(AppId app) {
  if (manage_) {
    Status removed = manager_.RemoveApp(app);
    // LC apps are not in the batch set; their CLOS is reaped on the next
    // tick once the machine-level terminate below lands. Any other error is
    // real and aborts the eviction.
    if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
      return removed;
    }
  }
  return machine_.TerminateApp(app);
}

void ClusterNode::Tick(double dt) {
  machine_.AdvanceTime(dt);
  if (manage_) {
    manager_.Tick();
  }
}

std::vector<WorkloadDescriptor> ClusterNode::ResidentWorkloads() const {
  std::vector<WorkloadDescriptor> workloads;
  for (AppId app : machine_.ListApps()) {
    WorkloadDescriptor descriptor = machine_.Descriptor(app);
    // Report the cores actually granted, not the descriptor's default, so
    // what-if predictions model this node as it really runs.
    descriptor.num_threads = machine_.AppCores(app);
    workloads.push_back(std::move(descriptor));
  }
  return workloads;
}

std::vector<double> ClusterNode::CurrentSlowdowns() const {
  std::vector<double> slowdowns;
  for (AppId app : machine_.ListApps()) {
    const double ips = machine_.LastEpoch(app).ips;
    if (ips > 0.0) {
      slowdowns.push_back(Slowdown(machine_.SoloIps(app), ips));
    }
  }
  return slowdowns;
}

double ClusterNode::CurrentUnfairness() const {
  const std::vector<double> slowdowns = CurrentSlowdowns();
  return Unfairness(slowdowns);
}

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstFit:
      return "first-fit";
    case PlacementPolicy::kLeastLoaded:
      return "least-loaded";
    case PlacementPolicy::kWhatIfBest:
      return "what-if-best";
    case PlacementPolicy::kCount:
      break;
  }
  return "?";
}

ClusterNode* Cluster::AddNode(const std::string& name,
                              const MachineConfig& machine_config,
                              const ResourceManagerParams& manager_params,
                              bool manage) {
  nodes_.push_back(std::make_unique<ClusterNode>(name, machine_config,
                                                 manager_params, manage));
  return nodes_.back().get();
}

ClusterNode* Cluster::PickNode(const WorkloadDescriptor& workload,
                               uint32_t cores, PlacementPolicy policy) {
  std::vector<ClusterNode*> feasible;
  for (const std::unique_ptr<ClusterNode>& node : nodes_) {
    if (node->FreeCores() >= cores &&
        node->machine().ListApps().size() + 1 <=
            node->machine().config().llc.num_ways) {  // One way per app.
      feasible.push_back(node.get());
    }
  }
  if (feasible.empty()) {
    return nullptr;
  }
  switch (policy) {
    case PlacementPolicy::kFirstFit:
      return feasible.front();
    case PlacementPolicy::kLeastLoaded: {
      ClusterNode* best = feasible.front();
      for (ClusterNode* node : feasible) {
        if (node->FreeCores() > best->FreeCores()) {
          best = node;
        }
      }
      return best;
    }
    case PlacementPolicy::kWhatIfBest: {
      // Predict the equal-share outcome of each node's resident set plus
      // the candidate; prefer the lowest (unfairness, mean slowdown) pair.
      // One what-if prediction per feasible node, fanned out in parallel:
      // each score reads only its own node and simulates on private
      // machine clones inside PredictUcpOutcome.
      const std::vector<double> scores = ParallelMap<double>(
          parallel_, feasible.size(),
          [&](size_t f) {
            ClusterNode* node = feasible[f];
            const ResourcePool pool{
                .first_way = 0,
                .num_ways = node->machine().config().llc.num_ways,
                .max_mba_percent = 100};
            auto total_slowdown = [&](const std::vector<WorkloadDescriptor>&
                                          workloads) {
              // Predict under a UCP-optimized split — the node runs CoPart,
              // so the relevant outcome is post-partitioning, not
              // equal-share. cores_per_app 0: each job keeps its actual
              // core count.
              const WhatIfOutcome outcome =
                  PredictUcpOutcome(workloads, pool,
                                    node->machine().config(),
                                    /*cores_per_app=*/0);
              double sum = 0.0;
              for (double slowdown : outcome.slowdowns) {
                sum += slowdown;
              }
              return sum;
            };
            // Marginal harm of the placement: how much total slowdown the
            // newcomer adds (its own + what it inflicts on the residents).
            // Scoring absolute levels instead would make every job flee
            // the node that already hosts a slow app even when colocating
            // there is harmless. A small slack term breaks ties toward
            // emptier nodes so "free" insensitive jobs do not consume the
            // capacity a future cache-hungry arrival will need.
            std::vector<WorkloadDescriptor> with = node->ResidentWorkloads();
            const double before = with.empty() ? 0.0 : total_slowdown(with);
            WorkloadDescriptor candidate = workload;
            candidate.num_threads = cores;
            with.push_back(std::move(candidate));
            const double marginal_harm = total_slowdown(with) - before;
            const double used_fraction_after =
                1.0 -
                static_cast<double>(node->FreeCores() - cores) /
                    static_cast<double>(node->machine().config().num_cores);
            return marginal_harm + 0.05 * used_fraction_after;
          },
          &whatif_stats_);
      // Reduce in node order: ties keep the earliest feasible node, as the
      // serial loop always did.
      ClusterNode* best = nullptr;
      double best_score = std::numeric_limits<double>::infinity();
      for (size_t f = 0; f < feasible.size(); ++f) {
        if (scores[f] < best_score) {
          best_score = scores[f];
          best = feasible[f];
        }
      }
      return best;
    }
  }
  return nullptr;
}

Result<Placement> Cluster::Submit(const WorkloadDescriptor& workload,
                                  uint32_t cores, PlacementPolicy policy) {
  CHECK(!nodes_.empty()) << "cluster has no nodes";
  ClusterNode* node = PickNode(workload, cores, policy);
  if (node == nullptr) {
    ++placements_rejected_;
    return ResourceExhaustedError("no node can host " + workload.name);
  }
  Result<AppId> app = node->Admit(workload, cores);
  if (!app.ok()) {
    ++placements_rejected_;
    return app.status();
  }
  const size_t slot = static_cast<size_t>(policy);
  CHECK_LT(slot, placement_counts_.size());
  ++placement_counts_[slot];
  return Placement{node, *app};
}

void Cluster::Tick(double dt) {
  for (const std::unique_ptr<ClusterNode>& node : nodes_) {
    node->Tick(dt);
  }
}

double Cluster::MeanNodeUnfairness() const {
  if (nodes_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  size_t counted = 0;
  for (const std::unique_ptr<ClusterNode>& node : nodes_) {
    if (node->NumJobs() >= 2) {
      sum += node->CurrentUnfairness();
      ++counted;
    }
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

uint64_t Cluster::placements(PlacementPolicy policy) const {
  const size_t slot = static_cast<size_t>(policy);
  CHECK_LT(slot, placement_counts_.size());
  return placement_counts_[slot];
}

void Cluster::ExportMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) {
    return;
  }
  for (const std::unique_ptr<ClusterNode>& node : nodes_) {
    const std::string prefix = "copart.cluster." + node->name();
    metrics->GetGauge(prefix + ".unfairness")->Set(node->CurrentUnfairness());
    metrics->GetGauge(prefix + ".jobs")
        ->Set(static_cast<double>(node->NumJobs()));
    metrics->GetGauge(prefix + ".free_cores")
        ->Set(static_cast<double>(node->FreeCores()));
  }
  metrics->GetGauge("copart.cluster.mean_unfairness")
      ->Set(MeanNodeUnfairness());
  for (size_t p = 0; p < static_cast<size_t>(PlacementPolicy::kCount); ++p) {
    const PlacementPolicy policy = static_cast<PlacementPolicy>(p);
    metrics
        ->GetCounter(std::string("copart.cluster.placements.") +
                     PlacementPolicyName(policy))
        ->Increment(placements(policy));
  }
  metrics->GetCounter("copart.cluster.placements.rejected")
      ->Increment(placements_rejected_);
}

std::vector<double> Cluster::AllSlowdowns() const {
  std::vector<double> slowdowns;
  for (const std::unique_ptr<ClusterNode>& node : nodes_) {
    const std::vector<double> node_slowdowns = node->CurrentSlowdowns();
    slowdowns.insert(slowdowns.end(), node_slowdowns.begin(),
                     node_slowdowns.end());
  }
  return slowdowns;
}

}  // namespace copart
