#include "cluster/cluster.h"

#include "common/fault_injector.h"
#include "common/logging.h"
#include "metrics/fairness.h"

namespace copart {

ClusterNode::ClusterNode(std::string name,
                         const MachineConfig& machine_config,
                         const ResourceManagerParams& manager_params)
    : name_(std::move(name)),
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
  Status added = manager_.AddApp(*app);
  if (!added.ok()) {
    RollbackLaunch(*app);
    return added;
  }
  ReserveRoom(slowdowns_, machine_.NumApps());
  return app;
}

Result<AppId> ClusterNode::AdmitLatencyCritical(
    const WorkloadDescriptor& workload, uint32_t cores,
    const LcAppModel& model) {
  Result<AppId> app = machine_.LaunchApp(workload, cores);
  if (!app.ok()) {
    return app.status();
  }
  Status registered = manager_.SetLatencyCriticalApp(*app, model);
  if (!registered.ok()) {
    RollbackLaunch(*app);
    return registered;
  }
  ReserveRoom(slowdowns_, machine_.NumApps());
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
  // Terminate first, so the manager's removal sees the machine's final app
  // generation and the departure starts one adaptation, not two. A failed
  // terminate leaves the manager untouched.
  RETURN_IF_ERROR(machine_.TerminateApp(app));
  // An LC app is not in the batch set (kNotFound here); the manager reaps
  // its CLOS on its next tick, as it would any app that died under it.
  (void)manager_.RemoveApp(app);
  return Status::Ok();
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

void ClusterNode::CurrentSlowdownsInto(std::vector<double>* slowdowns) const {
  slowdowns->clear();
  for (size_t i = 0; i < machine_.NumApps(); ++i) {
    const double ips = machine_.LastEpochAt(i).ips;
    if (ips > 0.0) {
      slowdowns->push_back(Slowdown(machine_.SoloIpsAt(i), ips));
    }
  }
}

std::vector<double> ClusterNode::CurrentSlowdowns() const {
  std::vector<double> slowdowns;
  CurrentSlowdownsInto(&slowdowns);
  return slowdowns;
}

double ClusterNode::CurrentUnfairness() {
  CurrentSlowdownsInto(&slowdowns_);
  return Unfairness(slowdowns_);
}

}  // namespace copart
