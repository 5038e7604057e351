#include "container/container_runtime.h"

#include "common/logging.h"

namespace copart {

ContainerRuntime::ContainerRuntime(SimulatedMachine* machine,
                                   Resctrl* resctrl)
    : machine_(machine), resctrl_(resctrl) {
  CHECK_NE(machine, nullptr);
  CHECK_NE(resctrl, nullptr);
}

Result<ContainerInfo> ContainerRuntime::Run(const std::string& name,
                                            const WorkloadDescriptor& workload,
                                            uint32_t cpus) {
  if (name.empty()) {
    return InvalidArgumentError("container name must not be empty");
  }
  for (const ContainerInfo& container : containers_) {
    if (container.name == name) {
      return AlreadyExistsError("container already exists: " + name);
    }
  }
  Result<AppId> app = machine_->LaunchApp(workload, cpus);
  if (!app.ok()) {
    return app.status();
  }
  Result<ResctrlGroupId> group = resctrl_->CreateGroup("container_" + name);
  Status status = group.status();
  if (status.ok()) {
    status = resctrl_->AssignApp(*group, *app);
    if (!status.ok()) {
      (void)resctrl_->RemoveGroup(*group);  // Best effort.
    }
  }
  if (!status.ok()) {
    // Roll back the launch so a CLOS-exhausted runtime or a transient
    // resctrl fault fails this Run without leaving an orphan app.
    Status terminated = machine_->TerminateApp(*app);
    CHECK(terminated.ok()) << terminated.ToString();
    return status;
  }

  ContainerInfo info{.name = name,
                     .app = *app,
                     .group = *group,
                     .cpus = cpus,
                     .workload_name = workload.name};
  containers_.push_back(info);
  return info;
}

Status ContainerRuntime::Stop(const std::string& name) {
  for (size_t i = 0; i < containers_.size(); ++i) {
    if (containers_[i].name == name) {
      // A Stop retried after a failed group removal finds the app gone and
      // only retries the removal.
      if (machine_->AppExists(containers_[i].app)) {
        RETURN_IF_ERROR(machine_->TerminateApp(containers_[i].app));
      }
      RETURN_IF_ERROR(resctrl_->RemoveGroup(containers_[i].group));
      containers_.erase(containers_.begin() + static_cast<ptrdiff_t>(i));
      return Status::Ok();
    }
  }
  return NotFoundError("no such container: " + name);
}

Result<ContainerInfo> ContainerRuntime::Find(const std::string& name) const {
  for (const ContainerInfo& container : containers_) {
    if (container.name == name) {
      return container;
    }
  }
  return NotFoundError("no such container: " + name);
}

std::vector<ContainerInfo> ContainerRuntime::List() const {
  return containers_;
}

ContainerStats ContainerRuntime::Stats(const std::string& name) const {
  Result<ContainerInfo> info = Find(name);
  CHECK(info.ok()) << info.status().ToString();
  const AppEpochSnapshot& epoch = machine_->LastEpoch(info->app);
  ContainerStats stats;
  stats.ips = epoch.ips;
  stats.llc_occupancy_bytes = epoch.effective_capacity_bytes;
  stats.memory_bandwidth_bytes_per_sec =
      epoch.llc_misses_per_sec * machine_->config().llc.line_bytes;
  // Report the schemata of the group the app is *currently* bound to (the
  // CoPart manager may have re-grouped it).
  stats.schemata =
      resctrl_->ReadSchemata(ResctrlGroupId(machine_->AppClos(info->app)));
  return stats;
}

}  // namespace copart
