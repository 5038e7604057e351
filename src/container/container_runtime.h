// Container-based consolidation front end (paper §2.1, §3.3).
//
// The paper runs every benchmark in its own Linux container: a cgroup
// cpuset pinning the threads to dedicated cores plus a resctrl group for
// the partitioning state. ContainerRuntime reproduces that surface over the
// simulated machine: `Run` launches a workload on dedicated cores inside a
// named container with its own resctrl group; `Stop` tears both down.
//
// The CoPart ResourceManager can manage containerized apps directly — like
// the real prototype, it re-binds the tasks to its own per-app groups while
// adapting (the container's group remains, simply empty of tasks).
#ifndef COPART_CONTAINER_CONTAINER_RUNTIME_H_
#define COPART_CONTAINER_CONTAINER_RUNTIME_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "machine/app_id.h"
#include "machine/simulated_machine.h"
#include "resctrl/resctrl.h"

namespace copart {

struct ContainerInfo {
  std::string name;
  AppId app;
  ResctrlGroupId group;
  uint32_t cpus = 0;
  std::string workload_name;
};

// Point-in-time resource usage of one container.
struct ContainerStats {
  double ips = 0.0;
  double llc_occupancy_bytes = 0.0;
  double memory_bandwidth_bytes_per_sec = 0.0;
  std::string schemata;
};

class ContainerRuntime {
 public:
  ContainerRuntime(SimulatedMachine* machine, Resctrl* resctrl);

  // Launches `workload` in a new container with `cpus` dedicated cores.
  // Fails on duplicate names, core exhaustion, CLOS exhaustion (each
  // container owns a resctrl group) or a failed resctrl write; a failed Run
  // leaves no app or group behind.
  Result<ContainerInfo> Run(const std::string& name,
                            const WorkloadDescriptor& workload, uint32_t cpus);

  // Terminates the container's app and removes its group. When the group
  // removal fails the container stays listed (its app already stopped), and
  // a later Stop retries the removal.
  Status Stop(const std::string& name);

  Result<ContainerInfo> Find(const std::string& name) const;
  std::vector<ContainerInfo> List() const;

  // Live stats from the machine's counters and the group's monitoring
  // files. CHECK-fails on an unknown name (use Find to probe existence).
  ContainerStats Stats(const std::string& name) const;

 private:
  SimulatedMachine* machine_;  // Not owned.
  Resctrl* resctrl_;           // Not owned.
  std::vector<ContainerInfo> containers_;
};

}  // namespace copart

#endif  // COPART_CONTAINER_CONTAINER_RUNTIME_H_
