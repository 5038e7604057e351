// One server of the fleet (cluster/fleet.h): a SimulatedMachine with its
// own Resctrl, PerfMonitor and ResourceManager.
//
// The manager runs whichever PartitionPolicy its ResourceManagerParams
// name. CoPart is the default; a node that should not partition runs the
// "nopart" policy, where every app shares the full LLC at MBA 100 exactly
// as on a bare machine. Which node a job lands on is the fleet's decision
// (FleetParams::placement).
#ifndef COPART_CLUSTER_CLUSTER_H_
#define COPART_CLUSTER_CLUSTER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/resource_manager.h"
#include "slo/slo_governor.h"
#include "machine/simulated_machine.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {

namespace fault_points {
// The machine-level terminate of a half-admitted app fails during the
// Admit() rollback path — the app is quarantined as a zombie instead of
// taking the node (and the fleet above it) down.
inline constexpr std::string_view kClusterAdmitRollback =
    "cluster.admit.rollback_terminate";
}  // namespace fault_points

class ClusterNode {
 public:
  ClusterNode(std::string name, const MachineConfig& machine_config,
              const ResourceManagerParams& manager_params);

  // Launches the job and hands it to this node's manager.
  Result<AppId> Admit(const WorkloadDescriptor& workload, uint32_t cores);

  // Launches a latency-critical job and registers it with the node's SLO
  // governor instead of the batch fairness set (requires the manager to run
  // with params.slo.enabled).
  Result<AppId> AdmitLatencyCritical(const WorkloadDescriptor& workload,
                                     uint32_t cores, const LcAppModel& model);

  // Evicts a resident job (batch or latency-critical; the manager reaps an
  // LC app's CLOS on its next tick after the machine-level terminate).
  Status Evict(AppId app);

  const std::string& name() const { return name_; }
  uint32_t FreeCores() const { return machine_.FreeCores(); }
  size_t NumJobs() const { return manager_.NumApps(); }
  // Workload descriptors of everything currently resident.
  std::vector<WorkloadDescriptor> ResidentWorkloads() const;

  // Ground-truth metrics from the machine model: every resident's Eq. 1
  // slowdown over the last epoch (apps that have not run yet are skipped),
  // and their Eq. 2 unfairness. CurrentUnfairness reuses a buffer of this
  // node's, so the per-tick call does not allocate.
  std::vector<double> CurrentSlowdowns() const;
  double CurrentUnfairness();

  SimulatedMachine& machine() { return machine_; }
  const SimulatedMachine& machine() const { return machine_; }
  ResourceManager& manager() { return manager_; }

  // Apps whose Admit() rollback could not terminate them: the manager never
  // accepted them, the machine-level kill failed, and they now squat on
  // their cores until the node is rebooted. Accounted for by the fleet's
  // conservation invariant (DESIGN.md §13).
  const std::vector<AppId>& quarantined_apps() const {
    return quarantined_apps_;
  }

 private:
  // Terminates a half-admitted app; quarantines it if the kill fails.
  void RollbackLaunch(AppId app);
  // Writes CurrentSlowdowns() into `*slowdowns`.
  void CurrentSlowdownsInto(std::vector<double>* slowdowns) const;

  std::string name_;
  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  ResourceManager manager_;
  std::vector<AppId> quarantined_apps_;
  // CurrentUnfairness's slowdowns.
  std::vector<double> slowdowns_;
};

}  // namespace copart

#endif  // COPART_CLUSTER_CLUSTER_H_
