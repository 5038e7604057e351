// Fault-tolerant fleet serving: hundreds of CoPart nodes behind one front
// door, with failure domains, admission control, overload shedding, and
// live job migration.
//
// The paper partitions one server; the fleet layer runs the datacenter of
// them that the ROADMAP targets, where the hard problems are robustness
// problems — nodes crash, degrade, and drift into unfairness their local
// CoPart cannot fix ("SLO beyond the Hardware Isolation Limits",
// arxiv 2109.11666). The pieces:
//
//   FleetController — owns N ClusterNodes, ticks them in PARALLEL via
//       common/parallel (each node only touches its own state; every
//       control decision is reduced serially in node-index order
//       afterwards, so results are bit-identical at any --threads).
//   Front door      — Submit() applies admission control (fleet-wide
//       utilization ceiling + per-node reserve) and places by
//       FleetParams::placement (first-fit, least-loaded or what-if-best)
//       among healthy nodes; refusals are *shed*, and every shed is
//       accounted for by the conservation invariant.
//   Fault domains   — three seeded node-level fault points
//       (fleet.node.{crash,slow,blackout}, common/fault_injector.h):
//       crash loses the node's jobs and reboots it empty after a recovery
//       window; slow stretches the node's time; blackout freezes its
//       controller. Drawn once per node per epoch on the serial control
//       thread, so schedules replay bit-for-bit from the injector seed.
//   HealthMonitor   — per-node trailing unfairness streaks drive overload
//       shedding (persistent, unfixable unfairness) and migration
//       triggers (persistent but fixable elsewhere).
//   MigrationPlanner — picks the most-harmed job on an unhealthy node and
//       scores candidate target nodes with the what-if model
//       (harness/whatif.h, riding the snapshot/rollback fast path); the
//       move runs drain -> re-admit -> verify -> rollback-on-failure, with
//       every step audited (obs/audit_log.h, AuditKind::kMigration).
//
// Job-conservation invariant, checked every epoch:
//
//   submitted == resident + completed + shed + lost_to_crash
//
// together with no-double-admission (a job is resident on exactly one
// node) and a per-node census (machine app count == resident jobs +
// quarantined zombies). Violations are counted and the first one is
// recorded; the chaos suite (tests/cluster_chaos_test.cc) pins all three
// across 200 seeded fault schedules.
//
// Every pass that visits jobs walks the live list, the ascending ids of
// the resident jobs, rather than the whole job ledger, so an epoch costs
// what the live fleet costs and not what its history does. A job joins the
// list at admission. Once it goes terminal it leaves at the next invariant
// check, which tallies it once by the state it ended in; the conservation
// buckets are those tallies plus the live residents. A terminal state is
// final.
#ifndef COPART_CLUSTER_FLEET_H_
#define COPART_CLUSTER_FLEET_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/fault_injector.h"
#include "common/parallel.h"
#include "common/status.h"
#include "machine/machine_config.h"
#include "obs/obs.h"
#include "workload/workload.h"

namespace copart {

struct WhatIfOutcome;

// One job submitted to the fleet front door.
struct FleetJobSpec {
  WorkloadDescriptor workload;
  uint32_t cores = 2;
  // Controller epochs until the job finishes on its own; 0 = runs forever.
  int lifetime_epochs = 0;
  // Latency-critical jobs register with the target node's SLO governor
  // (requires FleetParams::manager.slo.enabled) instead of the batch
  // fairness set, and keep the governor's way floor wherever they land.
  bool latency_critical = false;
  double offered_rps = 0.0;   // LC offered load (requests/s).
  double slo_p95_ms = 0.0;    // 0 = workload.slo_p95_ms.
};

enum class JobState : uint8_t {
  kResident,   // Running on exactly one node (possibly mid-verify).
  kCompleted,  // Ran its lifetime and was evicted cleanly.
  kShed,       // Refused at admission or dropped by overload shedding.
  kLost,       // Died with its node's crash.
};

const char* JobStateName(JobState state);

using FleetJobId = uint64_t;

struct FleetJob {
  FleetJobSpec spec;
  JobState state = JobState::kResident;
  int node = -1;  // Resident node index; -1 once terminal.
  AppId app;
  uint64_t admit_epoch = 0;
  int epochs_resident = 0;
  int migrations = 0;  // Completed + rolled-back moves of this job.
  // Live-migration verify window: the job just moved from
  // migration_source and must beat predicted_unfairness on its new node
  // within verify_remaining epochs or be rolled back.
  bool verifying = false;
  int verify_remaining = 0;
  int migration_source = -1;
  double predicted_unfairness = 0.0;
  // Source's measured unfairness when the move was planned — the verify
  // pass also accepts any target clearly better than this.
  double source_unfairness_at_plan = 0.0;
};

enum class NodeHealth : uint8_t { kAlive, kDown };

// How the front door picks among the nodes that can host a job.
enum class PlacementPolicy {
  kFirstFit,     // The lowest-index node.
  kLeastLoaded,  // The node with the most free cores.
  kWhatIfBest,   // The node where the what-if model (harness/whatif.h)
                 // predicts the job adds the least total slowdown.
};

const char* PlacementPolicyName(PlacementPolicy policy);

// Per-node runtime state kept by the fleet's health monitor. Written only
// by the serial control phases and (unfairness/fault_active) by the node's
// own parallel tick cell.
struct FleetNodeStatus {
  NodeHealth health = NodeHealth::kAlive;
  int down_epochs_remaining = 0;      // Crash recovery countdown.
  int slow_epochs_remaining = 0;      // Degraded-time window.
  int blackout_epochs_remaining = 0;  // Controller-blackout window.
  int unhealthy_streak = 0;           // Epochs above the migrate threshold.
  int shed_streak = 0;                // Epochs above the shed threshold.
  int migration_cooldown = 0;
  uint64_t reboots = 0;  // Incarnation counter (seeds fork per reboot).
  double unfairness = 0.0;    // Sampled after the last tick.
  bool fault_active = false;  // Slow or blacked out during the last tick.
};

struct FleetParams {
  uint64_t seed = 0xF1EE7ULL;
  // Per-node templates; each node's machine/manager seeds are forked from
  // `seed` by (node index, incarnation), so a rebooted node gets a fresh
  // but deterministic stream.
  MachineConfig machine;
  ResourceManagerParams manager;
  double control_period_sec = 0.5;

  // --- Admission control (front door) ---
  // Refuse new jobs when the alive fleet's core utilization is at or above
  // this ceiling (headroom for the next crash wave), or when no healthy
  // node can host the job with `node_reserve_cores` still free after it.
  // Otherwise `placement` picks among the nodes that can.
  double admission_max_core_utilization = 0.95;
  uint32_t node_reserve_cores = 0;
  PlacementPolicy placement = PlacementPolicy::kLeastLoaded;

  // --- Per-node overload shedding ---
  // A node whose unfairness stays above this for shed_trend_window epochs
  // is beyond what partitioning or migration can fix: drop its newest
  // batch job instead of letting every resident suffer.
  double shed_unfairness_threshold = 0.60;
  int shed_trend_window = 12;

  // --- Health monitor + live migration ---
  double migrate_unfairness_threshold = 0.35;
  int migrate_trend_window = 6;
  int migration_cooldown_epochs = 16;  // Per source/target node.
  size_t max_migrations_per_epoch = 2;
  // What-if scoring fan-out: only the this-many least-loaded feasible
  // targets are predicted (one PredictUcpOutcome per candidate).
  size_t max_target_candidates = 8;
  // Verify window: measured target unfairness must come in at or below
  // predicted * verify_margin + verify_slack, and the target must stay
  // fault-free, or the move is rolled back to the source node.
  int verify_window_epochs = 6;
  double verify_margin = 1.25;
  double verify_slack = 0.02;

  // --- Fault domains ---
  int crash_recovery_epochs = 20;  // Down time before the empty reboot.
  int fault_window_epochs = 12;    // Length of slow/blackout episodes.
  double slow_factor = 0.25;       // Degraded node's time dilation.

  // Fan-out for the parallel node ticks and what-if scoring (placement
  // and migration). Scores reduce in node order, so every decision is the
  // same at any thread count.
  ParallelConfig parallel;
  // Node fault domains (fleet.node.* points). Not owned; null = no faults.
  FaultInjector* injector = nullptr;
  // Migration/node-fault audit records + fleet metrics. Not owned.
  Observability* obs = nullptr;
};

// Cumulative fleet counters. The conservation invariant ties the job
// counters together; the chaos suite asserts it never breaks.
struct FleetCounters {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed_admission = 0;
  uint64_t shed_overload = 0;
  uint64_t shed_migration = 0;  // Stranded by a failed move/rollback.
  uint64_t lost_to_crash = 0;
  uint64_t crashes = 0;
  uint64_t reboots = 0;
  uint64_t slow_episodes = 0;
  uint64_t blackout_episodes = 0;
  uint64_t migrations_planned = 0;
  uint64_t migrations_completed = 0;  // Verified on the target node.
  uint64_t migration_rollbacks = 0;   // Verified-failed, moved back.
  uint64_t migration_failures = 0;    // Drain/admit path failed outright.
  uint64_t conservation_checks = 0;
  uint64_t invariant_violations = 0;

  uint64_t shed_total() const {
    return shed_admission + shed_overload + shed_migration;
  }
};

class FleetController {
 public:
  FleetController(size_t num_nodes, const FleetParams& params);

  // Front door: places `spec` on the best healthy node, or sheds it
  // (kResourceExhausted) under admission control. Every submission —
  // admitted or shed — is recorded and counted by the invariant.
  Result<FleetJobId> Submit(const FleetJobSpec& spec);

  // One fleet control period: fault draws -> parallel node ticks -> health
  // update -> completions -> shedding -> migration verify/plan -> invariant
  // check. Bit-identical for every parallel.num_threads.
  void RunEpoch();

  // Externally injected crash (the scenario harness's crash waves). All
  // resident jobs are lost; the node reboots empty after the recovery
  // window. No-op on a node that is already down.
  void CrashNode(size_t node_index);

  size_t NumNodes() const { return nodes_.size(); }
  ClusterNode* node(size_t index) { return nodes_[index].get(); }
  const FleetNodeStatus& node_status(size_t index) const {
    return status_[index];
  }
  size_t AliveNodes() const;
  size_t ResidentJobs() const;

  const std::vector<FleetJob>& jobs() const { return jobs_; }
  const FleetCounters& counters() const { return counters_; }
  uint64_t epoch() const { return epoch_; }
  // Alive-node ticks executed so far (the bench's node-ticks/sec metric).
  uint64_t node_ticks() const { return node_ticks_; }

  // First invariant violation ("" when clean) — chaos suites assert empty.
  const std::string& first_violation() const { return first_violation_; }

  // Fleet outcome metrics over the alive nodes.
  std::vector<double> AllSlowdowns() const;
  double MeanNodeUnfairness() const;

  // Dumps the fleet counters and health gauges (copart.fleet.*) into
  // `metrics` (null = no-op), once per run like
  // ResourceManager::ExportMetrics.
  void ExportMetrics(MetricsRegistry* metrics) const;

 private:
  std::unique_ptr<ClusterNode> MakeNode(size_t index, uint64_t incarnation);
  int PickAdmissionNode(const FleetJobSpec& spec) const;
  Result<AppId> AdmitToNode(size_t node_index, const FleetJob& job);
  bool NodeCanHost(size_t node_index, uint32_t cores) const;
  // What-if outcome of node `node_index` running its residents plus `job`
  // (the residents alone when `job` is null): PredictUcpOutcome on the
  // node's whole pool, every job at its own core count.
  WhatIfOutcome PredictOnNode(size_t node_index,
                              const WorkloadDescriptor* job) const;

  void InjectFaults();
  void RebootNode(size_t node_index);
  void TickNodes();
  void UpdateHealth();
  void CompleteJobs();
  void ShedOverloadedNodes();
  // Judges each move whose verify window ran out, and records the target's
  // measured minus predicted unfairness in the deterministic
  // copart.fleet.migration.prediction_error histogram (when metrics are
  // attached through FleetParams::obs).
  void VerifyMigrations();
  void PlanMigrations();
  void RollbackMigration(FleetJobId job_id, const char* trigger);
  void CheckInvariants();
  // Tallies a terminal job into retired_ by its state.
  void Retire(const FleetJob& job);
  void Fail(std::string why);

  void AuditNode(size_t node_index, const char* trigger);
  void AuditMigration(FleetJobId job_id, int source, int target,
                      const char* trigger, bool rollback);

  FleetParams params_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  std::vector<FleetNodeStatus> status_;
  std::vector<FleetJob> jobs_;
  // Ids of the live jobs, ascending: appended at admission, compacted by
  // CheckInvariants. Between checks it still holds the jobs that went
  // terminal since the last one, so every walk tests the job's state.
  std::vector<FleetJobId> live_jobs_;
  // Jobs off the live list (or shed at the door), indexed by JobState.
  std::array<uint64_t, 4> retired_{};
  // CheckInvariants' per-node census, the apps of each node's residents.
  // Rebuilt by every check; a member only so its storage is reused.
  std::vector<std::vector<AppId>> census_;
  // PlanMigrations' unhealthy sources and one victim's candidate targets;
  // members only so their storage is reused.
  std::vector<size_t> migration_sources_;
  std::vector<size_t> migration_candidates_;
  FleetCounters counters_;
  uint64_t epoch_ = 0;
  uint64_t node_ticks_ = 0;
  std::string first_violation_;
  bool invariant_failed_this_check_ = false;
};

}  // namespace copart

#endif  // COPART_CLUSTER_FLEET_H_
