#include "cluster/fleet.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "core/system_state.h"
#include "harness/serve.h"
#include "harness/whatif.h"
#include "metrics/fairness.h"
#include "obs/audit_log.h"
#include "obs/metrics_registry.h"

namespace copart {
namespace {

LcAppModel MakeLcModel(const FleetJobSpec& spec,
                       const MachineConfig& machine) {
  LcAppModel model;
  model.slo_p95_ms =
      spec.slo_p95_ms > 0.0 ? spec.slo_p95_ms : spec.workload.slo_p95_ms;
  if (model.slo_p95_ms <= 0.0) {
    model.slo_p95_ms = 1.0;
  }
  if (spec.workload.instructions_per_request > 0.0) {
    model.instructions_per_request = spec.workload.instructions_per_request;
  }
  model.initial_offered_rps = spec.offered_rps;
  const WorkloadDescriptor workload = spec.workload;
  const uint32_t cores = spec.cores;
  model.capability_ips = [workload, cores, machine](uint32_t ways) {
    return PredictLcCapabilityIps(workload, cores, ways, machine);
  };
  return model;
}

}  // namespace

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstFit:
      return "first-fit";
    case PlacementPolicy::kLeastLoaded:
      return "least-loaded";
    case PlacementPolicy::kWhatIfBest:
      return "what-if-best";
  }
  return "?";
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kResident:
      return "resident";
    case JobState::kCompleted:
      return "completed";
    case JobState::kShed:
      return "shed";
    case JobState::kLost:
      return "lost";
  }
  return "?";
}

FleetController::FleetController(size_t num_nodes, const FleetParams& params)
    : params_(params) {
  CHECK_GT(num_nodes, 0u) << "fleet needs at least one node";
  nodes_.reserve(num_nodes);
  status_.resize(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    nodes_.push_back(MakeNode(i, /*incarnation=*/0));
  }
}

std::unique_ptr<ClusterNode> FleetController::MakeNode(size_t index,
                                                       uint64_t incarnation) {
  // Per-node streams fork from the fleet seed by (index, incarnation): two
  // nodes never share noise, and a rebooted node replays a fresh — but
  // deterministic — history instead of its dead predecessor's.
  MachineConfig machine = params_.machine;
  machine.seed =
      Rng(params_.seed).Fork(index).Fork(incarnation).NextUint64();
  // Component-level fault points on a shared machine injector would be
  // queried from the PARALLEL tick phase; that is only deterministic (and
  // race-free) at num_threads == 1, which is how the chaos suite runs its
  // inner fleets. Node-level domains always go through params_.injector on
  // the serial control thread instead.
  ResourceManagerParams manager = params_.manager;
  manager.seed = Rng(params_.seed ^ 0x9E3779B97F4A7C15ULL)
                     .Fork(index)
                     .Fork(incarnation)
                     .NextUint64();
  manager.control_period_sec = params_.control_period_sec;
  std::string name = "n";
  name += std::to_string(index);
  return std::make_unique<ClusterNode>(std::move(name), machine, manager);
}

bool FleetController::NodeCanHost(size_t node_index, uint32_t cores) const {
  const FleetNodeStatus& s = status_[node_index];
  if (s.health != NodeHealth::kAlive) {
    return false;
  }
  const ClusterNode* node = nodes_[node_index].get();
  if (node->FreeCores() < cores + params_.node_reserve_cores) {
    return false;
  }
  // One LLC way per resident app, so a per-app partitioner can always give
  // the newcomer a way of its own.
  return node->machine().NumApps() + 1 <=
         node->machine().config().llc.num_ways;
}

int FleetController::PickAdmissionNode(const FleetJobSpec& spec) const {
  // Fleet-wide ceiling first: keep headroom so the next crash wave's
  // refugees and rollbacks still have somewhere to land.
  uint64_t total_cores = 0;
  uint64_t free_cores = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (status_[i].health != NodeHealth::kAlive) {
      continue;
    }
    total_cores += nodes_[i]->machine().config().num_cores;
    free_cores += nodes_[i]->FreeCores();
  }
  if (total_cores == 0) {
    return -1;
  }
  const double used =
      1.0 - static_cast<double>(free_cores) / static_cast<double>(total_cores);
  if (used >= params_.admission_max_core_utilization) {
    return -1;
  }
  // Candidates are the healthy, fault-free nodes that can host the job.
  // Every rule breaks ties toward the lowest index, so placement is
  // independent of thread count.
  std::vector<size_t> candidates;
  candidates.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!status_[i].fault_active && NodeCanHost(i, spec.cores)) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return -1;
  }
  switch (params_.placement) {
    case PlacementPolicy::kFirstFit:
      return static_cast<int>(candidates.front());
    case PlacementPolicy::kLeastLoaded: {
      size_t best = candidates.front();
      for (size_t i : candidates) {
        if (nodes_[i]->FreeCores() > nodes_[best]->FreeCores()) {
          best = i;
        }
      }
      return static_cast<int>(best);
    }
    case PlacementPolicy::kWhatIfBest:
      break;
  }
  // What-if: score the marginal harm of the placement, the total slowdown
  // the newcomer adds (its own plus what it inflicts on the residents).
  // Scoring absolute levels instead would make every job flee the node
  // that already hosts a slow app even when colocating there is harmless.
  // A small slack term breaks ties toward emptier nodes so "free"
  // insensitive jobs do not consume the capacity a future cache-hungry
  // arrival will need. One prediction pair per candidate, fanned out in
  // parallel: each score reads only its own node.
  WorkloadDescriptor job = spec.workload;
  job.num_threads = spec.cores;
  const auto total_slowdown = [](const WhatIfOutcome& outcome) {
    double sum = 0.0;
    for (double slowdown : outcome.slowdowns) {
      sum += slowdown;
    }
    return sum;
  };
  const std::vector<double> scores = ParallelMap<double>(
      params_.parallel, candidates.size(), [&](size_t c) {
        const size_t i = candidates[c];
        const ClusterNode& node = *nodes_[i];
        const double before =
            node.machine().NumApps() == 0
                ? 0.0
                : total_slowdown(PredictOnNode(i, /*job=*/nullptr));
        const double marginal_harm =
            total_slowdown(PredictOnNode(i, &job)) - before;
        const double used_fraction_after =
            1.0 - static_cast<double>(node.FreeCores() - spec.cores) /
                      static_cast<double>(node.machine().config().num_cores);
        return marginal_harm + 0.05 * used_fraction_after;
      });
  size_t best = 0;
  for (size_t c = 1; c < candidates.size(); ++c) {
    if (scores[c] < scores[best]) {
      best = c;
    }
  }
  return static_cast<int>(candidates[best]);
}

WhatIfOutcome FleetController::PredictOnNode(
    size_t node_index, const WorkloadDescriptor* job) const {
  const ClusterNode& node = *nodes_[node_index];
  const MachineConfig& config = node.machine().config();
  const ResourcePool pool{
      .first_way = 0, .num_ways = config.llc.num_ways, .max_mba_percent = 100};
  std::vector<WorkloadDescriptor> workloads = node.ResidentWorkloads();
  if (job != nullptr) {
    workloads.push_back(*job);
  }
  return PredictUcpOutcome(workloads, pool, config, /*cores_per_app=*/0);
}

Result<AppId> FleetController::AdmitToNode(size_t node_index,
                                           const FleetJob& job) {
  ClusterNode* node = nodes_[node_index].get();
  if (job.spec.latency_critical && params_.manager.slo.enabled) {
    return node->AdmitLatencyCritical(
        job.spec.workload, job.spec.cores,
        MakeLcModel(job.spec, node->machine().config()));
  }
  return node->Admit(job.spec.workload, job.spec.cores);
}

Result<FleetJobId> FleetController::Submit(const FleetJobSpec& spec) {
  const FleetJobId id = jobs_.size();
  jobs_.emplace_back();
  FleetJob& job = jobs_.back();
  job.spec = spec;
  ++counters_.submitted;
  const int target = PickAdmissionNode(spec);
  Result<AppId> app =
      target < 0 ? Result<AppId>(ResourceExhaustedError(
                       "fleet admission: no capacity for " +
                       spec.workload.name))
                 : AdmitToNode(static_cast<size_t>(target), job);
  if (!app.ok()) {
    // Shed at the door: the job is terminal without ever going live.
    job.state = JobState::kShed;
    Retire(job);
    ++counters_.shed_admission;
    AuditNode(static_cast<size_t>(-1), "admission_shed");
    return app.status();
  }
  job.state = JobState::kResident;
  job.node = target;
  job.app = *app;
  job.admit_epoch = epoch_;
  live_jobs_.push_back(id);
  return id;
}

void FleetController::Retire(const FleetJob& job) {
  ++retired_[static_cast<size_t>(job.state)];
}

void FleetController::RunEpoch() {
  InjectFaults();
  TickNodes();
  UpdateHealth();
  CompleteJobs();
  ShedOverloadedNodes();
  VerifyMigrations();
  PlanMigrations();
  ++epoch_;
  CheckInvariants();
}

void FleetController::InjectFaults() {
  // Recovery countdown first, so a node that finishes rebooting rejoins
  // before this epoch's fault draws can hit it again.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    FleetNodeStatus& s = status_[i];
    if (s.health == NodeHealth::kDown && --s.down_epochs_remaining <= 0) {
      RebootNode(i);
    }
  }
  if (params_.injector == nullptr) {
    return;
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    // Query every point for every node, every epoch, in node order —
    // including down nodes — so the schedule depends only on the injector
    // seed, never on earlier outcomes.
    const bool crash = params_.injector->ShouldFail(fault_points::kNodeCrash);
    const bool slow = params_.injector->ShouldFail(fault_points::kNodeSlow);
    const bool blackout =
        params_.injector->ShouldFail(fault_points::kNodeBlackout);
    FleetNodeStatus& s = status_[i];
    if (s.health == NodeHealth::kDown) {
      continue;
    }
    if (crash) {
      CrashNode(i);
      continue;
    }
    if (slow && s.slow_epochs_remaining == 0) {
      s.slow_epochs_remaining = params_.fault_window_epochs;
      ++counters_.slow_episodes;
      AuditNode(i, "node_slow");
    }
    if (blackout && s.blackout_epochs_remaining == 0) {
      s.blackout_epochs_remaining = params_.fault_window_epochs;
      ++counters_.blackout_episodes;
      AuditNode(i, "node_blackout");
    }
  }
}

void FleetController::CrashNode(size_t node_index) {
  FleetNodeStatus& s = status_[node_index];
  if (s.health == NodeHealth::kDown) {
    return;
  }
  for (const FleetJobId id : live_jobs_) {
    FleetJob& job = jobs_[id];
    if (job.state == JobState::kResident &&
        job.node == static_cast<int>(node_index)) {
      job.state = JobState::kLost;
      job.node = -1;
      job.verifying = false;
      ++counters_.lost_to_crash;
    }
    // A mid-verify job whose SOURCE died has no home to roll back to; the
    // move stands on whatever its verify verdict turns out to be.
    if (job.verifying && job.migration_source == static_cast<int>(node_index)) {
      job.migration_source = -1;
    }
  }
  const uint64_t reboots = s.reboots;
  s = FleetNodeStatus{};
  s.health = NodeHealth::kDown;
  s.down_epochs_remaining = params_.crash_recovery_epochs;
  s.reboots = reboots;
  ++counters_.crashes;
  AuditNode(node_index, "node_crash");
}

void FleetController::RebootNode(size_t node_index) {
  FleetNodeStatus& s = status_[node_index];
  const uint64_t incarnation = s.reboots + 1;
  // The crashed machine (and any quarantined zombies squatting on it) is
  // discarded wholesale; the replacement starts empty on forked streams.
  nodes_[node_index] = MakeNode(node_index, incarnation);
  s = FleetNodeStatus{};
  s.reboots = incarnation;
  ++counters_.reboots;
  AuditNode(node_index, "node_reboot");
}

void FleetController::TickNodes() {
  const double dt = params_.control_period_sec;
  // Each cell touches only its own node and its own status slot; every
  // cross-node decision happens in the serial phases after the barrier.
  ParallelFor(params_.parallel, nodes_.size(), [&](size_t i) {
    FleetNodeStatus& s = status_[i];
    if (s.health != NodeHealth::kAlive) {
      return;
    }
    ClusterNode* node = nodes_[i].get();
    const double dt_eff =
        s.slow_epochs_remaining > 0 ? dt * params_.slow_factor : dt;
    node->machine().AdvanceTime(dt_eff);
    if (s.blackout_epochs_remaining == 0) {
      node->manager().Tick();
    }
    s.unfairness = node->CurrentUnfairness();
    s.fault_active =
        s.slow_epochs_remaining > 0 || s.blackout_epochs_remaining > 0;
  });
  for (const FleetNodeStatus& s : status_) {
    if (s.health == NodeHealth::kAlive) {
      ++node_ticks_;
    }
  }
}

void FleetController::UpdateHealth() {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    FleetNodeStatus& s = status_[i];
    if (s.health != NodeHealth::kAlive) {
      continue;
    }
    if (s.slow_epochs_remaining > 0) {
      --s.slow_epochs_remaining;
    }
    if (s.blackout_epochs_remaining > 0) {
      --s.blackout_epochs_remaining;
    }
    if (s.migration_cooldown > 0) {
      --s.migration_cooldown;
    }
    // Unfairness needs >= 2 residents to mean anything (it is a dispersion
    // statistic); sparse nodes are healthy by definition.
    const bool multi = nodes_[i]->NumJobs() >= 2;
    if (multi && s.unfairness > params_.migrate_unfairness_threshold) {
      ++s.unhealthy_streak;
    } else {
      s.unhealthy_streak = 0;
    }
    if (multi && s.unfairness > params_.shed_unfairness_threshold) {
      ++s.shed_streak;
    } else {
      s.shed_streak = 0;
    }
  }
}

void FleetController::CompleteJobs() {
  for (const FleetJobId id : live_jobs_) {
    FleetJob& job = jobs_[id];
    if (job.state != JobState::kResident) {
      continue;
    }
    ++job.epochs_resident;
    if (job.spec.lifetime_epochs <= 0 ||
        job.epochs_resident < job.spec.lifetime_epochs) {
      continue;
    }
    Status evicted = nodes_[job.node]->Evict(job.app);
    if (!evicted.ok()) {
      // Transient (e.g. injected) eviction failure: retry next epoch.
      continue;
    }
    job.state = JobState::kCompleted;
    job.node = -1;
    job.verifying = false;
    ++counters_.completed;
  }
}

void FleetController::ShedOverloadedNodes() {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    FleetNodeStatus& s = status_[i];
    if (s.health != NodeHealth::kAlive ||
        s.shed_streak < params_.shed_trend_window) {
      continue;
    }
    // Drop the NEWEST batch job: it has sunk the least work, and the older
    // residents were fine before it arrived. LC jobs are never shed here.
    int victim = -1;
    for (const FleetJobId j : live_jobs_) {
      const FleetJob& job = jobs_[j];
      if (job.state != JobState::kResident ||
          job.node != static_cast<int>(i) || job.spec.latency_critical ||
          job.verifying) {
        continue;
      }
      if (victim < 0 || job.admit_epoch >= jobs_[victim].admit_epoch) {
        victim = static_cast<int>(j);
      }
    }
    if (victim < 0) {
      continue;
    }
    FleetJob& job = jobs_[victim];
    if (!nodes_[i]->Evict(job.app).ok()) {
      continue;  // Retry next epoch.
    }
    job.state = JobState::kShed;
    job.node = -1;
    ++counters_.shed_overload;
    s.shed_streak = 0;
    AuditNode(i, "overload_shed");
  }
}

void FleetController::VerifyMigrations() {
  for (const FleetJobId j : live_jobs_) {
    FleetJob& job = jobs_[j];
    if (!job.verifying || job.state != JobState::kResident) {
      continue;
    }
    const int target = job.node;
    const FleetNodeStatus& ts = status_[target];
    bool fail;
    if (ts.fault_active) {
      // The target caught a fault mid-verify: the prediction no longer
      // describes the node the job landed on. Bail out immediately.
      fail = true;
    } else {
      --job.verify_remaining;
      if (job.verify_remaining > 0) {
        continue;
      }
      // The move succeeded if the target landed where the model promised
      // (within margin), below the migrate threshold (the outcome
      // migration exists to reach), or clearly better than the source it
      // fled. The model's UCP steady state is optimistic against noisy
      // measured unfairness, so judging on the prediction alone would roll
      // back moves that worked.
      const double allowed = std::max(
          {job.predicted_unfairness * params_.verify_margin +
               params_.verify_slack,
           params_.migrate_unfairness_threshold,
           0.8 * job.source_unfairness_at_plan});
      fail = ts.unfairness > allowed;
      if (MetricsRegistry* metrics = ObsMetrics(params_.obs)) {
        // Calibration data for the what-if scorer: measured minus
        // predicted target unfairness at the verdict.
        static constexpr double kErrorEdges[] = {-0.2, -0.1, -0.05, 0.0,
                                                 0.05, 0.1,  0.2,   0.5};
        metrics
            ->GetHistogram("copart.fleet.migration.prediction_error",
                           kErrorEdges)
            ->Observe(ts.unfairness - job.predicted_unfairness);
      }
    }
    if (!fail) {
      AuditMigration(j, job.migration_source, target, "migration_verify_ok",
                     /*rollback=*/false);
      job.verifying = false;
      job.migration_source = -1;
      ++counters_.migrations_completed;
      continue;
    }
    RollbackMigration(j, ts.fault_active ? "migration_verify_fault"
                                         : "migration_verify_unfair");
  }
}

void FleetController::RollbackMigration(FleetJobId job_id,
                                        const char* trigger) {
  FleetJob& job = jobs_[job_id];
  const int target = job.node;
  const int source = job.migration_source;
  job.verifying = false;
  job.migration_source = -1;
  if (source < 0 || !NodeCanHost(static_cast<size_t>(source), job.spec.cores)) {
    // The source died or filled up since the move; the (disappointing)
    // move stands because it is still the only placement that exists.
    ++counters_.migration_failures;
    AuditMigration(job_id, source, target, "migration_rollback_skipped",
                   /*rollback=*/true);
    return;
  }
  Status drained = nodes_[target]->Evict(job.app);
  if (!drained.ok()) {
    ++counters_.migration_failures;
    AuditMigration(job_id, source, target, "migration_rollback_drain_failed",
                   /*rollback=*/true);
    return;
  }
  Result<AppId> back = AdmitToNode(static_cast<size_t>(source), job);
  if (back.ok()) {
    job.node = source;
    job.app = *back;
    ++job.migrations;
    ++counters_.migration_rollbacks;
    status_[source].migration_cooldown = params_.migration_cooldown_epochs;
    AuditMigration(job_id, source, target, trigger, /*rollback=*/true);
    return;
  }
  // Could not go home; try to stay where it was.
  Result<AppId> again = AdmitToNode(static_cast<size_t>(target), job);
  if (again.ok()) {
    job.app = *again;
    ++counters_.migration_failures;
    AuditMigration(job_id, source, target, "migration_rollback_bounced",
                   /*rollback=*/true);
    return;
  }
  // Nowhere to run: the job is shed, and the conservation invariant keeps
  // honest books about it.
  job.state = JobState::kShed;
  job.node = -1;
  ++counters_.shed_migration;
  ++counters_.migration_failures;
  AuditMigration(job_id, source, target, "migration_stranded",
                 /*rollback=*/true);
}

void FleetController::PlanMigrations() {
  // Unhealthy sources, worst unfairness first (ties: lowest index).
  std::vector<size_t>& sources = migration_sources_;
  sources.clear();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const FleetNodeStatus& s = status_[i];
    if (s.health == NodeHealth::kAlive &&
        s.unhealthy_streak >= params_.migrate_trend_window &&
        s.migration_cooldown == 0 && nodes_[i]->NumJobs() >= 2) {
      sources.push_back(i);
    }
  }
  std::sort(sources.begin(), sources.end(), [&](size_t a, size_t b) {
    if (status_[a].unfairness != status_[b].unfairness) {
      return status_[a].unfairness > status_[b].unfairness;
    }
    return a < b;
  });

  size_t planned = 0;
  for (size_t source : sources) {
    if (planned >= params_.max_migrations_per_epoch) {
      break;
    }
    // Victim: the worst-slowed resident batch job on the source. LC jobs
    // are pinned — their governor-held way floor travels badly and their
    // SLO is the thing migration exists to protect.
    const SimulatedMachine& machine = nodes_[source]->machine();
    int victim = -1;
    double victim_slowdown = 0.0;
    for (const FleetJobId j : live_jobs_) {
      const FleetJob& job = jobs_[j];
      if (job.state != JobState::kResident ||
          job.node != static_cast<int>(source) || job.spec.latency_critical ||
          job.verifying) {
        continue;
      }
      const double ips = machine.LastEpoch(job.app).ips;
      if (ips <= 0.0) {
        continue;
      }
      const double slowdown = Slowdown(machine.SoloIps(job.app), ips);
      if (victim < 0 || slowdown > victim_slowdown) {
        victim = static_cast<int>(j);
        victim_slowdown = slowdown;
      }
    }
    if (victim < 0) {
      continue;
    }
    FleetJob& job = jobs_[victim];

    // Feasible targets, least-loaded first, capped at the scoring fan-out.
    std::vector<size_t>& candidates = migration_candidates_;
    candidates.clear();
    for (size_t t = 0; t < nodes_.size(); ++t) {
      if (t == source || status_[t].fault_active ||
          status_[t].migration_cooldown > 0 ||
          !NodeCanHost(t, job.spec.cores)) {
        continue;
      }
      candidates.push_back(t);
    }
    std::sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
      if (nodes_[a]->FreeCores() != nodes_[b]->FreeCores()) {
        return nodes_[a]->FreeCores() > nodes_[b]->FreeCores();
      }
      return a < b;
    });
    if (candidates.size() > params_.max_target_candidates) {
      candidates.resize(params_.max_target_candidates);
    }
    if (candidates.empty()) {
      continue;
    }

    // Score each candidate with the what-if model: predicted post-CoPart
    // unfairness of (target residents + victim). One prediction per
    // candidate, fanned out in parallel; reduced in candidate order.
    WorkloadDescriptor moving = job.spec.workload;
    moving.num_threads = job.spec.cores;
    const std::vector<double> scores = ParallelMap<double>(
        params_.parallel, candidates.size(), [&](size_t c) {
          return PredictOnNode(candidates[c], &moving).unfairness;
        });
    size_t best = 0;
    for (size_t c = 1; c < candidates.size(); ++c) {
      if (scores[c] < scores[best]) {
        best = c;
      }
    }
    // Only move when the model predicts a real improvement over the
    // source's measured unfairness; otherwise the move is churn.
    if (scores[best] >= status_[source].unfairness) {
      continue;
    }
    const size_t target = candidates[best];
    ++planned;
    ++counters_.migrations_planned;
    AuditMigration(victim, static_cast<int>(source), static_cast<int>(target),
                   "migration_plan", /*rollback=*/false);

    // Drain -> re-admit; failures fall back toward the source.
    Status drained = nodes_[source]->Evict(job.app);
    if (!drained.ok()) {
      ++counters_.migration_failures;
      AuditMigration(victim, static_cast<int>(source),
                     static_cast<int>(target), "migration_drain_failed",
                     /*rollback=*/false);
      continue;
    }
    Result<AppId> moved = AdmitToNode(target, job);
    if (moved.ok()) {
      job.node = static_cast<int>(target);
      job.app = *moved;
      ++job.migrations;
      job.verifying = true;
      job.verify_remaining = params_.verify_window_epochs;
      job.migration_source = static_cast<int>(source);
      job.predicted_unfairness = scores[best];
      job.source_unfairness_at_plan = status_[source].unfairness;
      status_[source].migration_cooldown = params_.migration_cooldown_epochs;
      status_[target].migration_cooldown = params_.migration_cooldown_epochs;
      status_[source].unhealthy_streak = 0;
      AuditMigration(victim, static_cast<int>(source),
                     static_cast<int>(target), "migration_admit",
                     /*rollback=*/false);
      continue;
    }
    Result<AppId> back = AdmitToNode(source, job);
    if (back.ok()) {
      job.app = *back;
      ++counters_.migration_failures;
      AuditMigration(victim, static_cast<int>(source),
                     static_cast<int>(target), "migration_admit_failed",
                     /*rollback=*/true);
      continue;
    }
    job.state = JobState::kShed;
    job.node = -1;
    ++counters_.shed_migration;
    ++counters_.migration_failures;
    AuditMigration(victim, static_cast<int>(source), static_cast<int>(target),
                   "migration_stranded", /*rollback=*/true);
  }
}

void FleetController::Fail(std::string why) {
  invariant_failed_this_check_ = true;
  if (first_violation_.empty()) {
    why.append(" (epoch ");
    why.append(std::to_string(epoch_));
    why.append(")");
    first_violation_ = std::move(why);
    LOG_ERROR << "fleet invariant violation: " << first_violation_;
  }
}

void FleetController::CheckInvariants() {
  ++counters_.conservation_checks;
  invariant_failed_this_check_ = false;

  // One walk of the live list compacts it and checks every resident. A job
  // that went terminal since the last check is tallied once, by the state
  // it ended in, and dropped, so the walk costs what the live fleet costs
  // rather than what its history does.
  census_.resize(nodes_.size());
  for (std::vector<AppId>& apps : census_) {
    apps.clear();
  }
  size_t kept = 0;
  for (const FleetJobId j : live_jobs_) {
    const FleetJob& job = jobs_[j];
    if (job.state != JobState::kResident) {
      Retire(job);
      continue;
    }
    if (kept > 0 && j <= live_jobs_[kept - 1]) {
      Fail("live list not strictly ascending at job " + std::to_string(j));
    }
    live_jobs_[kept++] = j;
    if (job.node < 0 || job.node >= static_cast<int>(nodes_.size())) {
      Fail("job " + std::to_string(j) + " resident on invalid node " +
           std::to_string(job.node));
      continue;
    }
    if (status_[job.node].health != NodeHealth::kAlive) {
      Fail("job " + std::to_string(j) + " resident on down node " +
           std::to_string(job.node));
      continue;
    }
    census_[job.node].push_back(job.app);
    if (!nodes_[job.node]->machine().AppExists(job.app)) {
      Fail("job " + std::to_string(j) + " missing from node " +
           std::to_string(job.node));
    }
  }
  live_jobs_.resize(kept);
  const uint64_t resident = kept;
  const uint64_t completed =
      retired_[static_cast<size_t>(JobState::kCompleted)];
  const uint64_t shed = retired_[static_cast<size_t>(JobState::kShed)];
  const uint64_t lost = retired_[static_cast<size_t>(JobState::kLost)];

  // Conservation: every submission is in exactly one terminal-or-resident
  // bucket, and the buckets match the event counters.
  if (counters_.submitted != resident + completed + shed + lost) {
    Fail("conservation: submitted=" + std::to_string(counters_.submitted) +
         " != resident=" + std::to_string(resident) +
         " + completed=" + std::to_string(completed) +
         " + shed=" + std::to_string(shed) +
         " + lost=" + std::to_string(lost));
  }
  if (completed != counters_.completed || lost != counters_.lost_to_crash ||
      shed != counters_.shed_total()) {
    Fail("counter drift: completed " + std::to_string(completed) + "/" +
         std::to_string(counters_.completed) + ", lost " +
         std::to_string(lost) + "/" + std::to_string(counters_.lost_to_crash) +
         ", shed " + std::to_string(shed) + "/" +
         std::to_string(counters_.shed_total()));
  }

  // No double admission, and a full per-node census: the machine runs
  // exactly the fleet's resident jobs plus its quarantined zombies.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (status_[i].health != NodeHealth::kAlive) {
      continue;
    }
    std::vector<AppId>& apps = census_[i];
    std::sort(apps.begin(), apps.end());
    for (size_t k = 1; k < apps.size(); ++k) {
      if (apps[k] == apps[k - 1]) {
        Fail("double admission of app on node " + std::to_string(i));
      }
    }
    const size_t expected =
        apps.size() + nodes_[i]->quarantined_apps().size();
    const size_t actual = nodes_[i]->machine().NumApps();
    if (actual != expected) {
      Fail("census mismatch on node " + std::to_string(i) + ": machine runs " +
           std::to_string(actual) + " apps, fleet accounts for " +
           std::to_string(expected));
    }
  }

  if (invariant_failed_this_check_) {
    ++counters_.invariant_violations;
  }
}

size_t FleetController::AliveNodes() const {
  size_t alive = 0;
  for (const FleetNodeStatus& s : status_) {
    if (s.health == NodeHealth::kAlive) {
      ++alive;
    }
  }
  return alive;
}

size_t FleetController::ResidentJobs() const {
  size_t resident = 0;
  for (const FleetJobId id : live_jobs_) {
    if (jobs_[id].state == JobState::kResident) {
      ++resident;
    }
  }
  return resident;
}

std::vector<double> FleetController::AllSlowdowns() const {
  std::vector<double> slowdowns;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (status_[i].health != NodeHealth::kAlive) {
      continue;
    }
    const std::vector<double> node_slowdowns = nodes_[i]->CurrentSlowdowns();
    slowdowns.insert(slowdowns.end(), node_slowdowns.begin(),
                     node_slowdowns.end());
  }
  return slowdowns;
}

double FleetController::MeanNodeUnfairness() const {
  double sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (status_[i].health == NodeHealth::kAlive &&
        nodes_[i]->NumJobs() >= 2) {
      sum += status_[i].unfairness;
      ++counted;
    }
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

void FleetController::ExportMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) {
    return;
  }
  const FleetCounters& c = counters_;
  metrics->GetCounter("copart.fleet.jobs.submitted")->Increment(c.submitted);
  metrics->GetCounter("copart.fleet.jobs.completed")->Increment(c.completed);
  metrics->GetCounter("copart.fleet.jobs.shed_admission")
      ->Increment(c.shed_admission);
  metrics->GetCounter("copart.fleet.jobs.shed_overload")
      ->Increment(c.shed_overload);
  metrics->GetCounter("copart.fleet.jobs.shed_migration")
      ->Increment(c.shed_migration);
  metrics->GetCounter("copart.fleet.jobs.lost_to_crash")
      ->Increment(c.lost_to_crash);
  metrics->GetCounter("copart.fleet.faults.crashes")->Increment(c.crashes);
  metrics->GetCounter("copart.fleet.faults.reboots")->Increment(c.reboots);
  metrics->GetCounter("copart.fleet.faults.slow_episodes")
      ->Increment(c.slow_episodes);
  metrics->GetCounter("copart.fleet.faults.blackout_episodes")
      ->Increment(c.blackout_episodes);
  metrics->GetCounter("copart.fleet.migrations.planned")
      ->Increment(c.migrations_planned);
  metrics->GetCounter("copart.fleet.migrations.completed")
      ->Increment(c.migrations_completed);
  metrics->GetCounter("copart.fleet.migrations.rollbacks")
      ->Increment(c.migration_rollbacks);
  metrics->GetCounter("copart.fleet.migrations.failures")
      ->Increment(c.migration_failures);
  metrics->GetCounter("copart.fleet.invariant.checks")
      ->Increment(c.conservation_checks);
  metrics->GetCounter("copart.fleet.invariant.violations")
      ->Increment(c.invariant_violations);
  metrics->GetGauge("copart.fleet.nodes.alive")
      ->Set(static_cast<double>(AliveNodes()));
  metrics->GetGauge("copart.fleet.jobs.resident")
      ->Set(static_cast<double>(ResidentJobs()));
  metrics->GetGauge("copart.fleet.mean_node_unfairness")
      ->Set(MeanNodeUnfairness());
  metrics->GetGauge("copart.fleet.epoch")->Set(static_cast<double>(epoch_));
}

void FleetController::AuditNode(size_t node_index, const char* trigger) {
  AuditLog* audit = ObsAudit(params_.obs);
  if (audit == nullptr) {
    return;
  }
  AuditRecord record;
  record.kind = AuditKind::kNodeFault;
  record.epoch = epoch_;
  record.time_sec = static_cast<double>(epoch_) * params_.control_period_sec;
  record.phase = "fleet";
  record.trigger = trigger;
  record.app_index = node_index == static_cast<size_t>(-1)
                         ? -1
                         : static_cast<int32_t>(node_index);
  audit->Append(record);
}

void FleetController::AuditMigration(FleetJobId job_id, int source, int target,
                                     const char* trigger, bool rollback) {
  AuditLog* audit = ObsAudit(params_.obs);
  if (audit == nullptr) {
    return;
  }
  AuditRecord record;
  record.kind = AuditKind::kMigration;
  record.epoch = epoch_;
  record.time_sec = static_cast<double>(epoch_) * params_.control_period_sec;
  record.phase = "fleet";
  record.trigger = trigger;
  record.app_index = source;
  record.clos = target;
  record.app_id = static_cast<int32_t>(job_id);
  record.rollback = rollback;
  audit->Append(record);
}

}  // namespace copart
