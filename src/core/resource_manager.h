// CoPart's resource manager (paper §5.4, Algorithm 1).
//
// The manager is the *driver* half of a driver/policy split
// (core/partition_policy.h): it owns sampling and counter quarantine,
// probe scheduling, transactional actuation with retry/backoff/degraded
// mode, SLO slices, and all telemetry — while the installed
// PartitionPolicy (ResourceManagerParams::partition_policy, or an instance
// handed to the constructor) owns classification and the allocation
// decisions. With the default "copart" policy the loop below is
// exactly the paper's controller; every baseline runs through the same
// loop.
//
// The manager runs as a user-level control loop over the resctrl interface
// and the PMC monitor, in three phases:
//
//   1. *Application profiling* (§5.4.1): each consolidated app is briefly
//      run with (a) all pool resources — recording IPS_full, the slowdown
//      reference of Eq. 1 — then (b) (l_P ways, 100%) and (c) (L, M_P) to
//      measure its LLC and bandwidth sensitivity. The probe outcomes select
//      the initial state of the app's two classifier FSMs.
//   2. *System state space exploration* (Algorithm 1): each control period
//      the manager samples the PMCs, updates the FSMs, and asks the HR
//      matcher for the next system state. When the matcher returns the
//      current state it retries with a random neighbor state up to theta
//      times, then transitions to idle.
//   3. *Idle*: no adaptation; the manager watches for consolidation changes
//      (app launch/termination), resource-pool changes from an outer server
//      manager, and significant IPS drift — any of which re-trigger
//      adaptation (§5.4.3). A consolidation change profiles only the apps
//      not yet profiled (a newcomer), so a departure goes straight to
//      exploration; every other trigger invalidates every slowdown
//      reference and re-profiles every app. An idle tick also reads back
//      the current decision's plan (Actuator::Holds) and re-actuates it
//      when anything drifted (a rolled-back write, an out-of-band schemata
//      edit); the readback is skipped while the machine's input generation
//      is unchanged since a clean one. A static policy's converged opening
//      decision lands here directly, and so does a clustering policy's once
//      its allocation holds.
//
// Hardening (DESIGN.md §7): the actuation path tolerates a faulty
// substrate. The manager decides and its Actuator (core/actuator.h) lands
// every allocation change as one transaction (write what differs, verify
// by readback, write back what was issued on failure), retried under
// exponential backoff (common/backoff.h). After kMaxConsecutiveFailures
// consecutive failed transactions the manager enters a fourth phase:
//
//   4. *Degraded*: adaptation stops and the manager keeps trying to pin the
//      static equal-share partition (the best fairness guarantee available
//      without working actuation or trustworthy feedback). Once
//      kDegradedRecoverySuccesses consecutive applies succeed, the
//      substrate is declared healthy and adaptation restarts from
//      profiling.
//
// Counter feedback is treated as equally untrustworthy: samples are taken
// through PerfMonitor::TrySample, and an app whose samples are dropped,
// stale, or saturated for kQuarantineAfterBadSamples consecutive periods
// is quarantined — it participates in matching as a conservative
// (slowdown 1.0, Maintain/Maintain) citizen until its counters come back.
//
// Driving convention: the owner advances the machine by one control period,
// then calls Tick(). Tick() reads the counters accumulated over that period
// and installs the allocations for the next one.
#ifndef COPART_CORE_RESOURCE_MANAGER_H_
#define COPART_CORE_RESOURCE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/actuator.h"
#include "core/classifiers.h"
#include "core/copart_params.h"
#include "core/hr_matching.h"
#include "core/partition_policy.h"
#include "core/system_state.h"
#include "machine/app_id.h"
#include "membw/mba_throttle_model.h"
#include "obs/obs.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "slo/slo_governor.h"

namespace copart {

// Control-loop phase. Namespace-scoped so telemetry consumers can name it
// without dragging in the manager; ResourceManager::Phase aliases it.
enum class ManagerPhase { kProfiling, kExploration, kIdle, kDegraded };

class ResourceManager {
 public:
  using Phase = ManagerPhase;

  // --- Tuning constants (DESIGN.md §7) ---
  //
  // Profiling probes (§5.4.1): l_P ways at 100% MBA, and all ways at M_P.
  static constexpr uint32_t kProfileWays = 2;
  static constexpr uint32_t kProfileMbaPercent = 20;
  // R: consecutive failed actuation transactions before the manager gives
  // up and enters the degraded phase.
  static constexpr int kMaxConsecutiveFailures = 5;
  // Delay between actuation retries, in control periods (the manager acts
  // only at period boundaries, so that is its native clock): 1, 2, 4, 8,
  // 8, ... periods, each stretched by up to ±25% jitter.
  static constexpr BackoffOptions kRetryBackoff{
      .initial = 1.0, .multiplier = 2.0, .max = 8.0, .jitter = 0.25};
  // Consecutive successful fair-share applies in the degraded phase before
  // the substrate is declared healthy and adaptation restarts.
  static constexpr int kDegradedRecoverySuccesses = 3;
  // K: consecutive bad counter samples (dropped, stale, or saturated)
  // before an app is quarantined; consecutive good samples that release it.
  static constexpr int kQuarantineAfterBadSamples = 3;
  static constexpr int kQuarantineReleaseGoodSamples = 3;
  // Instruction-delta ceiling per sample; anything above is a saturated or
  // wrapped counter, never a real reading (16 cores * 2.1 GHz * 0.5 s is
  // ~1.7e10).
  static constexpr double kSaturationInstructions = 1e12;

  // Drives the registry policy named by params.partition_policy.
  ResourceManager(Resctrl* resctrl, PerfMonitor* monitor,
                  const ResourceManagerParams& params);
  // Drives `policy` (e.g. a fixed-state StaticPartitionPolicy, which the
  // registry cannot build); params.partition_policy is ignored.
  ResourceManager(Resctrl* resctrl, PerfMonitor* monitor,
                  const ResourceManagerParams& params,
                  std::unique_ptr<PartitionPolicy> policy);

  // Registers an app to manage; creates its resctrl group and (re)starts
  // the adaptation process, profiling only the newcomer (and any app still
  // unprofiled).
  Status AddApp(AppId app);
  // Stops managing an app. Terminate it on the machine first: a removal
  // records the machine's app generation, and a termination after it
  // reads as a second consolidation change on the next idle tick.
  Status RemoveApp(AppId app);
  size_t NumApps() const { return apps_.size(); }

  // Installs a new resource slice (from an outer server manager) and
  // restarts adaptation, re-profiling every app (the probes measured the
  // old slice). The manager repartitions only within this pool.
  // In SLO mode this is the *base* pool: the LC slices are carved off its
  // bottom and the batch apps are matched over the remainder.
  void SetResourcePool(const ResourcePool& pool);
  const ResourcePool& pool() const { return pool_; }

  // --- SLO-aware serving mode (params.slo.enabled; DESIGN.md §9) ---
  //
  // Registers a latency-critical app. The app is NOT fairness-managed:
  // it gets a dedicated CLOS whose width the SLO governor re-plans every
  // control period from the offered load, growing ways (then capping the
  // batch MBA ceiling) until the predicted p95 meets model.slo_p95_ms
  // with headroom. The governor implementation is selected by
  // params.slo.governor (slo/slo_governor.h registry). Batch apps added
  // via AddApp() are matched over the ways left. Fails unless
  // params.slo.enabled.
  Status SetLatencyCriticalApp(AppId app, const LcAppModel& model);
  // Offered load (requests/s) the governor plans the app's NEXT period
  // for. The app must be registered via SetLatencyCriticalApp.
  void SetLcOfferedLoad(AppId app, double rps);
  // Reports the measured outcome of the control period that just ran for
  // a registered LC app: the harness calls it after advancing the served
  // period and before SetLcOfferedLoad/Tick for the next one. The manager
  // pairs the measurement with the decision that served the period and
  // forwards it to the governor's ObserveOutcome (the learning signal of
  // the adaptive governors; the threshold governor ignores it) and, when
  // observability is attached, appends an "slo_outcome" audit record.
  void ReportLcOutcome(AppId app, double measured_p95_ms, bool stalled,
                       size_t phase_index);
  size_t NumLcApps() const { return lc_apps_.size(); }
  // Currently actuated slice width / latest prediction for a registered
  // LC app.
  uint32_t LcWays(AppId app) const;
  double LcPredictedP95Ms(AppId app) const;
  // Total ways currently held by LC slices (0 outside SLO mode).
  uint32_t lc_total_ways() const;
  uint64_t slo_resizes() const { return slo_resizes_; }
  uint64_t slo_unattainable_ticks() const { return slo_unattainable_ticks_; }

  // One control period. The machine must have advanced by
  // params.control_period_sec since the previous Tick().
  void Tick();

  Phase phase() const { return phase_; }
  static const char* PhaseName(Phase phase);

  const SystemState& current_state() const { return state_; }

  // Slot index each managed app currently runs in (index-parallel with
  // admission order). Identity for per-app policies; for clustering
  // policies several apps share a slot. Sized on the first adaptation.
  const std::vector<uint32_t>& app_slots() const { return app_slot_; }

  // The installed classification/allocation policy.
  const PartitionPolicy& partition_policy() const { return *policy_; }

  // Online slowdown estimate (profiled IPS_full / latest IPS); 1.0 before
  // profiling has finished.
  double SlowdownEstimate(AppId app) const;
  // The app's profiled full-resource IPS (the Eq. 1 slowdown reference);
  // 0 before its first full-resource probe or after a quarantine skip.
  double IpsFull(AppId app) const;

  // Latest policy classification for a managed app — what the allocator
  // saw (or will see) this period. The sensing accuracy harness compares
  // these across exact/estimated/noisy monitors. CHECK-fails for unmanaged
  // apps.
  ResourceClass LlcClass(AppId app) const;
  ResourceClass MbaClass(AppId app) const;

  bool Quarantined(AppId app) const;

  // Wall-clock cost of the most recent / accumulated getNextSystemState
  // calls — the paper's overhead metric (Fig. 16).
  double last_exploration_us() const { return last_exploration_us_; }
  const RunningStats& exploration_time_stats() const {
    return exploration_time_stats_;
  }

  uint64_t adaptations_started() const { return adaptations_started_; }

  // --- Hardening counters (cumulative over the manager's lifetime) ---
  uint64_t actuation_attempts() const { return actuation_attempts_; }
  uint64_t actuation_failures() const { return actuation_failures_; }
  uint64_t rollbacks() const { return rollbacks_; }
  uint64_t degraded_entries() const { return degraded_entries_; }
  uint64_t degraded_recoveries() const { return degraded_recoveries_; }
  uint64_t quarantines() const { return quarantines_; }

  // Attaches (or clears, with nullptr) the observability bundle: spans
  // around the tick phases (PMC sample → classify → solve → apply), one
  // audit record per CLOS allocation change / actuation failure / phase
  // transition / quarantine flip, and a slowdown histogram. Null (the
  // default) keeps the control loop on its uninstrumented path: every site
  // gates on one pointer compare (DESIGN.md §8).
  void SetObservability(Observability* obs) { obs_ = obs; }

  // Control periods processed (the audit/trace epoch counter).
  uint64_t ticks() const { return ticks_; }

  // Dumps the manager's cumulative counters plus the PMC/resctrl substrate
  // tallies into `metrics` (copart.manager.*, copart.pmc.*,
  // copart.resctrl.*). Counters are Incremented by the current totals, so
  // call once per registry, at the end of a run. Wall-clock exploration
  // stats are flagged nondeterministic; everything else derives from the
  // seed. Null `metrics` is a no-op.
  void ExportMetrics(MetricsRegistry* metrics) const;

 private:
  struct ManagedApp {
    AppId id;
    ResctrlGroupId group;
    double ips_full = 0.0;   // Profiled full-resource IPS (Eq. 1 numerator).
    double prev_ips = 0.0;   // IPS over the previous period.
    double idle_baseline_ips = 0.0;
    // Set when the app's three probes complete; an app whose probes were
    // skipped under quarantine keeps it clear, so the next adaptation
    // probes it again.
    bool profiled = false;
    // Counter-health tracking (quarantine policy).
    int bad_sample_streak = 0;
    int good_sample_streak = 0;
    bool quarantined = false;
  };

  // One SLO-managed latency-critical app (params.slo mode).
  struct LcManaged {
    AppId id;
    ResctrlGroupId group;
    std::unique_ptr<SloGovernor> governor;
    uint32_t ways = 0;       // Actuated slice width (0 until first actuation).
    uint32_t first_way = 0;  // Actuated slice origin.
    double offered_rps = 0.0;
    double predicted_p95_ms = 0.0;
    bool attainable = true;
  };

  // Outcome of sampling one app through the fallible PMC path.
  struct SampleOutcome {
    PmcSample sample;
    bool healthy = false;
  };

  // Profiling probe schedule: 3 probes per app.
  enum class Probe { kFull = 0, kFewWays = 1, kLowMba = 2 };

  // Restarts adaptation after a consolidation change: profiles the apps
  // whose `profiled` bit is clear, or goes straight to exploration when
  // every app is profiled (and for probe-free policies).
  void StartAdaptation();
  // Clears every `profiled` bit, then StartAdaptation: the triggers that
  // invalidate every slowdown reference (IPS drift, pool changes, degraded
  // recovery) re-profile every app.
  void StartFullAdaptation();
  // Index of the first app at or after `from` still to profile;
  // apps_.size() when there is none.
  size_t NextUnprofiled(size_t from) const;
  // Installs a policy decision as the manager's current state/slot map.
  void AdoptDecision(const PartitionDecision& decision);
  // Adopts the policy's fair share for the current pool and app set.
  void AdoptFairShare();
  // Makes room in the per-tick buffers for the current app and LC sets
  // (ReserveRoom); called whenever either grows, so a steady tick never
  // reallocates them.
  void ReserveTickBuffers();
  // Lazily creates the shared cluster groups ("copart_cluster_<k>") a
  // clustered decision actuates onto. Groups persist once created. Returns
  // at once for per-app policies.
  Status EnsureSlotGroups(size_t count);
  // Re-plans every LC slice from the current offered load and actuates
  // the changed LC masks. Returns true when the batch pool geometry
  // changed (the caller restarts adaptation). `force` actuates even when
  // no width changed (initial installation, base-pool change).
  bool EvaluateSlo(bool force);
  // Governor step of one control period: runs EvaluateSlo and restarts
  // adaptation on batch-pool changes.
  void EvaluateSloTick();
  void ReapDeadLcApps();
  size_t LcIndex(AppId id) const;
  void ReapDeadApps();
  // Drops apps_[index]: detaches its monitor, removes its group (per-app)
  // or evicts it from its cluster, and tells the policy. Follow the last
  // drop with one AfterAppRemoval.
  void DropApp(size_t index);
  // Forgets the pending plan (plans index the old app set) and restarts
  // adaptation, or re-adopts the fair share while degraded.
  void AfterAppRemoval();
  void TickImpl();
  void TickProfiling();
  void TickExploration();
  void TickIdle();
  void TickDegraded();
  void EnterExploration();
  void EnterIdle();
  void EnterDegraded();
  size_t AppIndex(AppId id) const;

  // The plan builders write plan_ and return it.
  //
  // Builds the plan realising `state` over the slot map `app_slot`: one
  // CLOS entry per slot (each app's own group for per-app policies, the
  // slot groups otherwise) and a binding for each live app outside its
  // slot's group.
  const ActuationPlan& PlanForLayout(const SystemState& state,
                                     const std::vector<uint32_t>& app_slot);
  // PlanForLayout plus the decision's prefetch writes.
  const ActuationPlan& PlanForDecision(const PartitionDecision& decision);
  // Builds the profiling plan: the probed app gets the probe allocation,
  // every co-runner is squeezed to minimal resources.
  const ActuationPlan& PlanForProbe();

  // Lands `plan` through the actuator as one counted attempt under an
  // apply_schemata span, and audits each CLOS it changed (or the rollback).
  Status ApplyPlan(const ActuationPlan& plan);

  // ApplyPlan plus the retry policy: on success, clears the failure
  // streak; on failure, schedules a retry under backoff and, after
  // kMaxConsecutiveFailures in a row, enters the degraded phase. Returns
  // true when the plan is on the machine.
  bool Actuate(const ActuationPlan& plan);

  // Actuate for a policy decision, once its slot groups exist.
  bool ActuateDecision(const PartitionDecision& decision);

  // Retries pending_plan_ once its backoff expires. Returns true when the
  // control loop may run this tick (no pending plan stalls it).
  bool RetryPendingActuation();

  // Samples `app` through TrySample and updates its quarantine streaks.
  SampleOutcome SampleApp(ManagedApp& app);

  // Converts a backoff delay in periods to whole ticks (at least 1).
  int DelayTicks(double periods) const;

  // Appends a kPhaseTransition / kQuarantineChange audit record (no-ops
  // without an attached audit log).
  void EmitPhaseAudit(const char* detail);
  void EmitQuarantineAudit(const ManagedApp& app, bool engaged);

  // STREAM's LLC miss rate at the given MBA level — the denominator of the
  // memory traffic ratio (§5.3). STREAM is bandwidth-bound at every level,
  // so its miss rate equals the MBA cap divided by the line size; the
  // closed form stands in for the paper's offline STREAM measurement.
  double StreamMissRateReference(MbaLevel level) const;

  Resctrl* resctrl_;      // Not owned.
  PerfMonitor* monitor_;  // Not owned.
  // Lands every resctrl write the manager makes.
  Actuator actuator_;
  ResourceManagerParams params_;
  // The machine's MBA cap curve, for StreamMissRateReference.
  MbaThrottleModel throttle_;
  Rng rng_;
  Backoff backoff_;
  // Batch pool the fairness allocation runs over. Outside SLO mode it is
  // the installed pool verbatim; in SLO mode it is base_pool_ minus the
  // LC slices.
  ResourcePool pool_;
  ResourcePool base_pool_;

  // SLO mode state (empty/inert unless params.slo.enabled).
  std::vector<LcManaged> lc_apps_;
  uint64_t slo_resizes_ = 0;
  uint64_t slo_unattainable_ticks_ = 0;

  Phase phase_ = Phase::kIdle;
  std::vector<ManagedApp> apps_;
  // The classification/allocation policy.
  std::unique_ptr<PartitionPolicy> policy_;
  SystemState state_;
  // Slot each app runs in (identity for per-app policies); parallel to
  // apps_, installed by AdoptDecision.
  std::vector<uint32_t> app_slot_;
  // Shared cluster groups, indexed by slot (clustered policies only).
  std::vector<ResctrlGroupId> slot_groups_;

  // Profiling progress.
  size_t profile_app_ = 0;
  Probe probe_ = Probe::kFull;

  // Best state observed during this exploration (lowest unfairness of the
  // online slowdown estimates). Algorithm 1 ends exploration after theta
  // unproductive neighbor perturbations; the perturbations themselves were
  // applied, so on entering the idle phase the manager restores the best
  // state rather than parking on the last random neighbor.
  SystemState best_state_;
  double best_unfairness_ = 0.0;
  bool has_best_state_ = false;

  // Actuation hardening state.
  std::optional<ActuationPlan> pending_plan_;
  int backoff_ticks_remaining_ = 0;
  int consecutive_actuation_failures_ = 0;
  int degraded_success_streak_ = 0;

  uint64_t actuation_attempts_ = 0;
  uint64_t actuation_failures_ = 0;
  uint64_t rollbacks_ = 0;
  uint64_t degraded_entries_ = 0;
  uint64_t degraded_recoveries_ = 0;
  uint64_t quarantines_ = 0;

  uint64_t last_seen_generation_ = 0;
  // Machine input generation at the last idle readback that found no
  // drift; TickIdle skips the readback while the machine still reports it.
  // Cleared by every path that changes the intended partition or touches
  // resctrl (AdoptDecision, EnsureSlotGroups, ApplyPlan).
  std::optional<uint64_t> verified_generation_;
  uint64_t adaptations_started_ = 0;
  double last_exploration_us_ = 0.0;
  RunningStats exploration_time_stats_;

  // Observability (DESIGN.md §8). obs_ is not owned; audit_trigger_ names
  // the decision path that produced the plan currently being actuated, and
  // trace_tick_ points at the stack-scoped virtual clock while Tick() runs.
  Observability* obs_ = nullptr;
  const char* audit_trigger_ = "adaptation_start";
  TraceTick* trace_tick_ = nullptr;
  uint64_t ticks_ = 0;

  // Per-tick working storage, sized by ReserveTickBuffers. Each buffer
  // belongs to this manager alone: fleet workers tick managers
  // concurrently. Contents are unspecified between uses.
  PartitionDecision decision_;  // What the policy writes each decision into.
  ActuationPlan plan_;          // What the plan builders write.
  // TickExploration's samples, signals and slowdown estimates.
  std::vector<SampleOutcome> outcomes_;
  std::vector<PolicySignals> signals_;
  std::vector<double> slowdowns_;
  // EvaluateSlo's per-LC-app plan.
  std::vector<SloDecision> slo_decisions_;
  std::vector<uint32_t> slo_firsts_;
};

}  // namespace copart

#endif  // COPART_CORE_RESOURCE_MANAGER_H_
