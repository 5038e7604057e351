// Pluggable classification/allocation policies for the resource manager.
//
// ResourceManager (core/resource_manager.h) is the *driver*: it owns the
// shared substrate — fallible PMC sampling with quarantine, profiling probe
// scheduling, transactional actuation with retry/backoff/degraded mode, the
// unfairness-trend governor, SLO slices and all telemetry. A PartitionPolicy
// owns the *decisions*: how sampled signals classify apps and which partition
// the machine should run next. CoPart's per-app classifier-FSMs + HR matching
// is one implementation (core/copart_partition_policy.h, which also covers
// the CAT-only and MBA-only baselines); the LFOC/LFOC+ clustering rivals and
// the CBP prefetch coordinator are others (core/lfoc_policy.h,
// core/cbp_policy.h), and so are the baselines: the static EQ, NoPart, ST
// and UCP (core/static_policy.h) and the dCat feedback loop
// (core/dcat_policy.h).
//
// Slot shapes. A decision's SystemState is *slot*-shaped: per-app policies
// emit one slot per app (slot i == app i, the classic CoPart layout), while
// clustering policies emit one slot per shared CLOS and map every app to a
// slot through PartitionDecision::app_slot. The driver actuates slots onto
// resctrl groups — per-app groups for per_app_groups() policies, lazily
// created "copart_cluster_<k>" groups otherwise — and binds apps to their
// slot's group as part of the same transaction.
#ifndef COPART_CORE_PARTITION_POLICY_H_
#define COPART_CORE_PARTITION_POLICY_H_

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/classifiers.h"
#include "core/copart_params.h"
#include "core/system_state.h"

namespace copart {

// Per-app signal bundle the driver assembles from one control period's PMC
// samples. `healthy` mirrors the quarantine substrate's verdict on this
// period's sample; when false, every derived field except `slowdown` and
// `quarantined` is stale and must not drive classification.
struct PolicySignals {
  bool healthy = false;
  bool quarantined = false;
  double ips = 0.0;
  // Relative IPS change vs. the previous trusted period (deltaP input).
  double perf_delta = 0.0;
  double llc_access_rate = 0.0;
  double llc_miss_ratio = 0.0;
  // LLC miss rate over the STREAM reference at the app's current MBA level.
  double traffic_ratio = 0.0;
  // Online slowdown estimate (ips_full / ips, >= 1); 1.0 when unknown or
  // quarantined. Only meaningful for policies that run profiling probes.
  double slowdown = 1.0;
};

// Profiling probe kinds, mirroring the driver's §5.4.1 schedule.
enum class ProbeKind { kFull = 0, kFewWays = 1, kLowMba = 2 };

// Measurements of one healthy probe period for one app.
struct ProbeSignal {
  double ips = 0.0;
  double ips_full = 0.0;  // Recorded by the kFull probe (>= 1).
  double llc_access_rate = 0.0;
  double llc_miss_ratio = 0.0;
  double llc_misses_per_sec = 0.0;
  // STREAM miss-rate reference at the probe's MBA level (traffic-ratio
  // denominator).
  double stream_miss_rate_ref = 0.0;
};

// One allocation decision. `state` holds one AppAllocation per *slot*;
// `app_slot[i]` names the slot app i runs in (identity for per-app
// policies). `prefetch_percent` is the optional third actuator: empty
// leaves every app's prefetcher untouched, otherwise one 0..100 (step 10)
// value per app.
//
// The driver owns the decision and hands the same one to every policy call
// that decides; the policy overwrites every field in place, so the vectors
// keep their storage from period to period.
struct PartitionDecision {
  SystemState state;
  std::vector<uint32_t> app_slot;
  std::vector<uint32_t> prefetch_percent;
  // Exploration bookkeeping: true ends exploration (the driver parks in
  // idle). A converged opening decision (StartExploration) is how a static
  // policy skips exploration altogether. used_neighbor/retries feed trace
  // + audit.
  bool converged = false;
  bool used_neighbor = false;
  int retries = 0;

  // Empties the prefetch writes and clears the exploration flags, keeping
  // the storage. Every decision a policy writes starts from here.
  void ClearExtras() {
    prefetch_percent.clear();
    converged = false;
    used_neighbor = false;
    retries = 0;
  }
};

// Makes `decision` the identity-mapped (per-app) decision over its own
// state: slot i is app i, and ClearExtras().
inline void MakePerAppDecision(PartitionDecision* decision) {
  decision->app_slot.resize(decision->state.NumApps());
  std::iota(decision->app_slot.begin(), decision->app_slot.end(), 0u);
  decision->ClearExtras();
}

class PartitionPolicy {
 public:
  virtual ~PartitionPolicy() = default;

  virtual std::string name() const = 0;

  // True: the driver creates one resctrl group per app (and admission is
  // bounded by one way per app). False: the driver materializes shared
  // cluster groups on demand and binds apps per decision.
  virtual bool per_app_groups() const = 0;

  // True: the driver runs the three-probe profiling phase and feeds
  // ObserveProbe before exploration starts.
  virtual bool needs_profiling() const = 0;

  // True: on convergence the driver restores the fairest state observed
  // during exploration (only meaningful with profiled slowdowns).
  virtual bool restore_best_state() const = 0;

  // --- App lifetime (indices track the driver's apps_ vector) ---
  virtual void OnAppAdded() = 0;
  virtual void OnAppRemoved(size_t index) = 0;

  // --- Profiling (only called when needs_profiling()) ---
  virtual void ObserveProbe(size_t /*app*/, ProbeKind /*kind*/,
                            const ProbeSignal& /*signal*/) {}
  // The app was quarantined mid-profile; adopt conservative defaults.
  virtual void ObserveProbeSkipped(size_t /*app*/) {}

  // The methods below write a decision into `*decision`, which the caller
  // owns and which must not alias `current`. A policy sizes its own
  // buffers in OnAppAdded, so that a steady Allocate allocates nothing.

  // Resets exploration state and writes the opening decision. The driver
  // actuates it and starts feeding Classify/Allocate each period — unless
  // the decision is converged, in which case the driver parks in idle.
  virtual void StartExploration(const ResourcePool& pool, size_t num_apps,
                                PartitionDecision* decision) = 0;

  // The safest static decision for the pool — what the degraded phase pins
  // and what profiling/adaptation starts from. Must not consume RNG.
  virtual void FairShare(const ResourcePool& pool, size_t num_apps,
                         PartitionDecision* decision) const = 0;

  // Feeds one period's signals (index-parallel with the driver's apps_).
  virtual void Classify(const std::vector<PolicySignals>& signals) = 0;

  // Writes the next decision given the currently actuated state. May
  // consume `rng` (the draw order is part of the deterministic surface).
  virtual void Allocate(const SystemState& current,
                        const std::vector<PolicySignals>& signals, Rng& rng,
                        PartitionDecision* decision) = 0;

  // Latest per-app classes for telemetry and the public LlcClass/MbaClass
  // accessors (what the allocator saw or will see this period).
  virtual ResourceClass LlcClassOf(size_t app) const = 0;
  virtual ResourceClass MbaClassOf(size_t app) const = 0;
};

// Factory: builds the policy named by `name` — "copart", "cat-only",
// "mba-only", "lfoc", "lfoc+", "cbp", "eq", "nopart" or "dcat" (ST and UCP
// need the machine, so the harness builds them as fixed-state
// StaticPartitionPolicy instances); CHECK-fails on an unknown name.
std::unique_ptr<PartitionPolicy> MakePartitionPolicy(
    const std::string& name, const ResourceManagerParams& params);

// Every registered policy name, in registration order — the conformance
// suite parameterizes over this.
const std::vector<std::string>& RegisteredPartitionPolicyNames();

}  // namespace copart

#endif  // COPART_CORE_PARTITION_POLICY_H_
