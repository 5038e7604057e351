// LFOC-style cache clustering as a PartitionPolicy.
//
// LFOC ("Lightweight Fairness-Oriented Cache clustering") classifies each
// app as *light* (too few LLC accesses to benefit from capacity),
// *streaming* (high miss ratio plus high memory traffic: thrashes any
// capacity it gets), or *sensitive* (benefits from cache), then packs the
// classes into SHARED CLOSes: one light cluster on a sliver of ways, one
// MBA-throttled streaming cluster, and the sensitive apps across one or
// more clusters holding the bulk of the pool. Because apps share CLOSes,
// the policy scales to many more apps than the hardware CLOS count — the
// regime where per-app CoPart stops admitting (one CLOS and one way per
// app).
//
// The LFOC+ refinement ("lfoc+") resizes the sensitive-cluster count
// online: when the max/min miss-pressure spread inside the sensitive class
// exceeds kSplitSpread, another cluster is opened so the most-starved apps
// get isolated capacity; when the spread collapses below kMergeSpread,
// clusters merge back to free CLOSes. Plain "lfoc" keeps a single
// sensitive cluster. The count survives StartExploration, so a
// churn or drift re-explores from the current clustering.
//
// Steady state: Allocate converges once the classes and every app's
// allocation (its slot's ways and MBA level, not the slot index) have
// repeated for kResizeCooldownPeriods + 1 decisions, and the driver parks
// in idle until a consolidation change or IPS drift.
//
// No profiling probes and no RNG: the clustering signal is each app's
// *miss pressure* — LLC accesses/sec x miss ratio, i.e. the miss traffic it
// generates under its current allocation. Unlike a peak-IPS slowdown proxy
// (which is flat when every observation happens under the same contended
// allocation), miss pressure separates a starved cache-sensitive app from a
// satisfied one using nothing but the online PMCs, so splitting and
// way-weighting have a real gradient to follow. Every clustering decision
// is a deterministic function of the signal history.
#ifndef COPART_CORE_LFOC_POLICY_H_
#define COPART_CORE_LFOC_POLICY_H_

#include <string>
#include <vector>

#include "core/partition_policy.h"

namespace copart {

class LfocPolicy : public PartitionPolicy {
 public:
  // Ways pinned to the light cluster (apps that cannot use cache anyway)
  // and to the streaming cluster (apps that thrash it), when non-empty.
  static constexpr uint32_t kLightWays = 1;
  static constexpr uint32_t kStreamingWays = 1;
  // MBA ceiling for the streaming cluster: bandwidth hogs are throttled so
  // the sensitive clusters' misses see an uncongested controller.
  static constexpr uint32_t kStreamingMbaPercent = 40;
  // LFOC+ cluster resizing: a max/min miss-pressure spread inside the
  // sensitive class above kSplitSpread opens one more sensitive cluster;
  // one below kMergeSpread merges two back. kResizeCooldownPeriods
  // decisions must pass between resizes.
  static constexpr double kSplitSpread = 0.15;
  static constexpr double kMergeSpread = 0.05;
  static constexpr int kResizeCooldownPeriods = 4;

  LfocPolicy(const ResourceManagerParams& params, bool plus);

  std::string name() const override { return plus_ ? "lfoc+" : "lfoc"; }
  bool per_app_groups() const override { return false; }
  bool needs_profiling() const override { return false; }
  bool restore_best_state() const override { return false; }

  void OnAppAdded() override;
  void OnAppRemoved(size_t index) override;

  void StartExploration(const ResourcePool& pool, size_t num_apps,
                        PartitionDecision* decision) override;
  void FairShare(const ResourcePool& pool, size_t num_apps,
                 PartitionDecision* decision) const override;

  void Classify(const std::vector<PolicySignals>& signals) override;
  void Allocate(const SystemState& current,
                const std::vector<PolicySignals>& signals, Rng& rng,
                PartitionDecision* decision) override;

  ResourceClass LlcClassOf(size_t app) const override;
  ResourceClass MbaClassOf(size_t app) const override;

 protected:
  enum class AppClass { kLight, kStreaming, kSensitive };

  ResourceManagerParams params_;
  bool plus_;
  // Per-app state, index-parallel with the driver's apps_. Classes are
  // sticky across unhealthy/quarantined periods.
  std::vector<AppClass> classes_;
  // Last healthy miss pressure: llc_access_rate x llc_miss_ratio.
  std::vector<double> pressure_;
  // Last healthy memory-traffic ratio (CbpPolicy's hysteresis input).
  std::vector<double> traffic_ratios_;
  // LFOC+ sensitive-cluster sizing; survives StartExploration.
  uint32_t num_sensitive_clusters_ = 1;
  int resize_cooldown_remaining_ = 0;
  // Steady state: the previous decision's classes and per-app allocations,
  // and how many decisions in a row repeated them (Allocate converges past
  // kResizeCooldownPeriods).
  std::vector<AppClass> last_classes_;
  std::vector<AppAllocation> last_allocations_;
  int stable_decisions_ = 0;

 private:
  // Writes the clustered decision for this period's classes and pressures.
  void Cluster(const ResourcePool& pool, PartitionDecision* decision);

  // Cluster's working storage, sized in OnAppAdded (every list holds at
  // most one entry per app). Contents are unspecified between calls.
  std::vector<size_t> lights_, streams_, sens_;
  // Sensitive apps, highest pressure first; cluster c is a contiguous run.
  std::vector<size_t> order_;
  std::vector<uint32_t> cluster_ways_;
  std::vector<double> weight_;
  std::vector<double> fraction_;
  std::vector<uint32_t> by_fraction_;
};

}  // namespace copart

#endif  // COPART_CORE_LFOC_POLICY_H_
