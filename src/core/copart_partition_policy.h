// CoPart's classification/allocation logic as a PartitionPolicy.
//
// This is the paper's controller (§5.2-§5.4) factored out of the driver:
// two classifier FSMs per app seeded from the profiling probes, the HR
// matcher for the allocation step, and Algorithm 1's theta-bounded random
// neighbor retry. One CLOS per app, profiling on, best-state restore on —
// byte-identical to the pre-refactor ResourceManager (the golden experiment
// suites pin this).
//
// The paper's single-resource baselines are modes of the same controller:
// CAT-only ("cat-only") freezes MBA moves at the equal static share, and
// MBA-only ("mba-only") freezes LLC moves at the equal split.
#ifndef COPART_CORE_COPART_PARTITION_POLICY_H_
#define COPART_CORE_COPART_PARTITION_POLICY_H_

#include <string>
#include <vector>

#include "core/classifiers.h"
#include "core/hr_matching.h"
#include "core/partition_policy.h"

namespace copart {

class CoPartPartitionPolicy : public PartitionPolicy {
 public:
  enum class Mode { kCoordinated, kCatOnly, kMbaOnly };

  explicit CoPartPartitionPolicy(const ResourceManagerParams& params,
                                 Mode mode = Mode::kCoordinated);

  std::string name() const override;
  bool per_app_groups() const override { return true; }
  bool needs_profiling() const override { return true; }
  bool restore_best_state() const override { return true; }

  void OnAppAdded() override;
  void OnAppRemoved(size_t index) override;

  void ObserveProbe(size_t app, ProbeKind kind,
                    const ProbeSignal& signal) override;
  void ObserveProbeSkipped(size_t app) override;

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

 private:
  struct AppState {
    // Initial FSM states selected by the profiling probes (§5.4.1).
    ResourceClass llc_initial = ResourceClass::kMaintain;
    ResourceClass mba_initial = ResourceClass::kMaintain;
    LlcClassifierFsm llc_fsm;
    MbaClassifierFsm mba_fsm;
  };

  // Profiling (§5.4.1): a probe degrading the app's IPS by more than
  // this sets its initial FSM state to Demand.
  static constexpr double kProfileDegradationThreshold = 0.10;

  bool llc_moves() const { return mode_ != Mode::kMbaOnly; }
  bool mba_moves() const { return mode_ != Mode::kCatOnly; }

  ResourceManagerParams params_;
  Mode mode_;
  std::vector<AppState> apps_;
  // Matcher inputs assembled by Classify (consumed by Allocate same period).
  std::vector<MatchAppInfo> infos_;
  // Resource events of the last adopted transition; FSM inputs next period.
  std::vector<ResourceEvent> llc_events_;
  std::vector<ResourceEvent> mba_events_;
  // The matcher's output and working storage, reused every period.
  MatchResult match_;
  int retry_count_ = 0;
};

}  // namespace copart

#endif  // COPART_CORE_COPART_PARTITION_POLICY_H_
