// dCat-style dynamic cache partitioning baseline.
//
// The paper's closest related work ([45], Xu et al., EuroSys'18 "dCat")
// dynamically resizes LLC partitions from lightweight online feedback,
// without miss-curve models: each period, classify every app by how its
// performance responded to its last size change and grow the apps that
// benefit from cache at the expense of those that do not. This
// implementation distills that feedback loop:
//
//   - Every app keeps a per-way marginal benefit estimate, updated from
//     the measured IPS delta whenever its allocation changed (Classify,
//     healthy samples only).
//   - Each period, the app with the highest positive estimated benefit
//     takes one way from the app with the lowest estimate (if the transfer
//     is feasible), with estimates decayed so stale observations fade
//     (Allocate, after a cold-start probe that hands each app a way in
//     turn). The policy never converges: the loop runs every period.
//   - Memory bandwidth is NOT managed (like dCat and the paper's CAT-only
//     class): MBA stays at the equal static share.
//
// It optimizes throughput via local feedback, giving the comparison a
// dynamic LLC-only baseline with a genuinely different algorithm from
// CoPart's classifier + matching approach (CAT-only shares CoPart's
// machinery; dCat does not). Registered as "dcat" (core/partition_policy.h).
#ifndef COPART_CORE_DCAT_POLICY_H_
#define COPART_CORE_DCAT_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/partition_policy.h"

namespace copart {

class DcatPolicy : public PartitionPolicy {
 public:
  std::string name() const override { return "dcat"; }
  bool per_app_groups() const override { return true; }
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

  ResourceClass LlcClassOf(size_t /*app*/) const override {
    return ResourceClass::kMaintain;
  }
  ResourceClass MbaClassOf(size_t /*app*/) const override {
    return ResourceClass::kMaintain;
  }

 private:
  struct AppState {
    double prev_ips = 0.0;
    // Smoothed estimate of the relative IPS change per way gained.
    double benefit_estimate = 0.0;
    int last_delta_ways = 0;  // Allocation change applied last period.
  };

  std::vector<AppState> apps_;
  uint64_t tick_ = 0;

  // Exponential smoothing for the benefit estimates and the minimum
  // estimated benefit that justifies a transfer.
  static constexpr double kSmoothing = 0.5;
  static constexpr double kMinBenefit = 0.01;
};

}  // namespace copart

#endif  // COPART_CORE_DCAT_POLICY_H_
