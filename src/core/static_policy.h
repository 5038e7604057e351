// The static baselines as one PartitionPolicy: EQ, NoPart, ST and UCP.
//
//   EQ      ("eq")     — equal ways and an equal MBA share per app
//                        (SystemState::EqualShareThrottled), one group each.
//   NoPart  ("nopart") — no partitioning: one full-pool slot at the pool's
//                        MBA ceiling that every app shares. On the
//                        whole-machine pool this is exactly an unmanaged
//                        machine (every app in CLOS 0).
//   ST, UCP            — a fixed state computed from the machine by the
//                        harness (harness/static_oracle.h's offline search,
//                        core/ucp_policy.h's utility allocation).
//
// A static policy runs no profiling, never restores a best state, and its
// opening decision is already converged: the driver actuates it and parks
// in idle, where its readback keeps the allocation on the machine. Apps are
// admitted one at a time; until the managed set reaches the fixed state's
// size, the state for the smaller set is EqualShareThrottled.
#ifndef COPART_CORE_STATIC_POLICY_H_
#define COPART_CORE_STATIC_POLICY_H_

#include <optional>
#include <string>
#include <vector>

#include "core/partition_policy.h"

namespace copart {

class StaticPartitionPolicy : public PartitionPolicy {
 public:
  // EQ (`shared` false) or NoPart (`shared` true).
  StaticPartitionPolicy(std::string name, bool shared);
  // ST / UCP: `state` once the managed set has state.NumApps() apps on
  // state.pool().
  StaticPartitionPolicy(std::string name, SystemState state);

  std::string name() const override { return name_; }
  bool per_app_groups() const override { return !shared_; }
  bool needs_profiling() const override { return false; }
  bool restore_best_state() const override { return false; }

  void OnAppAdded() override {}
  void OnAppRemoved(size_t /*index*/) override {}

  void StartExploration(const ResourcePool& pool, size_t num_apps,
                        PartitionDecision* decision) override;
  void FairShare(const ResourcePool& pool, size_t num_apps,
                 PartitionDecision* decision) const override;

  void Classify(const std::vector<PolicySignals>& /*signals*/) override {}
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
  std::string name_;
  bool shared_ = false;
  std::optional<SystemState> fixed_;
};

}  // namespace copart

#endif  // COPART_CORE_STATIC_POLICY_H_
