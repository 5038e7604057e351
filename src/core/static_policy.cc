#include "core/static_policy.h"

#include <utility>

namespace copart {

StaticPartitionPolicy::StaticPartitionPolicy(std::string name, bool shared)
    : name_(std::move(name)), shared_(shared) {}

StaticPartitionPolicy::StaticPartitionPolicy(std::string name,
                                             SystemState state)
    : name_(std::move(name)), fixed_(std::move(state)) {}

void StaticPartitionPolicy::StartExploration(const ResourcePool& pool,
                                             size_t num_apps,
                                             PartitionDecision* decision) {
  FairShare(pool, num_apps, decision);
  decision->converged = true;
}

void StaticPartitionPolicy::FairShare(const ResourcePool& pool,
                                      size_t num_apps,
                                      PartitionDecision* decision) const {
  if (shared_) {
    decision->state.AssignEqualShare(pool, 1);
    decision->app_slot.assign(num_apps, 0);
    decision->ClearExtras();
    return;
  }
  if (fixed_.has_value() && fixed_->NumApps() == num_apps &&
      fixed_->pool() == pool) {
    decision->state = *fixed_;
  } else {
    decision->state.AssignEqualShareThrottled(pool, num_apps);
  }
  MakePerAppDecision(decision);
}

void StaticPartitionPolicy::Allocate(const SystemState& current,
                                     const std::vector<PolicySignals>& signals,
                                     Rng& /*rng*/,
                                     PartitionDecision* decision) {
  // Unreachable through the driver (the opening decision converges); a
  // direct caller gets the same static decision.
  StartExploration(current.pool(), signals.size(), decision);
}

}  // namespace copart
