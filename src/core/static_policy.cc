#include "core/static_policy.h"

#include <utility>

namespace copart {

StaticPartitionPolicy::StaticPartitionPolicy(std::string name, bool shared)
    : name_(std::move(name)), shared_(shared) {}

StaticPartitionPolicy::StaticPartitionPolicy(std::string name,
                                             SystemState state)
    : name_(std::move(name)), fixed_(std::move(state)) {}

PartitionDecision StaticPartitionPolicy::StartExploration(
    const ResourcePool& pool, size_t num_apps) {
  PartitionDecision decision = FairShare(pool, num_apps);
  decision.converged = true;
  return decision;
}

PartitionDecision StaticPartitionPolicy::FairShare(const ResourcePool& pool,
                                                   size_t num_apps) const {
  if (shared_) {
    PartitionDecision decision;
    decision.state = SystemState::EqualShare(pool, 1);
    decision.app_slot.assign(num_apps, 0);
    return decision;
  }
  if (fixed_.has_value() && fixed_->NumApps() == num_apps &&
      fixed_->pool() == pool) {
    return MakePerAppDecision(*fixed_);
  }
  return MakePerAppDecision(SystemState::EqualShareThrottled(pool, num_apps));
}

PartitionDecision StaticPartitionPolicy::Allocate(
    const SystemState& current, const std::vector<PolicySignals>& signals,
    Rng& /*rng*/) {
  // Unreachable through the driver (the opening decision converges); a
  // direct caller gets the same static decision.
  return StartExploration(current.pool(), signals.size());
}

}  // namespace copart
