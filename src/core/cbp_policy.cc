#include "core/cbp_policy.h"

namespace copart {

CbpPolicy::CbpPolicy(const ResourceManagerParams& params)
    : LfocPolicy(params, /*plus=*/true) {}

void CbpPolicy::OnAppAdded() {
  LfocPolicy::OnAppAdded();
  throttled_.push_back(false);
}

void CbpPolicy::OnAppRemoved(size_t index) {
  LfocPolicy::OnAppRemoved(index);
  throttled_.erase(throttled_.begin() + static_cast<ptrdiff_t>(index));
}

void CbpPolicy::Allocate(const SystemState& current,
                         const std::vector<PolicySignals>& signals, Rng& rng,
                         PartitionDecision* decision) {
  LfocPolicy::Allocate(current, signals, rng, decision);
  decision->prefetch_percent.resize(throttled_.size());
  bool flipped = false;
  for (size_t i = 0; i < throttled_.size(); ++i) {
    const bool was_throttled = throttled_[i];
    if (!throttled_[i]) {
      if (classes_[i] == AppClass::kStreaming &&
          traffic_ratios_[i] >= params_.classifier.traffic_ratio_high) {
        throttled_[i] = true;
      }
    } else if (classes_[i] != AppClass::kStreaming ||
               traffic_ratios_[i] < params_.cbp.release_traffic_ratio) {
      throttled_[i] = false;
    }
    flipped = flipped || throttled_[i] != was_throttled;
    decision->prefetch_percent[i] =
        throttled_[i] ? kThrottledPrefetchPercent : 100u;
  }
  if (flipped) {
    // A parked decision is never actuated, so a throttle that flips here
    // must land first: the decision is unstable.
    decision->converged = false;
    stable_decisions_ = 0;
  }
}

}  // namespace copart
