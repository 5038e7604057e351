// CBP-style prefetch coordination on top of LFOC clustering.
//
// Hardware prefetchers speculatively inflate a streaming app's bandwidth
// demand; under consolidation that speculation steals memory controller
// slots from everyone else. CBP ("Coordinated Bandwidth Partitioning")
// adds the prefetch throttle as a third actuator next to CAT and MBA:
// apps classified streaming whose memory-traffic ratio exceeds the
// classifier's Gamma threshold get their prefetcher throttled to
// kThrottledPrefetchPercent — trading a longer per-miss stall
// for less speculative traffic — and are released only once their traffic
// ratio falls below CbpParams::release_traffic_ratio (hysteresis, so a
// ratio hovering at the threshold cannot flap the MSR every period).
// Cache clustering itself is inherited from LfocPolicy unchanged.
#ifndef COPART_CORE_CBP_POLICY_H_
#define COPART_CORE_CBP_POLICY_H_

#include <string>
#include <vector>

#include "core/lfoc_policy.h"

namespace copart {

class CbpPolicy : public LfocPolicy {
 public:
  // Prefetcher setting of a throttled streaming app.
  static constexpr uint32_t kThrottledPrefetchPercent = 40;

  explicit CbpPolicy(const ResourceManagerParams& params);

  std::string name() const override { return "cbp"; }

  void OnAppAdded() override;
  void OnAppRemoved(size_t index) override;

  void Allocate(const SystemState& current,
                const std::vector<PolicySignals>& signals, Rng& rng,
                PartitionDecision* decision) override;

 private:
  std::vector<bool> throttled_;
};

}  // namespace copart

#endif  // COPART_CORE_CBP_POLICY_H_
