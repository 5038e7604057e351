#include "membw/bandwidth_arbiter.h"

#include <algorithm>

#include "common/logging.h"

namespace copart {

BandwidthArbiter::BandwidthArbiter(double total_bytes_per_sec)
    : total_bytes_per_sec_(total_bytes_per_sec) {
  CHECK_GT(total_bytes_per_sec, 0.0);
}

void BandwidthArbiter::ArbitrateImpl(const std::vector<double>& capped,
                                     std::vector<uint8_t>& satisfied,
                                     std::vector<double>& grants) const {
  const size_t n = capped.size();
  double total_demand = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total_demand += capped[i];
  }
  if (total_demand <= total_bytes_per_sec_) {
    grants.assign(capped.begin(), capped.end());
    return;
  }

  // Max-min water-filling: repeatedly satisfy every requester below the fair
  // level, recompute the level over the rest. Terminates in <= n rounds.
  grants.assign(n, 0.0);
  std::fill(satisfied.begin(), satisfied.end(), uint8_t{0});
  double remaining = total_bytes_per_sec_;
  size_t active = n;
  while (active > 0) {
    const double fair_share = remaining / static_cast<double>(active);
    bool anyone_below = false;
    for (size_t i = 0; i < n; ++i) {
      if (!satisfied[i] && capped[i] <= fair_share) {
        grants[i] = capped[i];
        remaining -= capped[i];
        satisfied[i] = 1;
        --active;
        anyone_below = true;
      }
    }
    if (!anyone_below) {
      // Everyone left wants more than the fair share: split evenly.
      for (size_t i = 0; i < n; ++i) {
        if (!satisfied[i]) {
          grants[i] = fair_share;
        }
      }
      break;
    }
  }
}

void BandwidthArbiter::ArbitrateCappedInto(const std::vector<double>& capped,
                                           std::vector<double>* grants) {
  scratch_satisfied_.resize(capped.size());
  ArbitrateImpl(capped, scratch_satisfied_, *grants);
}

std::vector<double> BandwidthArbiter::Arbitrate(
    const std::vector<BandwidthRequest>& requests) const {
  const size_t n = requests.size();
  std::vector<double> capped(n);
  std::vector<uint8_t> satisfied(n);
  for (size_t i = 0; i < n; ++i) {
    CHECK_GE(requests[i].demand_bytes_per_sec, 0.0);
    CHECK_GE(requests[i].cap_bytes_per_sec, 0.0);
    capped[i] = std::min(requests[i].demand_bytes_per_sec,
                         requests[i].cap_bytes_per_sec);
  }
  std::vector<double> grants;
  ArbitrateImpl(capped, satisfied, grants);
  return grants;
}

}  // namespace copart
