// Mapping from an MBA level to the bandwidth cap it imposes on a CLOS.
//
// Intel MBA is approximate: the programmed percentage is a *request-rate*
// throttle, and the achievable bandwidth fraction at low levels is typically
// higher than the programmed value (the delay-based mechanism under-throttles
// streams with high memory-level parallelism). We model the cap as
//
//     cap(level) = (level/100)^exponent * total_bandwidth
//
// with exponent < 1 (default 0.7), which reproduces the paper's measured
// thresholds: CG (~7.5 GB/s demand) retains >=90% performance at level 20
// while losing >10% at level 10 (paper §4.1), and STREAM's achieved traffic
// remains monotone in the level (used as the traffic-ratio reference, §5.3).
// The latency-side effect of MBA (per-request delay hurting low-MLP apps
// even when bandwidth is plentiful) is modeled separately per workload via
// WorkloadDescriptor::mba_kappa.
#ifndef COPART_MEMBW_MBA_THROTTLE_MODEL_H_
#define COPART_MEMBW_MBA_THROTTLE_MODEL_H_

#include <cmath>
#include <cstdint>

#include "common/logging.h"
#include "membw/mba.h"

namespace copart {

class MbaThrottleModel {
 public:
  explicit MbaThrottleModel(double exponent = 0.7) : exponent_(exponent) {
    CHECK_GT(exponent, 0.0);
    // One std::pow per legal level, here, instead of one per query: the
    // solve and the controller ask for a cap every dirty epoch and every
    // exploration period.
    for (uint32_t step = 0; step < kLevels; ++step) {
      const MbaLevel level =
          MbaLevel::FromPercentChecked(MbaLevel::kMin + step * MbaLevel::kStep);
      cap_fraction_[step] = std::pow(level.percent() / 100.0, exponent_);
    }
  }

  // Fraction of the controller's total bandwidth this CLOS may inject.
  // 1.0 at level 100.
  double CapFraction(MbaLevel level) const {
    return cap_fraction_[level.StepsAboveMin()];
  }

  double exponent() const { return exponent_; }

 private:
  static constexpr uint32_t kLevels =
      (MbaLevel::kMax - MbaLevel::kMin) / MbaLevel::kStep + 1;

  double exponent_;
  double cap_fraction_[kLevels];
};

}  // namespace copart

#endif  // COPART_MEMBW_MBA_THROTTLE_MODEL_H_
