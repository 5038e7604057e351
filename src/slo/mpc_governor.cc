#include "slo/mpc_governor.h"

#include <algorithm>
#include <cmath>

namespace copart {

static_assert(MpcSloGovernor::kLearningRate > 0.0 &&
              MpcSloGovernor::kLearningRate <= 1.0);
static_assert(MpcSloGovernor::kMinCorrection > 0.0 &&
              MpcSloGovernor::kMaxCorrection >= MpcSloGovernor::kMinCorrection);
static_assert(MpcSloGovernor::kMinCellSamples >= 1);

double MpcSloGovernor::CorrectionFor(uint32_t ways,
                                     double offered_rps) const {
  const int bucket = LoadBucket(offered_rps);
  const auto cell = cells_.find({ways, bucket});
  if (cell != cells_.end() && cell->second.samples >= kMinCellSamples) {
    return cell->second.correction;
  }
  const auto marginal = load_marginal_.find(bucket);
  if (marginal != load_marginal_.end() &&
      marginal->second.samples >= kMinCellSamples) {
    return marginal->second.correction;
  }
  return 1.0;  // Optimistic prior: trust the analytic model until taught.
}

double MpcSloGovernor::P95Ms(double offered_rps, uint32_t ways) {
  const double analytic = SloGovernor::P95Ms(offered_rps, ways);
  if (!std::isfinite(analytic)) return analytic;
  return analytic * CorrectionFor(ways, offered_rps);
}

// The learned marginal says the analytic model under-predicts tail latency
// at this load level — shield the LC app's memory traffic before the queue
// proves it again.
bool MpcSloGovernor::PredictsOverload(double offered_rps) const {
  const auto marginal = load_marginal_.find(LoadBucket(offered_rps));
  return marginal != load_marginal_.end() &&
         marginal->second.samples >= kMinCellSamples &&
         marginal->second.correction >= kProtectCorrection;
}

void MpcSloGovernor::ObserveOutcome(const SloOutcome& outcome) {
  if (outcome.lc_ways == 0) return;
  const double analytic =
      SloGovernor::P95Ms(outcome.offered_rps, outcome.lc_ways);
  double ratio;
  if (outcome.stalled) {
    // Queued requests, zero completions: the strongest evidence the
    // analytic model over-estimated capability at this operating point.
    ratio = kMaxCorrection;
  } else if (std::isfinite(analytic) && analytic > 0.0 &&
             outcome.measured_p95_ms > 0.0) {
    ratio = std::clamp(outcome.measured_p95_ms / analytic, kMinCorrection,
                       kMaxCorrection);
  } else {
    // The analytic model already predicted saturation (+inf) or the
    // period completed nothing without queueing: no ratio to learn from.
    return;
  }
  // EWMA of the ratios; a cell's first outcome sets it outright.
  const auto absorb = [ratio](Cell& cell) {
    cell.correction = cell.samples == 0
                          ? ratio
                          : (1.0 - kLearningRate) * cell.correction +
                                kLearningRate * ratio;
    ++cell.samples;
  };
  const int bucket = LoadBucket(outcome.offered_rps);
  absorb(cells_[{outcome.lc_ways, bucket}]);
  absorb(load_marginal_[bucket]);
  ++outcomes_observed_;
}

}  // namespace copart
