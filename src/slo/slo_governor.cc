#include "slo/slo_governor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "serve/queue_model.h"
#include "slo/bandit_governor.h"
#include "slo/mpc_governor.h"

namespace copart {

static_assert(SloGovernor::kHeadroom > 0.0);
static_assert(SloGovernor::kMaxUtilization > 0.0 &&
              SloGovernor::kMaxUtilization <= 1.0);
static_assert(SloGovernor::kShrinkLoadMargin >= 1.0);
static_assert(SloGovernor::kLoadBucketStep > 1.0);

SloGovernor::SloGovernor(const SloParams& params, LcAppModel model)
    : params_(params), model_(std::move(model)) {
  CHECK_GE(params_.lc_way_floor, 1u);
  CHECK_GT(model_.slo_p95_ms, 0.0);
  CHECK_GT(model_.instructions_per_request, 0.0);
  CHECK(model_.capability_ips != nullptr);
}

double SloGovernor::ServiceRps(uint32_t ways) {
  if (ways >= service_rps_cache_.size()) {
    service_rps_cache_.resize(ways + 1, -1.0);
  }
  double& slot = service_rps_cache_[ways];
  if (slot < 0.0) {
    slot = model_.capability_ips(ways) / model_.instructions_per_request;
  }
  return slot;
}

double SloGovernor::P95Ms(double offered_rps, uint32_t ways) {
  return PredictedP95Ms(offered_rps, ServiceRps(ways));
}

bool SloGovernor::Meets(double offered_rps, uint32_t ways, double p95_ms) {
  return p95_ms <= model_.slo_p95_ms / kHeadroom &&
         offered_rps <= kMaxUtilization * ServiceRps(ways);
}

uint32_t SloGovernor::WayFloor(uint32_t max_ways) const {
  return std::min(params_.lc_way_floor, max_ways);
}

int SloGovernor::LoadBucket(double offered_rps) {
  if (!(offered_rps > 1.0)) return 0;
  return static_cast<int>(
      std::floor(std::log(offered_rps) / std::log(kLoadBucketStep)));
}

SloDecision SloGovernor::SmallestMeeting(double offered_rps,
                                         uint32_t max_ways) {
  SloDecision decision;
  decision.attainable = false;
  for (uint32_t ways = WayFloor(max_ways); ways <= max_ways; ++ways) {
    decision.lc_ways = ways;
    decision.predicted_p95_ms = P95Ms(offered_rps, ways);
    if (Meets(offered_rps, ways, decision.predicted_p95_ms)) {
      decision.attainable = true;
      break;
    }
  }
  return decision;
}

SloDecision SloGovernor::Plan(double offered_rps, uint32_t max_ways,
                              uint32_t current_ways, uint32_t pool_max_mba) {
  CHECK_GE(max_ways, 1u);
  SloDecision decision = SmallestMeeting(offered_rps, max_ways);

  // Shrink hysteresis: only narrow the slice if the narrower width would
  // also survive a kShrinkLoadMargin load bump, so a load hovering at a
  // way-quantization boundary cannot flap the allocation every period.
  if (current_ways > 0 && decision.lc_ways < current_ways) {
    const SloDecision guarded =
        SmallestMeeting(offered_rps * kShrinkLoadMargin, max_ways);
    if (guarded.lc_ways > decision.lc_ways) {
      decision.lc_ways = std::min(current_ways, guarded.lc_ways);
      // Report the prediction at the width actually kept.
      decision.predicted_p95_ms = P95Ms(offered_rps, decision.lc_ways);
    }
  }
  StepAfterWalk(offered_rps, max_ways, &decision);

  // Grow ways first, then MBA: an SLO no permitted width attains, a load
  // peak past protect_rps_threshold or a learned overload signal caps the
  // batch slice's MBA ceiling.
  decision.batch_mba_percent = pool_max_mba;
  if (!decision.attainable ||
      (params_.protect_rps_threshold > 0.0 &&
       offered_rps >= params_.protect_rps_threshold) ||
      PredictsOverload(offered_rps)) {
    decision.batch_mba_percent =
        std::min(pool_max_mba, kBatchMbaProtectPercent);
  }
  return decision;
}

std::unique_ptr<SloGovernor> MakeSloGovernor(const std::string& name,
                                             const SloParams& params,
                                             LcAppModel model) {
  if (name == "threshold") {
    return std::make_unique<SloGovernor>(params, std::move(model));
  }
  if (name == "mpc") {
    return std::make_unique<MpcSloGovernor>(params, std::move(model));
  }
  if (name == "bandit") {
    return std::make_unique<BanditSloGovernor>(params, std::move(model));
  }
  LOG_FATAL << "unknown SLO governor: " << name;
  __builtin_unreachable();
}

const std::vector<std::string>& RegisteredSloGovernorNames() {
  static const std::vector<std::string> kNames{"threshold", "mpc", "bandit"};
  return kNames;
}

}  // namespace copart
