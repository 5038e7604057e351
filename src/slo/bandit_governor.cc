#include "slo/bandit_governor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace copart {

constexpr std::array<int, 4> BanditSloGovernor::kArms;

static_assert(BanditSloGovernor::kWayCost >= 0.0);

BanditSloGovernor::BanditSloGovernor(const SloParams& params,
                                     LcAppModel model)
    : SloGovernor(params, std::move(model)) {
  CHECK_GE(params_.bandit.exploration_c, 0.0);
}

size_t BanditSloGovernor::PickArm(const Context& context) {
  const int total = context_pulls_.count(context)
                        ? context_pulls_.at(context)
                        : 0;
  // Explore every arm once first, in declaration order.
  for (size_t i = 0; i < kArms.size(); ++i) {
    const auto it = arms_.find({context, i});
    if (it == arms_.end() || it->second.pulls == 0) return i;
  }
  size_t best = 0;
  double best_index = -1.0;
  for (size_t i = 0; i < kArms.size(); ++i) {
    const ArmStat& stat = arms_.at({context, i});
    const double mean = stat.reward_sum / stat.pulls;
    const double bonus =
        params_.bandit.exploration_c *
        std::sqrt(std::log(static_cast<double>(total)) / stat.pulls);
    const double index = mean + bonus;
    // Strict > keeps the earliest arm on ties — deterministic.
    if (index > best_index) {
      best_index = index;
      best = i;
    }
  }
  return best;
}

void BanditSloGovernor::StepAfterWalk(double offered_rps, uint32_t max_ways,
                                      SloDecision* decision) {
  const uint32_t floor = WayFloor(max_ways);
  const Context context{LoadBucket(offered_rps), last_phase_};
  const size_t arm = PickArm(context);
  const int64_t proposed =
      static_cast<int64_t>(decision->lc_ways) + kArms[arm];
  const uint32_t ways = static_cast<uint32_t>(
      std::clamp<int64_t>(proposed, floor, max_ways));
  decision->lc_ways = ways;
  decision->predicted_p95_ms = P95Ms(offered_rps, ways);
  decision->attainable = Meets(offered_rps, ways, decision->predicted_p95_ms);

  pending_valid_ = true;
  pending_context_ = context;
  pending_arm_ = arm;
  pending_extra_frac_ =
      max_ways > floor
          ? static_cast<double>(ways - floor) / (max_ways - floor)
          : 0.0;
}

void BanditSloGovernor::ObserveOutcome(const SloOutcome& outcome) {
  last_phase_ = outcome.phase_index;
  if (!pending_valid_) return;
  pending_valid_ = false;
  const bool meets = !outcome.stalled &&
                     outcome.measured_p95_ms <= model_.slo_p95_ms;
  const double reward = meets ? 1.0 - kWayCost * pending_extra_frac_ : 0.0;
  ArmStat& stat = arms_[{pending_context_, pending_arm_}];
  stat.reward_sum += reward;
  ++stat.pulls;
  ++context_pulls_[pending_context_];
  ++rewards_observed_;
}

}  // namespace copart
