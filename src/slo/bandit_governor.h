// Contextual-bandit SLO governor: UCB1 over way-delta arms (DESIGN.md §15).
//
// The analytic grow-ways-first walk (SloGovernor::Plan) supplies a base
// width; the bandit's one step after the walk then moves it by a delta
// from {0, +1, +2, -1} ways via a UCB1 index kept per context, where the
// context is (log-scale offered-load bucket × workload phase id). Phase
// id arrives through ObserveOutcome — the serve harness reports the
// phase that actually ran — so a phase shift switches the bandit to a
// fresh arm table and it re-converges instead of trusting the
// phase-blind analytic model. Rewards are 1 for an
// SLO-meeting period minus kWayCost times the fraction of permitted extra
// ways held (so the narrowest sufficient delta wins) and 0 for a violating
// or stalled period.
//
// Deterministic by construction: no randomness — unplayed arms are
// explored in fixed declaration order, ties resolve to the earliest arm,
// and all state is a pure function of the Plan/ObserveOutcome history.
#ifndef COPART_SLO_BANDIT_GOVERNOR_H_
#define COPART_SLO_BANDIT_GOVERNOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "slo/slo_governor.h"

namespace copart {

class BanditSloGovernor : public SloGovernor {
 public:
  // Reward shaping: the cost of holding every permitted extra way.
  static constexpr double kWayCost = 0.05;

  BanditSloGovernor(const SloParams& params, LcAppModel model);

  const char* name() const override { return "bandit"; }

  void ObserveOutcome(const SloOutcome& outcome) override;

  // Total arm pulls resolved with a reward so far. Exposed for tests.
  int rewards_observed() const { return rewards_observed_; }

 private:
  // Way deltas relative to the analytic base width; declaration order is
  // the deterministic exploration/tie-break order.
  static constexpr std::array<int, 4> kArms = {0, 1, 2, -1};

  struct ArmStat {
    double reward_sum = 0.0;
    int pulls = 0;
  };
  // Context key: (load bucket, phase id).
  using Context = std::pair<int, size_t>;

  // Moves the walk's width by the UCB arm picked for this context.
  void StepAfterWalk(double offered_rps, uint32_t max_ways,
                     SloDecision* decision) override;
  size_t PickArm(const Context& context);

  std::map<std::pair<Context, size_t>, ArmStat> arms_;
  std::map<Context, int> context_pulls_;

  // The plan that is currently serving, resolved by the next outcome.
  bool pending_valid_ = false;
  Context pending_context_{0, 0};
  size_t pending_arm_ = 0;
  double pending_extra_frac_ = 0.0;

  // Phase id of the most recently observed period (context for the next
  // Plan; workloads without phases always report 0).
  size_t last_phase_ = 0;
  int rewards_observed_ = 0;
};

}  // namespace copart

#endif  // COPART_SLO_BANDIT_GOVERNOR_H_
