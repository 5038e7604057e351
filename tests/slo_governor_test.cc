// SLO governor registry + implementations (src/slo). Covers the registry
// contract, the invariants of the one walk (SloGovernor::Plan, the
// threshold governor itself), the MPC correction learning, and the
// bandit's deterministic exploration.
#include "slo/slo_governor.h"

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "serve/queue_model.h"
#include "slo/bandit_governor.h"
#include "slo/mpc_governor.h"

namespace copart {
namespace {

// Linear-in-ways capability: 1 way serves 1000 rps worth of IPS.
LcAppModel LinearModel() {
  LcAppModel model;
  model.slo_p95_ms = 5.0;
  model.instructions_per_request = 1000.0;
  model.capability_ips = [](uint32_t ways) { return 1e6 * ways; };
  return model;
}

SloParams DefaultParams() {
  SloParams params;
  params.enabled = true;
  params.lc_way_floor = 2;
  return params;
}

TEST(SloGovernorRegistryTest, RegisteredNamesConstructEveryGovernor) {
  const auto& names = RegisteredSloGovernorNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "threshold");
  EXPECT_EQ(names[1], "mpc");
  EXPECT_EQ(names[2], "bandit");
  for (const std::string& name : names) {
    std::unique_ptr<SloGovernor> governor =
        MakeSloGovernor(name, DefaultParams(), LinearModel());
    ASSERT_NE(governor, nullptr) << name;
    EXPECT_EQ(governor->name(), name) << name;
  }
}

TEST(SloGovernorRegistryTest, UnknownNameDies) {
  EXPECT_DEATH(MakeSloGovernor("nope", DefaultParams(), LinearModel()),
               "unknown SLO governor");
}

TEST(SloGovernorRegistryTest, EveryGovernorHonorsTheWayFloor) {
  for (const std::string& name : RegisteredSloGovernorNames()) {
    SloParams params = DefaultParams();
    params.lc_way_floor = 3;
    std::unique_ptr<SloGovernor> governor =
        MakeSloGovernor(name, params, LinearModel());
    // Trivial load: the floor still binds.
    const SloDecision wide = governor->Plan(1.0, 10, 0, 100);
    EXPECT_GE(wide.lc_ways, 3u) << name;
    // max_ways below the floor: the effective floor is max_ways.
    const SloDecision narrow = governor->Plan(1.0, 2, 0, 100);
    EXPECT_GE(narrow.lc_ways, 1u) << name;
    EXPECT_LE(narrow.lc_ways, 2u) << name;
  }
}

TEST(SloGovernorRegistryTest, EveryGovernorIsDeterministicPerHistory) {
  for (const std::string& name : RegisteredSloGovernorNames()) {
    auto run = [&name]() {
      std::unique_ptr<SloGovernor> governor =
          MakeSloGovernor(name, DefaultParams(), LinearModel());
      std::string log;
      for (int i = 0; i < 50; ++i) {
        const double offered = 500.0 + 137.0 * (i % 7);
        const SloDecision d = governor->Plan(offered, 12, i == 0 ? 0 : 4, 100);
        SloOutcome outcome;
        outcome.offered_rps = offered;
        outcome.lc_ways = d.lc_ways;
        outcome.batch_mba_percent = d.batch_mba_percent;
        outcome.measured_p95_ms = (i % 5 == 0) ? 9.0 : 1.0;
        outcome.stalled = i % 11 == 0;
        outcome.phase_index = static_cast<size_t>(i % 3);
        governor->ObserveOutcome(outcome);
        log += std::to_string(d.lc_ways) + "," +
               std::to_string(d.batch_mba_percent) + ";";
      }
      return log;
    };
    EXPECT_EQ(run(), run()) << name;
  }
}

TEST(ThresholdGovernorTest, PicksSmallestWidthMeetingSloWithHeadroom) {
  SloGovernor governor(DefaultParams(), LinearModel());
  // 1 way serves 1000 rps. At 500 rps offered the floor width (2 ways ->
  // 2000 rps service) gives p95 = -ln(.05)/1500 s ~ 2ms <= 5/1.25 = 4ms.
  const SloDecision d = governor.Plan(500.0, 10, 0, 100);
  EXPECT_EQ(d.lc_ways, 2u);
  EXPECT_TRUE(d.attainable);
  EXPECT_DOUBLE_EQ(d.predicted_p95_ms, PredictedP95Ms(500.0, 2000.0));
  EXPECT_EQ(d.batch_mba_percent, 100u);
}

TEST(ThresholdGovernorTest, UnattainableTakesMaxWaysAndCapsBatchMba) {
  SloGovernor governor(DefaultParams(), LinearModel());
  // 50 krps offered but 4 ways serve at most 4000 rps: unattainable.
  const SloDecision d = governor.Plan(50000.0, 4, 0, 100);
  EXPECT_EQ(d.lc_ways, 4u);
  EXPECT_FALSE(d.attainable);
  EXPECT_EQ(d.batch_mba_percent, SloGovernor::kBatchMbaProtectPercent);
}

TEST(ThresholdGovernorTest, ShrinkHysteresisKeepsWidthNearBoundary) {
  static_assert(SloGovernor::kShrinkLoadMargin == 1.2);
  SloGovernor governor(DefaultParams(), LinearModel());
  // At 3000 rps a fresh plan needs 4 ways (4000-3000 rps of slack gives
  // p95 3ms <= the 4ms target); at 3000*1.2 = 3600 it needs 5 (4 ways
  // leave 400 rps slack -> 7.5ms). Holding 5 ways, a dip to 3000 may
  // shrink only to the guarded width 5 -> keeps 5.
  const SloDecision fresh = governor.Plan(3000.0, 10, 0, 100);
  EXPECT_EQ(fresh.lc_ways, 4u);
  const SloDecision held = governor.Plan(3000.0, 10, 5, 100);
  EXPECT_EQ(held.lc_ways, 5u);
  // A deep dip shrinks: at 300 rps even 1.2x fits the floor width.
  const SloDecision dropped = governor.Plan(300.0, 10, 5, 100);
  EXPECT_EQ(dropped.lc_ways, 2u);
}

TEST(MpcGovernorTest, StartsFromOptimisticPriorThenLearnsCorrection) {
  MpcSloGovernor governor(DefaultParams(), LinearModel());
  EXPECT_DOUBLE_EQ(governor.CorrectionFor(2, 500.0), 1.0);

  // Feed outcomes where the measured p95 is 3x the analytic prediction.
  const double analytic = PredictedP95Ms(500.0, 2000.0);
  for (int i = 0; i < 20; ++i) {
    SloOutcome outcome;
    outcome.offered_rps = 500.0;
    outcome.lc_ways = 2;
    outcome.measured_p95_ms = 3.0 * analytic;
    governor.ObserveOutcome(outcome);
  }
  EXPECT_EQ(governor.outcomes_observed(), 20);
  EXPECT_NEAR(governor.CorrectionFor(2, 500.0), 3.0, 1e-6);
  // An unseen width in the same load bucket answers the load marginal.
  EXPECT_NEAR(governor.CorrectionFor(7, 500.0), 3.0, 1e-6);
}

TEST(MpcGovernorTest, LearnedCorrectionWidensThePlan) {
  MpcSloGovernor governor(DefaultParams(), LinearModel());
  const SloDecision before = governor.Plan(500.0, 10, 0, 100);
  EXPECT_EQ(before.lc_ways, 2u);
  // Teach it that p95 at 2 ways/this load runs 3x the analytic value —
  // 3 * 2ms = 6ms > 4ms target, so the corrected walk must widen.
  const double analytic = PredictedP95Ms(500.0, 2000.0);
  for (int i = 0; i < 20; ++i) {
    SloOutcome outcome;
    outcome.offered_rps = 500.0;
    outcome.lc_ways = 2;
    outcome.measured_p95_ms = 3.0 * analytic;
    governor.ObserveOutcome(outcome);
  }
  const SloDecision after = governor.Plan(500.0, 10, 0, 100);
  EXPECT_GT(after.lc_ways, before.lc_ways);
}

TEST(MpcGovernorTest, StalledOutcomeRecordsMaxCorrection) {
  MpcSloGovernor governor(DefaultParams(), LinearModel());
  for (int i = 0; i < 10; ++i) {
    SloOutcome outcome;
    outcome.offered_rps = 500.0;
    outcome.lc_ways = 2;
    outcome.measured_p95_ms = 0.0;
    outcome.stalled = true;
    governor.ObserveOutcome(outcome);
  }
  EXPECT_NEAR(governor.CorrectionFor(2, 500.0), MpcSloGovernor::kMaxCorrection,
              1e-9);
}

TEST(MpcGovernorTest, PredictiveProtectionEngagesOnPessimisticMarginal) {
  static_assert(MpcSloGovernor::kProtectCorrection < 2.0);
  MpcSloGovernor governor(DefaultParams(), LinearModel());
  const double analytic = PredictedP95Ms(500.0, 2000.0);
  // Corrections land at 2.0 > kProtectCorrection, but keep the corrected
  // p95 attainable at wider widths so only the learned signal protects.
  for (int i = 0; i < 10; ++i) {
    SloOutcome outcome;
    outcome.offered_rps = 500.0;
    outcome.lc_ways = 2;
    outcome.measured_p95_ms = 2.0 * analytic;
    governor.ObserveOutcome(outcome);
  }
  const SloDecision d = governor.Plan(500.0, 10, 0, 100);
  EXPECT_TRUE(d.attainable);
  EXPECT_EQ(d.batch_mba_percent, SloGovernor::kBatchMbaProtectPercent);
}

TEST(BanditGovernorTest, ExploresArmsInDeclarationOrderThenExploits) {
  BanditSloGovernor governor(DefaultParams(), LinearModel());
  // Same context each period (same load, phase 0): the first four plans
  // walk the arms {0, +1, +2, -1} around the base width 2.
  const uint32_t expected_first_widths[] = {2, 3, 4, 2};  // -1 clamps to floor.
  for (uint32_t expected : expected_first_widths) {
    const SloDecision d = governor.Plan(500.0, 10, 0, 100);
    EXPECT_EQ(d.lc_ways, expected);
    SloOutcome outcome;
    outcome.offered_rps = 500.0;
    outcome.lc_ways = d.lc_ways;
    outcome.measured_p95_ms = 1.0;  // Meets the 5ms SLO.
    governor.ObserveOutcome(outcome);
  }
  EXPECT_EQ(governor.rewards_observed(), 4);
  // All arms met the SLO; the kWayCost shaping prefers the narrowest, so
  // exploitation settles at the base width.
  SloDecision d = governor.Plan(500.0, 10, 0, 100);
  EXPECT_EQ(d.lc_ways, 2u);
}

TEST(BanditGovernorTest, ViolationsSteerTowardWiderArms) {
  SloParams params = DefaultParams();
  params.bandit.exploration_c = 0.1;
  BanditSloGovernor governor(params, LinearModel());
  // Punish every width below 4 ways, reward 4+.
  for (int i = 0; i < 60; ++i) {
    const SloDecision d = governor.Plan(500.0, 10, 0, 100);
    SloOutcome outcome;
    outcome.offered_rps = 500.0;
    outcome.lc_ways = d.lc_ways;
    outcome.measured_p95_ms = d.lc_ways >= 4 ? 1.0 : 50.0;
    governor.ObserveOutcome(outcome);
  }
  const SloDecision d = governor.Plan(500.0, 10, 0, 100);
  EXPECT_GE(d.lc_ways, 4u);
}

TEST(BanditGovernorTest, PhaseChangeSwitchesContext) {
  BanditSloGovernor governor(DefaultParams(), LinearModel());
  // Converge in phase 0.
  for (int i = 0; i < 20; ++i) {
    const SloDecision d = governor.Plan(500.0, 10, 0, 100);
    SloOutcome outcome;
    outcome.offered_rps = 500.0;
    outcome.lc_ways = d.lc_ways;
    outcome.measured_p95_ms = 1.0;
    outcome.phase_index = 0;
    governor.ObserveOutcome(outcome);
  }
  // First outcome of phase 1 flips the context: the next plan explores
  // the fresh arm table from the first arm again.
  SloOutcome shift;
  shift.offered_rps = 500.0;
  shift.lc_ways = 2;
  shift.measured_p95_ms = 1.0;
  shift.phase_index = 1;
  governor.ObserveOutcome(shift);
  const SloDecision d = governor.Plan(500.0, 10, 0, 100);
  EXPECT_EQ(d.lc_ways, 2u);  // Arm 0 (delta 0) of the unseen context.
}

}  // namespace
}  // namespace copart
