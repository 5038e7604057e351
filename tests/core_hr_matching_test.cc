// The Hospitals/Residents allocation step (paper Algorithm 2).
#include "core/hr_matching.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace copart {
namespace {

ResourcePool FullPool() {
  return ResourcePool{.first_way = 0, .num_ways = 11, .max_mba_percent = 100};
}

MatchAppInfo App(double slowdown, ResourceClass llc, ResourceClass mba) {
  return MatchAppInfo{.slowdown = slowdown, .llc_class = llc,
                      .mba_class = mba};
}

// One matcher call into a fresh result.
MatchResult Match(const SystemState& state,
                  const std::vector<MatchAppInfo>& apps, Rng& rng,
                  bool enable_llc = true, bool enable_mba = true) {
  MatchResult result;
  GetNextSystemState(state, apps, rng, enable_llc, enable_mba, &result);
  return result;
}

SystemState Neighbor(const SystemState& state, Rng& rng) {
  SystemState next;
  state.RandomNeighbor(rng, true, true, &next);
  return next;
}

TEST(HrMatchingTest, SimpleLlcTransfer) {
  const SystemState state = SystemState::EqualShare(FullPool(), 2);
  // App 0 supplies LLC, app 1 demands it.
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kSupply, ResourceClass::kMaintain),
      App(2.0, ResourceClass::kDemand, ResourceClass::kMaintain)};
  Rng rng(1);
  const MatchResult result = Match(state, apps, rng);
  EXPECT_EQ(result.next_state.allocation(0).llc_ways,
            state.allocation(0).llc_ways - 1);
  EXPECT_EQ(result.next_state.allocation(1).llc_ways,
            state.allocation(1).llc_ways + 1);
  ASSERT_EQ(result.transfers.size(), 1u);
  EXPECT_TRUE(result.transfers[0].is_llc);
  EXPECT_EQ(result.transfers[0].producer, 0u);
  EXPECT_EQ(result.transfers[0].consumer, 1u);
}

TEST(HrMatchingTest, SimpleMbaTransfer) {
  SystemState state = SystemState::EqualShare(FullPool(), 2);
  state.allocation(1).mba_level = MbaLevel::FromPercentChecked(50);
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kMaintain, ResourceClass::kSupply),
      App(2.0, ResourceClass::kMaintain, ResourceClass::kDemand)};
  Rng rng(1);
  const MatchResult result = Match(state, apps, rng);
  EXPECT_EQ(result.next_state.allocation(0).mba_level.percent(), 90u);
  EXPECT_EQ(result.next_state.allocation(1).mba_level.percent(), 60u);
}

TEST(HrMatchingTest, NoProducersNoChange) {
  const SystemState state = SystemState::EqualShare(FullPool(), 3);
  const std::vector<MatchAppInfo> apps = {
      App(3.0, ResourceClass::kDemand, ResourceClass::kDemand),
      App(2.0, ResourceClass::kDemand, ResourceClass::kMaintain),
      App(1.5, ResourceClass::kMaintain, ResourceClass::kMaintain)};
  Rng rng(2);
  const MatchResult result = Match(state, apps, rng);
  EXPECT_EQ(result.next_state, state);
  EXPECT_TRUE(result.transfers.empty());
}

TEST(HrMatchingTest, NoConsumersNoChange) {
  const SystemState state = SystemState::EqualShare(FullPool(), 2);
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kSupply, ResourceClass::kSupply),
      App(1.1, ResourceClass::kMaintain, ResourceClass::kMaintain)};
  Rng rng(3);
  EXPECT_EQ(Match(state, apps, rng).next_state, state);
}

TEST(HrMatchingTest, OversubscribedResourceFavorsHighestSlowdown) {
  // One LLC producer, two LLC demanders: the slower app must win.
  const SystemState state = SystemState::EqualShare(FullPool(), 3);
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kSupply, ResourceClass::kMaintain),
      App(1.5, ResourceClass::kDemand, ResourceClass::kMaintain),
      App(3.0, ResourceClass::kDemand, ResourceClass::kMaintain)};
  Rng rng(4);
  const MatchResult result = Match(state, apps, rng);
  EXPECT_EQ(result.next_state.allocation(2).llc_ways,
            state.allocation(2).llc_ways + 1);
  EXPECT_EQ(result.next_state.allocation(1).llc_ways,
            state.allocation(1).llc_ways);
}

TEST(HrMatchingTest, ReclaimFavorsLowestSlowdownProducer) {
  const SystemState state = SystemState::EqualShare(FullPool(), 3);
  const std::vector<MatchAppInfo> apps = {
      App(1.2, ResourceClass::kSupply, ResourceClass::kMaintain),
      App(1.0, ResourceClass::kSupply, ResourceClass::kMaintain),
      App(3.0, ResourceClass::kDemand, ResourceClass::kMaintain)};
  Rng rng(5);
  const MatchResult result = Match(state, apps, rng);
  // The least-slowed producer (app 1) gives up the way.
  EXPECT_EQ(result.next_state.allocation(1).llc_ways,
            state.allocation(1).llc_ways - 1);
  EXPECT_EQ(result.next_state.allocation(0).llc_ways,
            state.allocation(0).llc_ways);
}

TEST(HrMatchingTest, DisplacedConsumerFallsBackToAnyProducer) {
  // One LLC-only producer, one ANY producer, two LLC demanders: both get a
  // way — the displaced one through the ANY hospital.
  const SystemState state = SystemState::EqualShare(FullPool(), 4);
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kSupply, ResourceClass::kMaintain),
      App(1.1, ResourceClass::kSupply, ResourceClass::kSupply),
      App(2.0, ResourceClass::kDemand, ResourceClass::kMaintain),
      App(3.0, ResourceClass::kDemand, ResourceClass::kMaintain)};
  Rng rng(6);
  const MatchResult result = Match(state, apps, rng);
  EXPECT_EQ(result.next_state.allocation(2).llc_ways,
            state.allocation(2).llc_ways + 1);
  EXPECT_EQ(result.next_state.allocation(3).llc_ways,
            state.allocation(3).llc_ways + 1);
  EXPECT_EQ(result.transfers.size(), 2u);
}

TEST(HrMatchingTest, ProducerAtFloorIsNotEligible) {
  // An app in Supply with only 1 way cannot give a way; at MBA 10 it cannot
  // give bandwidth.
  std::vector<AppAllocation> allocations(2);
  allocations[0] = {.llc_ways = 1,
                    .mba_level = MbaLevel::FromPercentChecked(10)};
  allocations[1] = {.llc_ways = 10,
                    .mba_level = MbaLevel::FromPercentChecked(100)};
  const SystemState state(FullPool(), allocations);
  ASSERT_TRUE(state.Valid());
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kSupply, ResourceClass::kSupply),
      App(2.0, ResourceClass::kDemand, ResourceClass::kDemand)};
  Rng rng(7);
  EXPECT_EQ(Match(state, apps, rng).next_state, state);
}

TEST(HrMatchingTest, ConsumerAtMbaCeilingCannotTakeMba) {
  const SystemState state = SystemState::EqualShare(FullPool(), 2);
  // App 1 demands MBA but is already at 100%.
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kMaintain, ResourceClass::kSupply),
      App(2.0, ResourceClass::kMaintain, ResourceClass::kDemand)};
  Rng rng(8);
  EXPECT_EQ(Match(state, apps, rng).next_state, state);
}

TEST(HrMatchingTest, LlcGateBlocksLlcMoves) {
  const SystemState state = SystemState::EqualShare(FullPool(), 2);
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kSupply, ResourceClass::kMaintain),
      App(2.0, ResourceClass::kDemand, ResourceClass::kMaintain)};
  Rng rng(9);
  EXPECT_EQ(Match(state, apps, rng, /*enable_llc=*/false,
                               /*enable_mba=*/true)
                .next_state,
            state);
}

TEST(HrMatchingTest, MbaGateBlocksMbaMoves) {
  SystemState state = SystemState::EqualShare(FullPool(), 2);
  state.allocation(1).mba_level = MbaLevel::FromPercentChecked(50);
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kMaintain, ResourceClass::kSupply),
      App(2.0, ResourceClass::kMaintain, ResourceClass::kDemand)};
  Rng rng(10);
  EXPECT_EQ(Match(state, apps, rng, /*enable_llc=*/true,
                               /*enable_mba=*/false)
                .next_state,
            state);
}

TEST(HrMatchingTest, AnyDemanderTakesWhateverIsAvailable) {
  SystemState state = SystemState::EqualShare(FullPool(), 2);
  state.allocation(1).mba_level = MbaLevel::FromPercentChecked(40);
  // App 1 demands both; app 0 supplies only MBA.
  const std::vector<MatchAppInfo> apps = {
      App(1.0, ResourceClass::kMaintain, ResourceClass::kSupply),
      App(2.0, ResourceClass::kDemand, ResourceClass::kDemand)};
  Rng rng(11);
  const MatchResult result = Match(state, apps, rng);
  EXPECT_EQ(result.next_state.allocation(1).mba_level.percent(), 50u);
  EXPECT_EQ(result.next_state.allocation(0).mba_level.percent(), 90u);
}

// Stability property (the HR guarantee): in the resulting match there is
// no "blocking pair" — no unserved consumer with a strictly higher
// slowdown than some served consumer of a resource type it also asked for.
TEST(HrMatchingStabilityTest, NoBlockingPairs) {
  Rng rng(4242);
  const ResourceClass classes[] = {ResourceClass::kSupply,
                                   ResourceClass::kMaintain,
                                   ResourceClass::kDemand};
  for (int round = 0; round < 400; ++round) {
    const size_t n = 3 + rng.NextUint64(4);
    SystemState state = SystemState::EqualShare(FullPool(), n);
    for (int move = 0; move < 6; ++move) {
      state = Neighbor(state, rng);
    }
    std::vector<MatchAppInfo> apps(n);
    for (MatchAppInfo& app : apps) {
      app.slowdown = 1.0 + rng.NextDouble() * 3.0;
      app.llc_class = classes[rng.NextUint64(3)];
      app.mba_class = classes[rng.NextUint64(3)];
    }
    const MatchResult result = Match(state, apps, rng);

    // Served = received a transfer of the type they demanded.
    std::vector<bool> served_llc(n, false), served_mba(n, false);
    for (const ResourceTransfer& transfer : result.transfers) {
      (transfer.is_llc ? served_llc : served_mba)[transfer.consumer] = true;
    }
    for (size_t loser = 0; loser < n; ++loser) {
      // An eligible LLC demander that went unserved entirely...
      const bool wanted_llc =
          apps[loser].llc_class == ResourceClass::kDemand;
      const bool wanted_mba =
          apps[loser].mba_class == ResourceClass::kDemand &&
          state.allocation(loser).mba_level.percent() + MbaLevel::kStep <=
              state.pool().max_mba_percent;
      if (!wanted_llc && !wanted_mba) {
        continue;
      }
      if (served_llc[loser] || served_mba[loser]) {
        continue;
      }
      // ...must not be strictly slower than a served consumer that
      // demanded a subset of the loser's demanded types.
      for (size_t winner = 0; winner < n; ++winner) {
        if (winner == loser) {
          continue;
        }
        const bool winner_served_within_losers_demands =
            (served_llc[winner] && wanted_llc) ||
            (served_mba[winner] && wanted_mba);
        if (winner_served_within_losers_demands) {
          EXPECT_LE(apps[loser].slowdown, apps[winner].slowdown + 1e-12)
              << "blocking pair: loser " << loser << " (slowdown "
              << apps[loser].slowdown << ") vs winner " << winner
              << " (slowdown " << apps[winner].slowdown << ")";
        }
      }
    }
  }
}

// Property sweep: for random classification vectors, the matcher always
// yields a valid state, conserves total ways, moves MBA levels only in
// matched producer/consumer pairs, and never moves a gated resource.
class HrMatchingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HrMatchingPropertyTest, InvariantsUnderRandomInputs) {
  Rng rng(GetParam());
  MatchResult reused;
  const ResourceClass classes[] = {ResourceClass::kSupply,
                                   ResourceClass::kMaintain,
                                   ResourceClass::kDemand};
  for (int round = 0; round < 300; ++round) {
    const size_t n = 2 + rng.NextUint64(5);  // 2..6 apps.
    SystemState state = SystemState::EqualShare(FullPool(), n);
    // Randomize the starting allocation with a few neighbor moves.
    for (int move = 0; move < 8; ++move) {
      state = Neighbor(state, rng);
    }
    std::vector<MatchAppInfo> apps(n);
    for (MatchAppInfo& app : apps) {
      app.slowdown = 1.0 + rng.NextDouble() * 3.0;
      app.llc_class = classes[rng.NextUint64(3)];
      app.mba_class = classes[rng.NextUint64(3)];
    }
    const bool enable_llc = rng.NextBool(0.8);
    const bool enable_mba = rng.NextBool(0.8);
    // A result reused across rounds, the way a policy holds one, matches a
    // fresh one fed the same draws.
    Rng fresh_rng = rng;
    const MatchResult fresh =
        Match(state, apps, fresh_rng, enable_llc, enable_mba);
    GetNextSystemState(state, apps, rng, enable_llc, enable_mba, &reused);
    const MatchResult& result = reused;
    ASSERT_TRUE(result.next_state == fresh.next_state);
    ASSERT_EQ(result.transfers.size(), fresh.transfers.size());
    for (size_t t = 0; t < fresh.transfers.size(); ++t) {
      EXPECT_EQ(result.transfers[t].is_llc, fresh.transfers[t].is_llc);
      EXPECT_EQ(result.transfers[t].producer, fresh.transfers[t].producer);
      EXPECT_EQ(result.transfers[t].consumer, fresh.transfers[t].consumer);
    }
    ASSERT_TRUE(rng.NextUint64() == fresh_rng.NextUint64());
    ASSERT_TRUE(result.next_state.Valid()) << result.next_state.ToString();

    uint32_t ways_before = 0, ways_after = 0;
    for (size_t i = 0; i < n; ++i) {
      ways_before += state.allocation(i).llc_ways;
      ways_after += result.next_state.allocation(i).llc_ways;
      const auto& before = state.allocation(i);
      const auto& after = result.next_state.allocation(i);
      if (!enable_llc) {
        EXPECT_EQ(before.llc_ways, after.llc_ways);
      }
      if (!enable_mba) {
        EXPECT_EQ(before.mba_level, after.mba_level);
      }
      // A way recipient must have demanded LLC; a way donor must have
      // supplied it. (Maintain apps are never touched.)
      if (after.llc_ways > before.llc_ways) {
        EXPECT_EQ(apps[i].llc_class, ResourceClass::kDemand);
      }
      if (after.llc_ways < before.llc_ways) {
        EXPECT_EQ(apps[i].llc_class, ResourceClass::kSupply);
      }
      if (after.mba_level > before.mba_level) {
        EXPECT_EQ(apps[i].mba_class, ResourceClass::kDemand);
      }
      if (after.mba_level < before.mba_level) {
        EXPECT_EQ(apps[i].mba_class, ResourceClass::kSupply);
      }
    }
    EXPECT_EQ(ways_before, ways_after);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HrMatchingPropertyTest,
                         ::testing::Values(21, 42, 63, 84, 105));

}  // namespace
}  // namespace copart
