// Resource allocation states: equal shares, invariants, neighbor moves,
// way-mask packing.
#include "core/system_state.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace copart {
namespace {

ResourcePool FullPool() {
  return ResourcePool{.first_way = 0, .num_ways = 11, .max_mba_percent = 100};
}

SystemState Neighbor(const SystemState& state, Rng& rng, bool allow_llc_moves,
                     bool allow_mba_moves) {
  SystemState next;
  state.RandomNeighbor(rng, allow_llc_moves, allow_mba_moves, &next);
  return next;
}

TEST(SystemStateTest, EqualShareDistributesRemainderToEarlierApps) {
  const SystemState state = SystemState::EqualShare(FullPool(), 4);
  EXPECT_EQ(state.allocation(0).llc_ways, 3u);
  EXPECT_EQ(state.allocation(1).llc_ways, 3u);
  EXPECT_EQ(state.allocation(2).llc_ways, 3u);
  EXPECT_EQ(state.allocation(3).llc_ways, 2u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(state.allocation(i).mba_level.percent(), 100u);
  }
  EXPECT_TRUE(state.Valid());
}

TEST(SystemStateTest, EqualShareThrottledDividesMba) {
  EXPECT_EQ(SystemState::EqualShareThrottled(FullPool(), 4)
                .allocation(0)
                .mba_level.percent(),
            30u);  // round10(100/4 = 25) = 30.
  EXPECT_EQ(SystemState::EqualShareThrottled(FullPool(), 5)
                .allocation(0)
                .mba_level.percent(),
            20u);
  EXPECT_EQ(SystemState::EqualShareThrottled(FullPool(), 10)
                .allocation(0)
                .mba_level.percent(),
            10u);
  // Never below the hardware floor.
  EXPECT_EQ(SystemState::EqualShareThrottled(FullPool(), 11)
                .allocation(0)
                .mba_level.percent(),
            10u);
}

TEST(SystemStateTest, EqualShareRespectsPoolCeiling) {
  const ResourcePool pool{.first_way = 3, .num_ways = 8,
                          .max_mba_percent = 50};
  const SystemState state = SystemState::EqualShare(pool, 2);
  EXPECT_EQ(state.allocation(0).llc_ways, 4u);
  EXPECT_EQ(state.allocation(0).mba_level.percent(), 50u);
  EXPECT_TRUE(state.Valid());
}

TEST(SystemStateDeathTest, MoreAppsThanWaysAborts) {
  const ResourcePool pool{.first_way = 0, .num_ways = 3,
                          .max_mba_percent = 100};
  EXPECT_DEATH(SystemState::EqualShare(pool, 4), "fewer ways");
}

TEST(SystemStateTest, ValidityChecks) {
  SystemState state = SystemState::EqualShare(FullPool(), 4);
  EXPECT_TRUE(state.Valid());
  // Way total must match the pool.
  ++state.allocation(0).llc_ways;
  EXPECT_FALSE(state.Valid());
  --state.allocation(0).llc_ways;
  // MBA above the ceiling is invalid.
  const ResourcePool capped{.first_way = 0, .num_ways = 11,
                            .max_mba_percent = 40};
  SystemState capped_state = SystemState::EqualShare(capped, 2);
  EXPECT_TRUE(capped_state.Valid());
  capped_state.allocation(0).mba_level = MbaLevel::FromPercentChecked(50);
  EXPECT_FALSE(capped_state.Valid());
}

TEST(SystemStateTest, WayMaskBitsPackContiguously) {
  const SystemState state = SystemState::EqualShare(FullPool(), 4);
  // (3,3,3,2): masks 0x007, 0x038, 0x1c0, 0x600.
  EXPECT_EQ(state.WayMaskBits(0), 0x007u);
  EXPECT_EQ(state.WayMaskBits(1), 0x038u);
  EXPECT_EQ(state.WayMaskBits(2), 0x1c0u);
  EXPECT_EQ(state.WayMaskBits(3), 0x600u);
}

TEST(SystemStateTest, WayMaskBitsHonorPoolOffset) {
  const ResourcePool pool{.first_way = 4, .num_ways = 6,
                          .max_mba_percent = 100};
  const SystemState state = SystemState::EqualShare(pool, 2);
  EXPECT_EQ(state.WayMaskBits(0), 0x070u);  // Ways 4-6.
  EXPECT_EQ(state.WayMaskBits(1), 0x380u);  // Ways 7-9.
}

TEST(SystemStateTest, ToStringReadable) {
  const SystemState state = SystemState::EqualShare(FullPool(), 2);
  EXPECT_EQ(state.ToString(), "{(6w,100%), (5w,100%)}");
}

// Property: RandomNeighbor always returns a valid state at most one move
// away, and respects the move gates.
class NeighborTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NeighborTest, NeighborsAreValidSingleMoves) {
  Rng rng(GetParam());
  SystemState state = SystemState::EqualShareThrottled(FullPool(), 4);
  for (int step = 0; step < 300; ++step) {
    const SystemState next = Neighbor(state, rng, true, true);
    ASSERT_TRUE(next.Valid()) << next.ToString();
    // Count elementary differences.
    int way_moves = 0, mba_moves = 0;
    for (size_t i = 0; i < 4; ++i) {
      way_moves += std::abs(static_cast<int>(next.allocation(i).llc_ways) -
                            static_cast<int>(state.allocation(i).llc_ways));
      mba_moves +=
          std::abs(static_cast<int>(next.allocation(i).mba_level.percent()) -
                   static_cast<int>(state.allocation(i).mba_level.percent())) /
          10;
    }
    EXPECT_TRUE((way_moves == 2 && mba_moves == 0) ||
                (way_moves == 0 && mba_moves == 1))
        << state.ToString() << " -> " << next.ToString();
    state = next;
  }
}

TEST_P(NeighborTest, GatesRestrictMoveTypes) {
  Rng rng(GetParam());
  const SystemState state = SystemState::EqualShareThrottled(FullPool(), 4);
  for (int step = 0; step < 50; ++step) {
    const SystemState llc_only = Neighbor(state, rng, true, false);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(llc_only.allocation(i).mba_level,
                state.allocation(i).mba_level);
    }
    const SystemState mba_only = Neighbor(state, rng, false, true);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(mba_only.allocation(i).llc_ways,
                state.allocation(i).llc_ways);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeighborTest,
                         ::testing::Values(1, 7, 99, 12345));

TEST(NeighborEdgeTest, NoMovesPossibleReturnsSameState) {
  const SystemState state = SystemState::EqualShare(FullPool(), 2);
  Rng rng(5);
  EXPECT_EQ(Neighbor(state, rng, false, false), state);
  // Single app with 1-way pool at MBA floor: nothing can move.
  const ResourcePool tiny{.first_way = 0, .num_ways = 1,
                          .max_mba_percent = 10};
  const SystemState pinned = SystemState::EqualShare(tiny, 1);
  EXPECT_EQ(Neighbor(pinned, rng, true, true), pinned);
}

// The enumerate-then-index form of RandomNeighbor: list every feasible
// move, then draw one. RandomNeighbor counts the moves and decodes the
// drawn index instead; both must pick the same move from the same draw.
SystemState ReferenceNeighbor(const SystemState& state, Rng& rng,
                              bool allow_llc_moves, bool allow_mba_moves) {
  const size_t n = state.NumApps();
  struct Move {
    bool is_llc;
    size_t from;
    size_t to;  // LLC: way recipient. MBA: 1 = up, 0 = down.
  };
  std::vector<Move> moves;
  if (allow_llc_moves) {
    for (size_t from = 0; from < n; ++from) {
      if (state.allocation(from).llc_ways <= 1) {
        continue;
      }
      for (size_t to = 0; to < n; ++to) {
        if (to != from) {
          moves.push_back({true, from, to});
        }
      }
    }
  }
  if (allow_mba_moves) {
    for (size_t i = 0; i < n; ++i) {
      const MbaLevel level = state.allocation(i).mba_level;
      if (level.CanDecrease()) {
        moves.push_back({false, i, 0});
      }
      if (level.CanIncrease() &&
          level.percent() + MbaLevel::kStep <= state.pool().max_mba_percent) {
        moves.push_back({false, i, 1});
      }
    }
  }
  SystemState next = state;
  if (moves.empty()) {
    return next;
  }
  const Move& move = moves[rng.NextUint64(moves.size())];
  AppAllocation& from = next.allocation(move.from);
  if (move.is_llc) {
    --from.llc_ways;
    ++next.allocation(move.to).llc_ways;
  } else {
    from.mba_level =
        move.to == 1 ? from.mba_level.Increased() : from.mba_level.Decreased();
  }
  return next;
}

// A random valid state of `n` apps: most apps pinned at the way floor or
// the MBA floor, the pool ceiling often below 100 and off the 10% grid.
SystemState RandomState(size_t n, Rng& rng) {
  const uint32_t ceilings[] = {10, 20, 35, 50, 55, 90, 100};
  ResourcePool pool;
  pool.num_ways = static_cast<uint32_t>(n + rng.NextUint64(2 * n + 1));
  pool.max_mba_percent = ceilings[rng.NextUint64(std::size(ceilings))];
  std::vector<AppAllocation> allocations(n);
  for (uint32_t spare = pool.num_ways - static_cast<uint32_t>(n); spare > 0;
       --spare) {
    ++allocations[rng.NextUint64(std::max<size_t>(1, n / 3))].llc_ways;
  }
  const uint32_t top_steps = pool.max_mba_percent / MbaLevel::kStep;
  for (AppAllocation& allocation : allocations) {
    const uint32_t steps =
        rng.NextBool(0.5) ? 1 : 1 + static_cast<uint32_t>(
                                        rng.NextUint64(top_steps));
    allocation.mba_level =
        MbaLevel::FromPercentChecked(std::min(steps, top_steps) * 10);
  }
  SystemState state(pool, allocations);
  EXPECT_TRUE(state.Valid()) << state.ToString();
  return state;
}

TEST(NeighborEquivalenceTest, PicksTheEnumeratedMoveForTheSameDraw) {
  Rng gen(2024);
  SystemState next;
  for (size_t n = 1; n <= 16; ++n) {
    for (int round = 0; round < 200; ++round) {
      const SystemState state = RandomState(n, gen);
      for (const bool allow_llc : {true, false}) {
        for (const bool allow_mba : {true, false}) {
          Rng rng(gen.NextUint64());
          Rng reference_rng = rng;
          state.RandomNeighbor(rng, allow_llc, allow_mba, &next);
          const SystemState expected =
              ReferenceNeighbor(state, reference_rng, allow_llc, allow_mba);
          ASSERT_TRUE(next == expected)
              << state.ToString() << " llc=" << allow_llc
              << " mba=" << allow_mba << ": " << next.ToString() << " vs "
              << expected.ToString();
          // Same number of draws.
          ASSERT_EQ(rng.NextUint64(), reference_rng.NextUint64());
        }
      }
    }
  }
}

}  // namespace
}  // namespace copart
