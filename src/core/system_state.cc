#include "core/system_state.h"

#include <algorithm>

#include "common/logging.h"

namespace copart {
namespace {

uint32_t RoundToMbaStep(uint32_t percent) {
  const uint32_t step = MbaLevel::kStep;
  uint32_t rounded = (percent + step / 2) / step * step;
  return std::clamp(rounded, MbaLevel::kMin, MbaLevel::kMax);
}

}  // namespace

SystemState::SystemState(ResourcePool pool,
                         std::vector<AppAllocation> allocations)
    : pool_(pool), allocations_(std::move(allocations)) {}

SystemState SystemState::EqualShare(const ResourcePool& pool,
                                    size_t num_apps) {
  CHECK_GT(num_apps, 0u);
  CHECK_GE(pool.num_ways, num_apps) << "fewer ways than apps";
  std::vector<AppAllocation> allocations(num_apps);
  const uint32_t base = pool.num_ways / static_cast<uint32_t>(num_apps);
  uint32_t remainder = pool.num_ways % static_cast<uint32_t>(num_apps);
  for (AppAllocation& allocation : allocations) {
    allocation.llc_ways = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) {
      --remainder;
    }
    allocation.mba_level = MbaLevel::FromPercentChecked(
        RoundToMbaStep(pool.max_mba_percent));
  }
  return SystemState(pool, std::move(allocations));
}

SystemState SystemState::EqualShareThrottled(const ResourcePool& pool,
                                             size_t num_apps) {
  SystemState state = EqualShare(pool, num_apps);
  const uint32_t share = RoundToMbaStep(
      pool.max_mba_percent / static_cast<uint32_t>(num_apps));
  for (AppAllocation& allocation : state.allocations_) {
    allocation.mba_level = MbaLevel::FromPercentChecked(share);
  }
  return state;
}

const AppAllocation& SystemState::allocation(size_t app) const {
  CHECK_LT(app, allocations_.size());
  return allocations_[app];
}

AppAllocation& SystemState::allocation(size_t app) {
  CHECK_LT(app, allocations_.size());
  return allocations_[app];
}

bool SystemState::Valid() const {
  uint32_t total_ways = 0;
  for (const AppAllocation& allocation : allocations_) {
    if (allocation.llc_ways < 1) {
      return false;
    }
    if (allocation.mba_level.percent() > pool_.max_mba_percent) {
      return false;
    }
    total_ways += allocation.llc_ways;
  }
  return total_ways == pool_.num_ways;
}

SystemState SystemState::RandomNeighbor(Rng& rng, bool allow_llc_moves,
                                        bool allow_mba_moves) const {
  const size_t n = allocations_.size();
  if (n == 0) {
    return *this;
  }
  // Enumerate feasible single moves, then draw one uniformly.
  struct Move {
    bool is_llc;
    size_t from;  // LLC: way donor. MBA: the app whose level steps.
    size_t to;    // LLC: way recipient. MBA: 1 = up, 0 = down.
  };
  std::vector<Move> moves;
  if (allow_llc_moves) {
    for (size_t from = 0; from < n; ++from) {
      if (allocations_[from].llc_ways <= 1) {
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
      if (allocations_[i].mba_level.CanDecrease()) {
        moves.push_back({false, i, 0});
      }
      if (allocations_[i].mba_level.CanIncrease() &&
          allocations_[i].mba_level.percent() + MbaLevel::kStep <=
              pool_.max_mba_percent) {
        moves.push_back({false, i, 1});
      }
    }
  }
  if (moves.empty()) {
    return *this;
  }
  const Move& move = moves[rng.NextUint64(moves.size())];
  SystemState next = *this;
  if (move.is_llc) {
    --next.allocations_[move.from].llc_ways;
    ++next.allocations_[move.to].llc_ways;
  } else if (move.to == 1) {
    next.allocations_[move.from].mba_level =
        next.allocations_[move.from].mba_level.Increased();
  } else {
    next.allocations_[move.from].mba_level =
        next.allocations_[move.from].mba_level.Decreased();
  }
  return next;
}

uint64_t SystemState::WayMaskBits(size_t app) const {
  CHECK_LT(app, allocations_.size());
  uint32_t offset = pool_.first_way;
  for (size_t i = 0; i < app; ++i) {
    offset += allocations_[i].llc_ways;
  }
  const uint32_t count = allocations_[app].llc_ways;
  const uint64_t ones = count == 64 ? ~0ULL : ((1ULL << count) - 1ULL);
  return ones << offset;
}

std::string SystemState::ToString() const {
  std::string result = "{";
  for (size_t i = 0; i < allocations_.size(); ++i) {
    if (i > 0) {
      result += ", ";
    }
    result += "(";
    result += std::to_string(allocations_[i].llc_ways);
    result += "w,";
    result += std::to_string(allocations_[i].mba_level.percent());
    result += "%)";
  }
  result += "}";
  return result;
}

}  // namespace copart
