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
  SystemState state;
  state.AssignEqualShare(pool, num_apps);
  return state;
}

SystemState SystemState::EqualShareThrottled(const ResourcePool& pool,
                                             size_t num_apps) {
  SystemState state;
  state.AssignEqualShareThrottled(pool, num_apps);
  return state;
}

void SystemState::AssignEqualShare(const ResourcePool& pool,
                                   size_t num_apps) {
  CHECK_GT(num_apps, 0u);
  CHECK_GE(pool.num_ways, num_apps) << "fewer ways than apps";
  Reshape(pool, num_apps);
  const uint32_t base = pool.num_ways / static_cast<uint32_t>(num_apps);
  uint32_t remainder = pool.num_ways % static_cast<uint32_t>(num_apps);
  for (AppAllocation& allocation : allocations_) {
    allocation.llc_ways = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) {
      --remainder;
    }
    allocation.mba_level = MbaLevel::FromPercentChecked(
        RoundToMbaStep(pool.max_mba_percent));
  }
}

void SystemState::AssignEqualShareThrottled(const ResourcePool& pool,
                                            size_t num_apps) {
  AssignEqualShare(pool, num_apps);
  const uint32_t share = RoundToMbaStep(
      pool.max_mba_percent / static_cast<uint32_t>(num_apps));
  for (AppAllocation& allocation : allocations_) {
    allocation.mba_level = MbaLevel::FromPercentChecked(share);
  }
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

void SystemState::Reshape(const ResourcePool& pool, size_t num_apps) {
  pool_ = pool;
  allocations_.assign(num_apps, AppAllocation{});
}

void SystemState::RandomNeighbor(Rng& rng, bool allow_llc_moves,
                                 bool allow_mba_moves,
                                 SystemState* next) const {
  CHECK(next != this);
  *next = *this;
  const size_t n = allocations_.size();
  // Count the feasible single moves, draw one uniformly, and decode the
  // drawn index in enumeration order. Every app with a spare way donates
  // to each of the n - 1 others; each app may step its MBA level down and,
  // below the pool ceiling, up.
  const auto can_step_up = [&](const AppAllocation& allocation) {
    return allocation.mba_level.CanIncrease() &&
           allocation.mba_level.percent() + MbaLevel::kStep <=
               pool_.max_mba_percent;
  };
  size_t donors = 0;
  size_t mba_moves = 0;
  for (const AppAllocation& allocation : allocations_) {
    if (allow_llc_moves && allocation.llc_ways > 1) {
      ++donors;
    }
    if (allow_mba_moves) {
      mba_moves += (allocation.mba_level.CanDecrease() ? 1 : 0) +
                   (can_step_up(allocation) ? 1 : 0);
    }
  }
  const size_t llc_moves = n > 1 ? donors * (n - 1) : 0;
  if (llc_moves + mba_moves == 0) {
    return;
  }
  size_t move = rng.NextUint64(llc_moves + mba_moves);
  if (move < llc_moves) {
    size_t donor_rank = move / (n - 1);
    size_t from = 0;
    for (;; ++from) {
      if (allocations_[from].llc_ways > 1 && donor_rank-- == 0) {
        break;
      }
    }
    // Recipients run over every app but the donor, in index order.
    const size_t recipient_rank = move % (n - 1);
    const size_t to = recipient_rank < from ? recipient_rank
                                            : recipient_rank + 1;
    --next->allocations_[from].llc_ways;
    ++next->allocations_[to].llc_ways;
    return;
  }
  move -= llc_moves;
  for (size_t i = 0;; ++i) {
    MbaLevel& level = next->allocations_[i].mba_level;
    if (allocations_[i].mba_level.CanDecrease() && move-- == 0) {
      level = level.Decreased();
      return;
    }
    if (can_step_up(allocations_[i]) && move-- == 0) {
      level = level.Increased();
      return;
    }
  }
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
