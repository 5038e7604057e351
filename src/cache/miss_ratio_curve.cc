#include "cache/miss_ratio_curve.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>

#include "cache/compiled_mrc.h"
#include "common/logging.h"

namespace copart {
namespace {

// Cache-line granularity of the occupancy model. All modeled machines in
// this repository use 64-byte lines (Table 1).
constexpr double kLineBytes = 64.0;

// Bisection iterations for the characteristic-time solve; 0.5^48 relative
// precision is far below the model's own accuracy.
constexpr int kBisectionIterations = 48;

// The bits a compiled table is a function of (with the default
// CompiledMrcOptions): the streaming weight, then each component's weight
// and working set, in order.
std::vector<uint64_t> ContentKey(const ReuseProfile& profile) {
  std::vector<uint64_t> key;
  key.reserve(1 + 2 * profile.components().size());
  key.push_back(std::bit_cast<uint64_t>(profile.streaming_weight()));
  for (const ReuseComponent& component : profile.components()) {
    key.push_back(std::bit_cast<uint64_t>(component.weight));
    key.push_back(component.working_set_bytes);
  }
  return key;
}

// The process-wide table for `profile`'s content: the live one if some
// profile still holds it, else a fresh compile. Tables are held weakly, so
// one lives exactly as long as a profile uses it. The compile runs outside
// the lock; of two racing compiles of one content, the first to publish
// wins and the other adopts its table.
std::shared_ptr<const CompiledMrc> InternedTable(const ReuseProfile& profile) {
  static std::mutex mutex;
  static std::map<std::vector<uint64_t>, std::weak_ptr<const CompiledMrc>>
      tables;
  std::vector<uint64_t> key = ContentKey(profile);
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = tables.find(key);
    if (it != tables.end()) {
      if (std::shared_ptr<const CompiledMrc> live = it->second.lock()) {
        return live;
      }
    }
  }
  auto compiled = std::make_shared<const CompiledMrc>(profile);
  std::lock_guard<std::mutex> lock(mutex);
  std::erase_if(tables,
                [](const auto& entry) { return entry.second.expired(); });
  std::weak_ptr<const CompiledMrc>& slot = tables[std::move(key)];
  if (std::shared_ptr<const CompiledMrc> published = slot.lock()) {
    return published;
  }
  slot = compiled;
  return compiled;
}

}  // namespace

struct ReuseProfile::LazyCompiled {
  std::once_flag once;
  std::shared_ptr<const CompiledMrc> table;
};

ReuseProfile::ReuseProfile(std::vector<ReuseComponent> components,
                           double streaming_weight)
    : components_(std::move(components)),
      streaming_weight_(streaming_weight),
      compiled_(std::make_shared<LazyCompiled>()) {
  CHECK_GE(streaming_weight_, 0.0);
  double total = streaming_weight_;
  lines_.reserve(components_.size());
  rates_.reserve(components_.size());
  for (const ReuseComponent& component : components_) {
    CHECK_GE(component.weight, 0.0);
    CHECK_GT(component.working_set_bytes, 0u);
    total += component.weight;
    const double lines = std::max(
        1.0, static_cast<double>(component.working_set_bytes) / kLineBytes);
    lines_.push_back(lines);
    rates_.push_back(component.weight / lines);
    total_lines_ += lines;
  }
  CHECK_LE(total, 1.0 + 1e-9) << "reuse profile weights exceed 1";
}

ReuseProfile ReuseProfile::Streaming() { return ReuseProfile({}, 1.0); }

double ReuseProfile::MissRatio(uint64_t capacity_bytes) const {
  // Degenerate capacity: nothing is retained.
  if (capacity_bytes == 0) {
    double miss = streaming_weight_;
    for (const ReuseComponent& component : components_) {
      miss += component.weight;
    }
    return std::clamp(miss, 0.0, 1.0);
  }

  const double capacity_lines = static_cast<double>(capacity_bytes) / kLineBytes;
  const size_t n = components_.size();

  // Everything resident and no stream to pollute: no misses.
  if (streaming_weight_ <= 0.0 && total_lines_ <= capacity_lines) {
    return 0.0;
  }

  // Occupancy at characteristic time T: resident fraction of each component
  // plus the streamed lines still aging out (one per stream access, alive
  // for T accesses).
  auto occupancy = [&](double t) {
    double lines_used = streaming_weight_ * t;
    for (size_t j = 0; j < n; ++j) {
      lines_used += lines_[j] * (1.0 - std::exp(-rates_[j] * t));
    }
    return lines_used;
  };

  // Bracket the root of occupancy(T) == capacity_lines. occupancy is
  // strictly increasing whenever this branch is reached.
  double t_hi = 1.0;
  while (occupancy(t_hi) < capacity_lines) {
    t_hi *= 2.0;
    if (t_hi > 1e18) {
      // Numerically everything fits; only the stream misses.
      return std::clamp(streaming_weight_, 0.0, 1.0);
    }
  }
  double t_lo = 0.0;
  for (int i = 0; i < kBisectionIterations; ++i) {
    const double mid = 0.5 * (t_lo + t_hi);
    if (occupancy(mid) < capacity_lines) {
      t_lo = mid;
    } else {
      t_hi = mid;
    }
  }
  const double t = 0.5 * (t_lo + t_hi);

  double miss = streaming_weight_;
  for (size_t j = 0; j < n; ++j) {
    miss += components_[j].weight * std::exp(-rates_[j] * t);
  }
  return std::clamp(miss, 0.0, 1.0);
}

double ReuseProfile::MissRatio(uint64_t capacity_bytes, MrcMode mode) const {
  if (mode == MrcMode::kCompiled) {
    const CompiledMrc& table = Compiled();
    if (table.Covers(capacity_bytes)) {
      return table.Evaluate(capacity_bytes);
    }
    if (capacity_bytes < table.min_capacity_bytes()) {
      return table.BelowGrid(capacity_bytes, *this);
    }
  }
  return MissRatio(capacity_bytes);
}

const CompiledMrc& ReuseProfile::Compiled() const {
  std::call_once(compiled_->once,
                 [this] { compiled_->table = InternedTable(*this); });
  return *compiled_->table;
}

uint64_t ReuseProfile::MaxWorkingSetBytes() const {
  uint64_t max_ws = 0;
  for (const ReuseComponent& component : components_) {
    max_ws = std::max(max_ws, component.working_set_bytes);
  }
  return max_ws;
}

}  // namespace copart
