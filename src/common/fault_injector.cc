#include "common/fault_injector.h"

#include <algorithm>

namespace copart {

FaultInjector::FaultInjector(uint64_t seed) : seed_(seed) {}

uint64_t FaultInjector::HashPoint(std::string_view point) {
  // FNV-1a 64-bit. Pinned: per-point streams are Rng(seed).Fork(hash), so
  // changing this constant set would shift every armed schedule.
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : point) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void FaultInjector::Arm(std::string_view point, const FaultSpec& spec) {
  PointState state;
  state.spec = spec;
  state.spec.probability = std::clamp(spec.probability, 0.0, 1.0);
  state.spec.burst_length = std::max(spec.burst_length, 1u);
  state.rng = Rng(seed_).Fork(HashPoint(point));
  points_.insert_or_assign(std::string(point), std::move(state));
}

void FaultInjector::Disarm(std::string_view point) {
  auto it = points_.find(point);
  if (it != points_.end()) {
    points_.erase(it);
  }
}

void FaultInjector::DisarmAll() { points_.clear(); }

bool FaultInjector::ShouldFail(std::string_view point) {
  ++total_queries_;
  if (points_.empty()) {
    return false;
  }
  auto it = points_.find(point);
  if (it == points_.end()) {
    return false;
  }
  PointState& state = it->second;
  const uint64_t query = state.queries++;
  // One draw per query, outcome-independent, keeps the stream aligned with
  // the query index (see the determinism contract in the header).
  const bool bernoulli = state.rng.NextDouble() < state.spec.probability;

  bool fail = false;
  if (state.burst_remaining > 0) {
    --state.burst_remaining;
    fail = true;
  } else if (std::find(state.spec.one_shot_queries.begin(),
                       state.spec.one_shot_queries.end(),
                       query) != state.spec.one_shot_queries.end()) {
    fail = true;
  } else if (bernoulli) {
    fail = true;
    state.burst_remaining = state.spec.burst_length - 1;
  }
  if (fail && state.failures >= state.spec.max_failures) {
    fail = false;
    state.burst_remaining = 0;
  }
  if (fail) {
    ++state.failures;
    ++total_failures_;
  }
  return fail;
}

uint64_t FaultInjector::PointQueries(std::string_view point) const {
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.queries;
}

uint64_t FaultInjector::PointFailures(std::string_view point) const {
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.failures;
}

std::vector<std::string> FaultInjector::PointNames() const {
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, state] : points_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace copart
