#include "core/lfoc_policy.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace copart {

static_assert(LfocPolicy::kLightWays >= 1 && LfocPolicy::kStreamingWays >= 1);

LfocPolicy::LfocPolicy(const ResourceManagerParams& params, bool plus)
    : params_(params), plus_(plus) {}

void LfocPolicy::OnAppAdded() {
  // New apps start sensitive: they keep cache capacity until the signals
  // show they are light or streaming (the conservative default — taking
  // capacity away from a sensitive app hurts more than lending it to a
  // light one).
  classes_.push_back(AppClass::kSensitive);
  pressure_.push_back(0.0);
  traffic_ratios_.push_back(0.0);
  const size_t n = classes_.size();
  ReserveRoom(last_classes_, n);
  ReserveRoom(last_allocations_, n);
  for (std::vector<size_t>* list : {&lights_, &streams_, &sens_, &order_}) {
    ReserveRoom(*list, n);
  }
  for (std::vector<uint32_t>* list : {&cluster_ways_, &by_fraction_}) {
    ReserveRoom(*list, n);
  }
  ReserveRoom(weight_, n);
  ReserveRoom(fraction_, n);
}

void LfocPolicy::OnAppRemoved(size_t index) {
  const ptrdiff_t i = static_cast<ptrdiff_t>(index);
  classes_.erase(classes_.begin() + i);
  pressure_.erase(pressure_.begin() + i);
  traffic_ratios_.erase(traffic_ratios_.begin() + i);
}

void LfocPolicy::StartExploration(const ResourcePool& pool, size_t num_apps,
                                  PartitionDecision* decision) {
  CHECK_EQ(num_apps, classes_.size());
  // The sensitive-cluster count and its resize cooldown carry over: a
  // churn, drift or pool change re-explores from the current count, and
  // only the split/merge rule moves it. Stability is judged afresh: the
  // first decision has nothing to repeat.
  last_allocations_.clear();
  FairShare(pool, num_apps, decision);
}

void LfocPolicy::FairShare(const ResourcePool& pool, size_t num_apps,
                           PartitionDecision* decision) const {
  // One shared slot spanning the whole pool: no isolation, but also no way
  // a broken substrate or a transient class flap can starve anyone.
  decision->state.Reshape(pool, 1);
  decision->state.allocation(0) = AppAllocation{
      .llc_ways = pool.num_ways,
      .mba_level = MbaLevel::FromPercentChecked(pool.max_mba_percent)};
  decision->app_slot.assign(num_apps, 0u);
  decision->ClearExtras();
}

void LfocPolicy::Classify(const std::vector<PolicySignals>& signals) {
  CHECK_EQ(signals.size(), classes_.size());
  for (size_t i = 0; i < signals.size(); ++i) {
    const PolicySignals& s = signals[i];
    if (s.quarantined) {
      // Untrusted counters: keep the class, report no pressure.
      pressure_[i] = 0.0;
      continue;
    }
    if (!s.healthy) {
      continue;  // Sticky: last trusted class and pressure stand.
    }
    if (s.llc_access_rate < params_.classifier.llc_access_rate_floor) {
      classes_[i] = AppClass::kLight;
    } else if (s.llc_miss_ratio >= params_.classifier.llc_miss_ratio_high &&
               s.traffic_ratio >= params_.classifier.traffic_ratio_high) {
      classes_[i] = AppClass::kStreaming;
    } else {
      classes_[i] = AppClass::kSensitive;
    }
    traffic_ratios_[i] = s.traffic_ratio;
    // Miss pressure: how much miss traffic the app generates under its
    // current allocation. The online gradient the clustering follows.
    pressure_[i] = std::max(0.0, s.llc_access_rate * s.llc_miss_ratio);
  }
}

void LfocPolicy::Allocate(const SystemState& current,
                          const std::vector<PolicySignals>& signals, Rng& rng,
                          PartitionDecision* decision) {
  (void)signals;  // Consumed by Classify.
  (void)rng;      // Deterministic: LFOC never draws randomness.
  Cluster(current.pool(), decision);
  // Park once the classes and every app's (ways, MBA) have held for longer
  // than a resize cooldown, so the split/merge rule has had a period to fire
  // and did not. Keyed on per-app allocations, not slot membership: equal-
  // pressure apps swapping between identical slots change nothing an app
  // runs with, while an app trading a wide slot for a narrow one is the
  // time-sharing that keeps such a mix fair, and must keep exploring.
  bool unchanged = classes_ == last_classes_ &&
                   last_allocations_.size() == decision->app_slot.size();
  last_allocations_.resize(decision->app_slot.size());
  for (size_t i = 0; i < last_allocations_.size(); ++i) {
    const AppAllocation& allocation =
        decision->state.allocation(decision->app_slot[i]);
    unchanged = unchanged && allocation == last_allocations_[i];
    last_allocations_[i] = allocation;
  }
  last_classes_ = classes_;
  stable_decisions_ = unchanged ? stable_decisions_ + 1 : 0;
  decision->converged = stable_decisions_ > kResizeCooldownPeriods;
}

void LfocPolicy::Cluster(const ResourcePool& pool,
                         PartitionDecision* decision) {
  const size_t n = classes_.size();

  lights_.clear();
  streams_.clear();
  sens_.clear();
  for (size_t i = 0; i < n; ++i) {
    switch (classes_[i]) {
      case AppClass::kLight:
        lights_.push_back(i);
        break;
      case AppClass::kStreaming:
        streams_.push_back(i);
        break;
      case AppClass::kSensitive:
        sens_.push_back(i);
        break;
    }
  }

  // LFOC+ resizing: watch the miss-pressure spread inside the sensitive
  // class. A wide spread means one shared cluster is mixing starved apps
  // with satisfied ones.
  if (plus_ && !sens_.empty()) {
    if (resize_cooldown_remaining_ > 0) {
      --resize_cooldown_remaining_;
    } else {
      double lo = std::numeric_limits<double>::infinity();
      double hi = 0.0;
      for (size_t i : sens_) {
        lo = std::min(lo, pressure_[i]);
        hi = std::max(hi, pressure_[i]);
      }
      // lo == 0 with hi > 0 is maximal spread (a zero-pressure app shares
      // a cluster with a missing one): treat as split-worthy.
      const double spread = lo > 0.0 ? hi / lo - 1.0
                            : hi > 0.0
                                ? std::numeric_limits<double>::infinity()
                                : 0.0;
      if (spread > kSplitSpread) {
        ++num_sensitive_clusters_;
        resize_cooldown_remaining_ = kResizeCooldownPeriods;
      } else if (spread < kMergeSpread && num_sensitive_clusters_ > 1) {
        --num_sensitive_clusters_;
        resize_cooldown_remaining_ = kResizeCooldownPeriods;
      }
    }
  }

  // Way budget. Pools too narrow for the class slots collapse to the single
  // shared slot — safe, and only reachable on tiny configurations.
  uint32_t light_ways = lights_.empty() ? 0 : kLightWays;
  uint32_t stream_ways = streams_.empty() ? 0 : kStreamingWays;
  const uint32_t sens_reserve = sens_.empty() ? 0 : 1;
  const uint32_t side_slots =
      (lights_.empty() ? 0u : 1u) + (streams_.empty() ? 0u : 1u);
  const uint32_t slot_budget = std::max(
      1u, std::min(params_.max_clos > 0 ? params_.max_clos - 1 : 1u,
                   pool.num_ways));
  if (light_ways + stream_ways + sens_reserve > pool.num_ways ||
      side_slots + sens_reserve > slot_budget) {
    FairShare(pool, n, decision);
    return;
  }
  uint32_t rest_ways = pool.num_ways - light_ways - stream_ways;

  // CLOS budget: one slot per cluster, all within max_clos minus the
  // default group. The conformance suite pins that the decision never uses
  // more slots than this.
  uint32_t k = 0;
  if (!sens_.empty()) {
    const uint32_t sens_budget =
        slot_budget > side_slots ? slot_budget - side_slots : 1u;
    k = std::min({static_cast<uint32_t>(num_sensitive_clusters_),
                  static_cast<uint32_t>(sens_.size()), rest_ways,
                  sens_budget});
    k = std::max(k, 1u);
  } else if (!lights_.empty()) {
    light_ways += rest_ways;  // Nobody sensitive: hand the bulk to lights.
    rest_ways = 0;
  } else {
    stream_ways += rest_ways;
    rest_ways = 0;
  }
  num_sensitive_clusters_ = std::max(k, 1u);

  // Sort sensitive apps highest-pressure first (index ascending on ties)
  // and cut the order into k contiguous clusters of near-equal population:
  // position pos lands in cluster pos * k / size, so cluster 0 holds the
  // most-starved apps. The comparator is a total order, so std::sort gives
  // the one order a stable sort would.
  order_.assign(sens_.begin(), sens_.end());
  std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
    if (pressure_[a] != pressure_[b]) {
      return pressure_[a] > pressure_[b];
    }
    return a < b;
  });
  const auto cluster_of = [&](size_t pos) { return pos * k / order_.size(); };

  // Ways per sensitive cluster: one each, then the remainder proportional
  // to the cluster's miss-pressure mass (largest remainder, ties to the
  // lower cluster index — the more-starved one).
  cluster_ways_.assign(k, 1);
  if (k > 0) {
    const uint32_t spare = rest_ways - k;
    weight_.assign(k, 0.0);
    for (size_t pos = 0; pos < order_.size(); ++pos) {
      weight_[cluster_of(pos)] += pressure_[order_[pos]];
    }
    double total_weight = 0.0;
    for (uint32_t c = 0; c < k; ++c) {
      total_weight += weight_[c];
    }
    if (total_weight <= 0.0) {
      total_weight = static_cast<double>(k);
      weight_.assign(k, 1.0);
    }
    fraction_.assign(k, 0.0);
    uint32_t given = 0;
    for (uint32_t c = 0; c < k; ++c) {
      const double share = spare * weight_[c] / total_weight;
      const uint32_t base = static_cast<uint32_t>(share);
      cluster_ways_[c] += base;
      given += base;
      fraction_[c] = share - base;
    }
    by_fraction_.resize(k);
    std::iota(by_fraction_.begin(), by_fraction_.end(), 0u);
    std::sort(by_fraction_.begin(), by_fraction_.end(),
              [&](uint32_t a, uint32_t b) {
                if (fraction_[a] != fraction_[b]) {
                  return fraction_[a] > fraction_[b];
                }
                return a < b;
              });
    for (uint32_t r = 0; given < spare; ++r) {
      ++cluster_ways_[by_fraction_[r % k]];
      ++given;
    }
  }

  // Slot layout: sensitive clusters first (slot c is cluster c), then the
  // light slot, then the streaming slot. WayMaskBits packs slots left to
  // right in this order.
  const MbaLevel pool_mba = MbaLevel::FromPercentChecked(pool.max_mba_percent);
  const uint32_t stream_mba_percent = std::max(
      MbaLevel::kMin,
      std::min(kStreamingMbaPercent / MbaLevel::kStep * MbaLevel::kStep,
               pool.max_mba_percent));
  const uint32_t light_slot = k;
  const uint32_t stream_slot = k + (lights_.empty() ? 0u : 1u);
  SystemState& state = decision->state;
  state.Reshape(pool, stream_slot + (streams_.empty() ? 0u : 1u));
  decision->app_slot.assign(n, 0u);
  for (size_t pos = 0; pos < order_.size(); ++pos) {
    decision->app_slot[order_[pos]] = static_cast<uint32_t>(cluster_of(pos));
  }
  for (uint32_t c = 0; c < k; ++c) {
    state.allocation(c) =
        AppAllocation{.llc_ways = cluster_ways_[c], .mba_level = pool_mba};
  }
  if (!lights_.empty()) {
    for (size_t i : lights_) {
      decision->app_slot[i] = light_slot;
    }
    state.allocation(light_slot) =
        AppAllocation{.llc_ways = light_ways, .mba_level = pool_mba};
  }
  if (!streams_.empty()) {
    for (size_t i : streams_) {
      decision->app_slot[i] = stream_slot;
    }
    state.allocation(stream_slot) = AppAllocation{
        .llc_ways = stream_ways,
        .mba_level = MbaLevel::FromPercentChecked(stream_mba_percent)};
  }
  decision->ClearExtras();
}

ResourceClass LfocPolicy::LlcClassOf(size_t app) const {
  return classes_[app] == AppClass::kSensitive ? ResourceClass::kDemand
                                               : ResourceClass::kSupply;
}

ResourceClass LfocPolicy::MbaClassOf(size_t app) const {
  switch (classes_[app]) {
    case AppClass::kStreaming:
      return ResourceClass::kDemand;
    case AppClass::kLight:
      return ResourceClass::kSupply;
    case AppClass::kSensitive:
      break;
  }
  return ResourceClass::kMaintain;
}

}  // namespace copart
