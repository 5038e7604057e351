// The clustering policies' steady state: LFOC+ parks once the classes and
// every app's allocation hold, re-explores from its current cluster count
// after a churn or an IPS drift (writing only the CLOSes that move), and
// keeps exploring a mix whose fairness comes from apps time-sharing a wide
// slot. CBP parks only once its prefetch throttles settle.
#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cbp_policy.h"
#include "core/resource_manager.h"
#include "harness/mix.h"
#include "harness/policy_ab.h"
#include "workload/workload.h"

namespace copart {
namespace {

using Phase = ResourceManager::Phase;

ResourceManagerParams Named(const std::string& policy) {
  ResourceManagerParams params;
  params.partition_policy = policy;
  return params;
}

// One node running a policy A/B scenario the way RunExperiment does, one
// control period per Tick().
class ClusteredNode {
 public:
  ClusteredNode(const PolicyAbScenario& scenario, const std::string& policy)
      : machine_(scenario.machine),
        resctrl_(&machine_),
        monitor_(&machine_),
        manager_(&resctrl_, &monitor_, Named(policy)),
        cores_(scenario.cores_per_app > 0
                   ? scenario.cores_per_app
                   : scenario.machine.num_cores /
                         static_cast<uint32_t>(scenario.mix.apps.size())) {
    manager_.SetResourcePool(scenario.pool);
    for (const WorkloadDescriptor& descriptor : scenario.mix.apps) {
      Admit(descriptor);
    }
  }

  // Launches and admits one app; it joins the end of the managed order.
  AppId Admit(const WorkloadDescriptor& descriptor) {
    Result<AppId> app = machine_.LaunchApp(descriptor, cores_);
    CHECK(app.ok()) << app.status().ToString();
    CHECK(manager_.AddApp(*app).ok());
    managed_.push_back(*app);
    return *app;
  }

  // The churn step of a consolidation: stop managing, then terminate.
  void Evict(size_t index) {
    const AppId app = managed_[index];
    CHECK(manager_.RemoveApp(app).ok());
    CHECK(machine_.TerminateApp(app).ok());
    managed_.erase(managed_.begin() + static_cast<ptrdiff_t>(index));
  }

  void Tick() {
    machine_.AdvanceTime(0.5);
    manager_.Tick();
  }

  // Ticks until the manager parks in idle; the periods it took, or -1 when
  // it was still not idle after `limit`.
  int TicksUntilIdle(int limit) {
    for (int period = 1; period <= limit; ++period) {
      Tick();
      if (manager_.phase() == Phase::kIdle) {
        return period;
      }
    }
    return -1;
  }

  // Distinct slots the cache-sensitive apps run in: the sensitive-cluster
  // count of the decision the manager holds.
  size_t SensitiveClusters() const {
    std::set<uint32_t> slots;
    for (size_t i = 0; i < managed_.size(); ++i) {
      if (manager_.LlcClass(managed_[i]) == ResourceClass::kDemand) {
        slots.insert(manager_.app_slots()[i]);
      }
    }
    return slots.size();
  }

  SimulatedMachine& machine() { return machine_; }
  const Resctrl& resctrl() const { return resctrl_; }
  ResourceManager& manager() { return manager_; }
  const std::vector<AppId>& managed() const { return managed_; }

 private:
  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  ResourceManager manager_;
  uint32_t cores_;
  std::vector<AppId> managed_;  // In the manager's admission order.
};

TEST(LfocSteadyStateTest, ManyAppsParkAndStayParked) {
  ClusteredNode node(ManyAppsScenario(48), "lfoc+");
  const int parked_after = node.TicksUntilIdle(60);
  ASSERT_GT(parked_after, 0) << "lfoc+ never parked in 60 periods";
  EXPECT_GT(node.SensitiveClusters(), 1u);

  // Parked: every period replays the stored fixed point and writes nothing.
  const uint64_t solves = node.machine().full_solves();
  const uint64_t attempts = node.manager().actuation_attempts();
  for (int period = 0; period < 20; ++period) {
    node.Tick();
    ASSERT_EQ(node.manager().phase(), Phase::kIdle) << "period " << period;
  }
  EXPECT_EQ(node.machine().full_solves(), solves);
  EXPECT_EQ(node.manager().actuation_attempts(), attempts);
}

TEST(LfocSteadyStateTest, ChurnReexploresFromTheCurrentClusterCount) {
  const PolicyAbScenario scenario = ManyAppsScenario(48);
  ClusteredNode node(scenario, "lfoc+");
  ASSERT_GT(node.TicksUntilIdle(60), 0);
  const size_t clusters = node.SensitiveClusters();
  ASSERT_GT(clusters, 2u);

  // Replace one tenant with a fresh copy of the same workload.
  const uint64_t adaptations = node.manager().adaptations_started();
  node.Evict(5);
  node.Admit(scenario.mix.apps[5]);
  EXPECT_GT(node.manager().adaptations_started(), adaptations);
  ASSERT_EQ(node.manager().phase(), Phase::kExploration);

  // The first clustered decision already runs the pre-churn count instead
  // of climbing back from one cluster.
  node.Tick();
  ASSERT_EQ(node.manager().phase(), Phase::kExploration);
  EXPECT_EQ(node.SensitiveClusters(), clusters);

  const int reparked_after = node.TicksUntilIdle(7);
  EXPECT_GT(reparked_after, 0) << "not idle again within 8 periods";
}

TEST(LfocSteadyStateTest, ChurnWritesOnlyTheClosesThatMoved) {
  const PolicyAbScenario scenario = ManyAppsScenario(48);
  ClusteredNode node(scenario, "lfoc+");
  ASSERT_GT(node.TicksUntilIdle(60), 0);
  node.Evict(5);
  node.Admit(scenario.mix.apps[5]);
  ASSERT_EQ(node.manager().phase(), Phase::kExploration);

  // Every CLOS's (mask, MBA level), as the machine holds them.
  const SimulatedMachine& machine = node.machine();
  const auto registers = [&] {
    std::vector<std::pair<uint64_t, uint32_t>> lines;
    for (uint32_t clos = 0; clos < machine.config().num_clos; ++clos) {
      lines.emplace_back(machine.ClosWayMask(clos).bits(),
                         machine.ClosMbaLevel(clos).percent());
    }
    return lines;
  };
  // Each exploration tick writes a schemata line only where a CLOS moves:
  // no write at all when no mask or MBA level changed, and at most its two
  // lines per CLOS that did.
  int explored = 0;
  for (; explored < 20 && node.manager().phase() == Phase::kExploration;
       ++explored) {
    const auto before = registers();
    const uint64_t writes = node.resctrl().schemata_writes();
    node.Tick();
    const auto after = registers();
    uint64_t changed = 0;
    for (size_t clos = 0; clos < before.size(); ++clos) {
      changed += before[clos] != after[clos] ? 1 : 0;
    }
    EXPECT_LE(node.resctrl().schemata_writes() - writes, 2 * changed)
        << "exploration tick " << explored << " changed " << changed
        << " CLOSes";
  }
  EXPECT_GT(explored, 0);
  EXPECT_EQ(node.manager().phase(), Phase::kIdle);
}

TEST(LfocSteadyStateTest, TimeSharedWideSlotKeepsExploring) {
  // M-LLC-4: WN and WS trade the wide slot and a one-way slot every period;
  // that time-sharing is the mix's fairness, so the clustering never holds.
  PolicyAbScenario scenario;
  scenario.mix = MakeMix(MixFamily::kModerateLlc, 4);
  ClusteredNode node(scenario, "lfoc+");
  for (int period = 0; period < 100; ++period) {
    node.Tick();
    ASSERT_EQ(node.manager().phase(), Phase::kExploration)
        << "parked after " << period + 1 << " periods";
  }
}

TEST(LfocSteadyStateTest, IpsDriftOnAParkedNodeRestartsExploration) {
  ClusteredNode node(ManyAppsScenario(48), "lfoc+");
  ASSERT_GT(node.TicksUntilIdle(60), 0);
  node.Tick();
  ASSERT_EQ(node.manager().phase(), Phase::kIdle);

  // An outer manager caps one tenant at half its rate: well past
  // idle_ips_drift_threshold.
  const AppId app = node.managed()[0];
  node.machine().SetAppRequiredIps(app,
                                   0.5 * node.machine().LastEpoch(app).ips);
  const uint64_t adaptations = node.manager().adaptations_started();
  node.Tick();
  EXPECT_EQ(node.manager().phase(), Phase::kExploration);
  EXPECT_EQ(node.manager().adaptations_started(), adaptations + 1);
}

// Signals for one period: apps 0 and 1 cache-sensitive with different
// miss pressure, app 2 missing heavily with the given traffic ratio.
std::vector<PolicySignals> Signals(double traffic_ratio) {
  std::vector<PolicySignals> signals(3);
  for (PolicySignals& s : signals) {
    s.healthy = true;
    s.llc_access_rate = 1e8;
    s.llc_miss_ratio = 0.01;
    s.traffic_ratio = 0.05;
  }
  signals[1].llc_miss_ratio = 0.02;
  signals[2].llc_miss_ratio = 0.5;
  signals[2].traffic_ratio = traffic_ratio;
  return signals;
}

// One decision with `*decision`'s state as the current one, the way the
// driver feeds back what it actuated.
void Decide(PartitionPolicy& policy, const std::vector<PolicySignals>& signals,
            Rng& rng, PartitionDecision* decision) {
  const SystemState current = decision->state;
  policy.Allocate(current, signals, rng, decision);
}

TEST(CbpSteadyStateTest, ThrottleEngagedAfterTheClusteringSettles) {
  const ResourceManagerParams params = Named("cbp");
  CbpPolicy policy(params);
  for (int i = 0; i < 3; ++i) {
    policy.OnAppAdded();
  }
  const ResourcePool pool{.first_way = 0, .num_ways = 11,
                          .max_mba_percent = 100};
  PartitionDecision decision;
  policy.StartExploration(pool, 3, &decision);
  Rng rng(1);
  const double below = params.classifier.traffic_ratio_high * 0.5;
  int period = 0;
  for (; period < 20 && !decision.converged; ++period) {
    policy.Classify(Signals(below));
    Decide(policy, Signals(below), rng, &decision);
  }
  ASSERT_TRUE(decision.converged) << "never settled";
  EXPECT_EQ(decision.prefetch_percent[2], 100u);

  // App 2's traffic crosses traffic_ratio_high: the decision that throttles
  // it must be actuated, not parked.
  const double above = params.classifier.traffic_ratio_high * 2.0;
  policy.Classify(Signals(above));
  Decide(policy, Signals(above), rng, &decision);
  EXPECT_FALSE(decision.converged);
  EXPECT_EQ(decision.prefetch_percent[2],
            CbpPolicy::kThrottledPrefetchPercent);
  EXPECT_EQ(policy.MbaClassOf(2), ResourceClass::kDemand);

  // The throttle holds, and the clustering settles again.
  for (period = 0; period < 20 && !decision.converged; ++period) {
    policy.Classify(Signals(above));
    Decide(policy, Signals(above), rng, &decision);
    EXPECT_EQ(decision.prefetch_percent[2],
              CbpPolicy::kThrottledPrefetchPercent);
  }
  EXPECT_TRUE(decision.converged);
}

TEST(CbpSteadyStateTest, DecisionThatFlipsAThrottleNeverParks) {
  // With the shipped thresholds a throttle flips only alongside a class
  // change, which already unsettles the clustering. Releasing above the
  // engage threshold isolates the rule: app 2's throttle flips on every
  // decision while its class and allocation hold.
  ResourceManagerParams params = Named("cbp");
  params.cbp.release_traffic_ratio = 2.0 * params.classifier.traffic_ratio_high;
  CbpPolicy policy(params);
  for (int i = 0; i < 3; ++i) {
    policy.OnAppAdded();
  }
  const ResourcePool pool{.first_way = 0, .num_ways = 11,
                          .max_mba_percent = 100};
  PartitionDecision decision;
  policy.StartExploration(pool, 3, &decision);
  Rng rng(1);
  const double between = 1.5 * params.classifier.traffic_ratio_high;
  for (int period = 0; period < 20; ++period) {
    policy.Classify(Signals(between));
    Decide(policy, Signals(between), rng, &decision);
    ASSERT_FALSE(decision.converged) << "parked after " << period + 1;
  }
}

// LfocPolicy with the enumerate-then-sort form of its clustering step: the
// fresh per-call vectors and the two std::stable_sort calls that
// Cluster() replaced with reused buffers and std::sort. Both comparators
// break ties by index, so both are total orders and std::sort must produce
// the same cluster order and the same remainder order.
class ReferenceLfoc : public LfocPolicy {
 public:
  using LfocPolicy::LfocPolicy;

  // The decision the reference writes for this period's classes and
  // pressures; `clusters` and `cooldown` are its own copies of the LFOC+
  // sizing state.
  PartitionDecision ReferenceCluster(const ResourcePool& pool,
                                     uint32_t* clusters,
                                     int* cooldown) const {
    const size_t n = classes_.size();
    std::vector<size_t> lights, streams, sens;
    for (size_t i = 0; i < n; ++i) {
      (classes_[i] == AppClass::kLight       ? lights
       : classes_[i] == AppClass::kStreaming ? streams
                                             : sens)
          .push_back(i);
    }
    if (plus_ && !sens.empty()) {
      if (*cooldown > 0) {
        --*cooldown;
      } else {
        double lo = std::numeric_limits<double>::infinity();
        double hi = 0.0;
        for (size_t i : sens) {
          lo = std::min(lo, pressure_[i]);
          hi = std::max(hi, pressure_[i]);
        }
        const double spread = lo > 0.0 ? hi / lo - 1.0
                              : hi > 0.0
                                  ? std::numeric_limits<double>::infinity()
                                  : 0.0;
        if (spread > kSplitSpread) {
          ++*clusters;
          *cooldown = kResizeCooldownPeriods;
        } else if (spread < kMergeSpread && *clusters > 1) {
          --*clusters;
          *cooldown = kResizeCooldownPeriods;
        }
      }
    }
    uint32_t light_ways = lights.empty() ? 0 : kLightWays;
    uint32_t stream_ways = streams.empty() ? 0 : kStreamingWays;
    const uint32_t sens_reserve = sens.empty() ? 0 : 1;
    const uint32_t side_slots =
        (lights.empty() ? 0u : 1u) + (streams.empty() ? 0u : 1u);
    const uint32_t slot_budget = std::max(
        1u, std::min(params_.max_clos > 0 ? params_.max_clos - 1 : 1u,
                     pool.num_ways));
    PartitionDecision decision;
    if (light_ways + stream_ways + sens_reserve > pool.num_ways ||
        side_slots + sens_reserve > slot_budget) {
      FairShare(pool, n, &decision);
      return decision;
    }
    uint32_t rest_ways = pool.num_ways - light_ways - stream_ways;
    uint32_t k = 0;
    if (!sens.empty()) {
      const uint32_t sens_budget =
          slot_budget > side_slots ? slot_budget - side_slots : 1u;
      k = std::min({*clusters, static_cast<uint32_t>(sens.size()), rest_ways,
                    sens_budget});
      k = std::max(k, 1u);
    } else if (!lights.empty()) {
      light_ways += rest_ways;
      rest_ways = 0;
    } else {
      stream_ways += rest_ways;
      rest_ways = 0;
    }
    *clusters = std::max(k, 1u);

    std::vector<size_t> order = sens;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (pressure_[a] != pressure_[b]) {
        return pressure_[a] > pressure_[b];
      }
      return a < b;
    });
    std::vector<std::vector<size_t>> members(k);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      members[pos * k / order.size()].push_back(order[pos]);
    }
    std::vector<uint32_t> cluster_ways(k, 1);
    if (k > 0) {
      const uint32_t spare = rest_ways - k;
      std::vector<double> weight(k, 0.0);
      double total_weight = 0.0;
      for (uint32_t c = 0; c < k; ++c) {
        for (size_t i : members[c]) {
          weight[c] += pressure_[i];
        }
        total_weight += weight[c];
      }
      if (total_weight <= 0.0) {
        total_weight = static_cast<double>(k);
        weight.assign(k, 1.0);
      }
      std::vector<double> fraction(k, 0.0);
      uint32_t given = 0;
      for (uint32_t c = 0; c < k; ++c) {
        const double share = spare * weight[c] / total_weight;
        const uint32_t base = static_cast<uint32_t>(share);
        cluster_ways[c] += base;
        given += base;
        fraction[c] = share - base;
      }
      std::vector<uint32_t> by_fraction(k);
      std::iota(by_fraction.begin(), by_fraction.end(), 0u);
      std::stable_sort(by_fraction.begin(), by_fraction.end(),
                       [&](uint32_t a, uint32_t b) {
                         if (fraction[a] != fraction[b]) {
                           return fraction[a] > fraction[b];
                         }
                         return a < b;
                       });
      for (uint32_t r = 0; given < spare; ++r) {
        ++cluster_ways[by_fraction[r % k]];
        ++given;
      }
    }
    const MbaLevel pool_mba =
        MbaLevel::FromPercentChecked(pool.max_mba_percent);
    const uint32_t stream_mba_percent = std::max(
        MbaLevel::kMin,
        std::min(kStreamingMbaPercent / MbaLevel::kStep * MbaLevel::kStep,
                 pool.max_mba_percent));
    std::vector<AppAllocation> slots;
    decision.app_slot.assign(n, 0u);
    for (uint32_t c = 0; c < k; ++c) {
      for (size_t i : members[c]) {
        decision.app_slot[i] = static_cast<uint32_t>(slots.size());
      }
      slots.push_back({.llc_ways = cluster_ways[c], .mba_level = pool_mba});
    }
    if (!lights.empty()) {
      for (size_t i : lights) {
        decision.app_slot[i] = static_cast<uint32_t>(slots.size());
      }
      slots.push_back({.llc_ways = light_ways, .mba_level = pool_mba});
    }
    if (!streams.empty()) {
      for (size_t i : streams) {
        decision.app_slot[i] = static_cast<uint32_t>(slots.size());
      }
      slots.push_back(
          {.llc_ways = stream_ways,
           .mba_level = MbaLevel::FromPercentChecked(stream_mba_percent)});
    }
    decision.state = SystemState(pool, std::move(slots));
    return decision;
  }
};

TEST(LfocClusteringTest, SortedClustersMatchTheStableSortReference) {
  Rng rng(77);
  // Few distinct values, so pressures, cluster weights and remainder
  // fractions tie often.
  const double access_rates[] = {1e6, 1e8, 2e8};
  const double miss_ratios[] = {0.01, 0.02, 0.04, 0.5};
  const double traffic_ratios[] = {0.05, 0.6};
  int periods = 0;
  size_t max_slots = 0;
  for (int trial = 0; trial < 40; ++trial) {
    ReferenceLfoc policy(Named("lfoc+"), /*plus=*/true);
    const size_t n = 3 + rng.NextUint64(38);
    for (size_t i = 0; i < n; ++i) {
      policy.OnAppAdded();
    }
    const ResourcePool pool{.first_way = 0,
                            .num_ways = 11 + 9 * static_cast<uint32_t>(
                                                     rng.NextUint64(2)),
                            .max_mba_percent = 100};
    PartitionDecision decision;
    policy.StartExploration(pool, n, &decision);
    uint32_t clusters = 1;
    int cooldown = 0;
    std::vector<PolicySignals> signals(n);
    for (int period = 0; period < 40; ++period, ++periods) {
      // Every fourth period all sensitive apps press equally, so the
      // spread collapses and clusters merge back.
      const bool uniform = period % 4 == 3;
      for (PolicySignals& s : signals) {
        s.healthy = true;
        s.llc_access_rate = uniform ? 1e8 : access_rates[rng.NextUint64(3)];
        s.llc_miss_ratio = uniform ? 0.02 : miss_ratios[rng.NextUint64(4)];
        s.traffic_ratio = traffic_ratios[rng.NextUint64(2)];
      }
      policy.Classify(signals);
      const PartitionDecision expected =
          policy.ReferenceCluster(pool, &clusters, &cooldown);
      const SystemState current = decision.state;
      policy.Allocate(current, signals, rng, &decision);
      ASSERT_TRUE(decision.state == expected.state)
          << "trial " << trial << " period " << period << ": "
          << decision.state.ToString() << " vs " << expected.state.ToString();
      ASSERT_EQ(decision.app_slot, expected.app_slot)
          << "trial " << trial << " period " << period;
      max_slots = std::max(max_slots, decision.state.NumApps());
    }
  }
  EXPECT_EQ(periods, 40 * 40);
  EXPECT_GE(max_slots, 5u) << "the split rule never opened three clusters";
}

}  // namespace
}  // namespace copart
