// The clustering policies' steady state: LFOC+ parks once the classes and
// every app's allocation hold, re-explores from its current cluster count
// after a churn or an IPS drift, and keeps exploring a mix whose fairness
// comes from apps time-sharing a wide slot. CBP parks only once its
// prefetch throttles settle.
#include <set>
#include <string>
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

TEST(CbpSteadyStateTest, ThrottleEngagedAfterTheClusteringSettles) {
  const ResourceManagerParams params = Named("cbp");
  CbpPolicy policy(params);
  for (int i = 0; i < 3; ++i) {
    policy.OnAppAdded();
  }
  const ResourcePool pool{.first_way = 0, .num_ways = 11,
                          .max_mba_percent = 100};
  PartitionDecision decision = policy.StartExploration(pool, 3);
  Rng rng(1);
  const double below = params.classifier.traffic_ratio_high * 0.5;
  int period = 0;
  for (; period < 20 && !decision.converged; ++period) {
    policy.Classify(Signals(below));
    decision = policy.Allocate(decision.state, Signals(below), rng);
  }
  ASSERT_TRUE(decision.converged) << "never settled";
  EXPECT_EQ(decision.prefetch_percent[2], 100u);

  // App 2's traffic crosses traffic_ratio_high: the decision that throttles
  // it must be actuated, not parked.
  const double above = params.classifier.traffic_ratio_high * 2.0;
  policy.Classify(Signals(above));
  decision = policy.Allocate(decision.state, Signals(above), rng);
  EXPECT_FALSE(decision.converged);
  EXPECT_EQ(decision.prefetch_percent[2],
            params.cbp.throttled_prefetch_percent);
  EXPECT_EQ(policy.MbaClassOf(2), ResourceClass::kDemand);

  // The throttle holds, and the clustering settles again.
  for (period = 0; period < 20 && !decision.converged; ++period) {
    policy.Classify(Signals(above));
    decision = policy.Allocate(decision.state, Signals(above), rng);
    EXPECT_EQ(decision.prefetch_percent[2],
              params.cbp.throttled_prefetch_percent);
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
  PartitionDecision decision = policy.StartExploration(pool, 3);
  Rng rng(1);
  const double between = 1.5 * params.classifier.traffic_ratio_high;
  for (int period = 0; period < 20; ++period) {
    policy.Classify(Signals(between));
    decision = policy.Allocate(decision.state, Signals(between), rng);
    ASSERT_FALSE(decision.converged) << "parked after " << period + 1;
  }
}

}  // namespace
}  // namespace copart
