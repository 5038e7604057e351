// A steady node tick never touches the heap. The manager, its policy and
// the machine each reuse buffers they own, sized when the app set changes
// (DESIGN.md §6), so idle ticks, exploration ticks and a steady fleet
// epoch allocate nothing. Counting is done by the replaced global operator
// new of alloc_counter.cc.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "cluster/cluster.h"
#include "cluster/fleet.h"
#include "common/fault_injector.h"
#include "core/resource_manager.h"
#include "harness/policy_ab.h"
#include "machine/simulated_machine.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

using Phase = ResourceManager::Phase;

template <typename Fn>
long AllocationsDuring(Fn&& fn) {
  const long before = HeapAllocations();
  fn();
  return HeapAllocations() - before;
}

// One machine under one manager, driven one control period per Tick().
class Node {
 public:
  Node(const MachineConfig& config, const std::string& policy,
       uint32_t cores_per_app)
      : machine_(config),
        resctrl_(&machine_),
        monitor_(&machine_),
        manager_(&resctrl_, &monitor_, Params(policy)),
        cores_(cores_per_app) {}

  void Admit(const WorkloadDescriptor& descriptor) {
    Result<AppId> app = machine_.LaunchApp(descriptor, cores_);
    ASSERT_TRUE(app.ok()) << app.status().ToString();
    ASSERT_TRUE(manager_.AddApp(*app).ok());
    apps_.push_back(*app);
  }

  // Departure of the oldest app: terminate, then stop managing.
  void EvictFirst() {
    ASSERT_TRUE(machine_.TerminateApp(apps_.front()).ok());
    ASSERT_TRUE(manager_.RemoveApp(apps_.front()).ok());
    apps_.erase(apps_.begin());
  }

  void Tick() {
    machine_.AdvanceTime(0.5);
    manager_.Tick();
  }

  ResourceManager& manager() { return manager_; }

 private:
  static ResourceManagerParams Params(const std::string& policy) {
    ResourceManagerParams params;
    params.partition_policy = policy;
    return params;
  }

  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  ResourceManager manager_;
  uint32_t cores_;
  std::vector<AppId> apps_;
};

// Ticks `node` until its manager parks in idle (at most `limit` periods).
// Every tick that starts in exploration must allocate nothing, unless
// `grew_slots` says it materialized a new cluster group. Returns the
// exploration ticks counted.
template <typename GrewSlots>
int ExploreUntilIdle(Node& node, int limit, GrewSlots grew_slots) {
  int counted = 0;
  for (int period = 0; period < limit; ++period) {
    if (node.manager().phase() == Phase::kIdle) {
      return counted;
    }
    const bool exploring = node.manager().phase() == Phase::kExploration;
    const long allocations = AllocationsDuring([&] { node.Tick(); });
    if (exploring && !grew_slots()) {
      ++counted;
      EXPECT_EQ(allocations, 0) << "exploration tick at period " << period;
    }
  }
  ADD_FAILURE() << "manager still not idle after " << limit << " periods";
  return counted;
}

TEST(CoreTickAllocTest, IdleClusterNodeTicksDoNotAllocate) {
  ClusterNode node("n0", MachineConfig{}, ResourceManagerParams{});
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(node.Admit(registry[i], 2).ok());
  }
  const auto tick = [&] {
    node.machine().AdvanceTime(0.5);
    node.manager().Tick();
    (void)node.CurrentUnfairness();
  };
  for (int period = 0;
       period < 500 && node.manager().phase() != Phase::kIdle; ++period) {
    tick();
  }
  ASSERT_EQ(node.manager().phase(), Phase::kIdle);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(AllocationsDuring(tick), 0) << "idle tick " << i;
    ASSERT_EQ(node.manager().phase(), Phase::kIdle);
  }
}

TEST(CoreTickAllocTest, CoPartExplorationTicksDoNotAllocate) {
  // The paper machine, 8 apps on 2 cores each. Four adaptations: the
  // opening one, a departure, an admission and a pool change.
  Node node(MachineConfig{}, "copart", 2);
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  for (size_t i = 0; i < 8; ++i) {
    node.Admit(registry[i % registry.size()]);
  }
  const auto no_groups = [] { return false; };
  int counted = ExploreUntilIdle(node, 600, no_groups);
  node.EvictFirst();
  counted += ExploreUntilIdle(node, 600, no_groups);
  node.Admit(registry[8 % registry.size()]);
  counted += ExploreUntilIdle(node, 600, no_groups);
  node.manager().SetResourcePool(node.manager().pool());
  counted += ExploreUntilIdle(node, 600, no_groups);
  EXPECT_GT(counted, 10);
}

TEST(CoreTickAllocTest, CoPartProfilingHandOverDoesNotAllocate) {
  // The tick whose last probe hands over to exploration writes the opening
  // fair share into the policy's decision in place.
  Node node(MachineConfig{}, "copart", 2);
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  for (size_t i = 0; i < 8; ++i) {
    node.Admit(registry[i % registry.size()]);
  }
  ASSERT_EQ(node.manager().phase(), Phase::kProfiling);
  for (int period = 0; period < 100; ++period) {
    const long allocations = AllocationsDuring([&] { node.Tick(); });
    if (node.manager().phase() != Phase::kProfiling) {
      ASSERT_EQ(node.manager().phase(), Phase::kExploration);
      EXPECT_EQ(allocations, 0);
      return;
    }
  }
  FAIL() << "profiling never handed over to exploration";
}

TEST(CoreTickAllocTest, LfocPlusExplorationTicksDoNotAllocate) {
  const PolicyAbScenario scenario = ManyAppsScenario(48);
  Node node(scenario.machine, "lfoc+", scenario.cores_per_app);
  node.manager().SetResourcePool(scenario.pool);
  for (const WorkloadDescriptor& descriptor : scenario.mix.apps) {
    node.Admit(descriptor);
  }
  // Cluster groups are created lazily and persist, so a tick creates one
  // exactly when its decision uses more slots than any before it.
  size_t max_slots = 0;
  const auto grew_slots = [&] {
    const size_t slots = node.manager().current_state().NumApps();
    const bool grew = slots > max_slots;
    max_slots = std::max(max_slots, slots);
    return grew;
  };
  int counted = ExploreUntilIdle(node, 200, grew_slots);
  // A churn: one departure, one admission.
  node.EvictFirst();
  counted += ExploreUntilIdle(node, 200, grew_slots);
  node.Admit(scenario.mix.apps.front());
  counted += ExploreUntilIdle(node, 200, grew_slots);
  EXPECT_GT(counted, 5);
}

bool EveryNodeIdle(FleetController& fleet) {
  for (size_t i = 0; i < fleet.NumNodes(); ++i) {
    if (fleet.node(i)->manager().phase() != Phase::kIdle) {
      return false;
    }
  }
  return true;
}

TEST(CoreTickAllocTest, SteadyFleetEpochDoesNotAllocate) {
  FaultInjector injector(/*seed=*/7);
  FaultSpec spec;
  spec.probability = 0.05;
  injector.Arm(fault_points::kNodeSlow, spec);
  injector.Arm(fault_points::kNodeBlackout, spec);
  FleetParams params;
  params.parallel.num_threads = 1;
  params.injector = &injector;
  // Health never trips, so the measured epochs shed and migrate nothing.
  params.migrate_unfairness_threshold = 1e9;
  params.shed_unfairness_threshold = 1e9;
  FleetController fleet(4, params);
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  for (size_t j = 0; j < 12; ++j) {
    FleetJobSpec job;
    job.workload = registry[j % registry.size()];
    job.cores = 2;
    ASSERT_TRUE(fleet.Submit(job).ok());
  }
  for (int epoch = 0; epoch < 600 && !EveryNodeIdle(fleet); ++epoch) {
    fleet.RunEpoch();
  }
  ASSERT_TRUE(EveryNodeIdle(fleet));
  const uint64_t faults_before = injector.total_failures();
  for (int epoch = 0; epoch < 60; ++epoch) {
    EXPECT_EQ(AllocationsDuring([&] { fleet.RunEpoch(); }), 0)
        << "steady epoch " << epoch;
    ASSERT_TRUE(EveryNodeIdle(fleet));
  }
  EXPECT_GT(injector.total_failures(), faults_before)
      << "no slow or blackout window opened while measuring";
  EXPECT_EQ(fleet.counters().migrations_planned, 0u);
  EXPECT_EQ(fleet.first_violation(), "");
}

}  // namespace
}  // namespace copart
