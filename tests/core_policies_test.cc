// The baseline policies driven by ResourceManager: the static EQ/NoPart/ST
// shapes, the CoPart modes (CAT-only, MBA-only) reached through their
// registry names, and the driver's idle readback repairing allocation drift
// for every policy that parks in idle.
#include <memory>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/resource_manager.h"
#include "core/static_policy.h"
#include "workload/workload.h"

namespace copart {
namespace {

ResourcePool FullPool() {
  return ResourcePool{.first_way = 0, .num_ways = 11, .max_mba_percent = 100};
}

MachineConfig QuietConfig() {
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  return config;
}

ResourceManagerParams Named(const std::string& policy) {
  ResourceManagerParams params;
  params.partition_policy = policy;
  return params;
}

// (5, 3, 2, 1) ways at MBA (100, 80, 60, 10).
SystemState FixedState() {
  std::vector<AppAllocation> allocations(4);
  allocations[0] = {.llc_ways = 5,
                    .mba_level = MbaLevel::FromPercentChecked(100)};
  allocations[1] = {.llc_ways = 3,
                    .mba_level = MbaLevel::FromPercentChecked(80)};
  allocations[2] = {.llc_ways = 2,
                    .mba_level = MbaLevel::FromPercentChecked(60)};
  allocations[3] = {.llc_ways = 1,
                    .mba_level = MbaLevel::FromPercentChecked(10)};
  return SystemState(FullPool(), allocations);
}

class PoliciesTest : public ::testing::Test {
 protected:
  PoliciesTest() : machine_(QuietConfig()), resctrl_(&machine_),
                   monitor_(&machine_) {
    for (const WorkloadDescriptor& descriptor :
         {WaterNsquared(), Cg(), Sp(), Swaptions()}) {
      Result<AppId> app = machine_.LaunchApp(descriptor, 4);
      CHECK(app.ok());
      apps_.push_back(*app);
    }
  }

  // Admits every app into `manager` over the full pool.
  void Admit(ResourceManager& manager) {
    manager.SetResourcePool(FullPool());
    for (AppId app : apps_) {
      ASSERT_TRUE(manager.AddApp(app).ok());
    }
  }

  void Run(ResourceManager& manager, int periods) {
    for (int i = 0; i < periods; ++i) {
      machine_.AdvanceTime(0.5);
      manager.Tick();
    }
  }

  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  std::vector<AppId> apps_;
};

TEST_F(PoliciesTest, EqualPolicyAppliesEqualDisjointPartitions) {
  ResourceManager manager(&resctrl_, &monitor_, Named("eq"));
  EXPECT_EQ(manager.partition_policy().name(), "eq");
  Admit(manager);
  // A static policy converges on its opening decision.
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  // (3,3,3,2) ways, MBA 30 (= round10(100/4)) each, disjoint masks.
  uint64_t seen = 0;
  for (AppId app : apps_) {
    const uint32_t clos = machine_.AppClos(app);
    EXPECT_NE(clos, 0u);
    const uint64_t bits = machine_.ClosWayMask(clos).bits();
    EXPECT_EQ(seen & bits, 0u) << "masks overlap";
    seen |= bits;
    EXPECT_EQ(machine_.ClosMbaLevel(clos).percent(), 30u);
  }
  EXPECT_EQ(seen, 0x7FFu);
  Run(manager, 20);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  EXPECT_EQ(manager.exploration_time_stats().count(), 0u);
}

TEST_F(PoliciesTest, NoPartitionPolicySharesTheFullPool) {
  ResourceManager manager(&resctrl_, &monitor_, Named("nopart"));
  Admit(manager);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  // One slot for everyone: every app runs with all ways at MBA 100, exactly
  // like the default group of an unmanaged machine.
  const uint32_t clos = machine_.AppClos(apps_[0]);
  for (AppId app : apps_) {
    EXPECT_EQ(machine_.AppClos(app), clos);
  }
  EXPECT_EQ(machine_.ClosWayMask(clos).bits(), 0x7FFu);
  EXPECT_EQ(machine_.ClosMbaLevel(clos).percent(), 100u);
  EXPECT_EQ(manager.current_state().NumApps(), 1u);
}

TEST_F(PoliciesTest, StaticOraclePolicyAppliesGivenState) {
  ResourceManager manager(
      &resctrl_, &monitor_, {},
      std::make_unique<StaticPartitionPolicy>("st", FixedState()));
  EXPECT_EQ(manager.partition_policy().name(), "st");
  Admit(manager);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  EXPECT_EQ(machine_.ClosWayMask(machine_.AppClos(apps_[0])).bits(), 0x01Fu);
  EXPECT_EQ(machine_.ClosWayMask(machine_.AppClos(apps_[3])).bits(), 0x400u);
  EXPECT_EQ(machine_.ClosMbaLevel(machine_.AppClos(apps_[3])).percent(), 10u);
}

TEST_F(PoliciesTest, FixedStateWaitsForTheWholeSet) {
  // Until the last app is admitted, the smaller set runs EqualShareThrottled.
  ResourceManager manager(
      &resctrl_, &monitor_, {},
      std::make_unique<StaticPartitionPolicy>("st", FixedState()));
  manager.SetResourcePool(FullPool());
  ASSERT_TRUE(manager.AddApp(apps_[0]).ok());
  ASSERT_TRUE(manager.AddApp(apps_[1]).ok());
  EXPECT_TRUE(manager.current_state() ==
              SystemState::EqualShareThrottled(FullPool(), 2));
  ASSERT_TRUE(manager.AddApp(apps_[2]).ok());
  ASSERT_TRUE(manager.AddApp(apps_[3]).ok());
  EXPECT_TRUE(manager.current_state() == FixedState());
}

TEST(StaticPolicyTest, AllocateRepeatsTheStaticDecision) {
  // The driver never asks (the opening decision converges), but a direct
  // caller gets the same converged static state.
  StaticPartitionPolicy policy("eq", /*shared=*/false);
  Rng rng(1);
  PartitionDecision decision;
  policy.Allocate(SystemState::EqualShare(FullPool(), 3),
                  std::vector<PolicySignals>(3), rng, &decision);
  EXPECT_TRUE(decision.converged);
  EXPECT_TRUE(decision.state ==
              SystemState::EqualShareThrottled(FullPool(), 3));
}

TEST_F(PoliciesTest, IdleTickRepairsDriftedState) {
  ResourceManager manager(
      &resctrl_, &monitor_, {},
      std::make_unique<StaticPartitionPolicy>("st", FixedState()));
  Admit(manager);
  const uint32_t clos = machine_.AppClos(apps_[0]);
  ASSERT_EQ(machine_.ClosWayMask(clos).bits(), 0x01Fu);

  // Drift-free idle ticks write nothing.
  Run(manager, 3);
  const uint64_t attempts = manager.actuation_attempts();
  Run(manager, 3);
  EXPECT_EQ(manager.actuation_attempts(), attempts);

  // External drift (a fault rolled back a write, an operator fat-fingered
  // the schemata): the next idle tick must detect and repair it.
  machine_.SetClosWayMask(clos, WayMask::Contiguous(0, 1));
  machine_.SetClosMbaLevel(clos, MbaLevel::FromPercentChecked(10));
  Run(manager, 1);
  EXPECT_EQ(manager.actuation_attempts(), attempts + 1);
  EXPECT_EQ(machine_.ClosWayMask(clos).bits(), 0x01Fu);
  EXPECT_EQ(machine_.ClosMbaLevel(clos).percent(), 100u);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);

  // An app moved back into the default group rejoins its own group.
  const uint32_t own_clos = machine_.AppClos(apps_[2]);
  ASSERT_TRUE(resctrl_.AssignApp(resctrl_.DefaultGroup(), apps_[2]).ok());
  Run(manager, 1);
  EXPECT_EQ(machine_.AppClos(apps_[2]), own_clos);
}

TEST(StaticPolicyDriftTest, OneMbaStepOnAnInsensitiveAppIsRepaired) {
  // Ep barely notices one MBA step, so the IPS-drift trigger stays quiet;
  // only the readback can see the drift.
  SimulatedMachine machine(QuietConfig());
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  ResourceManager manager(&resctrl, &monitor, Named("eq"));
  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : {Ep(), Swaptions()}) {
    Result<AppId> app = machine.LaunchApp(descriptor, 4);
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(manager.AddApp(*app).ok());
    apps.push_back(*app);
  }
  for (int i = 0; i < 3; ++i) {
    machine.AdvanceTime(0.5);
    manager.Tick();
  }
  const uint32_t clos = machine.AppClos(apps[0]);
  const MbaLevel planned = machine.ClosMbaLevel(clos);
  ASSERT_EQ(planned.percent(), 50u);
  machine.SetClosMbaLevel(clos, MbaLevel::FromPercentChecked(40));
  const uint64_t adaptations = manager.adaptations_started();
  machine.AdvanceTime(0.5);
  manager.Tick();
  EXPECT_EQ(machine.ClosMbaLevel(clos), planned);
  // Repaired in place, not by re-running adaptation.
  EXPECT_EQ(manager.adaptations_started(), adaptations);
}

TEST(StaticPolicyDriftTest, ClusteredAppReboundOutOfBandRejoinsItsSlot) {
  SimulatedMachine machine(QuietConfig());
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  ResourceManager manager(&resctrl, &monitor, Named("nopart"));
  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : {WaterNsquared(), Cg(), Ep()}) {
    Result<AppId> app = machine.LaunchApp(descriptor, 4);
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(manager.AddApp(*app).ok());
    apps.push_back(*app);
  }
  machine.AdvanceTime(0.5);
  manager.Tick();
  const uint32_t cluster_clos = machine.AppClos(apps[2]);
  ASSERT_NE(cluster_clos, 0u);
  // An operator moves one tenant into a group of its own with the same
  // full-width allocation: its IPS does not move, so only the readback
  // can notice.
  Result<ResctrlGroupId> stray = resctrl.CreateGroup("stray");
  ASSERT_TRUE(stray.ok());
  ASSERT_TRUE(resctrl.SetCacheMask(*stray, 0x7FF).ok());
  ASSERT_TRUE(resctrl.SetMbaPercent(*stray, 100).ok());
  ASSERT_TRUE(resctrl.AssignApp(*stray, apps[2]).ok());
  ASSERT_NE(machine.AppClos(apps[2]), cluster_clos);
  const uint64_t adaptations = manager.adaptations_started();
  machine.AdvanceTime(0.5);
  manager.Tick();
  EXPECT_EQ(machine.AppClos(apps[2]), cluster_clos);
  EXPECT_EQ(manager.adaptations_started(), adaptations);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
}

TEST(StaticPolicyFaultTest, RepairIsRetriedUntilTheSubstrateRecovers) {
  FaultInjector injector(0xE44ULL);
  MachineConfig config = QuietConfig();
  config.fault_injector = &injector;
  SimulatedMachine machine(config);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  std::vector<AppAllocation> allocations(2);
  allocations[0] = {.llc_ways = 8,
                    .mba_level = MbaLevel::FromPercentChecked(100)};
  allocations[1] = {.llc_ways = 3,
                    .mba_level = MbaLevel::FromPercentChecked(100)};
  ResourceManager manager(&resctrl, &monitor, {},
                          std::make_unique<StaticPartitionPolicy>(
                              "st", SystemState(FullPool(), allocations)));
  manager.SetResourcePool(FullPool());
  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : {WaterNsquared(), Cg()}) {
    Result<AppId> app = machine.LaunchApp(descriptor, 4);
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(manager.AddApp(*app).ok());
    apps.push_back(*app);
  }
  const uint32_t clos = machine.AppClos(apps[0]);
  ASSERT_EQ(machine.ClosWayMask(clos).bits(), 0x0FFu);

  // Drift the mask while schemata writes are hard-failing: the idle tick
  // sees the drift but cannot repair it yet — and must not crash.
  machine.SetClosWayMask(clos, WayMask::Contiguous(0, 1));
  FaultSpec down;
  down.probability = 1.0;
  injector.Arm(fault_points::kResctrlSetL3, down);
  machine.AdvanceTime(0.5);
  manager.Tick();
  EXPECT_EQ(manager.actuation_failures(), 1u);
  EXPECT_EQ(machine.ClosWayMask(clos).bits(), 0x001u);

  // Substrate recovers: the backed-off retry completes the repair.
  injector.DisarmAll();
  for (int i = 0; i < 10 && machine.ClosWayMask(clos).bits() != 0x0FFu;
       ++i) {
    machine.AdvanceTime(0.5);
    manager.Tick();
  }
  EXPECT_EQ(machine.ClosWayMask(clos).bits(), 0x0FFu);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
}

// NoPart until told to split, then a converged one-slot-per-app opening:
// the restart needs cluster groups the driver has not created yet.
class SplittingPolicy : public StaticPartitionPolicy {
 public:
  explicit SplittingPolicy(const bool* split)
      : StaticPartitionPolicy("split", /*shared=*/true), split_(split) {}

  void StartExploration(const ResourcePool& pool, size_t num_apps,
                        PartitionDecision* decision) override {
    if (!*split_) {
      StaticPartitionPolicy::StartExploration(pool, num_apps, decision);
      return;
    }
    decision->state = SystemState::EqualShare(pool, num_apps);
    MakePerAppDecision(decision);
    decision->converged = true;
  }

 private:
  const bool* split_;
};

TEST(StaticPolicyFaultTest, FailedGroupCreationIsRepairedOnTheNextIdleTick) {
  FaultInjector injector(0xE45ULL);
  MachineConfig config = QuietConfig();
  config.fault_injector = &injector;
  SimulatedMachine machine(config);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  bool split = false;
  ResourceManager manager(&resctrl, &monitor, {},
                          std::make_unique<SplittingPolicy>(&split));
  manager.SetResourcePool(FullPool());
  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : {WaterNsquared(), Cg()}) {
    Result<AppId> app = machine.LaunchApp(descriptor, 4);
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(manager.AddApp(*app).ok());
    apps.push_back(*app);
  }
  for (int i = 0; i < 3; ++i) {  // Parked, with clean readbacks.
    machine.AdvanceTime(0.5);
    manager.Tick();
  }
  ASSERT_EQ(machine.AppClos(apps[0]), machine.AppClos(apps[1]));

  // The restart adopts a two-slot decision whose second group cannot be
  // created: nothing reaches the machine, and no retry is scheduled.
  FaultSpec down;
  down.probability = 1.0;
  injector.Arm(fault_points::kResctrlCreateGroup, down);
  split = true;
  manager.SetResourcePool(FullPool());
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  EXPECT_EQ(manager.actuation_failures(), 1u);
  ASSERT_EQ(machine.AppClos(apps[0]), machine.AppClos(apps[1]));

  // No machine input changed since the last clean readback, yet the next
  // idle tick must read back, find the missing group and repair.
  injector.DisarmAll();
  machine.AdvanceTime(0.5);
  manager.Tick();
  EXPECT_NE(machine.AppClos(apps[0]), machine.AppClos(apps[1]));
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
}

TEST_F(PoliciesTest, CatOnlyFreezesMba) {
  ResourceManager manager(&resctrl_, &monitor_, Named("cat-only"));
  EXPECT_EQ(manager.partition_policy().name(), "cat-only");
  Admit(manager);
  Run(manager, 200);
  // MBA frozen at the equal static share for every app.
  for (size_t i = 0; i < apps_.size(); ++i) {
    EXPECT_EQ(manager.current_state().allocation(i).mba_level.percent(), 30u);
  }
}

TEST_F(PoliciesTest, MbaOnlyKeepsWaysEqual) {
  ResourceManager manager(&resctrl_, &monitor_, Named("mba-only"));
  EXPECT_EQ(manager.partition_policy().name(), "mba-only");
  Admit(manager);
  Run(manager, 200);
  const SystemState& state = manager.current_state();
  EXPECT_EQ(state.allocation(0).llc_ways, 3u);
  EXPECT_EQ(state.allocation(3).llc_ways, 2u);
}

TEST_F(PoliciesTest, CoordinatedModeMovesBothResources) {
  ResourceManager manager(&resctrl_, &monitor_, Named("copart"));
  Admit(manager);
  Run(manager, 200);
  const SystemState& state = manager.current_state();
  // The insensitive app (index 3) must have been drained of ways and the
  // LLC split differentiated away from the equal (3,3,3,2) start. (MBA may
  // legitimately stay uniform: with ample bandwidth the fairest levels are
  // all at the ceiling.)
  EXPECT_EQ(state.allocation(3).llc_ways, 1u);
  EXPECT_NE(state.allocation(0).llc_ways, state.allocation(3).llc_ways);
  EXPECT_TRUE(state.Valid());
}

}  // namespace
}  // namespace copart
