// The resctrl-like partitioning interface: group lifecycle, schemata
// validation (kernel CAT/MBA rules), and task binding.
#include "resctrl/resctrl.h"

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "workload/workload.h"

namespace copart {
namespace {

class ResctrlTest : public ::testing::Test {
 protected:
  ResctrlTest() : machine_(MachineConfig{}), resctrl_(&machine_) {}

  SimulatedMachine machine_;
  Resctrl resctrl_;
};

TEST_F(ResctrlTest, DefaultGroupAlwaysExists) {
  EXPECT_EQ(resctrl_.DefaultGroup().clos(), 0u);
  EXPECT_EQ(resctrl_.ReadSchemata(resctrl_.DefaultGroup()),
            "L3:0=7ff;MB:0=100");
}

TEST_F(ResctrlTest, CreateFindRemoveGroup) {
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("batch0");
  ASSERT_TRUE(group.ok());
  EXPECT_NE(group->clos(), 0u);
  Result<ResctrlGroupId> found = resctrl_.FindGroup("batch0");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *group);
  EXPECT_EQ(resctrl_.GroupNames().size(), 1u);
  ASSERT_TRUE(resctrl_.RemoveGroup(*group).ok());
  EXPECT_FALSE(resctrl_.FindGroup("batch0").ok());
  EXPECT_EQ(resctrl_.RemoveGroup(*group).code(), StatusCode::kNotFound);
}

TEST_F(ResctrlTest, DuplicateNameRejected) {
  ASSERT_TRUE(resctrl_.CreateGroup("g").ok());
  EXPECT_EQ(resctrl_.CreateGroup("g").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ResctrlTest, EmptyNameRejected) {
  EXPECT_EQ(resctrl_.CreateGroup("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ResctrlTest, GroupCountLimitedByClosCount) {
  // CLOS 0 is the default group; 15 more fit on the modeled CPU.
  for (int i = 0; i < 15; ++i) {
    std::string group = "g";
    group += std::to_string(i);
    ASSERT_TRUE(resctrl_.CreateGroup(group).ok()) << i;
  }
  EXPECT_EQ(resctrl_.CreateGroup("overflow").status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ResctrlTest, ClosReusedAfterRemoval) {
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("a");
  ASSERT_TRUE(group.ok());
  const uint32_t clos = group->clos();
  ASSERT_TRUE(resctrl_.RemoveGroup(*group).ok());
  Result<ResctrlGroupId> reused = resctrl_.CreateGroup("b");
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused->clos(), clos);
}

TEST_F(ResctrlTest, CannotRemoveDefaultGroup) {
  EXPECT_EQ(resctrl_.RemoveGroup(resctrl_.DefaultGroup()).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ResctrlTest, FreshGroupHasResetSchemata) {
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("fresh");
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(resctrl_.ReadSchemata(*group), "L3:0=7ff;MB:0=100");
}

TEST_F(ResctrlTest, SetCacheMaskValidatesCatRules) {
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("g");
  ASSERT_TRUE(group.ok());
  EXPECT_TRUE(resctrl_.SetCacheMask(*group, 0x1).ok());
  EXPECT_TRUE(resctrl_.SetCacheMask(*group, 0x7ff).ok());
  EXPECT_TRUE(resctrl_.SetCacheMask(*group, 0x0f0).ok());
  EXPECT_FALSE(resctrl_.SetCacheMask(*group, 0x0).ok());       // Zero.
  EXPECT_FALSE(resctrl_.SetCacheMask(*group, 0x101).ok());     // Sparse.
  EXPECT_FALSE(resctrl_.SetCacheMask(*group, 0x800).ok());     // Way 11.
  // The machine state reflects the last valid write.
  EXPECT_EQ(machine_.ClosWayMask(group->clos()).bits(), 0x0f0u);
}

TEST_F(ResctrlTest, SetMbaValidatesPlatformRange) {
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("g");
  ASSERT_TRUE(group.ok());
  EXPECT_TRUE(resctrl_.SetMbaPercent(*group, 10).ok());
  EXPECT_TRUE(resctrl_.SetMbaPercent(*group, 100).ok());
  EXPECT_FALSE(resctrl_.SetMbaPercent(*group, 0).ok());
  EXPECT_FALSE(resctrl_.SetMbaPercent(*group, 45).ok());
  EXPECT_FALSE(resctrl_.SetMbaPercent(*group, 200).ok());
  EXPECT_EQ(machine_.ClosMbaLevel(group->clos()).percent(), 100u);
}

TEST_F(ResctrlTest, SchemataRoundTrip) {
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("g");
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(resctrl_.SetCacheMask(*group, 0x1c).ok());
  ASSERT_TRUE(resctrl_.SetMbaPercent(*group, 40).ok());
  EXPECT_EQ(resctrl_.ReadSchemata(*group), "L3:0=1c;MB:0=40");
}

TEST_F(ResctrlTest, AssignAppMovesClosBinding) {
  Result<AppId> app = machine_.LaunchApp(Swaptions(), 4);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(machine_.AppClos(*app), 0u);
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("g");
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(resctrl_.AssignApp(*group, *app).ok());
  EXPECT_EQ(machine_.AppClos(*app), group->clos());
}

TEST_F(ResctrlTest, AssignRejectsUnknownTargets) {
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("g");
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(resctrl_.AssignApp(*group, AppId(999)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(resctrl_.AssignApp(ResctrlGroupId(7), AppId(0)).code(),
            StatusCode::kNotFound);
}

TEST_F(ResctrlTest, RemoveGroupReturnsAppsToDefault) {
  Result<AppId> app = machine_.LaunchApp(Swaptions(), 4);
  ASSERT_TRUE(app.ok());
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("g");
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(resctrl_.AssignApp(*group, *app).ok());
  ASSERT_TRUE(resctrl_.RemoveGroup(*group).ok());
  EXPECT_EQ(machine_.AppClos(*app), 0u);
}

TEST_F(ResctrlTest, MonitoringReportsOccupancyAndBandwidth) {
  Result<AppId> cg = machine_.LaunchApp(Cg(), 4);
  Result<AppId> sw = machine_.LaunchApp(Swaptions(), 4);
  ASSERT_TRUE(cg.ok());
  ASSERT_TRUE(sw.ok());
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("mon");
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(resctrl_.AssignApp(*group, *cg).ok());
  ASSERT_TRUE(resctrl_.SetCacheMask(*group, 0x00F).ok());
  machine_.AdvanceTime(0.5);

  // CMT: the group's occupancy equals CG's effective capacity and stays
  // within its 4-way partition.
  const double occupancy = resctrl_.ReadLlcOccupancyBytes(*group);
  EXPECT_NEAR(occupancy, machine_.LastEpoch(*cg).effective_capacity_bytes,
              1.0);
  EXPECT_LE(occupancy, 4.0 * machine_.config().llc.WayBytes() * 1.001);

  // MBM: CG generates GB/s-scale traffic; the swaptions-only default group
  // generates almost none.
  EXPECT_GT(resctrl_.ReadMemoryBandwidth(*group), 1e9);
  EXPECT_LT(resctrl_.ReadMemoryBandwidth(resctrl_.DefaultGroup()), 1e6);
}

TEST_F(ResctrlTest, MonitoringAggregatesOverGroupMembers) {
  Result<AppId> a = machine_.LaunchApp(OceanCp(), 4);
  Result<AppId> b = machine_.LaunchApp(Ft(), 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("pair");
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(resctrl_.AssignApp(*group, *a).ok());
  ASSERT_TRUE(resctrl_.AssignApp(*group, *b).ok());
  machine_.AdvanceTime(0.5);
  const double expected =
      (machine_.LastEpoch(*a).llc_misses_per_sec +
       machine_.LastEpoch(*b).llc_misses_per_sec) *
      machine_.config().llc.line_bytes;
  EXPECT_NEAR(resctrl_.ReadMemoryBandwidth(*group), expected, 1.0);
}

TEST_F(ResctrlTest, OperationsOnRemovedGroupFail) {
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("g");
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(resctrl_.RemoveGroup(*group).ok());
  EXPECT_EQ(resctrl_.SetCacheMask(*group, 0x1).code(), StatusCode::kNotFound);
  EXPECT_EQ(resctrl_.SetMbaPercent(*group, 50).code(), StatusCode::kNotFound);
}

// The same interface with a fault injector wired through MachineConfig.
class ResctrlFaultTest : public ::testing::Test {
 protected:
  ResctrlFaultTest()
      : injector_(0xF5), machine_(MakeConfig(&injector_)),
        resctrl_(&machine_) {}

  static MachineConfig MakeConfig(FaultInjector* injector) {
    MachineConfig config;
    config.fault_injector = injector;
    return config;
  }

  FaultInjector injector_;  // Must outlive the machine.
  SimulatedMachine machine_;
  Resctrl resctrl_;
};

TEST_F(ResctrlFaultTest, RemoveGroupUnderFaultIsAtomic) {
  Result<AppId> app = machine_.LaunchApp(Cg(), 4);
  ASSERT_TRUE(app.ok());
  Result<ResctrlGroupId> group = resctrl_.CreateGroup("g");
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(resctrl_.AssignApp(*group, *app).ok());
  FaultSpec spec;
  spec.one_shot_queries = {0};
  injector_.Arm(fault_points::kResctrlRemoveGroup, spec);
  // The failed removal must leave the group fully intact: still listed,
  // and its task still bound to it (no half-removed state).
  EXPECT_EQ(resctrl_.RemoveGroup(*group).code(), StatusCode::kUnavailable);
  EXPECT_EQ(resctrl_.GroupNames().size(), 1u);
  EXPECT_TRUE(resctrl_.FindGroup("g").ok());
  EXPECT_EQ(machine_.AppClos(*app), group->clos());
  // The retry (fault cleared) completes the removal and returns the task
  // to the default group.
  EXPECT_TRUE(resctrl_.RemoveGroup(*group).ok());
  EXPECT_EQ(resctrl_.GroupNames().size(), 0u);
  EXPECT_EQ(machine_.AppClos(*app), 0u);
  EXPECT_EQ(injector_.PointQueries(fault_points::kResctrlRemoveGroup), 2u);
}

}  // namespace
}  // namespace copart
