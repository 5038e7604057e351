// Container front end: lifecycle, isolation state, stats, and interop with
// the CoPart manager.
#include "container/container_runtime.h"

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/resource_manager.h"
#include "pmc/perf_monitor.h"
#include "workload/workload.h"

namespace copart {
namespace {

class ContainerTest : public ::testing::Test {
 protected:
  ContainerTest()
      : machine_(MakeConfig(&injector_)), resctrl_(&machine_),
        runtime_(&machine_, &resctrl_) {}

  static MachineConfig MakeConfig(FaultInjector* injector) {
    MachineConfig config;
    config.ips_noise_sigma = 0.0;
    config.fault_injector = injector;
    return config;
  }

  FaultInjector injector_{3};  // Disarmed unless a test arms it.
  SimulatedMachine machine_;
  Resctrl resctrl_;
  ContainerRuntime runtime_;
};

TEST_F(ContainerTest, RunCreatesAppAndGroup) {
  Result<ContainerInfo> info = runtime_.Run("cg0", Cg(), 4);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "cg0");
  EXPECT_EQ(info->cpus, 4u);
  EXPECT_EQ(info->workload_name, "CG");
  EXPECT_TRUE(machine_.AppExists(info->app));
  EXPECT_EQ(machine_.AppClos(info->app), info->group.clos());
  EXPECT_TRUE(resctrl_.FindGroup("container_cg0").ok());
  EXPECT_EQ(machine_.FreeCores(), 12u);
}

TEST_F(ContainerTest, StopTearsDownBoth) {
  Result<ContainerInfo> info = runtime_.Run("x", Swaptions(), 2);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(runtime_.Stop("x").ok());
  EXPECT_FALSE(machine_.AppExists(info->app));
  EXPECT_FALSE(resctrl_.FindGroup("container_x").ok());
  EXPECT_EQ(machine_.FreeCores(), 16u);
  EXPECT_EQ(runtime_.Stop("x").code(), StatusCode::kNotFound);
}

TEST_F(ContainerTest, DuplicateNamesRejected) {
  ASSERT_TRUE(runtime_.Run("dup", Ep(), 2).ok());
  EXPECT_EQ(runtime_.Run("dup", Ep(), 2).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(runtime_.Run("", Ep(), 2).ok());
}

TEST_F(ContainerTest, CoreExhaustionRollsBackCleanly) {
  ASSERT_TRUE(runtime_.Run("big", Swaptions(), 14).ok());
  const size_t groups_before = resctrl_.GroupNames().size();
  EXPECT_EQ(runtime_.Run("overflow", Ep(), 4).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(resctrl_.GroupNames().size(), groups_before);
  EXPECT_EQ(runtime_.List().size(), 1u);
}

TEST_F(ContainerTest, ClosExhaustionRollsBackApp) {
  // Consume all 15 non-default CLOSes, then one more container must fail
  // without leaking its app.
  for (int i = 0; i < 15; ++i) {
    std::string group = "g";
    group += std::to_string(i);
    ASSERT_TRUE(resctrl_.CreateGroup(group).ok());
  }
  const size_t apps_before = machine_.ListApps().size();
  EXPECT_EQ(runtime_.Run("late", Ep(), 1).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(machine_.ListApps().size(), apps_before);
}

TEST_F(ContainerTest, TransientResctrlFaultsFailWithoutAborting) {
  FaultSpec once;
  once.probability = 1.0;
  once.max_failures = 1;
  const size_t groups_before = resctrl_.GroupNames().size();
  injector_.Arm(fault_points::kResctrlAssignApp, once);
  EXPECT_EQ(runtime_.Run("a", Cg(), 4).status().code(),
            StatusCode::kUnavailable);
  // The failed Run left no app, group or container behind.
  EXPECT_TRUE(machine_.ListApps().empty());
  EXPECT_EQ(resctrl_.GroupNames().size(), groups_before);
  EXPECT_TRUE(runtime_.List().empty());
  ASSERT_TRUE(runtime_.Run("a", Cg(), 4).ok());

  injector_.Arm(fault_points::kResctrlRemoveGroup, once);
  EXPECT_EQ(runtime_.Stop("a").code(), StatusCode::kUnavailable);
  // The app stopped; the container stays listed until its group is gone,
  // and the next Stop finishes the job.
  EXPECT_TRUE(machine_.ListApps().empty());
  EXPECT_TRUE(runtime_.Find("a").ok());
  ASSERT_TRUE(runtime_.Stop("a").ok());
  EXPECT_FALSE(resctrl_.FindGroup("container_a").ok());
  EXPECT_TRUE(runtime_.List().empty());
}

TEST_F(ContainerTest, ListAndFind) {
  ASSERT_TRUE(runtime_.Run("a", WaterNsquared(), 4).ok());
  ASSERT_TRUE(runtime_.Run("b", Cg(), 4).ok());
  EXPECT_EQ(runtime_.List().size(), 2u);
  EXPECT_TRUE(runtime_.Find("a").ok());
  EXPECT_FALSE(runtime_.Find("c").ok());
}

TEST_F(ContainerTest, StatsReflectMachineState) {
  Result<ContainerInfo> info = runtime_.Run("cg", Cg(), 4);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(resctrl_.SetCacheMask(info->group, 0x3).ok());
  machine_.AdvanceTime(0.5);
  const ContainerStats stats = runtime_.Stats("cg");
  EXPECT_GT(stats.ips, 0.0);
  EXPECT_GT(stats.memory_bandwidth_bytes_per_sec, 1e9);
  EXPECT_LE(stats.llc_occupancy_bytes,
            2.0 * machine_.config().llc.WayBytes() * 1.001);
  EXPECT_EQ(stats.schemata, "L3:0=3;MB:0=100");
}

TEST_F(ContainerTest, CoPartManagesContainerizedApps) {
  PerfMonitor monitor(&machine_);
  Result<ContainerInfo> wn = runtime_.Run("wn", WaterNsquared(), 4);
  Result<ContainerInfo> sw = runtime_.Run("sw", Swaptions(), 4);
  ASSERT_TRUE(wn.ok());
  ASSERT_TRUE(sw.ok());

  ResourceManagerParams params;
  ResourceManager manager(&resctrl_, &monitor, params);
  ASSERT_TRUE(manager.AddApp(wn->app).ok());
  ASSERT_TRUE(manager.AddApp(sw->app).ok());
  for (int i = 0; i < 80; ++i) {
    machine_.AdvanceTime(0.5);
    manager.Tick();
  }
  // The manager re-grouped the apps; the containers still resolve and
  // their stats report the manager's schemata.
  EXPECT_NE(machine_.AppClos(wn->app), wn->group.clos());
  const ContainerStats stats = runtime_.Stats("wn");
  EXPECT_FALSE(stats.schemata.empty());
  // The cache-hungry container ends with more ways than the insensitive one.
  EXPECT_GT(machine_.ClosWayMask(machine_.AppClos(wn->app)).CountWays(),
            machine_.ClosWayMask(machine_.AppClos(sw->app)).CountWays());
}

}  // namespace
}  // namespace copart
