// The UCP extension baseline: marginal-utility way allocation.
#include "core/ucp_policy.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/resource_manager.h"
#include "core/static_policy.h"
#include "harness/experiment.h"
#include "harness/mix.h"
#include "workload/workload.h"

namespace copart {
namespace {

MachineConfig QuietConfig() {
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  return config;
}

ResourcePool FullPool() {
  return ResourcePool{.first_way = 0, .num_ways = 11, .max_mba_percent = 100};
}

class UcpTest : public ::testing::Test {
 protected:
  UcpTest() : machine_(QuietConfig()) {}

  std::vector<AppId> Launch(const std::vector<WorkloadDescriptor>& apps) {
    std::vector<AppId> ids;
    for (const WorkloadDescriptor& descriptor : apps) {
      Result<AppId> app = machine_.LaunchApp(descriptor, 4);
      CHECK(app.ok());
      ids.push_back(*app);
    }
    return ids;
  }

  SimulatedMachine machine_;
};

TEST_F(UcpTest, AllocationIsValidAndExhaustsPool) {
  const std::vector<AppId> apps =
      Launch({WaterNsquared(), Cg(), Sp(), Swaptions()});
  const SystemState state = ComputeUcpAllocation(machine_, apps, FullPool());
  EXPECT_TRUE(state.Valid());
  uint32_t total = 0;
  for (size_t i = 0; i < apps.size(); ++i) {
    total += state.allocation(i).llc_ways;
    EXPECT_EQ(state.allocation(i).mba_level.percent(), 100u);
  }
  EXPECT_EQ(total, 11u);
}

TEST_F(UcpTest, CacheHungryAppsWinWays) {
  // WN saves many misses per extra way; SW saves none.
  const std::vector<AppId> apps = Launch({WaterNsquared(), Swaptions()});
  const SystemState state = ComputeUcpAllocation(machine_, apps, FullPool());
  EXPECT_GE(state.allocation(0).llc_ways, 4u);
  EXPECT_EQ(state.allocation(1).llc_ways, 1u);
}

TEST_F(UcpTest, UtilityOrdersCompetingApps) {
  // Two cache-sensitive apps: the one with the higher access intensity and
  // larger marginal gains (WN) should get at least as many ways as RT,
  // whose working set saturates at 2 ways.
  const std::vector<AppId> apps = Launch({WaterNsquared(), Raytrace()});
  const SystemState state = ComputeUcpAllocation(machine_, apps, FullPool());
  EXPECT_GT(state.allocation(0).llc_ways, state.allocation(1).llc_ways);
  // RT still gets what it needs to cover its 4.1 MB footprint.
  EXPECT_GE(state.allocation(1).llc_ways, 2u);
}

TEST_F(UcpTest, RespectsPoolBounds) {
  const std::vector<AppId> apps = Launch({Sp(), OceanNcp()});
  const ResourcePool pool{.first_way = 4, .num_ways = 5,
                          .max_mba_percent = 60};
  const SystemState state = ComputeUcpAllocation(machine_, apps, pool);
  EXPECT_TRUE(state.Valid());
  EXPECT_EQ(state.allocation(0).llc_ways + state.allocation(1).llc_ways, 5u);
  EXPECT_EQ(state.allocation(0).mba_level.percent(), 60u);
  EXPECT_EQ(state.WayMaskBits(0) & 0xF, 0u);
}

TEST(UcpPolicyTest, AppliesThroughResctrl) {
  SimulatedMachine machine(QuietConfig());
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  Result<AppId> wn = machine.LaunchApp(WaterNsquared(), 4);
  Result<AppId> sw = machine.LaunchApp(Swaptions(), 4);
  ASSERT_TRUE(wn.ok());
  ASSERT_TRUE(sw.ok());
  ResourceManager manager(
      &resctrl, &monitor, {},
      std::make_unique<StaticPartitionPolicy>(
          "ucp", ComputeUcpAllocation(machine, {*wn, *sw}, FullPool())));
  manager.SetResourcePool(FullPool());
  ASSERT_TRUE(manager.AddApp(*wn).ok());
  ASSERT_TRUE(manager.AddApp(*sw).ok());
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  EXPECT_NE(machine.AppClos(*wn), 0u);
  EXPECT_EQ(machine.ClosWayMask(machine.AppClos(*sw)).CountWays(), 1u);
  EXPECT_FALSE(machine.ClosWayMask(machine.AppClos(*wn))
                   .Overlaps(machine.ClosWayMask(machine.AppClos(*sw))));
}

TEST(UcpPolicyTest, StrongStaticBaselineOnLlcMix) {
  // With oracle miss curves (unlike hardware UCP's noisy UMON samples),
  // UCP acts as a strong static LLC allocator on this substrate: at least
  // EQ's throughput and far better than EQ's fairness on the H-LLC mix.
  // CoPart — purely online, no oracle curves — must land in the same
  // fairness regime (well under EQ, within a small factor of UCP).
  const WorkloadMix mix = MakeMix(MixFamily::kHighLlc, 4);
  const ExperimentResult ucp = RunExperiment(mix, UcpFactory(), {});
  const ExperimentResult eq = RunExperiment(mix, EqFactory(), {});
  const ExperimentResult copart = RunExperiment(mix, CoPartFactory(), {});
  EXPECT_GE(ucp.throughput_geomean, eq.throughput_geomean * 0.98);
  EXPECT_LT(ucp.unfairness, eq.unfairness * 0.5);
  EXPECT_LT(copart.unfairness, eq.unfairness * 0.5);
  EXPECT_LE(copart.unfairness, ucp.unfairness * 3.0);
}

}  // namespace
}  // namespace copart
