// The dCat-style dynamic LLC baseline.
#include "core/dcat_policy.h"

#include <gtest/gtest.h>

#include "core/resource_manager.h"
#include "harness/experiment.h"
#include "harness/mix.h"

namespace copart {
namespace {

class DcatTest : public ::testing::Test {
 protected:
  DcatTest() : machine_(MakeConfig()), resctrl_(&machine_),
               monitor_(&machine_), manager_(&resctrl_, &monitor_, Params()) {
    manager_.SetResourcePool(FullPool());
  }

  static ResourceManagerParams Params() {
    ResourceManagerParams params;
    params.partition_policy = "dcat";
    return params;
  }

  void Admit(const std::vector<WorkloadDescriptor>& descriptors) {
    for (const WorkloadDescriptor& descriptor : descriptors) {
      Result<AppId> app = machine_.LaunchApp(descriptor, 4);
      ASSERT_TRUE(app.ok());
      ASSERT_TRUE(manager_.AddApp(*app).ok());
    }
  }

  void Tick() {
    machine_.AdvanceTime(0.5);
    manager_.Tick();
  }

  static MachineConfig MakeConfig() {
    MachineConfig config;
    config.ips_noise_sigma = 0.005;
    return config;
  }

  static ResourcePool FullPool() {
    return ResourcePool{.first_way = 0, .num_ways = 11,
                        .max_mba_percent = 100};
  }

  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  ResourceManager manager_;
};

TEST_F(DcatTest, StartsFromEqualSplitWithFrozenMba) {
  EXPECT_EQ(manager_.partition_policy().name(), "dcat");
  Admit({WaterNsquared(), Cg(), Swaptions(), Ep()});
  EXPECT_EQ(manager_.phase(), ResourceManager::Phase::kExploration);
  const SystemState& state = manager_.current_state();
  EXPECT_EQ(state.allocation(0).llc_ways, 3u);
  EXPECT_EQ(state.allocation(3).llc_ways, 2u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(state.allocation(i).mba_level.percent(), 30u);
  }
}

TEST_F(DcatTest, GrowsTheCacheHungryAppOverTime) {
  Admit({WaterNsquared(), Swaptions()});
  for (int i = 0; i < 100; ++i) {
    Tick();
  }
  // The feedback loop never converges.
  EXPECT_EQ(manager_.phase(), ResourceManager::Phase::kExploration);
  const SystemState& state = manager_.current_state();
  EXPECT_TRUE(state.Valid());
  // WN (needs 4 ways) ends with more cache than the insensitive app.
  EXPECT_GT(state.allocation(0).llc_ways, state.allocation(1).llc_ways);
  EXPECT_GE(state.allocation(0).llc_ways, 4u);
  // MBA never moved.
  EXPECT_EQ(state.allocation(0).mba_level.percent(), 50u);
}

TEST_F(DcatTest, StateStaysValidUnderLongRuns) {
  Admit({Sp(), OceanNcp(), Fmm(), Swaptions()});
  for (int i = 0; i < 300; ++i) {
    Tick();
    const SystemState& state = manager_.current_state();
    ASSERT_TRUE(state.Valid());
    uint32_t total = 0;
    for (size_t a = 0; a < 4; ++a) {
      total += state.allocation(a).llc_ways;
      ASSERT_GE(state.allocation(a).llc_ways, 1u);
    }
    ASSERT_EQ(total, 11u);
  }
}

TEST(DcatSignalTest, UnhealthySamplesLeaveTheEstimatesAlone) {
  // Every period the noisy policy also classifies a batch of garbage
  // samples flagged unhealthy; its allocations must match those of a
  // policy that never saw them.
  const ResourcePool pool{.first_way = 0, .num_ways = 11,
                          .max_mba_percent = 100};
  std::vector<PolicySignals> good(2), bad(2);
  good[0] = {.healthy = true, .ips = 2.0e9};
  good[1] = {.healthy = true, .ips = 1.0e9};
  bad[0] = {.healthy = false, .ips = 9.0e9};
  bad[1] = {.healthy = false, .ips = 1.0};
  Rng rng(1);
  DcatPolicy clean, noisy;
  for (DcatPolicy* policy : {&clean, &noisy}) {
    policy->OnAppAdded();
    policy->OnAppAdded();
  }
  PartitionDecision clean_decision, noisy_decision;
  clean.StartExploration(pool, 2, &clean_decision);
  noisy.StartExploration(pool, 2, &noisy_decision);
  for (int period = 0; period < 8; ++period) {
    clean.Classify(good);
    noisy.Classify(good);
    noisy.Classify(bad);
    const SystemState clean_state = clean_decision.state;
    const SystemState noisy_state = noisy_decision.state;
    clean.Allocate(clean_state, good, rng, &clean_decision);
    noisy.Allocate(noisy_state, good, rng, &noisy_decision);
    ASSERT_TRUE(clean_decision.state == noisy_decision.state)
        << "period " << period;
  }
}

TEST(DcatExperimentTest, BeatsEqOnLlcMixButTrailsCoPartOnCoordination) {
  // As an LLC-only feedback policy, dCat should recover much of the H-LLC
  // unfairness but cannot address the BW-heavy mixes CoPart coordinates.
  const WorkloadMix llc_mix = MakeMix(MixFamily::kHighLlc, 4);
  const ExperimentResult dcat = RunExperiment(llc_mix, DcatFactory(), {});
  const ExperimentResult eq = RunExperiment(llc_mix, EqFactory(), {});
  EXPECT_LT(dcat.unfairness, eq.unfairness * 0.8) << "H-LLC";

  const WorkloadMix bw_mix = MakeMix(MixFamily::kHighBw, 4);
  const ExperimentResult dcat_bw = RunExperiment(bw_mix, DcatFactory(), {});
  const ExperimentResult copart_bw =
      RunExperiment(bw_mix, CoPartFactory(), {});
  EXPECT_GT(dcat_bw.unfairness, copart_bw.unfairness) << "H-BW";
}

}  // namespace
}  // namespace copart
