// Failure injection against the resource manager: unexpected app deaths in
// every phase and measurement-noise spikes must not crash the controller or
// leave it in an invalid state.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/resource_manager.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest()
      : machine_(MakeConfig()), resctrl_(&machine_), monitor_(&machine_),
        manager_(&resctrl_, &monitor_, {}) {}

  static MachineConfig MakeConfig() {
    MachineConfig config;
    config.ips_noise_sigma = 0.01;
    return config;
  }

  AppId Launch(const WorkloadDescriptor& descriptor) {
    Result<AppId> app = machine_.LaunchApp(descriptor, 4);
    CHECK(app.ok());
    CHECK(manager_.AddApp(*app).ok());
    return *app;
  }

  void Run(int periods) {
    for (int i = 0; i < periods; ++i) {
      machine_.AdvanceTime(0.5);
      manager_.Tick();
    }
  }

  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  ResourceManager manager_;
};

TEST_F(FailureInjectionTest, AppDiesDuringProfiling) {
  Launch(WaterNsquared());
  const AppId victim = Launch(Cg());
  Launch(Swaptions());
  ASSERT_EQ(manager_.phase(), ResourceManager::Phase::kProfiling);
  Run(2);  // Mid-profiling.
  ASSERT_TRUE(machine_.TerminateApp(victim).ok());  // No RemoveApp call.
  Run(120);
  EXPECT_EQ(manager_.NumApps(), 2u);
  EXPECT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
  EXPECT_TRUE(manager_.current_state().Valid());
  EXPECT_EQ(manager_.current_state().NumApps(), 2u);
}

TEST_F(FailureInjectionTest, AppDiesDuringExploration) {
  Launch(Sp());
  const AppId victim = Launch(OceanNcp());
  Launch(Swaptions());
  Run(10);  // Past profiling (9 periods), into exploration.
  ASSERT_TRUE(machine_.TerminateApp(victim).ok());
  Run(120);
  EXPECT_EQ(manager_.NumApps(), 2u);
  EXPECT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
}

TEST_F(FailureInjectionTest, AppDiesWhileIdle) {
  const AppId a = Launch(WaterNsquared());
  const AppId b = Launch(Cg());
  Run(120);
  ASSERT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
  ASSERT_TRUE(machine_.TerminateApp(a).ok());
  Run(80);
  EXPECT_EQ(manager_.NumApps(), 1u);
  // The survivor's converged state spans the whole pool.
  EXPECT_EQ(manager_.current_state().NumApps(), 1u);
  EXPECT_EQ(manager_.current_state().allocation(0).llc_ways, 11u);
  EXPECT_TRUE(machine_.AppExists(b));
}

TEST_F(FailureInjectionTest, AllAppsDie) {
  const AppId a = Launch(WaterNsquared());
  const AppId b = Launch(Cg());
  Run(20);
  ASSERT_TRUE(machine_.TerminateApp(a).ok());
  ASSERT_TRUE(machine_.TerminateApp(b).ok());
  Run(10);  // Must not crash.
  EXPECT_EQ(manager_.NumApps(), 0u);
  EXPECT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
  // The manager's groups were reclaimed: a full set is creatable again.
  for (int i = 0; i < 15; ++i) {
    std::string group = "g";
    group += std::to_string(i);
    ASSERT_TRUE(resctrl_.CreateGroup(group).ok()) << i;
  }
}

TEST_F(FailureInjectionTest, DeadAppReplacedByNewOne) {
  Launch(WaterNsquared());
  const AppId victim = Launch(Cg());
  Run(120);
  ASSERT_TRUE(machine_.TerminateApp(victim).ok());
  Run(4);
  Launch(Ft());  // Replacement arrives.
  Run(120);
  EXPECT_EQ(manager_.NumApps(), 2u);
  EXPECT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
  EXPECT_TRUE(manager_.current_state().Valid());
}

TEST_F(FailureInjectionTest, NoiseSpikeDoesNotBreakController) {
  const AppId a = Launch(Sp());
  Launch(OceanNcp());
  Launch(Swaptions());
  Run(20);
  // A burst of wild measurement noise (e.g. co-located interference the
  // model does not attribute) mid-exploration.
  machine_.SetIpsNoiseSigma(0.5);
  Run(20);
  machine_.SetIpsNoiseSigma(0.01);
  Run(160);
  EXPECT_TRUE(manager_.current_state().Valid());
  EXPECT_GE(manager_.SlowdownEstimate(a), 1.0);
  // The controller settles again after the disturbance (idle, or still
  // legitimately re-exploring after a drift trigger — but with a valid
  // state either way).
  Run(120);
  EXPECT_TRUE(manager_.current_state().Valid());
}

}  // namespace
}  // namespace copart
