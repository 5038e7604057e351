// Deterministic fault-driven scenarios for the hardened actuation path:
// degraded-mode entry and recovery, verify-readback rollback on silent
// drops, counter quarantine engage/release, and zombie-group retry. The
// randomized complement lives in core_chaos_property_test.cc.
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/resource_manager.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

FaultSpec ProbAlways() {
  FaultSpec spec;
  spec.probability = 1.0;
  return spec;
}

class DegradedModeTest : public ::testing::Test {
 protected:
  DegradedModeTest()
      : injector_(0xFA017), machine_(MakeConfig(&injector_)),
        resctrl_(&machine_), monitor_(&machine_),
        manager_(&resctrl_, &monitor_, {}) {}

  static MachineConfig MakeConfig(FaultInjector* injector) {
    MachineConfig config;
    config.ips_noise_sigma = 0.0;
    config.fault_injector = injector;
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

  FaultInjector injector_;  // Must outlive the machine.
  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  ResourceManager manager_;
};

TEST_F(DegradedModeTest, ConsecutiveActuationFailuresEnterDegraded) {
  Launch(WaterNsquared());
  Launch(Cg());
  ASSERT_EQ(manager_.phase(), ResourceManager::Phase::kProfiling);
  // Every L3 schemata write now fails: each transactional apply errors and
  // rolls back, the retry backs off exponentially, and after
  // kMaxConsecutiveFailures (5) the manager must give up on adaptation.
  // Backoff delays sum to well under 100 periods.
  injector_.Arm(fault_points::kResctrlSetL3, ProbAlways());
  Run(100);
  EXPECT_EQ(manager_.phase(), ResourceManager::Phase::kDegraded);
  EXPECT_EQ(manager_.degraded_entries(), 1u);
  EXPECT_GE(manager_.actuation_failures(), 5u);
  EXPECT_EQ(manager_.degraded_recoveries(), 0u);
}

TEST_F(DegradedModeTest, RecoversAndReadaptsOnceFaultsClear) {
  Launch(WaterNsquared());
  Launch(Cg());
  injector_.Arm(fault_points::kResctrlSetL3, ProbAlways());
  Run(100);
  ASSERT_EQ(manager_.phase(), ResourceManager::Phase::kDegraded);
  injector_.DisarmAll();
  // kDegradedRecoverySuccesses (3) clean fair-share applies, spaced by the
  // residual backoff, then adaptation restarts from profiling and converges.
  Run(200);
  EXPECT_NE(manager_.phase(), ResourceManager::Phase::kDegraded);
  EXPECT_EQ(manager_.degraded_recoveries(), 1u);
  EXPECT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
  EXPECT_TRUE(manager_.current_state().Valid());
  EXPECT_EQ(manager_.current_state().NumApps(), 2u);
}

TEST_F(DegradedModeTest, SilentDropIsCaughtByReadbackAndRolledBack) {
  Launch(WaterNsquared());
  Launch(Cg());
  Run(2);  // Mid-profiling: the probe (and so app 0's mask) changes every
           // period, so the next L3 write carries a genuinely new value.
  // That write reports success but does not take. Only the transaction's
  // verify-readback can see this; it must roll back, count a failure, and
  // succeed on the backoff retry.
  FaultSpec spec;
  spec.one_shot_queries = {0};
  injector_.Arm(fault_points::kResctrlSetL3Silent, spec);
  Run(148);
  EXPECT_GE(manager_.rollbacks(), 1u);
  EXPECT_GE(manager_.actuation_failures(), 1u);
  EXPECT_EQ(manager_.degraded_entries(), 0u);  // One blip, no spiral.
  EXPECT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
  EXPECT_TRUE(manager_.current_state().Valid());
}

TEST_F(DegradedModeTest, BadCountersQuarantineAndRelease) {
  const AppId a = Launch(WaterNsquared());
  const AppId b = Launch(Cg());
  Run(10);  // Past profiling (6 probe periods); exploration and idle both
            // sample every app every period.
  ASSERT_NE(manager_.phase(), ResourceManager::Phase::kProfiling);
  ASSERT_FALSE(manager_.Quarantined(a));
  // Every PMC read now drops. After kQuarantineAfterBadSamples (3)
  // consecutive bad periods both apps are quarantined; the controller keeps
  // running on conservative placeholders instead of garbage.
  injector_.Arm(fault_points::kPmcDropped, ProbAlways());
  Run(10);
  EXPECT_TRUE(manager_.Quarantined(a));
  EXPECT_TRUE(manager_.Quarantined(b));
  EXPECT_GE(manager_.quarantines(), 2u);
  EXPECT_TRUE(manager_.current_state().Valid());
  // Counters come back: kQuarantineReleaseGoodSamples (3) healthy periods
  // lift the quarantine.
  injector_.DisarmAll();
  Run(100);
  EXPECT_FALSE(manager_.Quarantined(a));
  EXPECT_FALSE(manager_.Quarantined(b));
  EXPECT_TRUE(manager_.current_state().Valid());
}

TEST_F(DegradedModeTest, SaturatedCountersAlsoQuarantine) {
  const AppId a = Launch(WaterNsquared());
  Launch(Cg());
  Run(10);
  ASSERT_NE(manager_.phase(), ResourceManager::Phase::kProfiling);
  injector_.Arm(fault_points::kPmcSaturated, ProbAlways());
  Run(10);
  EXPECT_TRUE(manager_.Quarantined(a));
  injector_.DisarmAll();
  Run(100);
  EXPECT_FALSE(manager_.Quarantined(a));
}

TEST_F(DegradedModeTest, FailedGroupRemovalIsRetriedAsZombie) {
  Launch(WaterNsquared());
  const AppId victim = Launch(Cg());
  Run(120);
  ASSERT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
  // The victim's rmdir fails transiently exactly once; the group must be
  // parked as a zombie and reclaimed on a later tick, not leaked.
  FaultSpec spec;
  spec.one_shot_queries = {0};
  injector_.Arm(fault_points::kResctrlRemoveGroup, spec);
  ASSERT_TRUE(machine_.TerminateApp(victim).ok());
  Run(10);
  EXPECT_EQ(manager_.NumApps(), 1u);
  // Every CLOS the manager ever held is reusable again: with one app
  // managed, 14 of the 15 non-default groups are free.
  std::vector<std::string> names;
  for (int i = 0; i < 14; ++i) {
    names.push_back("probe" + std::to_string(i));
    ASSERT_TRUE(resctrl_.CreateGroup(names.back()).ok()) << i;
  }
}

}  // namespace
}  // namespace copart
