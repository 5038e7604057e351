// The audit log under injected faults: degraded-mode entry/exit records
// must appear exactly when the hardened controller's own counters say the
// transitions happened (the scenarios of core_degraded_mode_test.cc), and
// the same holds for rollback and quarantine annotations. Runs under the
// chaos label alongside the property suite.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/resource_manager.h"
#include "obs/obs.h"
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

// Same machine/seed setup as core_degraded_mode_test.cc, plus an attached
// observability bundle.
class ChaosAuditTest : public ::testing::Test {
 protected:
  ChaosAuditTest()
      : injector_(0xFA017), machine_(MakeConfig(&injector_)),
        resctrl_(&machine_), monitor_(&machine_),
        manager_(&resctrl_, &monitor_, {}) {
    manager_.SetObservability(&obs_);
  }

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

  size_t CountPhaseDetail(const char* detail) const {
    size_t count = 0;
    for (const AuditRecord& record :
         obs_.audit.Filter(AuditKind::kPhaseTransition)) {
      if (std::strcmp(record.detail, detail) == 0) {
        ++count;
      }
    }
    return count;
  }

  size_t CountQuarantineTrigger(const char* trigger) const {
    size_t count = 0;
    for (const AuditRecord& record :
         obs_.audit.Filter(AuditKind::kQuarantineChange)) {
      if (std::strcmp(record.trigger, trigger) == 0) {
        ++count;
      }
    }
    return count;
  }

  Observability obs_;
  FaultInjector injector_;  // Must outlive the machine.
  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  ResourceManager manager_;
};

TEST_F(ChaosAuditTest, DegradedEntryAndRecoveryAreAuditedExactlyOnce) {
  Launch(WaterNsquared());
  Launch(Cg());
  // Storm: every L3 write fails until the manager gives up on adaptation.
  injector_.Arm(fault_points::kResctrlSetL3, ProbAlways());
  Run(100);
  ASSERT_EQ(manager_.phase(), ResourceManager::Phase::kDegraded);
  ASSERT_EQ(manager_.degraded_entries(), 1u);
  EXPECT_EQ(CountPhaseDetail("degraded_enter"), manager_.degraded_entries());
  EXPECT_EQ(CountPhaseDetail("degraded_recovery"), 0u);

  // Faults clear: exactly one audited recovery, matching the counter.
  injector_.DisarmAll();
  Run(200);
  ASSERT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
  ASSERT_EQ(manager_.degraded_recoveries(), 1u);
  EXPECT_EQ(CountPhaseDetail("degraded_enter"), manager_.degraded_entries());
  EXPECT_EQ(CountPhaseDetail("degraded_recovery"),
            manager_.degraded_recoveries());
}

TEST_F(ChaosAuditTest, ActuationFailureRecordsCarryRollbackAnnotations) {
  Launch(WaterNsquared());
  Launch(Cg());
  injector_.Arm(fault_points::kResctrlSetL3, ProbAlways());
  Run(100);
  const std::vector<AuditRecord> failures =
      obs_.audit.Filter(AuditKind::kActuationFailure);
  ASSERT_EQ(failures.size(), manager_.actuation_failures());
  ASSERT_GE(failures.size(), 5u);
  int32_t max_streak = 0;
  for (const AuditRecord& record : failures) {
    EXPECT_TRUE(record.rollback);
    max_streak = std::max(max_streak, record.failure_streak);
  }
  // The streak annotation climbs toward the degraded threshold: the record
  // that tripped degraded entry carries streak kMaxConsecutiveFailures - 1
  // (the streak *before* that failure; degraded-phase retries restart at 0).
  EXPECT_EQ(max_streak, 4);

  // Faults clear: the recovery fair-share applies succeed while the phase
  // is still degraded, and those allocations are flagged as such.
  injector_.DisarmAll();
  Run(200);
  bool saw_degraded_allocation = false;
  for (const AuditRecord& record :
       obs_.audit.Filter(AuditKind::kAllocation)) {
    if (record.degraded) {
      saw_degraded_allocation = true;
      EXPECT_STREQ(record.trigger, "degraded_fair_share");
    }
  }
  EXPECT_TRUE(saw_degraded_allocation);
}

TEST_F(ChaosAuditTest, QuarantineEngageAndReleaseAreAudited) {
  const AppId a = Launch(WaterNsquared());
  const AppId b = Launch(Cg());
  Run(10);
  ASSERT_NE(manager_.phase(), ResourceManager::Phase::kProfiling);
  injector_.Arm(fault_points::kPmcDropped, ProbAlways());
  Run(10);
  ASSERT_TRUE(manager_.Quarantined(a));
  ASSERT_TRUE(manager_.Quarantined(b));
  EXPECT_EQ(CountQuarantineTrigger("quarantine_engage"),
            manager_.quarantines());
  EXPECT_EQ(CountQuarantineTrigger("quarantine_release"), 0u);

  injector_.DisarmAll();
  Run(100);
  ASSERT_FALSE(manager_.Quarantined(a));
  ASSERT_FALSE(manager_.Quarantined(b));
  EXPECT_EQ(CountQuarantineTrigger("quarantine_release"), 2u);
}

TEST_F(ChaosAuditTest, FaultFreeRunsAuditNoHardeningEvents) {
  Launch(WaterNsquared());
  Launch(Cg());
  Run(120);
  EXPECT_EQ(obs_.audit.Filter(AuditKind::kActuationFailure).size(), 0u);
  EXPECT_EQ(CountPhaseDetail("degraded_enter"), 0u);
  EXPECT_EQ(obs_.audit.Filter(AuditKind::kQuarantineChange).size(), 0u);
  // But the normal decision flow is fully audited: adaptation start,
  // exploration entry, and the idle settle each left a phase record.
  EXPECT_GE(CountPhaseDetail("enter_profiling"), 1u);
  EXPECT_GE(CountPhaseDetail("enter_exploration"), 1u);
  EXPECT_GE(CountPhaseDetail("enter_idle"), 1u);
  EXPECT_GT(obs_.audit.Filter(AuditKind::kAllocation).size(), 0u);
}

}  // namespace
}  // namespace copart
