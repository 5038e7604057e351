// The ResourceManager's telemetry through an attached Observability: the
// audit log's exploration records, the slowdown histogram, degraded-mode
// transitions, and detaching.
#include <cmath>
#include <cstring>
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

// Allocation records the exploration loop's decisions produced.
std::vector<AuditRecord> ExplorationAllocations(const AuditLog& audit) {
  std::vector<AuditRecord> records;
  for (const AuditRecord& record : audit.Filter(AuditKind::kAllocation)) {
    if (std::strcmp(record.trigger, "exploration_match") == 0 ||
        std::strcmp(record.trigger, "exploration_neighbor") == 0) {
      records.push_back(record);
    }
  }
  return records;
}

class TelemetryTest : public ::testing::Test {
 protected:
  TelemetryTest()
      : machine_(MakeConfig(&injector_)), resctrl_(&machine_),
        monitor_(&machine_), manager_(&resctrl_, &monitor_, {}) {
    manager_.SetObservability(&obs_);
  }

  static MachineConfig MakeConfig(FaultInjector* injector) {
    MachineConfig config;
    config.ips_noise_sigma = 0.005;
    config.fault_injector = injector;
    return config;
  }

  void AddApps() {
    for (const WorkloadDescriptor& descriptor :
         {WaterNsquared(), Cg(), Swaptions()}) {
      Result<AppId> app = machine_.LaunchApp(descriptor, 4);
      CHECK(app.ok());
      CHECK(manager_.AddApp(*app).ok());
      apps_.push_back(*app);
    }
  }

  void Run(int periods) {
    for (int i = 0; i < periods; ++i) {
      machine_.AdvanceTime(0.5);
      manager_.Tick();
    }
  }

  FaultInjector injector_{7};  // Disarmed unless a test arms it.
  Observability obs_;
  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
  ResourceManager manager_;
  std::vector<AppId> apps_;
};

TEST_F(TelemetryTest, AuditsEveryExplorationDecision) {
  // Bucket 0 holds only values below 1.0, so a floored estimate (exactly
  // 1.0) and one below the floor land in different buckets.
  static const double kSlowdownEdges[] = {
      std::nextafter(1.0, 0.0), 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0};
  const Histogram* slowdowns =
      obs_.metrics.GetHistogram("copart.manager.slowdown", kSlowdownEdges);
  AddApps();
  // Every exploration tick observes the tick's slowdown estimate of each
  // app, in admission order, and each is at least 1.0.
  double estimate_sum = 0.0;
  for (int period = 0; period < 120; ++period) {
    const uint64_t observed = slowdowns->count();
    Run(1);
    if (slowdowns->count() == observed) {
      continue;
    }
    ASSERT_EQ(slowdowns->count() - observed, apps_.size());
    for (AppId app : apps_) {
      const double estimate = manager_.SlowdownEstimate(app);
      EXPECT_GE(estimate, 1.0);
      estimate_sum += estimate;
    }
  }
  ASSERT_GT(slowdowns->count(), 0u);
  EXPECT_DOUBLE_EQ(slowdowns->sum(), estimate_sum);
  EXPECT_EQ(slowdowns->bucket(0), 0u);

  const std::vector<AuditRecord> records = ExplorationAllocations(obs_.audit);
  ASSERT_FALSE(records.empty());
  // Each record names the app it re-sized, its class and its counter
  // health, at a valid mask.
  int neighbors = 0;
  for (const AuditRecord& record : records) {
    EXPECT_GE(record.app_index, 0);
    EXPECT_LT(record.app_index, 3);
    EXPECT_GE(record.app_id, 0);
    EXPECT_STRNE(record.llc_class, "");
    EXPECT_FALSE(record.quarantined);  // Fault-free counters.
    EXPECT_NE(record.new_mask, 0u);
    EXPECT_GT(record.time_sec, 0.0);
    neighbors +=
        std::strcmp(record.trigger, "exploration_neighbor") == 0 ? 1 : 0;
  }
  // Epochs never run backwards.
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].epoch, records[i - 1].epoch);
  }
  // Algorithm 1 ends after theta unproductive neighbor steps, so neighbor
  // perturbations must appear near the end of the exploration.
  EXPECT_GE(neighbors, 1);
}

TEST_F(TelemetryTest, NoExplorationRecordsDuringProfilingOrIdle) {
  AddApps();
  // Profiling: 3 apps x 3 probes = 9 periods with no exploration records.
  Run(9);
  EXPECT_TRUE(ExplorationAllocations(obs_.audit).empty());
  // Run to convergence; once idle, no further records arrive.
  Run(150);
  ASSERT_EQ(manager_.phase(), ResourceManager::Phase::kIdle);
  const size_t after_convergence = ExplorationAllocations(obs_.audit).size();
  EXPECT_GT(after_convergence, 0u);
  Run(20);
  const std::vector<AuditRecord> records = ExplorationAllocations(obs_.audit);
  EXPECT_EQ(records.size(), after_convergence);
  for (const AuditRecord& record : records) {
    EXPECT_STRNE(record.phase, "profiling");
    EXPECT_STRNE(record.phase, "idle");
  }
}

TEST_F(TelemetryTest, DegradedTransitionsAreAudited) {
  AddApps();
  // Every L3 schemata write fails until the manager gives up on adaptation,
  // then the substrate heals and the manager recovers.
  FaultSpec always;
  always.probability = 1.0;
  injector_.Arm(fault_points::kResctrlSetL3, always);
  Run(100);
  ASSERT_EQ(manager_.phase(), ResourceManager::Phase::kDegraded);
  injector_.DisarmAll();
  Run(200);
  ASSERT_EQ(manager_.degraded_recoveries(), 1u);

  int entries = 0;
  int recoveries = 0;
  for (const AuditRecord& record :
       obs_.audit.Filter(AuditKind::kPhaseTransition)) {
    if (std::strcmp(record.detail, "degraded_enter") == 0) {
      ++entries;
      EXPECT_STREQ(record.phase, "degraded");
      EXPECT_TRUE(record.degraded);
      // The failure streak that tripped it.
      EXPECT_EQ(record.failure_streak,
                ResourceManager::kMaxConsecutiveFailures);
    } else if (std::strcmp(record.detail, "degraded_recovery") == 0) {
      ++recoveries;
      EXPECT_STREQ(record.phase, "profiling");
      EXPECT_FALSE(record.degraded);
    }
  }
  EXPECT_EQ(entries, 1);
  EXPECT_EQ(recoveries, 1);
}

TEST_F(TelemetryTest, DetachingObservabilityStopsTheRecords) {
  AddApps();
  Run(12);
  const size_t before = obs_.audit.size();
  EXPECT_GT(before, 0u);
  manager_.SetObservability(nullptr);
  Run(12);
  EXPECT_EQ(obs_.audit.size(), before);
}

}  // namespace
}  // namespace copart
