// The CoPart resource manager: phase machine, profiling, exploration
// convergence, idle-phase change detection (paper §5.4), and which
// adaptation triggers re-profile which apps.
#include "core/resource_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/fault_injector.h"
#include "common/stats.h"
#include "harness/mix.h"
#include "workload/workload.h"

namespace copart {
namespace {

class ResourceManagerTest : public ::testing::Test {
 protected:
  ResourceManagerTest()
      : machine_(MakeConfig(&injector_)), resctrl_(&machine_),
        monitor_(&machine_) {}

  static MachineConfig MakeConfig(FaultInjector* injector) {
    MachineConfig config;
    config.ips_noise_sigma = 0.005;
    config.fault_injector = injector;
    return config;
  }

  AppId Launch(const WorkloadDescriptor& descriptor, uint32_t cores = 4) {
    Result<AppId> app = machine_.LaunchApp(descriptor, cores);
    CHECK(app.ok());
    return *app;
  }

  // Drives `manager` for `periods` control periods.
  void Run(ResourceManager& manager, int periods) {
    for (int i = 0; i < periods; ++i) {
      machine_.AdvanceTime(manager_params_.control_period_sec);
      manager.Tick();
    }
  }

  // Admits WN, CG and SW and runs 120 periods: profiling, exploration and
  // the settle into idle. Returns the apps in admission order.
  std::vector<AppId> AdmitThreeAndSettle(ResourceManager& manager) {
    std::vector<AppId> apps;
    for (const WorkloadDescriptor& descriptor :
         {WaterNsquared(), Cg(), Swaptions()}) {
      apps.push_back(Launch(descriptor));
      CHECK(manager.AddApp(apps.back()).ok());
    }
    Run(manager, 120);
    return apps;
  }

  // Ticks `manager` until it leaves the profiling phase; returns the number
  // of probe ticks spent.
  int ProbeTicks(ResourceManager& manager) {
    int ticks = 0;
    while (manager.phase() == ResourceManager::Phase::kProfiling &&
           ticks < 100) {
      Run(manager, 1);
      ++ticks;
    }
    return ticks;
  }

  // Ticks `manager` until it reaches `phase` (at most `limit` periods).
  void RunUntil(ResourceManager& manager, ResourceManager::Phase phase,
                int limit = 200) {
    for (int i = 0; i < limit && manager.phase() != phase; ++i) {
      Run(manager, 1);
    }
  }

  ResourceManagerParams manager_params_;
  FaultInjector injector_{0xFA017};  // Disarmed unless a test arms it.
  SimulatedMachine machine_;
  Resctrl resctrl_;
  PerfMonitor monitor_;
};

TEST_F(ResourceManagerTest, AddAppStartsProfiling) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  ASSERT_TRUE(manager.AddApp(Launch(WaterNsquared())).ok());
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kProfiling);
  EXPECT_EQ(manager.NumApps(), 1u);
}

TEST_F(ResourceManagerTest, RejectsUnknownAndDuplicateApps) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  EXPECT_EQ(manager.AddApp(AppId(123)).code(), StatusCode::kNotFound);
  const AppId app = Launch(Swaptions());
  ASSERT_TRUE(manager.AddApp(app).ok());
  EXPECT_EQ(manager.AddApp(app).code(), StatusCode::kAlreadyExists);
}

TEST_F(ResourceManagerTest, ProfilingTakesThreeProbesPerApp) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  ASSERT_TRUE(manager.AddApp(Launch(WaterNsquared())).ok());
  ASSERT_TRUE(manager.AddApp(Launch(Cg())).ok());
  // AddApp restarts profiling; 2 apps x 3 probes = 6 periods.
  Run(manager, 5);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kProfiling);
  Run(manager, 1);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kExploration);
}

TEST_F(ResourceManagerTest, ExplorationConvergesToIdle) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  ASSERT_TRUE(manager.AddApp(Launch(WaterNsquared())).ok());
  ASSERT_TRUE(manager.AddApp(Launch(Cg())).ok());
  ASSERT_TRUE(manager.AddApp(Launch(Swaptions())).ok());
  Run(manager, 120);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  EXPECT_TRUE(manager.current_state().Valid());
}

TEST_F(ResourceManagerTest, ConvergedStateFavorsTheSensitiveApps) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  const AppId wn = Launch(WaterNsquared());
  const AppId cg = Launch(Cg());
  const AppId sw = Launch(Swaptions());
  ASSERT_TRUE(manager.AddApp(wn).ok());
  ASSERT_TRUE(manager.AddApp(cg).ok());
  ASSERT_TRUE(manager.AddApp(sw).ok());
  Run(manager, 120);
  const SystemState& state = manager.current_state();
  // WN (cache-hungry) ends with more ways than SW (insensitive), which is
  // index 2 in registration order.
  EXPECT_GT(state.allocation(0).llc_ways, state.allocation(2).llc_ways);
  // CG keeps a high MBA level (it demands bandwidth).
  EXPECT_GE(state.allocation(1).mba_level.percent(), 70u);
}

TEST_F(ResourceManagerTest, AppliedStateMatchesResctrlSchemata) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  const AppId wn = Launch(WaterNsquared());
  const AppId sw = Launch(Swaptions());
  ASSERT_TRUE(manager.AddApp(wn).ok());
  ASSERT_TRUE(manager.AddApp(sw).ok());
  Run(manager, 80);
  const SystemState& state = manager.current_state();
  EXPECT_EQ(machine_.ClosWayMask(machine_.AppClos(wn)).bits(),
            state.WayMaskBits(0));
  EXPECT_EQ(machine_.ClosWayMask(machine_.AppClos(sw)).bits(),
            state.WayMaskBits(1));
  EXPECT_EQ(machine_.ClosMbaLevel(machine_.AppClos(wn)),
            state.allocation(0).mba_level);
}

TEST_F(ResourceManagerTest, SlowdownEstimatesTrackProfiledReference) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  const AppId wn = Launch(WaterNsquared());
  const AppId sw = Launch(Swaptions());
  ASSERT_TRUE(manager.AddApp(wn).ok());
  ASSERT_TRUE(manager.AddApp(sw).ok());
  Run(manager, 80);
  EXPECT_GE(manager.SlowdownEstimate(wn), 1.0);
  // The insensitive app runs at full speed regardless of allocation.
  EXPECT_NEAR(manager.SlowdownEstimate(sw), 1.0, 0.05);
}

TEST_F(ResourceManagerTest, PoolChangeTriggersReAdaptation) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  ASSERT_TRUE(manager.AddApp(Launch(WaterNsquared())).ok());
  ASSERT_TRUE(manager.AddApp(Launch(Cg())).ok());
  Run(manager, 120);
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  const uint64_t adaptations = manager.adaptations_started();
  manager.SetResourcePool(
      ResourcePool{.first_way = 4, .num_ways = 7, .max_mba_percent = 50});
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kProfiling);
  EXPECT_EQ(manager.adaptations_started(), adaptations + 1);
  Run(manager, 120);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  // The converged state must live inside the new pool.
  const SystemState& state = manager.current_state();
  EXPECT_EQ(state.pool().first_way, 4u);
  uint32_t total = 0;
  for (size_t i = 0; i < state.NumApps(); ++i) {
    total += state.allocation(i).llc_ways;
    EXPECT_LE(state.allocation(i).mba_level.percent(), 50u);
    EXPECT_EQ(state.WayMaskBits(i) & 0xF, 0u) << "uses ways outside pool";
  }
  EXPECT_EQ(total, 7u);
}

TEST_F(ResourceManagerTest, TerminationDetectedInIdle) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  const AppId wn = Launch(WaterNsquared());
  const AppId cg = Launch(Cg());
  const AppId sw = Launch(Swaptions());
  ASSERT_TRUE(manager.AddApp(wn).ok());
  ASSERT_TRUE(manager.AddApp(cg).ok());
  ASSERT_TRUE(manager.AddApp(sw).ok());
  Run(manager, 120);
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  // The workload terminates; the manager must notice and re-adapt for the
  // remaining two apps. Both were profiled already, so the re-adaptation
  // goes straight to exploration.
  ASSERT_TRUE(manager.RemoveApp(sw).ok());
  ASSERT_TRUE(machine_.TerminateApp(sw).ok());
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kExploration);
  Run(manager, 120);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  EXPECT_EQ(manager.current_state().NumApps(), 2u);
}

TEST_F(ResourceManagerTest, AdmissionProfilesOnlyTheNewcomer) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  AdmitThreeAndSettle(manager);
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  const uint64_t adaptations = manager.adaptations_started();
  // The incumbents keep their slowdown references: three probe periods for
  // the newcomer, not 3 x 4.
  ASSERT_TRUE(manager.AddApp(Launch(Ep())).ok());
  EXPECT_EQ(manager.adaptations_started(), adaptations + 1);
  EXPECT_EQ(ProbeTicks(manager), 3);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kExploration);
}

TEST_F(ResourceManagerTest, RemovalGoesStraightToExploration) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  const AppId sw = AdmitThreeAndSettle(manager)[2];
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  const uint64_t adaptations = manager.adaptations_started();
  ASSERT_TRUE(machine_.TerminateApp(sw).ok());
  ASSERT_TRUE(manager.RemoveApp(sw).ok());
  EXPECT_EQ(manager.adaptations_started(), adaptations + 1);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kExploration);
  int probe_ticks = 0;
  for (int i = 0; i < 120; ++i) {
    probe_ticks += manager.phase() == ResourceManager::Phase::kProfiling;
    Run(manager, 1);
  }
  EXPECT_EQ(probe_ticks, 0);
  EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  EXPECT_EQ(manager.current_state().NumApps(), 2u);
}

TEST_F(ResourceManagerTest, IdleDriftReprofilesEveryApp) {
  // A drift threshold below the counter noise: the first idle comparison
  // re-adapts.
  manager_params_.idle_ips_drift_threshold = 1e-9;
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  ASSERT_TRUE(manager.AddApp(Launch(WaterNsquared())).ok());
  ASSERT_TRUE(manager.AddApp(Launch(Cg())).ok());
  ASSERT_TRUE(manager.AddApp(Launch(Swaptions())).ok());
  RunUntil(manager, ResourceManager::Phase::kIdle);
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  const uint64_t adaptations = manager.adaptations_started();
  RunUntil(manager, ResourceManager::Phase::kProfiling, 5);
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kProfiling);
  EXPECT_EQ(manager.adaptations_started(), adaptations + 1);
  EXPECT_EQ(ProbeTicks(manager), 9);
}

TEST_F(ResourceManagerTest, PoolChangeReprofilesEveryApp) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  AdmitThreeAndSettle(manager);
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  manager.SetResourcePool(manager.pool());
  EXPECT_EQ(ProbeTicks(manager), 9);
}

TEST_F(ResourceManagerTest, DegradedRecoveryReprofilesEveryApp) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  AdmitThreeAndSettle(manager);
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
  // Every L3 write fails from the newcomer's first probe on, until the
  // manager gives up and degrades.
  FaultSpec always;
  always.probability = 1.0;
  injector_.Arm(fault_points::kResctrlSetL3, always);
  ASSERT_TRUE(manager.AddApp(Launch(Ep())).ok());
  RunUntil(manager, ResourceManager::Phase::kDegraded, 100);
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kDegraded);
  // Recovery distrusts every slowdown reference, the incumbents' too.
  injector_.DisarmAll();
  RunUntil(manager, ResourceManager::Phase::kProfiling, 100);
  ASSERT_EQ(manager.phase(), ResourceManager::Phase::kProfiling);
  EXPECT_EQ(manager.degraded_recoveries(), 1u);
  EXPECT_EQ(ProbeTicks(manager), 12);
}

// Relative errors |IPS_full - solo IPS| / solo IPS of the two incumbents of
// one consolidation change, as the manager holds them right after the
// change, and again after a forced full re-profile of the same apps.
struct ReferenceErrors {
  std::vector<double> incremental;
  std::vector<double> full;
};

// Manages `triple[0]` and `triple[1]` at 4 cores each; `triple[2]` is
// admitted once they converge (`admission`), or converges with them and
// then departs.
void MeasureReferenceErrors(const std::vector<WorkloadDescriptor>& triple,
                            bool admission, ReferenceErrors* errors) {
  MachineConfig config;
  config.ips_noise_sigma = 0.005;
  SimulatedMachine machine(config);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  const ResourceManagerParams params;
  ResourceManager manager(&resctrl, &monitor, params);
  const auto tick_while = [&](ResourceManager::Phase phase, bool equal) {
    for (int i = 0; i < 300 && (manager.phase() == phase) == equal; ++i) {
      machine.AdvanceTime(params.control_period_sec);
      manager.Tick();
    }
  };
  const auto admit = [&](const WorkloadDescriptor& descriptor) {
    Result<AppId> app = machine.LaunchApp(descriptor, 4);
    CHECK(app.ok());
    CHECK(manager.AddApp(*app).ok());
    return *app;
  };
  const auto record = [&](AppId a, AppId b, std::vector<double>* out) {
    for (AppId app : {a, b}) {
      const double solo = machine.SoloIps(app);
      out->push_back(std::abs(manager.IpsFull(app) - solo) / solo);
    }
  };
  const AppId a = admit(triple[0]);
  const AppId b = admit(triple[1]);
  if (admission) {
    tick_while(ResourceManager::Phase::kIdle, false);
    EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
    admit(triple[2]);
  } else {
    const AppId c = admit(triple[2]);
    tick_while(ResourceManager::Phase::kIdle, false);
    EXPECT_EQ(manager.phase(), ResourceManager::Phase::kIdle);
    CHECK(machine.TerminateApp(c).ok());
    CHECK(manager.RemoveApp(c).ok());
  }
  tick_while(ResourceManager::Phase::kProfiling, true);
  record(a, b, &errors->incremental);
  manager.SetResourcePool(manager.pool());
  tick_while(ResourceManager::Phase::kProfiling, true);
  record(a, b, &errors->full);
}

double Worst(const std::vector<double>& values) {
  return *std::max_element(values.begin(), values.end());
}

TEST(ResourceManagerStaleReferenceTest, IncrementalNoWorseThanFullReprofile) {
  // The incumbents' IPS_full was measured against their previous
  // co-runners. Over every triple of the Table-2 apps, on both paths
  // together, keeping it must be no less accurate than re-probing it.
  const std::vector<WorkloadDescriptor> catalog = AllTable2Benchmarks();
  ReferenceErrors admission;
  ReferenceErrors removal;
  for (size_t i = 0; i < catalog.size(); ++i) {
    for (size_t j = i + 1; j < catalog.size(); ++j) {
      for (size_t k = j + 1; k < catalog.size(); ++k) {
        const std::vector<WorkloadDescriptor> triple = {catalog[i], catalog[j],
                                                        catalog[k]};
        MeasureReferenceErrors(triple, /*admission=*/true, &admission);
        MeasureReferenceErrors(triple, /*admission=*/false, &removal);
      }
    }
  }
  ReferenceErrors both = admission;
  both.incremental.insert(both.incremental.end(), removal.incremental.begin(),
                          removal.incremental.end());
  both.full.insert(both.full.end(), removal.full.begin(), removal.full.end());
  for (const auto& [name, errors] :
       {std::pair<const char*, const ReferenceErrors*>{"admission", &admission},
        {"removal", &removal},
        {"both", &both}}) {
    std::printf(
        "stale reference, %s (%zu incumbents): incremental mean %.4f worst "
        "%.4f, full re-profile mean %.4f worst %.4f\n",
        name, errors->incremental.size(), Mean(errors->incremental),
        Worst(errors->incremental), Mean(errors->full), Worst(errors->full));
  }
  EXPECT_LE(Mean(both.incremental), Mean(both.full));
  EXPECT_LE(Worst(both.incremental), Worst(both.full));
}

TEST_F(ResourceManagerTest, ExplorationOverheadIsMicroseconds) {
  ResourceManager manager(&resctrl_, &monitor_, manager_params_);
  ASSERT_TRUE(manager.AddApp(Launch(Sp())).ok());
  ASSERT_TRUE(manager.AddApp(Launch(OceanNcp())).ok());
  ASSERT_TRUE(manager.AddApp(Launch(Fmm())).ok());
  ASSERT_TRUE(manager.AddApp(Launch(Swaptions())).ok());
  Run(manager, 60);
  ASSERT_GT(manager.exploration_time_stats().count(), 0u);
  EXPECT_LT(manager.exploration_time_stats().mean(), 1000.0);
}

TEST_F(ResourceManagerTest, PhaseNames) {
  EXPECT_STREQ(ResourceManager::PhaseName(ResourceManager::Phase::kProfiling),
               "profiling");
  EXPECT_STREQ(
      ResourceManager::PhaseName(ResourceManager::Phase::kExploration),
      "exploration");
  EXPECT_STREQ(ResourceManager::PhaseName(ResourceManager::Phase::kIdle),
               "idle");
}

}  // namespace
}  // namespace copart
