// Multi-node layer: the node, the fleet front door's placement rules,
// fault domains, migration, the live job list against a full ledger scan,
// and fleet metrics.
#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/fleet.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "harness/fleet.h"
#include "obs/metrics_registry.h"
#include "obs/obs.h"

namespace copart {
namespace {

MachineConfig QuietConfig() {
  MachineConfig config;
  config.ips_noise_sigma = 0.005;
  return config;
}

TEST(ClusterNodeTest, AdmitEvictLifecycle) {
  ClusterNode node("n0", QuietConfig(), {});
  Result<AppId> app = node.Admit(Cg(), 4);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(node.NumJobs(), 1u);
  EXPECT_EQ(node.FreeCores(), 12u);
  EXPECT_EQ(node.ResidentWorkloads().size(), 1u);
  EXPECT_EQ(node.ResidentWorkloads()[0].name, "CG");
  ASSERT_TRUE(node.Evict(*app).ok());
  EXPECT_EQ(node.NumJobs(), 0u);
  EXPECT_EQ(node.FreeCores(), 16u);
}

TEST(ClusterNodeTest, AdmitRollsBackOnManagerFailure) {
  ClusterNode node("n0", QuietConfig(), {});
  // CAT grants at least one way per managed app: the 11-way node accepts
  // 11 jobs, then admission control refuses — without leaking the app the
  // failed admission had already launched.
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(node.Admit(Swaptions(), 1).ok()) << i;
  }
  Result<AppId> overflow = node.Admit(Swaptions(), 1);
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(node.NumJobs(), 11u);
  // No orphaned app was left behind by the failed admission.
  EXPECT_EQ(node.machine().ListApps().size(), 11u);
}

TEST(ClusterNodeTest, TickDrivesControllerToConvergence) {
  ClusterNode node("n0", QuietConfig(), {});
  ASSERT_TRUE(node.Admit(WaterNsquared(), 4).ok());
  ASSERT_TRUE(node.Admit(Cg(), 4).ok());
  ASSERT_TRUE(node.Admit(Swaptions(), 4).ok());
  for (int i = 0; i < 120; ++i) {
    node.machine().AdvanceTime(0.5);
    node.manager().Tick();
  }
  EXPECT_EQ(node.manager().phase(), ResourceManager::Phase::kIdle);
  EXPECT_EQ(node.CurrentSlowdowns().size(), 3u);
  EXPECT_GE(node.CurrentUnfairness(), 0.0);
}

TEST(ClusterNodeTest, EvictFromAnIdleNodeStartsOneAdaptation) {
  ClusterNode node("n0", QuietConfig(), {});
  ASSERT_TRUE(node.Admit(WaterNsquared(), 4).ok());
  ASSERT_TRUE(node.Admit(Cg(), 4).ok());
  Result<AppId> sw = node.Admit(Swaptions(), 4);
  ASSERT_TRUE(sw.ok());
  const auto tick = [&node] {
    node.machine().AdvanceTime(0.5);
    node.manager().Tick();
  };
  for (int i = 0; i < 120; ++i) {
    tick();
  }
  ASSERT_EQ(node.manager().phase(), ResourceManager::Phase::kIdle);
  const uint64_t adaptations = node.manager().adaptations_started();
  ASSERT_TRUE(node.Evict(*sw).ok());
  EXPECT_EQ(node.manager().adaptations_started(), adaptations + 1);
  // Back in idle, the first idle ticks must not read the termination as a
  // second consolidation change.
  for (int i = 0; i < 200 &&
                  node.manager().phase() != ResourceManager::Phase::kIdle;
       ++i) {
    tick();
  }
  ASSERT_EQ(node.manager().phase(), ResourceManager::Phase::kIdle);
  tick();
  tick();
  EXPECT_EQ(node.manager().adaptations_started(), adaptations + 1);
  EXPECT_EQ(node.manager().phase(), ResourceManager::Phase::kIdle);
}

TEST(ClusterNodeTest, EvictUnknownAppReturnsNotFound) {
  ClusterNode node("n0", QuietConfig(), {});
  const Status evicted = node.Evict(AppId{424242});
  EXPECT_EQ(evicted.code(), StatusCode::kNotFound);
}

TEST(ClusterNodeTest, FailedAdmissionsLeaveNothingBehind) {
  ClusterNode node("n0", QuietConfig(), {});
  // Too few cores: the launch itself fails.
  EXPECT_EQ(node.Admit(Cg(), 17).status().code(),
            StatusCode::kResourceExhausted);
  LcAppModel model;
  model.slo_p95_ms = 1.0;
  EXPECT_EQ(node.AdmitLatencyCritical(Memcached(), 17, model).status().code(),
            StatusCode::kResourceExhausted);
  // The launch succeeds but the manager refuses the LC registration (SLO
  // mode is off): the app is rolled back off the machine.
  EXPECT_EQ(node.AdmitLatencyCritical(Memcached(), 4, model).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(node.machine().ListApps().empty());
  EXPECT_TRUE(node.quarantined_apps().empty());
  EXPECT_EQ(node.FreeCores(), 16u);
}

TEST(ClusterNodeTest, NoPartNodeMatchesABareMachine) {
  // A node that should not partition runs the "nopart" policy: every app
  // shares the full LLC at MBA 100, so the node must evolve exactly like a
  // bare machine built from the same config.
  const MachineConfig config = QuietConfig();
  ResourceManagerParams manager;
  manager.partition_policy = "nopart";
  ClusterNode node("n0", config, manager);
  SimulatedMachine bare(config);
  std::vector<AppId> node_apps;
  std::vector<AppId> bare_apps;
  int periods_run = 0;
  int mismatches = 0;
  const auto run = [&](int periods) {
    for (int p = 0; p < periods; ++p, ++periods_run) {
      node.machine().AdvanceTime(0.5);
      node.manager().Tick();
      bare.AdvanceTime(0.5);
      for (size_t k = 0; k < node_apps.size(); ++k) {
        // Bit for bit: the same noise draws and the same solve.
        if (node.machine().LastEpoch(node_apps[k]).ips !=
            bare.LastEpoch(bare_apps[k]).ips) {
          ++mismatches;
        }
      }
    }
  };
  // Admitted one at a time, with the node running in between.
  for (const WorkloadDescriptor& workload :
       {WaterNsquared(), Cg(), Sp(), Swaptions(), Ep(), Fmm()}) {
    Result<AppId> on_node = node.Admit(workload, 2);
    Result<AppId> on_bare = bare.LaunchApp(workload, 2);
    ASSERT_TRUE(on_node.ok());
    ASSERT_TRUE(on_bare.ok());
    node_apps.push_back(*on_node);
    bare_apps.push_back(*on_bare);
    run(20);
  }
  run(80);
  ASSERT_TRUE(node.Evict(node_apps[2]).ok());
  ASSERT_TRUE(bare.TerminateApp(bare_apps[2]).ok());
  node_apps.erase(node_apps.begin() + 2);
  bare_apps.erase(bare_apps.begin() + 2);
  run(50);
  EXPECT_GE(periods_run, 200);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(node.NumJobs(), 5u);
  EXPECT_EQ(node.Evict(AppId{424242}).code(), StatusCode::kNotFound);
}

TEST(ClusterNodeTest, NoPartNodeAdmitsMoreAppsThanWays) {
  // Shared-pool admission has no one-way-per-app limit: a 16-core node
  // takes 14 one-core apps on its 11 ways.
  ResourceManagerParams manager;
  manager.partition_policy = "nopart";
  ClusterNode node("n0", QuietConfig(), manager);
  ASSERT_LT(node.machine().config().llc.num_ways, 14u);
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(node.Admit(Swaptions(), 1).ok()) << i;
  }
  EXPECT_EQ(node.NumJobs(), 14u);
  for (int i = 0; i < 10; ++i) {
    node.machine().AdvanceTime(0.5);
    node.manager().Tick();
  }
  EXPECT_EQ(node.CurrentSlowdowns().size(), 14u);
}

TEST(ClusterNodeTest, AdmitRollbackQuarantinesWhenTerminateFails) {
  FaultInjector injector(7);
  FaultSpec always;
  always.probability = 1.0;
  injector.Arm(fault_points::kClusterAdmitRollback, always);
  MachineConfig config = QuietConfig();
  config.fault_injector = &injector;
  ClusterNode node("n0", config, {});
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(node.Admit(Swaptions(), 1).ok()) << i;
  }
  Result<AppId> overflow = node.Admit(Swaptions(), 1);
  ASSERT_FALSE(overflow.ok());
  // The caller sees the ORIGINAL admission error, not the terminate
  // failure the rollback swallowed.
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  // The unkillable app is quarantined, still squatting on the machine,
  // and the manager never accepted it.
  ASSERT_EQ(node.quarantined_apps().size(), 1u);
  EXPECT_EQ(node.machine().ListApps().size(), 12u);
  EXPECT_EQ(node.NumJobs(), 11u);
}

FleetParams QuietFleetParams() {
  FleetParams params;
  params.machine = QuietConfig();
  params.parallel.num_threads = 1;
  return params;
}

FleetJobSpec BatchJob(const WorkloadDescriptor& workload, uint32_t cores,
                      int lifetime_epochs = 0) {
  FleetJobSpec spec;
  spec.workload = workload;
  spec.cores = cores;
  spec.lifetime_epochs = lifetime_epochs;
  return spec;
}

TEST(FleetTest, JobsRunToCompletionAndConservationHolds) {
  FleetController fleet(4, QuietFleetParams());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fleet.Submit(BatchJob(Swaptions(), 2, 10)).ok()) << i;
  }
  EXPECT_EQ(fleet.ResidentJobs(), 8u);
  for (int e = 0; e < 30; ++e) {
    fleet.RunEpoch();
  }
  EXPECT_EQ(fleet.counters().completed, 8u);
  EXPECT_EQ(fleet.ResidentJobs(), 0u);
  EXPECT_EQ(fleet.counters().invariant_violations, 0u);
  EXPECT_TRUE(fleet.first_violation().empty()) << fleet.first_violation();
  // All four nodes ticked every epoch.
  EXPECT_EQ(fleet.node_ticks(), 30u * 4u);
}

TEST(FleetTest, AdmissionControlShedsAtTheUtilizationCeiling) {
  FleetController fleet(1, QuietFleetParams());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet.Submit(BatchJob(Swaptions(), 4)).ok()) << i;
  }
  // 16/16 cores used >= the 95% ceiling: the front door sheds.
  Result<FleetJobId> shed = fleet.Submit(BatchJob(Swaptions(), 4));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fleet.counters().shed_admission, 1u);
  fleet.RunEpoch();
  EXPECT_EQ(fleet.counters().invariant_violations, 0u);
}

TEST(FleetTest, CrashLosesResidentsAndRebootsEmpty) {
  FleetParams params = QuietFleetParams();
  params.crash_recovery_epochs = 3;
  FleetController fleet(2, params);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet.Submit(BatchJob(Swaptions(), 2)).ok()) << i;
  }
  size_t on_node0 = 0;
  for (const FleetJob& job : fleet.jobs()) {
    on_node0 += job.node == 0 ? 1 : 0;
  }
  ASSERT_GT(on_node0, 0u);
  fleet.CrashNode(0);
  EXPECT_EQ(fleet.counters().crashes, 1u);
  EXPECT_EQ(fleet.counters().lost_to_crash, on_node0);
  EXPECT_EQ(fleet.AliveNodes(), 1u);
  EXPECT_EQ(fleet.ResidentJobs(), 4u - on_node0);
  for (int e = 0; e < 4; ++e) {
    fleet.RunEpoch();
  }
  // Recovered: the node is back, empty, on a fresh incarnation.
  EXPECT_EQ(fleet.AliveNodes(), 2u);
  EXPECT_EQ(fleet.counters().reboots, 1u);
  EXPECT_EQ(fleet.node_status(0).reboots, 1u);
  EXPECT_EQ(fleet.node(0)->NumJobs(), 0u);
  EXPECT_EQ(fleet.counters().invariant_violations, 0u);
}

TEST(FleetTest, InvariantCheckFlagsAppsTheFleetDoesNotAccountFor) {
  FleetController fleet(2, QuietFleetParams());
  const Result<FleetJobId> id = fleet.Submit(BatchJob(Swaptions(), 2));
  ASSERT_TRUE(id.ok());
  fleet.RunEpoch();
  EXPECT_EQ(fleet.counters().invariant_violations, 0u);
  // An app launched behind the front door's back breaks node 1's census.
  ASSERT_TRUE(fleet.node(1)->Admit(Cg(), 2).ok());
  fleet.RunEpoch();
  EXPECT_EQ(fleet.counters().invariant_violations, 1u);
  EXPECT_NE(fleet.first_violation().find("census mismatch on node 1"),
            std::string::npos)
      << fleet.first_violation();
  // A resident job killed behind its back is missing from its node. Every
  // failing check counts; the first violation is the one kept.
  const FleetJob& job = fleet.jobs()[*id];
  ASSERT_TRUE(fleet.node(job.node)->Evict(job.app).ok());
  fleet.RunEpoch();
  EXPECT_EQ(fleet.counters().invariant_violations, 2u);
  EXPECT_NE(fleet.first_violation().find("census mismatch on node 1"),
            std::string::npos);
}

TEST(FleetTest, LatencyCriticalJobKeepsTheGovernorWayFloor) {
  FleetParams params = QuietFleetParams();
  params.manager.slo.enabled = true;
  FleetController fleet(1, params);
  FleetJobSpec lc;
  lc.workload = Memcached();
  lc.cores = 4;
  lc.latency_critical = true;
  lc.offered_rps = 20000.0;
  Result<FleetJobId> id = fleet.Submit(lc);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fleet.Submit(BatchJob(Cg(), 4)).ok());
  for (int e = 0; e < 20; ++e) {
    fleet.RunEpoch();
  }
  const FleetJob& job = fleet.jobs()[*id];
  ASSERT_EQ(job.state, JobState::kResident);
  EXPECT_GE(fleet.node(0)->manager().LcWays(job.app),
            params.manager.slo.lc_way_floor);
  EXPECT_EQ(fleet.counters().invariant_violations, 0u);
}

// Full-scan reference for the fleet's live state. Returns "" when
// ResidentJobs() and every node's resident set agree with a scan of the
// whole job ledger and no job has left a terminal state since the last
// call; otherwise the first disagreement. `states` carries each job's
// state from one call to the next.
std::string LiveStateMismatch(FleetController& fleet,
                              std::vector<JobState>& states) {
  const std::vector<FleetJob>& jobs = fleet.jobs();
  size_t resident = 0;
  std::vector<std::vector<AppId>> per_node(fleet.NumNodes());
  for (size_t j = 0; j < jobs.size(); ++j) {
    const FleetJob& job = jobs[j];
    if (j < states.size() && states[j] != JobState::kResident &&
        job.state != states[j]) {
      return "job " + std::to_string(j) + " left " +
             JobStateName(states[j]) + " for " + JobStateName(job.state);
    }
    if (job.state != JobState::kResident) {
      if (job.node != -1) {
        return "terminal job " + std::to_string(j) + " holds a node";
      }
      continue;
    }
    if (job.node < 0 || job.node >= static_cast<int>(fleet.NumNodes())) {
      return "job " + std::to_string(j) + " resident on no node";
    }
    ++resident;
    per_node[job.node].push_back(job.app);
  }
  states.clear();
  for (const FleetJob& job : jobs) {
    states.push_back(job.state);
  }
  if (fleet.ResidentJobs() != resident) {
    return "ResidentJobs() is " + std::to_string(fleet.ResidentJobs()) +
           ", the scan finds " + std::to_string(resident);
  }
  for (size_t i = 0; i < fleet.NumNodes(); ++i) {
    std::vector<AppId>& expected = per_node[i];
    if (fleet.node_status(i).health != NodeHealth::kAlive) {
      if (!expected.empty()) {
        return "jobs resident on down node " + std::to_string(i);
      }
      continue;
    }
    // The node runs exactly its residents plus its quarantined zombies.
    const ClusterNode& node = *fleet.node(i);
    expected.insert(expected.end(), node.quarantined_apps().begin(),
                    node.quarantined_apps().end());
    std::vector<AppId> actual = node.machine().ListApps();
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (actual != expected) {
      return "node " + std::to_string(i) + " runs " +
             std::to_string(actual.size()) + " apps, the scan places " +
             std::to_string(expected.size());
    }
  }
  return "";
}

TEST(FleetTest, LiveStateMatchesAFullLedgerScan) {
  // Three 180-epoch days of a fault-armed fleet that takes every path in
  // and out of residency: lifetimes, admission and overload shedding,
  // migrations and rollbacks, background crashes and a daily crash wave.
  // Arrivals run hot in the first half of each day and cool in the second.
  constexpr size_t kNodes = 32;
  constexpr int kDayEpochs = 180;
  const std::vector<WorkloadDescriptor> catalog = AllTable2Benchmarks();
  for (uint32_t threads : {1u, 2u}) {
    FleetParams params = QuietFleetParams();
    params.parallel.num_threads = threads;
    params.manager.slo.enabled = true;
    params.shed_unfairness_threshold = 0.45;
    params.crash_recovery_epochs = 8;
    FaultInjector injector(0x11FE57A7E);
    for (std::string_view point : {fault_points::kNodeCrash,
                                   fault_points::kNodeSlow,
                                   fault_points::kNodeBlackout}) {
      FaultSpec spec;
      spec.probability = point == fault_points::kNodeCrash ? 0.0005 : 0.003;
      injector.Arm(point, spec);
    }
    params.injector = &injector;
    FleetController fleet(kNodes, params);
    Rng rng(0x11FE);
    std::vector<JobState> states;
    std::string mismatch;
    for (int epoch = 0; epoch < 3 * kDayEpochs && mismatch.empty();
         ++epoch) {
      const bool hot = epoch % kDayEpochs < kDayEpochs / 2;
      const uint64_t arrivals = rng.NextUint64(hot ? 7 : 3);
      for (uint64_t a = 0; a < arrivals && mismatch.empty(); ++a) {
        FleetJobSpec spec;
        if (rng.NextUint64(6) == 0) {
          spec.workload = Memcached();
          spec.latency_critical = true;
          spec.offered_rps = 15000.0;
        } else {
          spec.workload = catalog[rng.NextUint64(catalog.size())];
        }
        spec.cores = rng.NextUint64(2) == 0 ? 2 : 4;
        spec.lifetime_epochs = 30 + static_cast<int>(rng.NextUint64(91));
        (void)fleet.Submit(spec);
        mismatch = LiveStateMismatch(fleet, states);
      }
      if (epoch % kDayEpochs == 45) {
        for (int k = 0; k < 4 && mismatch.empty(); ++k) {
          fleet.CrashNode(rng.NextUint64(kNodes));
          mismatch = LiveStateMismatch(fleet, states);
        }
      }
      if (mismatch.empty()) {
        fleet.RunEpoch();
        mismatch = LiveStateMismatch(fleet, states);
      }
      EXPECT_EQ(mismatch, "") << "threads " << threads << ", epoch " << epoch;
    }
    const FleetCounters& c = fleet.counters();
    EXPECT_EQ(c.invariant_violations, 0u) << fleet.first_violation();
    EXPECT_EQ(fleet.epoch(), static_cast<uint64_t>(3 * kDayEpochs));
    // Every transition the live list must follow happened.
    EXPECT_GT(c.completed, 0u);
    EXPECT_GT(c.shed_admission, 0u);
    EXPECT_GT(c.shed_overload, 0u);
    EXPECT_GT(c.migrations_completed, 0u);
    EXPECT_GT(c.migration_rollbacks, 0u);
    EXPECT_GT(c.lost_to_crash, 0u);
  }
}

TEST(FleetScenarioTest, RobustnessScenarioMigratesRecoversAndConserves) {
  // The copartctl `fleet` demo at 1/4 scale: diurnal arrivals, background
  // faults, one 10% crash wave. Everything notable must occur at least
  // once, and the books must balance on every epoch.
  FleetScenarioConfig config;
  config.num_nodes = 64;
  config.epochs = 120;
  config.job_arrivals.base_rate_rps = 0.15 * 64.0;
  config.crash_wave_epoch = 30;
  config.crash_probability = 0.0002;
  config.slow_probability = 0.002;
  config.blackout_probability = 0.002;
  Observability obs;
  config.obs = &obs;
  static constexpr double kErrorEdges[] = {-0.2, -0.1, -0.05, 0.0,
                                           0.05, 0.1,  0.2,   0.5};
  const Histogram* prediction_error = obs.metrics.GetHistogram(
      "copart.fleet.migration.prediction_error", kErrorEdges);
  const FleetScenarioResult result = RunFleetScenario(config);
  EXPECT_EQ(result.counters.invariant_violations, 0u);
  EXPECT_TRUE(result.first_violation.empty()) << result.first_violation;
  EXPECT_GE(result.counters.crashes, 6u);  // The wave alone kills 6.
  EXPECT_GE(result.counters.reboots, 6u);
  EXPECT_GE(result.counters.migrations_completed, 1u);
  EXPECT_GE(result.counters.migration_rollbacks, 1u);
  // Every completed move was judged on a measurement; a measured verdict
  // that failed ends in a rollback, a bounce or a shed.
  EXPECT_GE(prediction_error->count(), result.counters.migrations_completed);
  EXPECT_LE(prediction_error->count(),
            result.counters.migrations_completed +
                result.counters.migration_rollbacks +
                result.counters.migration_failures);
  EXPECT_GE(result.recovery_epochs, 0);
  EXPECT_EQ(result.counters.submitted,
            result.resident_jobs + result.counters.completed +
                result.counters.shed_total() + result.counters.lost_to_crash);
}

TEST(FleetScenarioTest, SummaryIsBitIdenticalAcrossThreadCounts) {
  auto run = [](uint32_t threads) {
    FleetScenarioConfig config;
    config.num_nodes = 16;
    config.epochs = 50;
    config.crash_wave_epoch = 15;
    config.slow_probability = 0.004;
    config.blackout_probability = 0.004;
    config.parallel.num_threads = threads;
    return RunFleetScenario(config).DeterministicSummary();
  };
  // The caller ticks nodes beside threads - 1 pool workers, so 2, 3 and 4
  // threads pin one, two and three workers next to it.
  const std::string serial = run(1);
  for (uint32_t threads : {2u, 3u, 4u}) {
    EXPECT_EQ(serial, run(threads)) << "threads " << threads;
  }
  EXPECT_FALSE(serial.empty());
}

FleetParams PlacementParams(PlacementPolicy placement) {
  FleetParams params = QuietFleetParams();
  params.placement = placement;
  return params;
}

// Placement alone: no migration and no overload shedding, so every job stays
// on the node the front door picked.
FleetParams PlacementOnlyParams(PlacementPolicy placement) {
  FleetParams params = PlacementParams(placement);
  params.max_migrations_per_epoch = 0;
  params.shed_unfairness_threshold = std::numeric_limits<double>::infinity();
  return params;
}

int NodeOf(const FleetController& fleet, const Result<FleetJobId>& id) {
  return id.ok() ? fleet.jobs()[*id].node : -1;
}

TEST(FleetPlacementTest, SubmitRespectsCapacity) {
  FleetController fleet(2, PlacementParams(PlacementPolicy::kFirstFit));
  // 8 jobs x 4 cores fill both 16-core nodes, node 0 first.
  for (int i = 0; i < 8; ++i) {
    const Result<FleetJobId> id = fleet.Submit(BatchJob(Swaptions(), 4));
    ASSERT_TRUE(id.ok()) << i;
    EXPECT_EQ(NodeOf(fleet, id), i < 4 ? 0 : 1) << i;
  }
  const Result<FleetJobId> overflow = fleet.Submit(BatchJob(Swaptions(), 4));
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fleet.counters().shed_admission, 1u);
  EXPECT_EQ(fleet.ResidentJobs(), 8u);
}

TEST(FleetPlacementTest, FirstFitPacksLeastLoadedSpreads) {
  FleetController first_fit(2, PlacementParams(PlacementPolicy::kFirstFit));
  EXPECT_EQ(NodeOf(first_fit, first_fit.Submit(BatchJob(Swaptions(), 4))), 0);
  // First fit keeps packing node 0.
  EXPECT_EQ(NodeOf(first_fit, first_fit.Submit(BatchJob(Swaptions(), 4))), 0);

  FleetController least_loaded(2,
                               PlacementParams(PlacementPolicy::kLeastLoaded));
  EXPECT_EQ(
      NodeOf(least_loaded, least_loaded.Submit(BatchJob(Swaptions(), 4))), 0);
  // Least loaded spreads to the empty node.
  EXPECT_EQ(
      NodeOf(least_loaded, least_loaded.Submit(BatchJob(Swaptions(), 4))), 1);
}

TEST(FleetPlacementTest, EveryRuleSkipsNodesThatCannotHost) {
  for (PlacementPolicy placement :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kWhatIfBest}) {
    FleetController fleet(3, PlacementParams(placement));
    fleet.CrashNode(0);
    // The node that takes the 14-core job is left with 2 free cores, too
    // few for a 4-core job, so only the third node can host the next one.
    const int filled = NodeOf(fleet, fleet.Submit(BatchJob(Swaptions(), 14)));
    ASSERT_TRUE(filled == 1 || filled == 2) << filled;
    EXPECT_EQ(NodeOf(fleet, fleet.Submit(BatchJob(Cg(), 4))), 3 - filled)
        << PlacementPolicyName(placement);
  }
}

TEST(FleetPlacementTest, WhatIfPlacementAvoidsCacheContention) {
  FleetController fleet(2, PlacementParams(PlacementPolicy::kWhatIfBest));
  // Seed node 0 with a cache-hungry job and node 1 with an insensitive one
  // (same core load on both). Empty nodes tie, and ties go to node 0.
  ASSERT_EQ(NodeOf(fleet, fleet.Submit(BatchJob(Sp(), 4))), 0);
  ASSERT_EQ(NodeOf(fleet, fleet.Submit(BatchJob(Swaptions(), 4))), 1);
  // A second cache-hungry job: the what-if model must route it AWAY from
  // the node already full of cache pressure.
  EXPECT_EQ(NodeOf(fleet, fleet.Submit(BatchJob(WaterNsquared(), 4))), 1);
}

TEST(FleetPlacementTest, WhatIfPlacementIsThreadCountInvariant) {
  const std::vector<WorkloadDescriptor> arrivals = {
      WaterNsquared(), Cg(),  Sp(),       Swaptions(), WaterSpatial(),
      OceanCp(),       Ep(),  OceanNcp(), Raytrace(),  Ft(),
      Fmm(),           Ep()};
  struct Run {
    std::vector<int> nodes;
    double mean_node_unfairness = 0.0;
  };
  const auto run = [&](uint32_t threads) {
    FleetParams params = PlacementParams(PlacementPolicy::kWhatIfBest);
    params.parallel.num_threads = threads;
    FleetController fleet(4, params);
    Run result;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      result.nodes.push_back(
          NodeOf(fleet, fleet.Submit(BatchJob(arrivals[i], 4))));
      // The second half arrives on nodes the first half has been running.
      if (i == arrivals.size() / 2) {
        for (int e = 0; e < 10; ++e) {
          fleet.RunEpoch();
        }
      }
    }
    for (int e = 0; e < 10; ++e) {
      fleet.RunEpoch();
    }
    result.mean_node_unfairness = fleet.MeanNodeUnfairness();
    EXPECT_EQ(fleet.counters().invariant_violations, 0u);
    return result;
  };
  const Run serial = run(1);
  const Run threaded = run(4);
  EXPECT_EQ(serial.nodes, threaded.nodes);
  EXPECT_EQ(serial.mean_node_unfairness, threaded.mean_node_unfairness);
  for (int node : serial.nodes) {
    EXPECT_GE(node, 0);
  }
}

TEST(FleetPlacementTest, WhatIfBeatsFirstFitOnASkewedArrivalSequence) {
  // Small 2-core jobs so first-fit stacks EIGHT jobs — five of them
  // cache-hungry, with way demand far beyond one node's 11 ways — onto
  // node 0 while node 1 idles with the insensitive tail. Per-node CoPart
  // cannot conjure capacity; placement has to. What-if interleaves the
  // hungry jobs across nodes.
  const std::vector<WorkloadDescriptor> arrivals = {
      WaterNsquared(), WaterSpatial(), Sp(),  OceanNcp(), Raytrace(),
      Swaptions(),     Ep(),           Ep(),  Swaptions(), Ep()};
  auto run = [&](PlacementPolicy placement) {
    FleetController fleet(2, PlacementOnlyParams(placement));
    for (const WorkloadDescriptor& workload : arrivals) {
      CHECK(fleet.Submit(BatchJob(workload, 2)).ok());
    }
    for (int i = 0; i < 200; ++i) {
      fleet.RunEpoch();
    }
    const std::vector<double> slowdowns = fleet.AllSlowdowns();
    double sum = 0.0;
    for (double slowdown : slowdowns) {
      sum += slowdown;
    }
    return sum / static_cast<double>(slowdowns.size());
  };
  const double first_fit_mean = run(PlacementPolicy::kFirstFit);
  const double whatif_mean = run(PlacementPolicy::kWhatIfBest);
  EXPECT_LT(whatif_mean, first_fit_mean)
      << "what-if " << whatif_mean << " vs first-fit " << first_fit_mean;
}

TEST(FleetPlacementTest, FleetMetricsAggregateAndExport) {
  FleetController fleet(2, QuietFleetParams());
  for (const WorkloadDescriptor& workload :
       {WaterNsquared(), Cg(), Sp(), Swaptions()}) {
    ASSERT_TRUE(fleet.Submit(BatchJob(workload, 4)).ok());
  }
  // Least-loaded leaves 8 free cores per node: a 16-core job is refused.
  EXPECT_FALSE(fleet.Submit(BatchJob(Ep(), 16)).ok());
  for (int e = 0; e < 10; ++e) {
    fleet.RunEpoch();
  }
  EXPECT_EQ(fleet.AllSlowdowns().size(), 4u);
  EXPECT_GE(fleet.MeanNodeUnfairness(), 0.0);
  MetricsRegistry metrics;
  fleet.ExportMetrics(&metrics);
  EXPECT_EQ(metrics.GetCounter("copart.fleet.jobs.submitted")->value(), 5u);
  EXPECT_EQ(metrics.GetCounter("copart.fleet.jobs.shed_admission")->value(),
            1u);
  EXPECT_EQ(metrics.GetCounter("copart.fleet.invariant.checks")->value(),
            10u);
  EXPECT_EQ(metrics.GetCounter("copart.fleet.invariant.violations")->value(),
            0u);
  EXPECT_EQ(metrics.GetGauge("copart.fleet.jobs.resident")->value(), 4.0);
  EXPECT_EQ(metrics.GetGauge("copart.fleet.nodes.alive")->value(), 2.0);
  EXPECT_EQ(metrics.GetGauge("copart.fleet.epoch")->value(), 10.0);
  EXPECT_EQ(metrics.GetGauge("copart.fleet.mean_node_unfairness")->value(),
            fleet.MeanNodeUnfairness());
  // Null registry: a no-op, not a crash.
  fleet.ExportMetrics(nullptr);
}

}  // namespace
}  // namespace copart
