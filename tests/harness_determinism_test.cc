// The headline guarantee of the parallel sweep engine: every fan-out site
// produces bit-identical results regardless of the worker thread count.
// Each comparison is EXPECT_EQ on raw doubles — no tolerance.
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/parallel.h"
#include "core/resource_manager.h"
#include "harness/chaos.h"
#include "harness/experiment.h"
#include "harness/governor_ab.h"
#include "harness/heatmap.h"
#include "harness/mix.h"
#include "harness/replication.h"
#include "harness/sensing.h"
#include "harness/serve.h"
#include "harness/static_oracle.h"
#include "machine/simulated_machine.h"
#include "machine_reference.h"
#include "obs/obs.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

constexpr uint32_t kThreadCounts[] = {2, 8};

TEST(HarnessDeterminismTest, SoloHeatmapIsBitIdenticalAcrossThreadCounts) {
  const SoloHeatmap serial = SweepSoloPerformance(
      WaterNsquared(), MachineConfig{}, 4, ParallelConfig{.num_threads = 1});
  for (uint32_t threads : kThreadCounts) {
    const SoloHeatmap parallel =
        SweepSoloPerformance(WaterNsquared(), MachineConfig{}, 4,
                             ParallelConfig{.num_threads = threads});
    ASSERT_EQ(parallel.normalized_ips.size(), serial.normalized_ips.size());
    for (size_t w = 0; w < serial.normalized_ips.size(); ++w) {
      for (size_t m = 0; m < serial.normalized_ips[w].size(); ++m) {
        EXPECT_EQ(parallel.normalized_ips[w][m], serial.normalized_ips[w][m])
            << "threads=" << threads << " cell (" << w << ", " << m << ")";
      }
    }
    EXPECT_EQ(parallel.stats.cells_completed, serial.stats.cells_completed);
  }
}

TEST(HarnessDeterminismTest, FairnessGridIsBitIdenticalAcrossThreadCounts) {
  const WorkloadMix mix = MakeMix(MixFamily::kHighBoth, 4);
  // A trimmed grid keeps the test quick while still spanning several cells.
  const std::vector<std::vector<uint32_t>> llc_configs = {
      {5, 3, 2, 1}, {3, 3, 3, 2}, {8, 1, 1, 1}};
  const std::vector<std::vector<uint32_t>> mba_configs = {
      {100, 100, 100, 100}, {20, 10, 100, 10}};
  const FairnessGrid serial =
      SweepMixFairness(mix, llc_configs, mba_configs, MachineConfig{}, 4,
                       ParallelConfig{.num_threads = 1});
  for (uint32_t threads : kThreadCounts) {
    const FairnessGrid parallel =
        SweepMixFairness(mix, llc_configs, mba_configs, MachineConfig{}, 4,
                         ParallelConfig{.num_threads = threads});
    EXPECT_EQ(parallel.nopart_unfairness, serial.nopart_unfairness)
        << "threads=" << threads;
    ASSERT_EQ(parallel.normalized_unfairness.size(),
              serial.normalized_unfairness.size());
    for (size_t l = 0; l < serial.normalized_unfairness.size(); ++l) {
      for (size_t m = 0; m < serial.normalized_unfairness[l].size(); ++m) {
        EXPECT_EQ(parallel.normalized_unfairness[l][m],
                  serial.normalized_unfairness[l][m])
            << "threads=" << threads << " cell (" << l << ", " << m << ")";
      }
    }
  }
}

TEST(HarnessDeterminismTest, ReplicationIsBitIdenticalAcrossThreadCounts) {
  const WorkloadMix mix = MakeMix(MixFamily::kHighLlc, 4);
  const PolicyFactory factory = StandardPolicies()[0].second;
  ExperimentConfig config;
  config.duration_sec = 5.0;
  config.parallel.num_threads = 1;
  const ReplicatedResult serial =
      RunReplicatedExperiment(mix, factory, config, /*replicas=*/4);
  for (uint32_t threads : kThreadCounts) {
    config.parallel.num_threads = threads;
    const ReplicatedResult parallel =
        RunReplicatedExperiment(mix, factory, config, /*replicas=*/4);
    EXPECT_EQ(parallel.unfairness.mean, serial.unfairness.mean)
        << "threads=" << threads;
    EXPECT_EQ(parallel.unfairness.stddev, serial.unfairness.stddev)
        << "threads=" << threads;
    EXPECT_EQ(parallel.unfairness.min, serial.unfairness.min);
    EXPECT_EQ(parallel.unfairness.max, serial.unfairness.max);
    EXPECT_EQ(parallel.throughput_geomean.mean,
              serial.throughput_geomean.mean)
        << "threads=" << threads;
    EXPECT_EQ(parallel.throughput_geomean.stddev,
              serial.throughput_geomean.stddev);
  }
}

TEST(HarnessDeterminismTest, StaticOracleIsBitIdenticalAcrossThreadCounts) {
  const WorkloadMix mix = MakeMix(MixFamily::kHighLlc, 4);
  MachineConfig machine_config;
  machine_config.ips_noise_sigma = 0.0;
  SimulatedMachine machine(machine_config);
  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : mix.apps) {
    Result<AppId> app = machine.LaunchApp(descriptor, 4);
    ASSERT_TRUE(app.ok()) << app.status().ToString();
    apps.push_back(*app);
  }
  const ResourcePool pool{.first_way = 0, .num_ways = 11,
                          .max_mba_percent = 100};
  const StaticOracleResult serial = FindStaticOracleState(
      machine, apps, pool, ParallelConfig{.num_threads = 1});
  for (uint32_t threads : kThreadCounts) {
    const StaticOracleResult parallel = FindStaticOracleState(
        machine, apps, pool, ParallelConfig{.num_threads = threads});
    EXPECT_EQ(parallel.best_state.ToString(), serial.best_state.ToString())
        << "threads=" << threads;
    EXPECT_EQ(parallel.best_unfairness, serial.best_unfairness)
        << "threads=" << threads;
    EXPECT_EQ(parallel.states_evaluated, serial.states_evaluated);
  }
}

// RunExperiment's control loop under CoPart (launch and admit every app,
// then one AdvanceTime and one Tick per control period), with the machine's
// solve checked against the reference (machine_reference.h) after every
// epoch. Returns each app's whole-run IPS, empty after a mismatch.
std::vector<double> CoPartIpsCheckedEveryEpoch(const WorkloadMix& mix,
                                               const ExperimentConfig& config) {
  const uint32_t cores =
      config.machine.num_cores / static_cast<uint32_t>(mix.apps.size());
  SimulatedMachine machine(config.machine);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : mix.apps) {
    Result<AppId> app = machine.LaunchApp(descriptor, cores);
    CHECK(app.ok()) << app.status().ToString();
    apps.push_back(*app);
  }
  ExperimentPolicy policy = CoPartFactory()(machine, apps, config.pool);
  ResourceManager manager(&resctrl, &monitor, policy.params,
                          std::move(policy.policy));
  manager.SetResourcePool(config.pool);
  for (const AppId app : apps) {
    EXPECT_TRUE(manager.AddApp(app).ok()) << mix.name;
  }
  const int periods = static_cast<int>(
      std::llround(config.duration_sec / config.control_period_sec));
  for (int period = 0; period < periods; ++period) {
    machine.AdvanceTime(config.control_period_sec);
    const std::string mismatch = machine_reference::SolveMismatch(machine);
    if (!mismatch.empty()) {
      ADD_FAILURE() << mix.name << " period " << period << ": " << mismatch;
      return {};
    }
    manager.Tick();
  }
  std::vector<double> ips;
  for (const AppId app : apps) {
    ips.push_back(machine.Counters(app).instructions / machine.now());
  }
  return ips;
}

TEST(HarnessDeterminismTest, ExperimentMatchesTheReferenceEveryEpoch) {
  // The epoch fast path (DESIGN.md §12) must be invisible to results: a
  // managed experiment — partitioning churn, noise — lands on the exact
  // same doubles whether the machine ticks incrementally (the default) or
  // solves every epoch, and every epoch's solve equals the reference.
  const WorkloadMix mix = MakeMix(MixFamily::kHighBoth, 4);
  ExperimentConfig config;
  config.duration_sec = 10.0;
  const ExperimentResult reference = RunExperiment(mix, CoPartFactory(), config);

  ExperimentConfig full_solve = config;
  full_solve.machine.incremental_epochs = false;
  const ExperimentResult result =
      RunExperiment(mix, CoPartFactory(), full_solve);
  EXPECT_EQ(result.unfairness, reference.unfairness);
  EXPECT_EQ(result.throughput_geomean, reference.throughput_geomean);
  ASSERT_EQ(result.slowdowns.size(), reference.slowdowns.size());
  for (size_t i = 0; i < reference.slowdowns.size(); ++i) {
    EXPECT_EQ(result.slowdowns[i], reference.slowdowns[i]) << "app " << i;
  }

  // The same run again, checked epoch by epoch. No Table-2 benchmark has
  // phases, so a second run adds a phased app to the mix: its crossings
  // re-derive the machine's cached phase parameters under control.
  WorkloadMix phased = mix;
  phased.name += "+PSC";
  phased.apps.push_back(PhasedScanCompute(/*period_sec=*/1.0));
  for (const WorkloadMix& checked : {mix, phased}) {
    const ExperimentResult want =
        RunExperiment(checked, CoPartFactory(), config);
    const std::vector<double> ips = CoPartIpsCheckedEveryEpoch(checked, config);
    ASSERT_EQ(ips.size(), want.avg_ips.size()) << checked.name;
    for (size_t i = 0; i < ips.size(); ++i) {
      EXPECT_EQ(ips[i], want.avg_ips[i]) << checked.name << " app " << i;
    }
  }
}

TEST(HarnessDeterminismTest, ChaosSuiteIsBitIdenticalAcrossThreadCounts) {
  // Fault schedules, app churn, backoff jitter, quarantine streaks — the
  // whole hardened control loop must still derive exclusively from the
  // per-schedule seed. A small suite keeps the test quick; the full 200
  // schedules run in core_chaos_property_test.cc.
  ChaosSuiteConfig config;
  config.num_schedules = 8;
  const ChaosSuiteResult serial =
      RunChaosSuite(config, ParallelConfig{.num_threads = 1});
  for (uint32_t threads : kThreadCounts) {
    const ChaosSuiteResult parallel =
        RunChaosSuite(config, ParallelConfig{.num_threads = threads});
    EXPECT_EQ(parallel.num_passed, serial.num_passed)
        << "threads=" << threads;
    EXPECT_EQ(parallel.injected_failures, serial.injected_failures)
        << "threads=" << threads;
    EXPECT_EQ(parallel.actuation_failures, serial.actuation_failures)
        << "threads=" << threads;
    EXPECT_EQ(parallel.rollbacks, serial.rollbacks) << "threads=" << threads;
    EXPECT_EQ(parallel.degraded_entries, serial.degraded_entries)
        << "threads=" << threads;
    EXPECT_EQ(parallel.degraded_recoveries, serial.degraded_recoveries)
        << "threads=" << threads;
    EXPECT_EQ(parallel.quarantines, serial.quarantines)
        << "threads=" << threads;
    ASSERT_EQ(parallel.failures.size(), serial.failures.size());
    for (size_t i = 0; i < serial.failures.size(); ++i) {
      EXPECT_EQ(parallel.failures[i].seed, serial.failures[i].seed);
      EXPECT_EQ(parallel.failures[i].failure, serial.failures[i].failure);
      EXPECT_EQ(parallel.failures[i].failure_period,
                serial.failures[i].failure_period);
    }
  }
}

TEST(HarnessDeterminismTest,
     ChaosSuiteMetricsAreBitIdenticalAcrossThreadCounts) {
  // The merged metrics registry (manager hardening counters + fault
  // injector hit counts, one private registry per schedule, merged serially
  // in index order) must serialize byte-identically for every thread count.
  // Only the deterministic dump is compared: wall-clock gauges measure the
  // host and are excluded from the contract by design.
  ChaosSuiteConfig config;
  config.num_schedules = 8;
  MetricsRegistry serial_metrics;
  const ChaosSuiteResult serial = RunChaosSuite(
      config, ParallelConfig{.num_threads = 1}, &serial_metrics);
  const std::string serial_dump =
      serial_metrics.DumpJson(/*deterministic_only=*/true);
  EXPECT_GT(serial_metrics.size(), 0u);
  for (uint32_t threads : kThreadCounts) {
    MetricsRegistry parallel_metrics;
    const ChaosSuiteResult parallel = RunChaosSuite(
        config, ParallelConfig{.num_threads = threads}, &parallel_metrics);
    EXPECT_EQ(parallel.num_passed, serial.num_passed)
        << "threads=" << threads;
    EXPECT_EQ(parallel_metrics.DumpJson(/*deterministic_only=*/true),
              serial_dump)
        << "threads=" << threads;
  }
}

TEST(HarnessDeterminismTest,
     SensingComparisonIsByteIdenticalAcrossRunsAndThreadCounts) {
  // The sensing A/B table (exact vs estimated vs noisy cells, fanned out
  // over ParallelMap) and its CSV export must be pure functions of the
  // config: per-seed noise streams, SHARDS admission hashes, and the
  // stop-at-target feed schedule all derive from pinned RNG forks, so the
  // rendered artifacts are byte-identical across repeats AND --threads.
  SensingConfig config;
  config.duration_sec = 25.0;  // Trimmed: full runs live in the accuracy suite.

  auto run_once = [&](uint32_t threads) {
    SensingConfig cell = config;
    cell.parallel.num_threads = threads;
    const SensingComparison comparison = RunSensingComparison(cell);
    char path[] = "/tmp/copart_sensing_det_XXXXXX";
    const int fd = mkstemp(path);
    CHECK_GE(fd, 0);
    close(fd);
    CHECK(WriteSensingCsv(comparison, path).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    std::remove(path);
    return FormatSensingTable(comparison) + contents.str();
  };

  const std::string reference = run_once(1);
  EXPECT_GT(reference.size(), 0u);
  EXPECT_EQ(run_once(1), reference) << "repeat run diverged";
  for (uint32_t threads : kThreadCounts) {
    EXPECT_EQ(run_once(threads), reference) << "threads=" << threads;
  }
}

TEST(HarnessDeterminismTest,
     ExperimentTraceAndAuditAreByteIdenticalAcrossRuns) {
  // The observability artifacts of a managed experiment — Chrome trace,
  // audit log, deterministic metrics — are pure functions of the seed:
  // repeated runs must serialize byte-for-byte the same documents. (Spans
  // carry virtual-time durations, never wall clock, which is what makes
  // this possible; DESIGN.md §8.)
  const WorkloadMix mix = MakeMix(MixFamily::kHighLlc, 4);
  ExperimentConfig config;
  config.duration_sec = 10.0;
  auto run_once = [&](Observability& obs) {
    config.obs = &obs;
    (void)RunExperiment(mix, CoPartFactory(), config);
  };
  Observability reference;
  run_once(reference);
  const std::string reference_trace = reference.tracer.ChromeTraceJson();
  const std::string reference_audit = reference.audit.ToJson();
  EXPECT_GT(reference.tracer.event_count(), 0u);
  EXPECT_GT(reference.audit.size(), 0u);
  for (int repeat = 0; repeat < 2; ++repeat) {
    Observability obs;
    run_once(obs);
    EXPECT_EQ(obs.tracer.ChromeTraceJson(), reference_trace)
        << "repeat=" << repeat;
    EXPECT_EQ(obs.audit.ToJson(), reference_audit) << "repeat=" << repeat;
    EXPECT_EQ(obs.metrics.DumpJson(/*deterministic_only=*/true),
              reference.metrics.DumpJson(/*deterministic_only=*/true))
        << "repeat=" << repeat;
  }
}

TEST(HarnessDeterminismTest,
     ServeArtifactsAreByteIdenticalAcrossRunsAndThreadCounts) {
  // Every artifact the serve harness can export — per-period CSV, Chrome
  // trace, audit log, deterministic metrics — must be a pure function of
  // the scenario seed: byte-identical across repeated runs AND across
  // --threads values (the three comparison cells fan out in parallel).
  ServeScenarioConfig config = Section63ServeScenario();
  config.duration_sec = 10.0;  // Trimmed: the full trace runs elsewhere.

  auto csv_string = [](const ServeScenarioResult& result) {
    char path[] = "/tmp/copart_serve_det_XXXXXX";
    const int fd = mkstemp(path);
    CHECK_GE(fd, 0);
    close(fd);
    CHECK(WriteServeCsv(result, path).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    std::remove(path);
    return contents.str();
  };

  struct Artifacts {
    std::string csv, trace, audit, metrics;
  };
  auto run_once = [&](uint32_t threads) {
    Observability obs;
    ServeScenarioConfig cell = config;
    cell.obs = &obs;
    const ServeComparisonResult comparison = RunServeComparison(
        cell, ParallelConfig{.num_threads = threads});
    Artifacts artifacts;
    artifacts.csv = csv_string(comparison.copart) +
                    csv_string(comparison.equal_share) +
                    csv_string(comparison.no_part);
    artifacts.trace = obs.tracer.ChromeTraceJson();
    artifacts.audit = obs.audit.ToJson();
    artifacts.metrics = obs.metrics.DumpJson(/*deterministic_only=*/true);
    return artifacts;
  };

  const Artifacts reference = run_once(1);
  EXPECT_GT(reference.csv.size(), 0u);
  EXPECT_GT(reference.audit.size(), 2u);  // More than "[]".
  EXPECT_GT(reference.metrics.size(), 2u);
  const Artifacts repeat = run_once(1);
  EXPECT_EQ(repeat.csv, reference.csv);
  EXPECT_EQ(repeat.trace, reference.trace);
  EXPECT_EQ(repeat.audit, reference.audit);
  EXPECT_EQ(repeat.metrics, reference.metrics);
  for (uint32_t threads : kThreadCounts) {
    const Artifacts parallel = run_once(threads);
    EXPECT_EQ(parallel.csv, reference.csv) << "threads=" << threads;
    EXPECT_EQ(parallel.trace, reference.trace) << "threads=" << threads;
    EXPECT_EQ(parallel.audit, reference.audit) << "threads=" << threads;
    EXPECT_EQ(parallel.metrics, reference.metrics) << "threads=" << threads;
  }
}

TEST(HarnessDeterminismTest,
     GovernorAbArtifactsAreByteIdenticalAcrossThreadCounts) {
  // The governor A/B sweep (every registered SloGovernor x four serving
  // scenarios, fanned out over ParallelMap) and both of its exports must
  // be pure functions of the scenario seeds: the learned governors carry
  // per-run state (MPC correction cells, bandit arm counts) but no RNG of
  // their own, so the JSON and CSV render byte-identically regardless of
  // --threads.
  auto run_once = [](uint32_t threads) {
    GovernorAbConfig config;
    config.parallel.num_threads = threads;
    const GovernorAbResult result = RunGovernorAb(config);
    char path[] = "/tmp/copart_governor_ab_det_XXXXXX";
    const int fd = mkstemp(path);
    CHECK_GE(fd, 0);
    close(fd);
    CHECK(WriteGovernorAbCsv(result, path).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    std::remove(path);
    return GovernorAbToJson(result) + contents.str();
  };

  const std::string reference = run_once(1);
  EXPECT_GT(reference.size(), 0u);
  for (uint32_t threads : kThreadCounts) {
    EXPECT_EQ(run_once(threads), reference) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace copart
