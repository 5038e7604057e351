// Fleet chaos suite (ctest label `chaos`): 200 seeded fault schedules —
// crashes, crash waves, slow nodes, actuation blackouts, overload, live
// migrations with verify/rollback — against the fleet controller's
// robustness invariants:
//
//   - job conservation: submitted == resident + completed + shed + lost,
//     with the per-bucket counters in agreement, on EVERY epoch;
//   - no double admission: a resident job lives on exactly one node, and
//     each alive node's machine runs exactly the fleet's resident jobs
//     plus its quarantined zombies (the census);
//   - LC way floor: every resident latency-critical job on a surviving
//     node holds at least slo.lc_way_floor LLC ways;
//   - determinism: the fleet scenario's metrics are bit-identical across
//     --threads values.
//
// Schedules fan out via the outer ParallelMap; every inner fleet ticks
// with num_threads = 1 (nested parallel regions are forbidden by
// common/parallel), so the suite is deterministic end to end.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "common/fault_injector.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "harness/fleet.h"
#include "obs/obs.h"
#include "workload/workload.h"

namespace copart {
namespace {

constexpr int kSchedules = 200;
constexpr uint64_t kBaseSeed = 0xF1EE7C4A05ULL;

struct ScheduleOutcome {
  uint64_t seed = 0;
  uint64_t invariant_violations = 0;
  std::string first_violation;
  int lc_floor_violations = 0;
  int terminal_state_violations = 0;
  bool ran_epochs = false;
};

ScheduleOutcome RunSchedule(uint64_t seed) {
  ScheduleOutcome outcome;
  outcome.seed = seed;
  Rng rng(seed);

  FleetParams params;
  params.seed = rng.NextUint64();
  params.machine.ips_noise_sigma = 0.005;
  params.manager.slo.enabled = true;
  params.parallel.num_threads = 1;  // Inner fleet: serial (nested region).
  params.crash_recovery_epochs = 3 + static_cast<int>(rng.NextUint64(8));
  params.fault_window_epochs = 4 + static_cast<int>(rng.NextUint64(10));
  params.migrate_trend_window = 3 + static_cast<int>(rng.NextUint64(5));
  params.verify_window_epochs = 2 + static_cast<int>(rng.NextUint64(5));
  params.shed_trend_window = 6 + static_cast<int>(rng.NextUint64(8));
  // A quarter of the schedules squeeze the shed threshold hard enough
  // that overload shedding actually fires.
  if (rng.NextUint64(4) == 0) {
    params.shed_unfairness_threshold = 0.25;
    params.migrate_unfairness_threshold = 0.20;
  }

  FaultInjector injector(rng.NextUint64());
  const auto arm = [&injector](std::string_view point, double probability) {
    FaultSpec spec;
    spec.probability = probability;
    injector.Arm(point, spec);
  };
  arm(fault_points::kNodeCrash,
      0.001 + 0.004 * static_cast<double>(rng.NextUint64(1000)) / 1000.0);
  arm(fault_points::kNodeSlow,
      0.005 * static_cast<double>(rng.NextUint64(1000)) / 1000.0);
  arm(fault_points::kNodeBlackout,
      0.005 * static_cast<double>(rng.NextUint64(1000)) / 1000.0);
  params.injector = &injector;

  const size_t num_nodes = 6 + rng.NextUint64(7);
  FleetController fleet(num_nodes, params);

  const std::vector<WorkloadDescriptor> catalog = AllTable2Benchmarks();
  const int epochs = 50 + static_cast<int>(rng.NextUint64(31));
  const int wave_epoch = 10 + static_cast<int>(rng.NextUint64(20));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    // 0-2 arrivals per epoch; ~1 in 6 is latency-critical.
    const uint64_t arrivals = rng.NextUint64(3);
    for (uint64_t a = 0; a < arrivals; ++a) {
      FleetJobSpec spec;
      if (rng.NextUint64(6) == 0) {
        spec.workload = Memcached();
        spec.latency_critical = true;
        spec.offered_rps = 15000.0;
      } else {
        spec.workload = catalog[rng.NextUint64(catalog.size())];
      }
      spec.cores = rng.NextUint64(2) == 0 ? 2 : 4;
      spec.lifetime_epochs = 5 + static_cast<int>(rng.NextUint64(40));
      (void)fleet.Submit(spec);  // Shedding is a legal, accounted outcome.
    }
    // A scripted wave on top of the background crash point.
    if (epoch == wave_epoch) {
      const size_t kills = 1 + rng.NextUint64(num_nodes / 3);
      for (size_t k = 0; k < kills; ++k) {
        fleet.CrashNode(rng.NextUint64(num_nodes));
      }
    }
    fleet.RunEpoch();
    outcome.ran_epochs = true;
  }

  outcome.invariant_violations = fleet.counters().invariant_violations;
  outcome.first_violation = fleet.first_violation();

  for (const FleetJob& job : fleet.jobs()) {
    if (job.state != JobState::kResident) {
      // Terminal jobs must have released their node slot.
      if (job.node != -1) {
        ++outcome.terminal_state_violations;
      }
      continue;
    }
    if (!job.spec.latency_critical) {
      continue;
    }
    // LC floor on surviving nodes: the governor plans at registration and
    // never hands back the floor, wherever the fleet placed the job.
    ClusterNode* node = fleet.node(job.node);
    if (node->manager().LcWays(job.app) < params.manager.slo.lc_way_floor) {
      ++outcome.lc_floor_violations;
    }
  }
  return outcome;
}

TEST(ClusterChaosTest, TwoHundredSeededSchedulesKeepEveryInvariant) {
  ParallelConfig parallel;  // Outer fan-out; inner fleets are serial.
  const std::vector<ScheduleOutcome> outcomes =
      ParallelMap<ScheduleOutcome>(parallel, kSchedules, [&](size_t s) {
        return RunSchedule(kBaseSeed + s);
      });
  ASSERT_EQ(outcomes.size(), static_cast<size_t>(kSchedules));
  for (const ScheduleOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ran_epochs);
    EXPECT_EQ(outcome.invariant_violations, 0u)
        << "seed " << outcome.seed << ": " << outcome.first_violation;
    EXPECT_EQ(outcome.lc_floor_violations, 0) << "seed " << outcome.seed;
    EXPECT_EQ(outcome.terminal_state_violations, 0)
        << "seed " << outcome.seed;
  }
}

TEST(ClusterChaosTest, ScheduleReplaysBitForBitFromItsSeed) {
  // Same seed, two independent runs: byte-identical accounting.
  const ScheduleOutcome a = RunSchedule(kBaseSeed + 17);
  const ScheduleOutcome b = RunSchedule(kBaseSeed + 17);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.first_violation, b.first_violation);
  EXPECT_EQ(a.lc_floor_violations, b.lc_floor_violations);
}

TEST(ClusterChaosTest, FleetMetricsAreBitIdenticalAcrossThreadCounts) {
  auto run = [](uint32_t threads) {
    Observability obs;
    FleetScenarioConfig config;
    config.num_nodes = 24;
    config.epochs = 60;
    config.job_arrivals.base_rate_rps = 4.0;
    config.crash_wave_epoch = 20;
    config.crash_probability = 0.0005;
    config.slow_probability = 0.004;
    config.blackout_probability = 0.004;
    config.parallel.num_threads = threads;
    config.obs = &obs;
    const FleetScenarioResult result = RunFleetScenario(config);
    // Summary + deterministic metrics + the full audit trail: every byte
    // the fleet reports must be independent of the worker count.
    return result.DeterministicSummary() +
           obs.metrics.DumpJson(/*deterministic_only=*/true) +
           obs.audit.ToJson();
  };
  const std::string serial = run(1);
  const std::string threaded = run(4);
  EXPECT_EQ(serial, threaded);
  EXPECT_FALSE(serial.empty());
}

}  // namespace
}  // namespace copart
