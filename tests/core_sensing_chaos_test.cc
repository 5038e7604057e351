// Chaos property of the realistic-sensing stack (DESIGN.md §10): with
// lognormal counter noise, stale reads, AND resctrl fault injection active
// at the same time, the latency-critical app's CLOS never drops below the
// configured way floor — not in the governor's plan, not in the actuated
// mask — no matter what the noisy miss estimates tell the classifier. The
// schedules also pin that every armed resctrl point was queried.
//
// Runs under `ctest -L chaos` as well as the default pass.
#include <array>
#include <cstdint>
#include <string_view>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/resource_manager.h"
#include "harness/serve.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

constexpr uint32_t kWayFloor = 2;

PmcSensingParams NoisySensing(uint64_t seed) {
  PmcSensingParams sensing;
  sensing.enabled = true;
  sensing.noise_sigma = 0.05;       // 2.5x the default sigma.
  sensing.stale_probability = 0.03;
  sensing.seed = seed;
  return sensing;
}

// The resctrl points every schedule arms: transient rejections first, then
// silent drops.
constexpr std::array<std::string_view, 4> kArmedPoints = {
    fault_points::kResctrlSetL3, fault_points::kResctrlSetMb,
    fault_points::kResctrlSetL3Silent, fault_points::kResctrlSetMbSilent};
using PointQueries = std::array<uint64_t, kArmedPoints.size()>;

void ArmResctrlFaults(FaultInjector& injector, double probability) {
  FaultSpec transient;
  transient.probability = probability;
  transient.burst_length = 2;
  FaultSpec silent;
  silent.probability = probability / 2.0;
  for (size_t p = 0; p < kArmedPoints.size(); ++p) {
    injector.Arm(kArmedPoints[p], p < 2 ? transient : silent);
  }
}

void AddPointQueries(const FaultInjector& injector, PointQueries* queries) {
  for (size_t p = 0; p < kArmedPoints.size(); ++p) {
    (*queries)[p] += injector.PointQueries(kArmedPoints[p]);
  }
}

// A point armed but never queried injects nothing, and total_failures()
// cannot tell: the other points meet it on their own.
void ExpectEveryArmedPointQueried(const PointQueries& queries) {
  for (size_t p = 0; p < kArmedPoints.size(); ++p) {
    EXPECT_GT(queries[p], 0u) << kArmedPoints[p] << " was never queried";
  }
}

// The §6.3-style serving consolidation (memcached LC + two
// batch apps) with noisy sensing on top of the schemata fault storm.
void RunLcFloorSchedule(uint64_t seed, PointQueries* queries) {
  FaultInjector injector(seed);
  MachineConfig machine_config;
  machine_config.fault_injector = &injector;
  SimulatedMachine machine(machine_config);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  monitor.ConfigureSensing(NoisySensing(seed));

  ResourceManagerParams params;
  params.control_period_sec = 0.1;
  params.slo.enabled = true;
  params.slo.lc_way_floor = kWayFloor;
  params.slo.protect_rps_threshold = 150000.0;
  ResourceManager manager(&resctrl, &monitor, params);

  const WorkloadDescriptor lc_desc = Memcached();
  Result<AppId> lc = machine.LaunchApp(lc_desc, 8);
  ASSERT_TRUE(lc.ok()) << lc.status().ToString();
  LcAppModel model;
  model.slo_p95_ms = lc_desc.slo_p95_ms;
  model.instructions_per_request = lc_desc.instructions_per_request;
  model.capability_ips = [&](uint32_t ways) {
    return PredictLcCapabilityIps(lc_desc, 8, ways, machine_config);
  };
  model.initial_offered_rps = 75000.0;
  ASSERT_TRUE(manager.SetLatencyCriticalApp(*lc, model).ok());
  for (const WorkloadDescriptor& batch : {WordCount(), Kmeans()}) {
    Result<AppId> app = machine.LaunchApp(batch, 4);
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(manager.AddApp(*app).ok());
  }
  ArmResctrlFaults(injector, 0.2);

  for (int period = 0; period < 300; ++period) {
    const double t = 0.1 * period;
    const double rps = (t < 10.0 || t >= 20.0) ? 75000.0 : 190000.0;
    machine.SetAppRequiredIps(*lc, rps * lc_desc.instructions_per_request);
    manager.SetLcOfferedLoad(*lc, rps);
    machine.AdvanceTime(0.1);
    manager.Tick();

    ASSERT_GE(manager.LcWays(*lc), kWayFloor)
        << "seed " << seed << " period " << period;
    const WayMask actuated = machine.ClosWayMask(machine.AppClos(*lc));
    ASSERT_FALSE(actuated.Empty()) << "seed " << seed << " period " << period;
    ASSERT_GE(actuated.CountWays(), kWayFloor)
        << "seed " << seed << " period " << period;
  }
  // The schedule exercised both hazard sources.
  EXPECT_GT(injector.total_failures(), 0u) << "seed " << seed;
  EXPECT_GT(monitor.sensed_samples(), 0u) << "seed " << seed;
  AddPointQueries(injector, queries);
}

TEST(SensingChaosTest, LcClosNeverDropsBelowFloorUnderNoiseAndFaults) {
  PointQueries queries{};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunLcFloorSchedule(seed, &queries);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  ExpectEveryArmedPointQueried(queries);
}

}  // namespace
}  // namespace copart
