// Chaos property for the SLO-aware serving mode (DESIGN.md §9, §15): under
// fault injection on the resctrl actuation surface — transient schemata
// rejections and silent drops — the latency-critical app's CLOS must NEVER
// be left narrower than SloParams::lc_way_floor, neither in the governor's
// plan nor in the actuated way mask. The property is checked for EVERY
// registered SloGovernor: the learned governors bias the plan through
// corrections and way-delta arms, and none of that machinery may reach
// below the floor. Runs under `ctest -L chaos` as well as the default pass.
#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/resource_manager.h"
#include "harness/serve.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "slo/slo_governor.h"
#include "workload/workload.h"

namespace copart {
namespace {

constexpr uint32_t kWayFloor = 2;

// The resctrl points every schedule arms: transient rejections first, then
// silent drops.
constexpr std::array<std::string_view, 4> kArmedPoints = {
    fault_points::kResctrlSetL3, fault_points::kResctrlSetMb,
    fault_points::kResctrlSetL3Silent, fault_points::kResctrlSetMbSilent};
using PointQueries = std::array<uint64_t, kArmedPoints.size()>;

// A point armed but never queried injects nothing, and total_failures()
// cannot tell: the other points meet it on their own.
void ExpectEveryArmedPointQueried(const PointQueries& queries) {
  for (size_t p = 0; p < kArmedPoints.size(); ++p) {
    EXPECT_GT(queries[p], 0u) << kArmedPoints[p] << " was never queried";
  }
}

// One fault schedule: build the §6.3-style managed machine (memcached LC +
// two batch apps), arm the schemata points, drive a load ramp that forces
// the governor to resize in both directions, and check the floor after
// every control period.
void RunSchedule(const std::string& governor, uint64_t seed,
                 PointQueries* queries) {
  FaultInjector injector(seed);
  MachineConfig machine_config;
  machine_config.fault_injector = &injector;
  SimulatedMachine machine(machine_config);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);

  ResourceManagerParams params;
  params.control_period_sec = 0.1;
  params.slo.enabled = true;
  params.slo.governor = governor;
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

  // Arm the actuation faults AFTER registration: registration itself is
  // covered by the chaos suite; this property targets steady-state
  // resizing. Probabilities are high enough that every schedule sees
  // failed and silently-dropped writes (verified below).
  FaultSpec transient;
  transient.probability = 0.2;
  transient.burst_length = 2;
  FaultSpec silent;
  silent.probability = 0.1;
  for (size_t p = 0; p < kArmedPoints.size(); ++p) {
    injector.Arm(kArmedPoints[p], p < 2 ? transient : silent);
  }

  // Load ramp: quiet -> burst past the protect threshold -> quiet, so the
  // governor grows, protects, and shrinks the slice under fire.
  for (int period = 0; period < 300; ++period) {
    const double t = 0.1 * period;
    const double rps = (t < 10.0 || t >= 20.0) ? 75000.0 : 190000.0;
    // Feed the learned governors a deterministic outcome stream so their
    // update paths (MPC correction cells, bandit arm rewards) run hot:
    // the measured p95 swings around the prediction, with periodic stall
    // reports — the harshest signal, recorded as max_correction.
    const double predicted = manager.LcPredictedP95Ms(*lc);
    const double measured =
        predicted * (period % 3 == 0 ? 4.0 : 0.5) + 0.001;
    const bool stalled = period % 37 == 0;
    manager.ReportLcOutcome(*lc, stalled ? 0.0 : measured, stalled,
                            /*phase_index=*/static_cast<size_t>(period) % 2);
    machine.SetAppRequiredIps(*lc, rps * lc_desc.instructions_per_request);
    manager.SetLcOfferedLoad(*lc, rps);
    machine.AdvanceTime(0.1);
    manager.Tick();

    // The plan never goes below the floor...
    ASSERT_GE(manager.LcWays(*lc), kWayFloor)
        << governor << " seed " << seed << " period " << period;
    // ...and neither does the actuated mask, whatever subset of writes the
    // schedule let through.
    const WayMask actuated = machine.ClosWayMask(machine.AppClos(*lc));
    ASSERT_FALSE(actuated.Empty())
        << governor << " seed " << seed << " period " << period;
    ASSERT_GE(actuated.CountWays(), kWayFloor)
        << governor << " seed " << seed << " period " << period;
  }
  // The schedule actually exercised the fault surface.
  EXPECT_GT(injector.total_failures(), 0u)
      << governor << " seed " << seed;
  for (size_t p = 0; p < kArmedPoints.size(); ++p) {
    (*queries)[p] += injector.PointQueries(kArmedPoints[p]);
  }
}

TEST(SloChaosPropertyTest, LcClosNeverDropsBelowFloorUnderFaults) {
  // Every registered governor faces the same fault schedules; the floor is
  // a contract of the SLO mode, not of one governor implementation.
  PointQueries queries{};
  for (const std::string& governor : RegisteredSloGovernorNames()) {
    SCOPED_TRACE(governor);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      RunSchedule(governor, seed, &queries);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  ExpectEveryArmedPointQueried(queries);
}

TEST(SloChaosPropertyTest, ThresholdGovernorSurvivesTheFullScheduleSet) {
  // The default governor keeps the original deeper schedule sweep.
  PointQueries queries{};
  for (uint64_t seed = 7; seed <= 12; ++seed) {
    RunSchedule("threshold", seed, &queries);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  ExpectEveryArmedPointQueried(queries);
}

}  // namespace
}  // namespace copart
