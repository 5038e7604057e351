// Chaos suite for the rival policies (LFOC / LFOC+ / CBP) and the former
// baselines (EQ, NoPart, dCat, CAT-only, MBA-only): 100 seeded fault
// schedules per policy, each driving a managed consolidation —
// one SLO-governed latency-critical app plus a churning batch population —
// through a warmup / resctrl-fault-storm / recovery arc. Asserted every
// control period:
//
//   - the latency-critical CLOS never plans OR actuates below
//     SloParams::lc_way_floor, whatever subset of writes the storm drops,
//   - the manager's state stays valid with contiguous non-empty masks on
//     every slot and on every live app's actuated CLOS,
//   - cluster membership never leaks a terminated app: the manager's app
//     count and slot map track exactly the live admitted batch population.
//
// Every schedule derives from its seed (failures replay bit-for-bit) and
// the suite fans out under the common/parallel.h determinism contract.
// Runs in the default ctest pass AND under `ctest -L chaos`.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/resource_manager.h"
#include "harness/serve.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

constexpr uint32_t kWayFloor = 2;
constexpr int kWarmupPeriods = 20;
constexpr int kStormPeriods = 60;
constexpr int kRecoveryPeriods = 120;
constexpr double kPeriodSec = 0.5;
constexpr int kSchedulesPerPolicy = 100;

constexpr std::string_view kStormPoints[] = {
    fault_points::kResctrlCreateGroup,
    fault_points::kResctrlCreateGroupExhausted,
    fault_points::kResctrlRemoveGroup,
    fault_points::kResctrlSetL3,
    fault_points::kResctrlSetMb,
    fault_points::kResctrlSetL3Silent,
    fault_points::kResctrlSetMbSilent,
    fault_points::kResctrlAssignApp,
    fault_points::kPrefetchWrite,
    fault_points::kPrefetchWriteSilent,
    fault_points::kPmcDropped,
    fault_points::kPmcStale,
    fault_points::kPmcSaturated,
};

WorkloadDescriptor RosterPick(Rng& rng) {
  switch (rng.NextUint64(8)) {
    case 0: return WaterNsquared();
    case 1: return Cg();
    case 2: return Sp();
    case 3: return OceanNcp();
    case 4: return Swaptions();
    case 5: return Ft();
    case 6: return Raytrace();
    default: return OceanCp();
  }
}

bool ContiguousMask(uint64_t mask) {
  if (mask == 0) {
    return false;
  }
  const uint64_t shifted = mask >> std::countr_zero(mask);
  return (shifted & (shifted + 1)) == 0;
}

struct ScheduleResult {
  uint64_t seed = 0;
  bool passed = false;
  std::string failure;
  uint64_t injected_failures = 0;
};

// One schedule, deterministic in (policy, seed).
ScheduleResult RunSchedule(const std::string& policy, uint64_t seed) {
  ScheduleResult result;
  result.seed = seed;

  Rng rng = Rng(seed);
  FaultInjector injector(rng.NextUint64());
  MachineConfig machine_config;
  machine_config.num_cores = 16;
  machine_config.seed = rng.NextUint64();
  machine_config.fault_injector = &injector;
  SimulatedMachine machine(machine_config);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);

  ResourceManagerParams params;
  params.partition_policy = policy;
  params.seed = rng.NextUint64();
  params.control_period_sec = kPeriodSec;
  params.slo.enabled = true;
  params.slo.lc_way_floor = kWayFloor;
  ResourceManager manager(&resctrl, &monitor, params);

  // The latency-critical tenant (registered fault-free).
  const WorkloadDescriptor lc_desc = Memcached();
  Result<AppId> lc = machine.LaunchApp(lc_desc, 4);
  CHECK(lc.ok());
  LcAppModel model;
  model.slo_p95_ms = lc_desc.slo_p95_ms;
  model.instructions_per_request = lc_desc.instructions_per_request;
  model.capability_ips = [&machine_config, lc_desc](uint32_t ways) {
    return PredictLcCapabilityIps(lc_desc, 4, ways, machine_config);
  };
  model.initial_offered_rps = 75000.0;
  CHECK(manager.SetLatencyCriticalApp(*lc, model).ok());

  // Initial batch consolidation.
  const int num_batch = 3 + static_cast<int>(rng.NextUint64(3));
  std::vector<AppId> admitted;
  for (int i = 0; i < num_batch; ++i) {
    Result<AppId> app = machine.LaunchApp(RosterPick(rng), 2);
    if (!app.ok()) {
      break;
    }
    if (manager.AddApp(*app).ok()) {
      admitted.push_back(*app);
    } else {
      (void)machine.TerminateApp(*app);
    }
  }

  int period = 0;
  auto check = [&]() -> std::string {
    // LC floor: the plan and the actuated mask both respect it.
    if (manager.LcWays(*lc) < kWayFloor) {
      return "LC plan below floor: " + std::to_string(manager.LcWays(*lc));
    }
    const WayMask lc_mask = machine.ClosWayMask(machine.AppClos(*lc));
    if (lc_mask.CountWays() < kWayFloor) {
      return "LC actuated mask below floor: " +
             std::to_string(lc_mask.CountWays()) + " ways";
    }
    // No terminated app lingers in the manager's books.
    if (manager.NumApps() != admitted.size()) {
      return "membership leak: manager tracks " +
             std::to_string(manager.NumApps()) + " batch apps, " +
             std::to_string(admitted.size()) + " are alive";
    }
    if (manager.NumApps() == 0) {
      return "";
    }
    const SystemState& state = manager.current_state();
    if (!state.Valid()) {
      return "system state invalid";
    }
    const std::vector<uint32_t>& slots = manager.app_slots();
    if (slots.size() != manager.NumApps()) {
      return "slot map sized " + std::to_string(slots.size()) + " for " +
             std::to_string(manager.NumApps()) + " apps";
    }
    for (uint32_t slot : slots) {
      if (slot >= state.NumApps()) {
        return "slot index out of range";
      }
    }
    for (size_t slot = 0; slot < state.NumApps(); ++slot) {
      if (!ContiguousMask(state.WayMaskBits(slot))) {
        return "bad planned mask on slot " + std::to_string(slot);
      }
    }
    for (AppId app : admitted) {
      if (!ContiguousMask(machine.ClosWayMask(machine.AppClos(app)).bits())) {
        return "live app actuated in a CLOS with a bad mask";
      }
    }
    return "";
  };

  auto run_period = [&]() -> bool {
    machine.AdvanceTime(kPeriodSec);
    manager.Tick();
    std::erase_if(admitted,
                  [&](AppId app) { return !machine.AppExists(app); });
    const std::string violation = check();
    ++period;
    if (!violation.empty()) {
      result.failure =
          violation + " (period " + std::to_string(period) + ")";
      return false;
    }
    return true;
  };

  auto finish = [&]() { result.injected_failures = injector.total_failures(); };

  for (int i = 0; i < kWarmupPeriods; ++i) {
    if (!run_period()) {
      finish();
      return result;
    }
  }

  // Storm: arm a random subset of the substrate's fault points, churn the
  // batch population, and burst the LC load past its quiet level.
  bool any_armed = false;
  for (std::string_view point : kStormPoints) {
    if (rng.NextBool(0.45)) {
      FaultSpec spec;
      spec.probability = 0.05 + 0.6 * rng.NextDouble();
      spec.burst_length = 1 + static_cast<uint32_t>(rng.NextUint64(4));
      injector.Arm(point, spec);
      any_armed = true;
    }
  }
  if (!any_armed) {
    FaultSpec fallback;
    fallback.probability = 0.5;
    injector.Arm(fault_points::kResctrlSetL3, fallback);
  }
  for (int i = 0; i < kStormPeriods; ++i) {
    const double rps = (i % 20 < 10) ? 75000.0 : 150000.0;
    machine.SetAppRequiredIps(*lc, rps * lc_desc.instructions_per_request);
    manager.SetLcOfferedLoad(*lc, rps);
    if (rng.NextBool(0.08) && admitted.size() > 1) {
      // Unannounced death: the policy's cluster must not keep the corpse.
      (void)machine.TerminateApp(admitted[rng.NextUint64(admitted.size())]);
    }
    if (rng.NextBool(0.08) && admitted.size() < 6) {
      Result<AppId> app = machine.LaunchApp(RosterPick(rng), 2);
      if (app.ok()) {
        if (manager.AddApp(*app).ok()) {
          admitted.push_back(*app);
        } else {
          (void)machine.TerminateApp(*app);
        }
      }
    }
    if (!run_period()) {
      finish();
      return result;
    }
  }

  injector.DisarmAll();
  for (int i = 0; i < kRecoveryPeriods; ++i) {
    if (!run_period()) {
      finish();
      return result;
    }
  }

  finish();
  result.passed = true;
  return result;
}

class PolicyChaosTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyChaosTest, HundredSchedulesHoldInvariants) {
  const std::string policy = GetParam();
  const Rng seeder(0xC1A05ULL + std::hash<std::string>{}(policy));
  const std::vector<ScheduleResult> results = ParallelMap<ScheduleResult>(
      ParallelConfig{}, kSchedulesPerPolicy, [&](size_t i) {
        return RunSchedule(policy, seeder.Fork(i).NextUint64());
      });

  uint64_t injected = 0;
  int passed = 0;
  for (const ScheduleResult& result : results) {
    if (result.passed) {
      ++passed;
    } else {
      ADD_FAILURE() << policy << " schedule failed: seed=0x" << std::hex
                    << result.seed << std::dec << ": " << result.failure;
    }
    injected += result.injected_failures;
  }
  EXPECT_EQ(passed, kSchedulesPerPolicy);
  // A quiet suite would pass vacuously: the storms must actually land.
  EXPECT_GT(injected, 0u) << policy;
}

INSTANTIATE_TEST_SUITE_P(
    RivalPolicies, PolicyChaosTest,
    ::testing::Values(std::string("lfoc"), std::string("lfoc+"),
                      std::string("cbp"), std::string("eq"),
                      std::string("nopart"), std::string("dcat"),
                      std::string("cat-only"), std::string("mba-only")),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '+') {
          c = 'P';
        } else if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace copart
