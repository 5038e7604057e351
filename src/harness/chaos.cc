#include "harness/chaos.h"

#include <bit>
#include <cstddef>
#include <memory>
#include <string_view>

#include "common/fault_injector.h"
#include "common/rng.h"
#include "core/resource_manager.h"
#include "machine/simulated_machine.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

// Fault points on the manager's actuation and monitoring path. The storm
// arms a random subset of these.
constexpr std::string_view kStormPoints[] = {
    fault_points::kResctrlCreateGroup,
    fault_points::kResctrlCreateGroupExhausted,
    fault_points::kResctrlRemoveGroup,
    fault_points::kResctrlSetL3,
    fault_points::kResctrlSetMb,
    fault_points::kResctrlSetL3Silent,
    fault_points::kResctrlSetMbSilent,
    fault_points::kResctrlAssignApp,
    fault_points::kPmcDropped,
    fault_points::kPmcStale,
    fault_points::kPmcSaturated,
};

WorkloadDescriptor RosterPick(Rng& rng) {
  switch (rng.NextUint64(10)) {
    case 0: return WaterNsquared();
    case 1: return Cg();
    case 2: return Sp();
    case 3: return OceanNcp();
    case 4: return Swaptions();
    case 5: return Ft();
    case 6: return Fmm();
    case 7: return Ep();
    case 8: return Raytrace();
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

// Returns the first violated invariant, or "" when all hold.
std::string CheckInvariants(const ResourceManager& manager,
                            size_t live_admitted) {
  if (manager.NumApps() != live_admitted) {
    return "app unaccounted: manager tracks " +
           std::to_string(manager.NumApps()) + " apps, " +
           std::to_string(live_admitted) + " admitted apps are alive";
  }
  if (manager.NumApps() == 0) {
    return "";
  }
  const SystemState& state = manager.current_state();
  if (state.NumApps() != manager.NumApps()) {
    return "system state sized for " + std::to_string(state.NumApps()) +
           " apps, manager tracks " + std::to_string(manager.NumApps());
  }
  if (!state.Valid()) {
    return "system state invalid";
  }
  for (size_t i = 0; i < state.NumApps(); ++i) {
    if (!ContiguousMask(state.WayMaskBits(i))) {
      return "non-contiguous or empty way mask for app " + std::to_string(i);
    }
  }
  return "";
}

}  // namespace

ChaosScheduleResult RunChaosSchedule(const ChaosScheduleConfig& config) {
  ChaosScheduleResult result;
  result.seed = config.seed;

  Rng rng = Rng(config.seed);
  FaultInjector injector(rng.NextUint64());

  MachineConfig machine_config;
  machine_config.seed = rng.NextUint64();
  machine_config.fault_injector = &injector;
  SimulatedMachine machine(machine_config);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  ResourceManagerParams params;
  params.control_period_sec = config.control_period_sec;
  params.seed = rng.NextUint64();
  ResourceManager manager(&resctrl, &monitor, params);
  manager.SetObservability(config.obs);

  // Admit the initial consolidation (fault-free: the injector is unarmed).
  const int num_apps =
      config.min_apps +
      static_cast<int>(rng.NextUint64(
          static_cast<uint64_t>(config.max_apps - config.min_apps + 1)));
  std::vector<AppId> admitted;
  for (int i = 0; i < num_apps; ++i) {
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
  auto run_period = [&]() -> bool {
    machine.AdvanceTime(config.control_period_sec);
    if (manager.phase() == ResourceManager::Phase::kDegraded) {
      ++result.degraded_ticks;
    }
    manager.Tick();
    // Drop admitted apps the storm has since terminated (the manager reaps
    // them on the tick we just ran).
    std::erase_if(admitted,
                  [&](AppId app) { return !machine.AppExists(app); });
    const std::string violation = CheckInvariants(manager, admitted.size());
    ++period;
    if (!violation.empty()) {
      result.failure = violation;
      result.failure_period = period;
      return false;
    }
    return true;
  };

  auto finish = [&]() {
    if (MetricsRegistry* metrics = ObsMetrics(config.obs)) {
      manager.ExportMetrics(metrics);
      ExportFaultInjectorMetrics(injector, metrics);
    }
    result.injected_failures = injector.total_failures();
    result.actuation_failures = manager.actuation_failures();
    result.rollbacks = manager.rollbacks();
    result.degraded_entries = manager.degraded_entries();
    result.degraded_recoveries = manager.degraded_recoveries();
    result.quarantines = manager.quarantines();
    result.ended_degraded =
        manager.phase() == ResourceManager::Phase::kDegraded;
  };

  for (int i = 0; i < config.warmup_periods; ++i) {
    if (!run_period()) {
      finish();
      return result;
    }
  }

  // Storm: arm a random subset of the fault points.
  bool any_armed = false;
  for (std::string_view point : kStormPoints) {
    const bool arm = rng.NextBool(0.45);
    const double probability = 0.05 + 0.6 * rng.NextDouble();
    const uint32_t burst = 1 + static_cast<uint32_t>(rng.NextUint64(4));
    if (arm) {
      FaultSpec spec;
      spec.probability = probability;
      spec.burst_length = burst;
      injector.Arm(point, spec);
      any_armed = true;
    }
  }
  if (!any_armed) {
    FaultSpec fallback;
    fallback.probability = 0.5;
    injector.Arm(fault_points::kResctrlSetL3, fallback);
  }

  for (int i = 0; i < config.storm_periods; ++i) {
    if (config.allow_app_churn) {
      const bool kill = rng.NextBool(0.06);
      const bool spawn = rng.NextBool(0.06);
      if (kill && admitted.size() > 1) {
        const size_t victim = rng.NextUint64(admitted.size());
        // Unannounced death: the manager must reap it on its own.
        (void)machine.TerminateApp(admitted[victim]);
      }
      if (spawn && admitted.size() < static_cast<size_t>(config.max_apps)) {
        Result<AppId> app = machine.LaunchApp(RosterPick(rng), 2);
        if (app.ok()) {
          // Admission may fail under injected faults; that must stay a
          // clean rejection, never a crash or a half-tracked app.
          if (manager.AddApp(*app).ok()) {
            admitted.push_back(*app);
          } else {
            (void)machine.TerminateApp(*app);
          }
        }
      }
    }
    if (!run_period()) {
      finish();
      return result;
    }
  }

  injector.DisarmAll();
  for (int i = 0; i < config.recovery_periods; ++i) {
    if (!run_period()) {
      finish();
      return result;
    }
  }

  finish();
  if (result.ended_degraded) {
    result.failure = "manager still degraded " +
                     std::to_string(config.recovery_periods) +
                     " periods after faults cleared";
    result.failure_period = period;
    return result;
  }
  result.passed = true;
  return result;
}

ChaosSuiteResult RunChaosSuite(const ChaosSuiteConfig& config,
                               const ParallelConfig& parallel) {
  return RunChaosSuite(config, parallel, nullptr);
}

ChaosSuiteResult RunChaosSuite(const ChaosSuiteConfig& config,
                               const ParallelConfig& parallel,
                               MetricsRegistry* metrics) {
  // Each cell owns a private bundle; holding them by shared_ptr keeps the
  // per-cell result copyable for ParallelMap. The merge below runs serially
  // in index order (the sweep engine's reduction rule), so `metrics` is
  // bit-identical for every --threads value.
  struct Cell {
    ChaosScheduleResult result;
    std::shared_ptr<Observability> obs;
  };
  const bool collect = metrics != nullptr;
  const Rng seeder(config.base_seed);
  const std::vector<Cell> cells = ParallelMap<Cell>(
      parallel, static_cast<size_t>(config.num_schedules), [&](size_t i) {
        ChaosScheduleConfig schedule = config.schedule;
        schedule.seed = seeder.Fork(i).NextUint64();
        Cell cell;
        if (collect) {
          cell.obs = std::make_shared<Observability>();
          schedule.obs = cell.obs.get();
        }
        cell.result = RunChaosSchedule(schedule);
        return cell;
      });

  ChaosSuiteResult suite;
  suite.num_schedules = config.num_schedules;
  for (const Cell& cell : cells) {
    const ChaosScheduleResult& result = cell.result;
    if (result.passed) {
      ++suite.num_passed;
    } else {
      suite.failures.push_back(result);
    }
    suite.injected_failures += result.injected_failures;
    suite.actuation_failures += result.actuation_failures;
    suite.rollbacks += result.rollbacks;
    suite.degraded_entries += result.degraded_entries;
    suite.degraded_ticks += result.degraded_ticks;
    suite.degraded_recoveries += result.degraded_recoveries;
    suite.quarantines += result.quarantines;
    if (collect && cell.obs != nullptr) {
      metrics->Merge(cell.obs->metrics);
    }
  }
  return suite;
}

}  // namespace copart
