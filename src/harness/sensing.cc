#include "harness/sensing.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "core/resource_manager.h"
#include "harness/csv_writer.h"
#include "machine/simulated_machine.h"
#include "metrics/fairness.h"
#include "resctrl/resctrl.h"

namespace copart {
namespace {

// Configures the monitor for one cell. kExact leaves sensing off.
void ConfigureCell(PerfMonitor& monitor, SensingMode mode,
                   const PmcSensingParams& base) {
  if (mode == SensingMode::kExact) {
    return;
  }
  PmcSensingParams params = base;
  params.enabled = true;
  params.estimate_miss_ratio = true;
  if (mode == SensingMode::kEstimated) {
    params.noise_sigma = 0.0;
    params.interval_jitter = 0.0;
    params.stale_probability = 0.0;
  }
  monitor.ConfigureSensing(params);
}

SensingCellResult RunCell(const SensingConfig& config, SensingMode mode,
                          const WorkloadMix& mix, uint32_t cores,
                          int periods) {
  SimulatedMachine machine(config.machine);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  ConfigureCell(monitor, mode, config.sensing);

  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : mix.apps) {
    Result<AppId> app = machine.LaunchApp(descriptor, cores);
    CHECK(app.ok()) << app.status().ToString();
    apps.push_back(*app);
  }

  ResourceManager manager(&resctrl, &monitor, config.manager);
  manager.SetResourcePool(config.pool);
  for (AppId app : apps) {
    Status status = manager.AddApp(app);
    CHECK(status.ok()) << status.ToString();
  }

  SensingCellResult cell;
  cell.mode = mode;
  cell.llc_classes.reserve(periods);
  cell.mba_classes.reserve(periods);
  cell.phases.reserve(periods);
  for (int period = 0; period < periods; ++period) {
    machine.AdvanceTime(config.control_period_sec);
    manager.Tick();
    std::vector<ResourceClass> llc(apps.size());
    std::vector<ResourceClass> mba(apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
      llc[i] = manager.LlcClass(apps[i]);
      mba[i] = manager.MbaClass(apps[i]);
    }
    cell.llc_classes.push_back(std::move(llc));
    cell.mba_classes.push_back(std::move(mba));
    cell.phases.push_back(manager.phase());
  }

  cell.adaptations_started = manager.adaptations_started();
  cell.sensed_samples = monitor.sensed_samples();
  cell.estimator_fallbacks = monitor.estimator_fallbacks();
  cell.stale_reports = monitor.stale_reports();

  std::vector<double> slowdowns(apps.size());
  std::vector<double> avg_ips(apps.size());
  const double elapsed = machine.now();
  for (size_t i = 0; i < apps.size(); ++i) {
    avg_ips[i] = machine.Counters(apps[i]).instructions / elapsed;
    slowdowns[i] = Slowdown(machine.SoloFullResourceIps(mix.apps[i], cores),
                            avg_ips[i]);
  }
  cell.unfairness = Unfairness(slowdowns);
  cell.throughput_geomean = GeoMeanThroughput(avg_ips);
  return cell;
}

// First period the manager spent idle (adaptation settled), or -1.
int FirstIdlePeriod(const std::vector<ManagerPhase>& phases, int from) {
  for (size_t p = static_cast<size_t>(from); p < phases.size(); ++p) {
    if (phases[p] == ManagerPhase::kIdle) {
      return static_cast<int>(p);
    }
  }
  return -1;
}

}  // namespace

const char* SensingModeName(SensingMode mode) {
  switch (mode) {
    case SensingMode::kExact:
      return "exact";
    case SensingMode::kEstimated:
      return "estimated";
    case SensingMode::kEstimatedNoisy:
      return "estimated+noisy";
  }
  return "?";
}

SensingComparison RunSensingComparison(const SensingConfig& config) {
  CHECK_GE(config.app_count, 1u);
  CHECK_GT(config.duration_sec, 0.0);
  CHECK_GT(config.control_period_sec, 0.0);

  // The mix plus the phased re-convergence probe: its scan phase begins at
  // 40% of the run, leaving the back 60% to observe re-adaptation.
  WorkloadMix mix = MakeMix(config.family, config.app_count);
  const double flip_sec = 0.4 * config.duration_sec;
  mix.apps.push_back(PhasedScanCompute(flip_sec));
  const uint32_t cores =
      config.machine.num_cores / static_cast<uint32_t>(mix.apps.size());
  CHECK_GE(cores, 1u) << "too many apps for the machine";
  const int periods = static_cast<int>(
      std::llround(config.duration_sec / config.control_period_sec));

  SensingComparison comparison;
  comparison.mix_name = mix.name + "+PH";
  comparison.num_apps = mix.apps.size();
  comparison.periods = periods;
  comparison.phase_flip_period = static_cast<int>(
      std::llround(flip_sec / config.control_period_sec));

  // The cells are independent single-threaded control loops; fan them out.
  comparison.cells = ParallelMap<SensingCellResult>(
      config.parallel, kNumSensingModes, [&](size_t i) {
        return RunCell(config, static_cast<SensingMode>(i), mix, cores,
                       periods);
      });

  const SensingCellResult& exact = comparison.cells[0];
  for (size_t m = 0; m < kNumSensingModes; ++m) {
    const SensingCellResult& cell = comparison.cells[m];
    // Agreement over every (period, app, resource) decision.
    uint64_t total = 0;
    uint64_t matched = 0;
    for (int p = 0; p < periods; ++p) {
      for (size_t a = 0; a < comparison.num_apps; ++a) {
        total += 2;
        matched += cell.llc_classes[p][a] == exact.llc_classes[p][a] ? 1 : 0;
        matched += cell.mba_classes[p][a] == exact.mba_classes[p][a] ? 1 : 0;
      }
    }
    comparison.agreement[m] =
        total > 0 ? static_cast<double>(matched) / static_cast<double>(total)
                  : 1.0;
    comparison.epochs_to_converge[m] = FirstIdlePeriod(cell.phases, 0);

    // Re-convergence: first re-profiling at/after the probe's phase flip,
    // then the first idle period after it.
    int readapt = -1;
    for (int p = comparison.phase_flip_period; p < periods; ++p) {
      if (cell.phases[p] == ManagerPhase::kProfiling) {
        readapt = p;
        break;
      }
    }
    if (readapt >= 0) {
      const int settled = FirstIdlePeriod(cell.phases, readapt);
      if (settled >= 0) {
        comparison.reconverge_epochs[m] = settled - readapt;
      }
    }
  }
  return comparison;
}

std::string FormatSensingTable(const SensingComparison& comparison) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "sensing A/B: mix %s, %zu apps, %d periods (phase flip @ %d)\n",
                comparison.mix_name.c_str(), comparison.num_apps,
                comparison.periods, comparison.phase_flip_period);
  out += line;
  std::snprintf(line, sizeof(line), "%-16s %9s %9s %10s %10s %7s %10s %12s\n",
                "mode", "agreement", "converge", "reconverge", "fallbacks",
                "stale", "unfairness", "geomean_ips");
  out += line;
  for (size_t m = 0; m < comparison.cells.size(); ++m) {
    const SensingCellResult& cell = comparison.cells[m];
    std::snprintf(line, sizeof(line),
                  "%-16s %9.4f %9d %10d %10llu %7llu %10.4f %12.5g\n",
                  SensingModeName(cell.mode), comparison.agreement[m],
                  comparison.epochs_to_converge[m],
                  comparison.reconverge_epochs[m],
                  static_cast<unsigned long long>(cell.estimator_fallbacks),
                  static_cast<unsigned long long>(cell.stale_reports),
                  cell.unfairness, cell.throughput_geomean);
    out += line;
  }
  return out;
}

Status WriteSensingCsv(const SensingComparison& comparison,
                       const std::string& path) {
  CsvWriter csv(path);
  if (!csv.ok()) {
    return csv.status();
  }
  csv.WriteRow({"mix", "mode", "agreement", "epochs_to_converge",
                "reconverge_epochs", "adaptations_started",
                "sensed_samples", "estimator_fallbacks", "stale_reports",
                "unfairness", "throughput_geomean"});
  for (size_t m = 0; m < comparison.cells.size(); ++m) {
    const SensingCellResult& cell = comparison.cells[m];
    char value[64];
    std::vector<std::string> row = {comparison.mix_name,
                                    SensingModeName(cell.mode)};
    std::snprintf(value, sizeof(value), "%.6g", comparison.agreement[m]);
    row.push_back(value);
    row.push_back(std::to_string(comparison.epochs_to_converge[m]));
    row.push_back(std::to_string(comparison.reconverge_epochs[m]));
    row.push_back(std::to_string(cell.adaptations_started));
    row.push_back(std::to_string(cell.sensed_samples));
    row.push_back(std::to_string(cell.estimator_fallbacks));
    row.push_back(std::to_string(cell.stale_reports));
    std::snprintf(value, sizeof(value), "%.6g", cell.unfairness);
    row.push_back(value);
    std::snprintf(value, sizeof(value), "%.6g", cell.throughput_geomean);
    row.push_back(value);
    csv.WriteRow(row);
  }
  return Status::Ok();
}

}  // namespace copart
