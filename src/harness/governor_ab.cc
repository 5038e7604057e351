#include "harness/governor_ab.h"

#include <cstdio>
#include <sstream>

#include "common/logging.h"
#include "harness/csv_writer.h"
#include "harness/table_printer.h"
#include "slo/slo_governor.h"
#include "workload/workload.h"

namespace copart {
namespace {

// Shared §6.3-style consolidation shell: memcached-class LC on 8 cores
// against two 4-core batch apps, MBA protection at the burst threshold.
ServeScenarioConfig BaseScenario() {
  ServeScenarioConfig config;
  config.duration_sec = 30.0;
  config.control_period_sec = 0.1;
  config.copart_params.slo.protect_rps_threshold = 150000.0;
  return config;
}

GovernorAbScenario BurstScenario() {
  GovernorAbScenario scenario;
  scenario.name = "burst";
  scenario.config = Section63ServeScenario();
  return scenario;
}

GovernorAbScenario DiurnalScenario() {
  GovernorAbScenario scenario;
  scenario.name = "diurnal";
  scenario.config = BaseScenario();
  scenario.config.duration_sec = 40.0;  // Two full diurnal periods.
  scenario.config.seed = 43;
  ServeLcSpec lc;
  lc.workload = Memcached();
  lc.cores = 8;
  lc.arrival.kind = ArrivalKind::kDiurnal;
  lc.arrival.base_rate_rps = 90000.0;
  lc.arrival.diurnal_period_sec = 20.0;
  lc.arrival.diurnal_amplitude = 0.6;  // 36k trough, 144k peak.
  scenario.config.lc_apps.push_back(std::move(lc));
  scenario.config.batch_apps.push_back(ServeBatchSpec{WordCount(), 4});
  scenario.config.batch_apps.push_back(ServeBatchSpec{Kmeans(), 4});
  return scenario;
}

GovernorAbScenario FlashCrowdScenario() {
  GovernorAbScenario scenario;
  scenario.name = "flash-crowd";
  scenario.config = BaseScenario();
  scenario.config.seed = 44;
  ServeLcSpec lc;
  lc.workload = Memcached();
  lc.cores = 8;
  lc.arrival.kind = ArrivalKind::kFlashCrowd;
  lc.arrival.base_rate_rps = 80000.0;
  // Starting mid-epoch denies the zero-lag planner its clairvoyance: the
  // period straddling the onset was sized for 80 krps but absorbs half an
  // epoch at 200 krps, and the resulting backlog drains under allocations
  // the steady-state M/M/1 model considers sufficient.
  lc.arrival.flash_start_sec = 10.05;
  lc.arrival.flash_duration_sec = 8.0;
  // 176 krps through the window: high enough that the backlog from the
  // straddling period drains slowly at the just-meeting width, low enough
  // that extra ways still buy real drain bandwidth (past ~2.6x every
  // governor is pinned at the widest slice and the outcome is physics).
  lc.arrival.flash_multiplier = 2.2;
  scenario.config.lc_apps.push_back(std::move(lc));
  scenario.config.batch_apps.push_back(ServeBatchSpec{WordCount(), 4});
  scenario.config.batch_apps.push_back(ServeBatchSpec{Kmeans(), 4});
  return scenario;
}

GovernorAbScenario PhaseShiftScenario() {
  GovernorAbScenario scenario;
  scenario.name = "phase-shift";
  scenario.config = BaseScenario();
  scenario.config.duration_sec = 36.0;  // Three 12 s phase cycles.
  scenario.config.seed = 45;
  // The correlated pair: the LC hot set rotates exactly when the batch
  // side turns scan-heavy, so the analytic capability model (fit to the
  // steady phase) over-promises right when contention peaks.
  const CorrelatedPair pair = CorrelatedLcBatchPair(12.0);
  ServeLcSpec lc;
  lc.workload = pair.lc;
  lc.cores = 8;
  lc.arrival.kind = ArrivalKind::kPoisson;
  lc.arrival.base_rate_rps = 110000.0;
  scenario.config.lc_apps.push_back(std::move(lc));
  scenario.config.batch_apps.push_back(ServeBatchSpec{pair.batch, 4});
  scenario.config.batch_apps.push_back(ServeBatchSpec{Kmeans(), 4});
  return scenario;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::vector<GovernorAbScenario> GovernorAbScenarios() {
  std::vector<GovernorAbScenario> scenarios;
  scenarios.push_back(BurstScenario());
  scenarios.push_back(DiurnalScenario());
  scenarios.push_back(FlashCrowdScenario());
  scenarios.push_back(PhaseShiftScenario());
  return scenarios;
}

GovernorAbResult RunGovernorAb(const GovernorAbConfig& config) {
  const std::vector<GovernorAbScenario> scenarios = GovernorAbScenarios();
  const std::vector<std::string> governors =
      config.governors.empty() ? RegisteredSloGovernorNames()
                               : config.governors;
  CHECK(!governors.empty());
  const size_t num_cells = scenarios.size() * governors.size();

  GovernorAbResult result;
  result.cells = ParallelMap<GovernorAbCell>(
      config.parallel, num_cells,
      [&](size_t index) {
        const GovernorAbScenario& scenario =
            scenarios[index / governors.size()];
        const std::string& governor = governors[index % governors.size()];
        ServeScenarioConfig cell_config = scenario.config;
        cell_config.mode = ServeMode::kCopartSlo;
        cell_config.copart_params.slo.governor = governor;
        const ServeScenarioResult run = RunServeScenario(cell_config);

        GovernorAbCell cell;
        cell.scenario = scenario.name;
        cell.governor = governor;
        const ServeLcResult& lc = run.lc.front();
        cell.p95_ms = lc.p95_ms;
        cell.slo_violation_rate = lc.slo_violation_fraction;
        cell.batch_unfairness = run.run_batch_unfairness;
        cell.slo_resizes = run.slo_resizes;
        // Convergence: a sample violates when its epoch p95 exceeded the
        // SLO or the epoch stalled (no completions with work queued —
        // p95 reads 0 then). Same rule RunServeScenario counts with.
        const double slo_ms = lc.slo_p95_ms;
        double ways_sum = 0.0;
        for (size_t i = 0; i < run.samples.size(); ++i) {
          const ServeSample& sample = run.samples[i];
          ways_sum += sample.lc_ways;
          const bool stalled = sample.p95_ms == 0.0 && sample.queue_depth > 0;
          if (sample.p95_ms > slo_ms || stalled) {
            cell.convergence_epochs = static_cast<uint64_t>(i) + 1;
          }
        }
        cell.mean_lc_ways =
            run.samples.empty()
                ? 0.0
                : ways_sum / static_cast<double>(run.samples.size());
        return cell;
      },
      &result.stats);
  return result;
}

std::string GovernorAbToJson(const GovernorAbResult& result) {
  std::ostringstream out;
  out << "{\n  \"cells\": [\n";
  for (size_t i = 0; i < result.cells.size(); ++i) {
    const GovernorAbCell& cell = result.cells[i];
    out << "    {\"scenario\": \"" << cell.scenario << "\", \"governor\": \""
        << cell.governor << "\", \"p95_ms\": " << FormatDouble(cell.p95_ms)
        << ", \"slo_violation_rate\": "
        << FormatDouble(cell.slo_violation_rate)
        << ", \"convergence_epochs\": " << cell.convergence_epochs
        << ", \"mean_lc_ways\": " << FormatDouble(cell.mean_lc_ways)
        << ", \"batch_unfairness\": " << FormatDouble(cell.batch_unfairness)
        << ", \"slo_resizes\": " << cell.slo_resizes << "}"
        << (i + 1 == result.cells.size() ? "" : ",") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

Status WriteGovernorAbCsv(const GovernorAbResult& result,
                          const std::string& path) {
  CsvWriter writer(path);
  if (!writer.ok()) {
    return writer.status();
  }
  writer.WriteRow({"scenario", "governor", "p95_ms", "slo_violation_rate",
                   "convergence_epochs", "mean_lc_ways", "batch_unfairness",
                   "slo_resizes"});
  for (const GovernorAbCell& cell : result.cells) {
    writer.WriteRow({cell.scenario, cell.governor, FormatDouble(cell.p95_ms),
                     FormatDouble(cell.slo_violation_rate),
                     std::to_string(cell.convergence_epochs),
                     FormatDouble(cell.mean_lc_ways),
                     FormatDouble(cell.batch_unfairness),
                     std::to_string(cell.slo_resizes)});
  }
  return writer.status();
}

void PrintGovernorAbTable(const GovernorAbResult& result, std::FILE* out) {
  std::vector<std::vector<std::string>> rows;
  for (const GovernorAbCell& cell : result.cells) {
    rows.push_back({cell.scenario, cell.governor,
                    FormatFixed(cell.p95_ms, 3),
                    FormatFixed(100.0 * cell.slo_violation_rate, 1) + "%",
                    std::to_string(cell.convergence_epochs),
                    FormatFixed(cell.mean_lc_ways, 2),
                    FormatFixed(cell.batch_unfairness, 4),
                    std::to_string(cell.slo_resizes)});
  }
  PrintTable({"scenario", "governor", "p95_ms", "slo_viol", "converge",
              "mean_ways", "batch_unf", "resizes"},
             rows, out);

  // Verdict lines: on the two scenarios the analytic model cannot track,
  // the best learned governor should strictly beat threshold on violation
  // rate or p95.
  for (const char* scenario : {"flash-crowd", "phase-shift"}) {
    const GovernorAbCell* threshold = nullptr;
    const GovernorAbCell* best_learned = nullptr;
    for (const GovernorAbCell& cell : result.cells) {
      if (cell.scenario != scenario) {
        continue;
      }
      if (cell.governor == "threshold") {
        threshold = &cell;
      } else if (best_learned == nullptr ||
                 cell.slo_violation_rate < best_learned->slo_violation_rate) {
        best_learned = &cell;
      }
    }
    if (threshold == nullptr || best_learned == nullptr) {
      continue;
    }
    const bool wins =
        best_learned->slo_violation_rate < threshold->slo_violation_rate ||
        best_learned->p95_ms < threshold->p95_ms;
    std::fprintf(out,
                 "%s verdict: %s slo_viol %.1f%% p95 %.3f ms vs threshold "
                 "%.1f%% / %.3f ms — learned %s\n",
                 scenario, best_learned->governor.c_str(),
                 100.0 * best_learned->slo_violation_rate,
                 best_learned->p95_ms, 100.0 * threshold->slo_violation_rate,
                 threshold->p95_ms, wins ? "wins" : "loses");
  }
}

}  // namespace copart
