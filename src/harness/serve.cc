#include "harness/serve.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/resource_manager.h"
#include "core/system_state.h"
#include "harness/csv_writer.h"
#include "harness/whatif.h"
#include "machine/simulated_machine.h"
#include "metrics/fairness.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "serve/serve_engine.h"

namespace copart {
namespace {

std::string FormatG6(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return std::string(buf);
}

std::string Format17G(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return std::string(buf);
}

// Measured capability table for the what-if path: LC IPS at each way width
// from a snapshot/rollback epoch solve against the colocated batch set.
// Index 0 is unused (the governor never asks for 0 ways).
std::vector<double> WhatIfCapabilityTable(const ServeScenarioConfig& config,
                                          size_t lc_index) {
  const ServeLcSpec& spec = config.lc_apps[lc_index];
  std::vector<WorkloadDescriptor> workloads;
  WorkloadDescriptor lc = spec.workload;
  lc.num_threads = spec.cores;
  workloads.push_back(std::move(lc));
  for (const ServeBatchSpec& batch : config.batch_apps) {
    WorkloadDescriptor b = batch.workload;
    b.num_threads = batch.cores;
    workloads.push_back(std::move(b));
  }
  WhatIfEvaluator evaluator(workloads, config.machine);

  const uint32_t total_ways = config.machine.llc.num_ways;
  const size_t num_batch = config.batch_apps.size();
  // Every app needs >= 1 way in a valid state, so widths beyond
  // total - num_batch reuse the widest evaluable row.
  const uint32_t max_lc_ways =
      total_ways > num_batch ? total_ways - static_cast<uint32_t>(num_batch)
                             : 1;
  const ResourcePool pool{.first_way = 0,
                          .num_ways = total_ways,
                          .max_mba_percent = MbaLevel::kMax};
  std::vector<double> table(total_ways + 1, 0.0);
  for (uint32_t ways = 1; ways <= total_ways; ++ways) {
    const uint32_t lc_ways = std::min(ways, max_lc_ways);
    std::vector<AppAllocation> allocations;
    allocations.push_back(
        AppAllocation{.llc_ways = lc_ways, .mba_level = MbaLevel()});
    const uint32_t rest = total_ways - lc_ways;
    for (size_t b = 0; b < num_batch; ++b) {
      const uint32_t share = static_cast<uint32_t>(
          rest / num_batch + (b < rest % num_batch ? 1 : 0));
      allocations.push_back(AppAllocation{.llc_ways = std::max(share, 1u),
                                          .mba_level = MbaLevel()});
    }
    const WhatIfOutcome outcome =
        evaluator.Evaluate(SystemState(pool, std::move(allocations)));
    table[ways] = outcome.predicted_ips[0];
  }
  return table;
}

void AppendComparisonCell(std::ostringstream& out,
                          const ServeScenarioResult& result) {
  out << "  \"" << ServeModeName(result.mode) << "\": {\n";
  const ServeLcResult& lc = result.lc.front();
  out << "    \"lc_name\": \"" << lc.name << "\",\n";
  out << "    \"arrivals\": " << lc.arrivals << ",\n";
  out << "    \"completions\": " << lc.completions << ",\n";
  out << "    \"drops\": " << lc.drops << ",\n";
  out << "    \"queue_depth_end\": " << lc.queue_depth_end << ",\n";
  out << "    \"p50_ms\": " << Format17G(lc.p50_ms) << ",\n";
  out << "    \"p95_ms\": " << Format17G(lc.p95_ms) << ",\n";
  out << "    \"p99_ms\": " << Format17G(lc.p99_ms) << ",\n";
  out << "    \"slo_violation_fraction\": "
      << Format17G(lc.slo_violation_fraction) << ",\n";
  out << "    \"mean_batch_unfairness\": "
      << Format17G(result.mean_batch_unfairness) << ",\n";
  out << "    \"run_batch_unfairness\": "
      << Format17G(result.run_batch_unfairness) << ",\n";
  out << "    \"copart_adaptations\": " << result.copart_adaptations << ",\n";
  out << "    \"slo_resizes\": " << result.slo_resizes << ",\n";
  // Every 10th control period: enough to pin the burst trajectory (ways
  // widening, MBA protection, queue drain) without a bulky golden.
  out << "    \"samples\": [\n";
  for (size_t i = 0; i < result.samples.size(); i += 10) {
    const ServeSample& s = result.samples[i];
    out << "      [" << Format17G(s.time) << ", "
        << Format17G(s.offered_rps) << ", " << Format17G(s.p95_ms)
        << ", " << s.queue_depth << ", " << s.lc_ways << ", "
        << s.batch_max_mba << ", \"" << s.phase << "\"]"
        << (i + 10 < result.samples.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  }";
}

}  // namespace

const char* ServeModeName(ServeMode mode) {
  switch (mode) {
    case ServeMode::kCopartSlo:
      return "copart_slo";
    case ServeMode::kEqualShare:
      return "equal_share";
    case ServeMode::kNoPart:
      return "no_part";
  }
  return "unknown";
}

double PredictLcCapabilityIps(const WorkloadDescriptor& lc, uint32_t lc_cores,
                              uint32_t ways, const MachineConfig& machine) {
  const double capacity = static_cast<double>(machine.llc.WayBytes()) * ways;
  const double miss_ratio = lc.reuse_profile.MissRatio(
      static_cast<uint64_t>(capacity), machine.mrc_mode);
  // Consolidation keeps the memory bus near saturation (the batch apps
  // soak up whatever bandwidth the LC app leaves), so plan against the
  // machine's full queueing-delay stretch rather than a contention-free
  // bus — the same worst case the simulator's pass 2 converges to.
  const double contention = 1.0 + machine.queueing_delay_factor;
  const double cpi =
      lc.cpi_exec + lc.accesses_per_instr * miss_ratio * contention *
                        lc.mem_latency_cycles / lc.mlp;
  return lc_cores * machine.core_freq_hz / cpi;
}

ServeScenarioResult RunServeScenario(const ServeScenarioConfig& config) {
  CHECK(!config.lc_apps.empty()) << "serve scenario needs at least one LC app";
  SimulatedMachine machine(config.machine);
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);

  // LC apps: launch the surrogate and build its discrete-event server.
  // Server Rng streams are forked from the scenario seed by LC index only,
  // so every mode replays the identical arrival/service draw sequences.
  struct LcRuntime {
    AppId id{0};
    std::string name;
    double ipr = 0.0;
    double slo_ms = 0.0;
    std::unique_ptr<LcServer> server;
    size_t violations = 0;
    // Admitted to the SLO governor (CoPart mode, admission succeeded).
    bool governed = false;
  };
  const Rng root(config.seed);
  std::vector<LcRuntime> lcs;
  for (size_t i = 0; i < config.lc_apps.size(); ++i) {
    const ServeLcSpec& spec = config.lc_apps[i];
    Result<AppId> app = machine.LaunchApp(spec.workload, spec.cores);
    CHECK(app.ok()) << app.status().ToString();
    LcRuntime lc;
    lc.id = *app;
    lc.name = spec.workload.short_name.empty() ? spec.workload.name
                                               : spec.workload.short_name;
    for (const LcRuntime& other : lcs) {
      if (other.name == lc.name) {
        lc.name += "_" + std::to_string(i);
        break;
      }
    }
    lc.ipr = spec.instructions_per_request > 0.0
                 ? spec.instructions_per_request
                 : spec.workload.instructions_per_request;
    lc.slo_ms =
        spec.slo_p95_ms > 0.0 ? spec.slo_p95_ms : spec.workload.slo_p95_ms;
    CHECK_GT(lc.ipr, 0.0) << lc.name << ": no instructions_per_request";
    CHECK_GT(lc.slo_ms, 0.0) << lc.name << ": no slo_p95_ms";
    LcServerConfig server_config;
    server_config.name = lc.name;
    server_config.arrival = spec.arrival;
    server_config.instructions_per_request = lc.ipr;
    server_config.exponential_service = spec.exponential_service;
    server_config.queue_capacity = spec.queue_capacity;
    lc.server = std::make_unique<LcServer>(server_config,
                                           root.Fork(static_cast<uint64_t>(i)));
    lcs.push_back(std::move(lc));
  }

  std::vector<AppId> batch;
  for (const ServeBatchSpec& spec : config.batch_apps) {
    Result<AppId> app = machine.LaunchApp(spec.workload, spec.cores);
    CHECK(app.ok()) << app.status().ToString();
    batch.push_back(*app);
  }
  std::vector<double> batch_solo_full;
  for (AppId app : batch) {
    batch_solo_full.push_back(machine.SoloFullResourceIps(
        machine.Descriptor(app), machine.AppCores(app)));
  }

  // One ResourceManager for every mode. CoPart-SLO gives each LC app an
  // SLO-governed slice; the static modes run the "eq" or "nopart" policy and
  // admit the LC apps first, like batch apps, so EqualShare's slot order is
  // LC then batch. A refused admission leaves the app running unmanaged in
  // the default group.
  const bool slo = config.mode == ServeMode::kCopartSlo;
  ResourceManagerParams params = config.copart_params;
  params.control_period_sec = config.control_period_sec;
  params.slo.enabled = slo;
  if (!slo) {
    params.partition_policy =
        config.mode == ServeMode::kEqualShare ? "eq" : "nopart";
  }
  ResourceManager manager(&resctrl, &monitor, params);
  manager.SetObservability(config.obs);
  for (size_t i = 0; i < lcs.size(); ++i) {
    if (!slo) {
      (void)manager.AddApp(lcs[i].id);
      continue;
    }
    const ServeLcSpec& spec = config.lc_apps[i];
    LcAppModel model;
    model.slo_p95_ms = lcs[i].slo_ms;
    model.instructions_per_request = lcs[i].ipr;
    if (spec.whatif_capability) {
      auto table = std::make_shared<const std::vector<double>>(
          WhatIfCapabilityTable(config, i));
      model.capability_ips = [table](uint32_t ways) {
        const size_t index = std::min<size_t>(ways, table->size() - 1);
        return index == 0 ? 0.0 : (*table)[index];
      };
    } else {
      model.capability_ips = [desc = spec.workload, cores = spec.cores,
                              mc = config.machine](uint32_t ways) {
        return PredictLcCapabilityIps(desc, cores, ways, mc);
      };
    }
    model.initial_offered_rps = ArrivalRateAt(spec.arrival, 0.0);
    lcs[i].governed = manager.SetLatencyCriticalApp(lcs[i].id, model).ok();
  }
  for (AppId app : batch) {
    (void)manager.AddApp(app);
  }

  ServeScenarioResult result;
  result.mode = config.mode;
  const double dt = config.control_period_sec;
  const int periods = static_cast<int>(
      std::llround(config.duration_sec / config.control_period_sec));
  CHECK_GT(periods, 0);
  result.samples.reserve(static_cast<size_t>(periods));
  RunningStats unfairness_stats;

  // The LC surrogate only consumes the IPS its offered load demands; the
  // leftover capability is headroom, not extra contention.
  for (const LcRuntime& lc : lcs) {
    const size_t i = static_cast<size_t>(&lc - lcs.data());
    machine.SetAppRequiredIps(
        lc.id, ArrivalRateAt(config.lc_apps[i].arrival, 0.0) * lc.ipr);
  }

  for (int period = 0; period < periods; ++period) {
    machine.AdvanceTime(dt);

    // Serve the epoch just simulated at each LC app's effective rate.
    EpochServeStats primary;
    for (size_t i = 0; i < lcs.size(); ++i) {
      const double capability = machine.LastEpoch(lcs[i].id).ips_capability;
      const EpochServeStats stats = lcs[i].server->AdvanceEpoch(dt, capability);
      const bool stalled = stats.completions == 0 && stats.queue_depth_end > 0;
      if (stats.p95_ms > lcs[i].slo_ms || stalled) {
        ++lcs[i].violations;
      }
      if (lcs[i].governed) {
        // Close the governor's learning loop: the decision that shaped this
        // epoch is still the manager's current plan, so learned governors
        // can attribute the measured p95 to it. Threshold ignores this.
        manager.ReportLcOutcome(
            lcs[i].id, stats.p95_ms, stalled,
            config.lc_apps[i].workload.PhaseIndexAt(machine.now()));
      }
      if (i == 0) {
        primary = stats;
      }
    }

    // Sample the period before re-planning, so the series reflects the
    // allocation the epoch was actually served under.
    ServeSample sample;
    sample.time = machine.now();
    sample.offered_rps = primary.offered_rps;
    sample.p95_ms = primary.p95_ms;
    sample.p99_ms = primary.p99_ms;
    sample.queue_depth = primary.queue_depth_end;
    sample.lc_ways = static_cast<uint32_t>(std::popcount(
        machine.ClosWayMask(machine.AppClos(lcs[0].id)).bits()));
    if (slo) {
      sample.batch_max_mba = manager.pool().max_mba_percent;
    } else if (!batch.empty()) {
      sample.batch_max_mba =
          machine.ClosMbaLevel(machine.AppClos(batch.back())).percent();
    }
    sample.phase = slo ? ResourceManager::PhaseName(manager.phase())
                       : ServeModeName(config.mode);
    if (!batch.empty()) {
      std::vector<double> slowdowns;
      slowdowns.reserve(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        slowdowns.push_back(
            Slowdown(batch_solo_full[i], machine.LastEpoch(batch[i]).ips));
      }
      sample.batch_unfairness = Unfairness(slowdowns);
      unfairness_stats.Add(sample.batch_unfairness);
    }
    result.samples.push_back(std::move(sample));

    // Plan the next epoch from the offered load at its start (zero-lag:
    // the governor sees the same rate the generators will draw from).
    const double now = machine.now();
    for (size_t i = 0; i < lcs.size(); ++i) {
      const double rate = ArrivalRateAt(config.lc_apps[i].arrival, now);
      machine.SetAppRequiredIps(lcs[i].id, rate * lcs[i].ipr);
      if (lcs[i].governed) {
        manager.SetLcOfferedLoad(lcs[i].id, rate);
      }
    }
    manager.Tick();
  }

  for (const LcRuntime& lc : lcs) {
    ServeLcResult r;
    r.name = lc.name;
    r.slo_p95_ms = lc.slo_ms;
    r.arrivals = lc.server->total_arrivals();
    r.completions = lc.server->total_completions();
    r.drops = lc.server->total_drops();
    r.queue_depth_end = lc.server->queue_depth();
    const LatencySketch& sketch = lc.server->cumulative_latency();
    if (sketch.count() > 0) {
      r.p50_ms = sketch.Quantile(0.50) * 1e3;
      r.p95_ms = sketch.Quantile(0.95) * 1e3;
      r.p99_ms = sketch.Quantile(0.99) * 1e3;
    }
    r.slo_violation_fraction =
        static_cast<double>(lc.violations) / static_cast<double>(periods);
    result.lc.push_back(std::move(r));
  }
  result.mean_batch_unfairness = batch.empty() ? 0.0 : unfairness_stats.mean();
  if (!batch.empty()) {
    // Whole-run batch unfairness with the same Eq. 1/Eq. 2 methodology as
    // harness/experiment.cc: avg IPS over the run vs. solo-full reference.
    std::vector<double> run_slowdowns;
    run_slowdowns.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const double avg_ips =
          machine.Counters(batch[i]).instructions / config.duration_sec;
      run_slowdowns.push_back(Slowdown(batch_solo_full[i], avg_ips));
    }
    result.run_batch_unfairness = Unfairness(run_slowdowns);
  }
  result.copart_adaptations = slo ? manager.adaptations_started() : 0;
  result.slo_resizes = manager.slo_resizes();

  manager.ExportMetrics(ObsMetrics(config.obs));
  if (MetricsRegistry* metrics = ObsMetrics(config.obs)) {
    for (const ServeLcResult& r : result.lc) {
      const std::string prefix = "copart.serve." + r.name;
      metrics->GetCounter(prefix + ".arrivals")->Increment(r.arrivals);
      metrics->GetCounter(prefix + ".completions")->Increment(r.completions);
      metrics->GetCounter(prefix + ".drops")->Increment(r.drops);
      metrics->GetGauge(prefix + ".queue_depth_end")
          ->Set(static_cast<double>(r.queue_depth_end));
      metrics->GetGauge(prefix + ".p50_ms")->Set(r.p50_ms);
      metrics->GetGauge(prefix + ".p95_ms")->Set(r.p95_ms);
      metrics->GetGauge(prefix + ".p99_ms")->Set(r.p99_ms);
      metrics->GetGauge(prefix + ".slo_violation_fraction")
          ->Set(r.slo_violation_fraction);
    }
  }
  return result;
}

ServeComparisonResult RunServeComparison(const ServeScenarioConfig& config,
                                         const ParallelConfig& parallel) {
  constexpr ServeMode kModes[3] = {ServeMode::kCopartSlo,
                                   ServeMode::kEqualShare, ServeMode::kNoPart};
  std::vector<ServeScenarioResult> cells = ParallelMap<ServeScenarioResult>(
      parallel, 3, [&](size_t i) {
        ServeScenarioConfig cell = config;
        cell.mode = kModes[i];
        if (cell.mode != ServeMode::kCopartSlo) {
          cell.obs = nullptr;  // The bundle belongs to the CoPart cell.
        }
        return RunServeScenario(cell);
      });
  return ServeComparisonResult{std::move(cells[0]), std::move(cells[1]),
                               std::move(cells[2])};
}

std::string SerializeServeComparison(const ServeComparisonResult& comparison) {
  std::ostringstream out;
  out << "{\n";
  AppendComparisonCell(out, comparison.copart);
  out << ",\n";
  AppendComparisonCell(out, comparison.equal_share);
  out << ",\n";
  AppendComparisonCell(out, comparison.no_part);
  out << "\n}\n";
  return out.str();
}

Status WriteServeCsv(const ServeScenarioResult& result,
                     const std::string& path) {
  CsvWriter writer(path);
  if (!writer.ok()) {
    return writer.status();
  }
  writer.WriteRow({"time", "offered_rps", "p95_ms", "p99_ms", "queue_depth",
                   "lc_ways", "batch_max_mba", "batch_unfairness", "phase"});
  for (const ServeSample& s : result.samples) {
    writer.WriteRow({FormatG6(s.time), FormatG6(s.offered_rps),
                     FormatG6(s.p95_ms), FormatG6(s.p99_ms),
                     std::to_string(s.queue_depth), std::to_string(s.lc_ways),
                     std::to_string(s.batch_max_mba),
                     FormatG6(s.batch_unfairness), s.phase});
  }
  return writer.status();
}

ServeScenarioConfig Section63ServeScenario() {
  ServeScenarioConfig config;
  config.duration_sec = 30.0;
  config.control_period_sec = 0.1;
  config.seed = 42;

  ServeLcSpec lc;
  lc.workload = Memcached();
  lc.cores = 8;
  lc.arrival.kind = ArrivalKind::kBurst;
  lc.arrival.base_rate_rps = 75000.0;
  // Fig. 15's shape compressed: low load, a burst past what the static
  // baselines can serve within the SLO, back to low load.
  // 180 krps exceeds the ~150 krps a static equal share (or the contended
  // default CLOS) can sustain, but stays within what the SLO governor can
  // buy by widening the LC slice.
  lc.arrival.burst_phases = {{5.0, 1.0}, {15.0, 2.4}, {10.0, 1.0}};
  config.lc_apps.push_back(std::move(lc));

  config.batch_apps.push_back(ServeBatchSpec{WordCount(), 4});
  config.batch_apps.push_back(ServeBatchSpec{Kmeans(), 4});

  // Batch MBA protection engages during the burst (§6.3: CoPart throttles
  // the batch slice while memcached rides the load step).
  config.copart_params.slo.protect_rps_threshold = 150000.0;
  return config;
}

ServeScenarioConfig Fig15ServeScenario() {
  ServeScenarioConfig config;
  config.duration_sec = 400.0;
  config.control_period_sec = 0.5;
  config.seed = 42;

  ServeLcSpec lc;
  lc.workload = Memcached();
  lc.cores = 8;
  lc.arrival.kind = ArrivalKind::kBurst;
  lc.arrival.base_rate_rps = 75000.0;
  // Steps at t = 99.4 s and t = 299.4 s, written as differences of the
  // step times so the phase boundaries fall exactly on them.
  lc.arrival.burst_phases = {
      {99.4, 1.0}, {299.4 - 99.4, 2.0}, {400.0 - 299.4, 1.0}};
  config.lc_apps.push_back(std::move(lc));

  config.batch_apps.push_back(ServeBatchSpec{WordCount(), 4});
  config.batch_apps.push_back(ServeBatchSpec{Kmeans(), 4});

  config.copart_params.slo.protect_rps_threshold = 100000.0;
  return config;
}

}  // namespace copart
