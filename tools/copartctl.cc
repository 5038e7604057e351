// copartctl — command-line front end for the CoPart library.
//
// Subcommands:
//   benchmarks                       list the built-in workload surrogates
//   characterize <bench>             (ways x MBA) sweep + category (§4.1)
//   run <mix> <policy> [count] [s]   one consolidation experiment
//   compare <mix> [count]            all policies side by side
//   oracle <mix> [count]             show the offline ST search result
//   casestudy [--eq]                 the §6.3 LC + batch scenario
//   serve [--csv p] [--out p]        §6.3 burst trace served by the
//                                    discrete-event engine under CoPart SLO
//                                    mode vs. EqualShare vs. NoPart
//   sensing [mix] [count] [s]        exact vs. estimated vs. noisy PMC
//                                    sensing A/B table (DESIGN.md §10)
//   chaos [schedules] [base_seed]    randomized fault schedules vs. the
//                                    hardened controller (DESIGN.md §7)
//   fleet [nodes] [epochs]           fault-tolerant fleet serving: diurnal
//                                    job arrivals over N nodes, background
//                                    node faults, one crash wave, live
//                                    migration with verify/rollback
//   policies [--many N] [--apps N] [--duration s] [--json path]
//                                    partition-policy A/B table: CoPart vs
//                                    the clustered LFOC / LFOC+ / CBP
//                                    rivals over the paper mixes plus the
//                                    many-apps scenario (DESIGN.md §14)
//   governors [--json p] [--csv p] [--out p]
//                                    SLO-governor A/B table: threshold vs
//                                    the learned MPC / bandit governors
//                                    over burst, diurnal, flash-crowd and
//                                    phase-shift arrivals (DESIGN.md §15).
//                                    Self-checks the extracted threshold
//                                    governor against the serve golden
//                                    first; exits non-zero on divergence.
//   trace <mix|casestudy|serve|cluster> [count] [s]  run CoPart (or the
//                                    casestudy / serve / cluster demo
//                                    scenario) with observability on
//                                    and export <prefix>.trace.json (Chrome
//                                    trace), .audit.json, .metrics.json
//
// Mixes: H-LLC H-BW H-Both M-LLC M-BW M-Both IS
// Policies: EQ ST CAT-only MBA-only CoPart UCP NoPart
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cluster/fleet.h"
#include "common/parallel.h"
#include "harness/chaos.h"
#include "harness/experiment.h"
#include "harness/fleet.h"
#include "harness/governor_ab.h"
#include "harness/heatmap.h"
#include "harness/mix.h"
#include "harness/policy_ab.h"
#include "harness/sensing.h"
#include "harness/serve.h"
#include "harness/static_oracle.h"
#include "harness/table_printer.h"
#include "machine/simulated_machine.h"
#include "obs/obs.h"
#include "workload/workload.h"

namespace copart {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: copartctl [--threads N] <command> [args]\n"
      "  benchmarks\n"
      "  characterize <bench>\n"
      "  run <mix> <policy> [app_count] [duration_sec]\n"
      "  compare <mix> [app_count]\n"
      "  oracle <mix> [app_count]\n"
      "  casestudy [--eq]\n"
      "  serve [--csv prefix] [--out prefix]\n"
      "  sensing [mix] [app_count] [duration_sec] [--csv path]\n"
      "  chaos [schedules] [base_seed] | chaos --seed <schedule_seed>\n"
      "  fleet [nodes] [epochs] [--seed S] [--wave epoch] [--out prefix]\n"
      "  policies [--many N] [--apps N] [--duration s] [--json path]\n"
      "  governors [--json path] [--csv path] [--out prefix]\n"
      "  trace <mix|casestudy|serve|cluster> [app_count] [duration_sec] "
      "[--out prefix]\n"
      "mixes: H-LLC H-BW H-Both M-LLC M-BW M-Both IS\n"
      "policies: EQ ST CAT-only MBA-only CoPart UCP NoPart dCat\n"
      "          copart cat-only mba-only lfoc lfoc+ cbp eq nopart dcat\n"
      "--threads N: fan sweeps (characterize, oracle) out over N worker\n"
      "             threads; default = hardware concurrency. Results are\n"
      "             identical for every thread count.\n");
  return 2;
}

Result<WorkloadDescriptor> FindBenchmark(const std::string& name) {
  std::vector<WorkloadDescriptor> all = AllTable2Benchmarks();
  all.push_back(Stream());
  all.push_back(Memcached());
  all.push_back(WordCount());
  all.push_back(Kmeans());
  all.push_back(PhasedScanCompute());
  for (WorkloadDescriptor& descriptor : all) {
    if (descriptor.name == name || descriptor.short_name == name) {
      return descriptor;
    }
  }
  return NotFoundError("unknown benchmark: " + name);
}

Result<MixFamily> FindMix(const std::string& name) {
  for (MixFamily family : AllMixFamilies()) {
    if (name == MixFamilyName(family)) {
      return family;
    }
  }
  return NotFoundError("unknown mix: " + name);
}

// Resolves a paper name (EQ, ST, CAT-only, ...) or a registry name
// (copart, lfoc+, eq, ...; core/partition_policy.h).
Result<PolicyFactory> FindPolicy(const std::string& name) {
  for (auto& [policy_name, factory] : StandardPolicies()) {
    if (name == policy_name) {
      return factory;
    }
  }
  if (name == "UCP") {
    return UcpFactory();
  }
  if (name == "NoPart") {
    return NoPartFactory();
  }
  if (name == "dCat") {
    return DcatFactory();
  }
  for (const std::string& registered : RegisteredPartitionPolicyNames()) {
    if (name == registered) {
      ResourceManagerParams params;
      params.partition_policy = name;
      return PartitionPolicyFactory(params);
    }
  }
  return NotFoundError("unknown policy: " + name);
}

int CmdBenchmarks() {
  std::vector<std::vector<std::string>> rows;
  for (const WorkloadDescriptor& d : AllTable2Benchmarks()) {
    rows.push_back({d.short_name, d.name, WorkloadCategoryName(d.category)});
  }
  for (const WorkloadDescriptor& d :
       {Stream(), Memcached(), WordCount(), Kmeans(), PhasedScanCompute()}) {
    rows.push_back({d.short_name, d.name, WorkloadCategoryName(d.category)});
  }
  PrintTable({"id", "name", "category"}, rows);
  return 0;
}

int CmdCharacterize(const std::string& name, const ParallelConfig& parallel) {
  Result<WorkloadDescriptor> descriptor = FindBenchmark(name);
  if (!descriptor.ok()) {
    std::fprintf(stderr, "%s\n", descriptor.status().ToString().c_str());
    return 1;
  }
  const SoloHeatmap map =
      SweepSoloPerformance(*descriptor, MachineConfig{}, 4, parallel);
  std::vector<std::string> row_labels, col_labels;
  for (uint32_t ways : map.way_counts) {
    row_labels.push_back(std::to_string(ways) + "w");
  }
  for (uint32_t mba : map.mba_percents) {
    col_labels.push_back(std::to_string(mba) + "%");
  }
  PrintHeatmap(descriptor->name + ": normalized IPS (rows = ways, cols = MBA)",
               row_labels, col_labels, map.normalized_ips);
  std::printf("90%% of peak: >= %u ways (at MBA 100), >= %u%% MBA (at 11 ways)\n",
              map.MinWaysForFraction(0.9), map.MinMbaForFraction(0.9));
  std::printf("sweep: %s\n", map.stats.Summary().c_str());
  return 0;
}

void PrintExperiment(const ExperimentResult& result) {
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < result.app_names.size(); ++i) {
    rows.push_back({result.app_names[i], FormatSci(result.avg_ips[i]),
                    FormatSci(result.solo_full_ips[i]),
                    FormatFixed(result.slowdowns[i], 3)});
  }
  PrintTable({"app", "avg IPS", "solo-full IPS", "slowdown"}, rows);
  std::printf("unfairness: %.4f   throughput (geomean IPS): %.3e\n",
              result.unfairness, result.throughput_geomean);
  if (result.avg_exploration_us > 0.0) {
    std::printf("mean exploration step: %.2f us\n",
                result.avg_exploration_us);
  }
}

int CmdRun(const std::string& mix_name, const std::string& policy_name,
           size_t count, double duration) {
  Result<MixFamily> family = FindMix(mix_name);
  Result<PolicyFactory> factory = FindPolicy(policy_name);
  if (!family.ok() || !factory.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!family.ok() ? family.status() : factory.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  ExperimentConfig config;
  config.duration_sec = duration;
  const WorkloadMix mix = MakeMix(*family, count);
  std::printf("%s on %s (%zu apps, %.0fs):\n", policy_name.c_str(),
              mix.name.c_str(), mix.apps.size(), duration);
  PrintExperiment(RunExperiment(mix, *factory, config));
  return 0;
}

int CmdCompare(const std::string& mix_name, size_t count) {
  Result<MixFamily> family = FindMix(mix_name);
  if (!family.ok()) {
    std::fprintf(stderr, "%s\n", family.status().ToString().c_str());
    return 1;
  }
  const WorkloadMix mix = MakeMix(*family, count);
  auto policies = StandardPolicies();
  policies.emplace_back("UCP", UcpFactory());
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, factory] : policies) {
    const ExperimentResult result = RunExperiment(mix, factory, {});
    rows.push_back({name, FormatFixed(result.unfairness, 4),
                    FormatSci(result.throughput_geomean)});
  }
  std::printf("mix %s:\n", mix.name.c_str());
  PrintTable({"policy", "unfairness", "geomean IPS"}, rows);
  return 0;
}

int CmdOracle(const std::string& mix_name, size_t count,
              const ParallelConfig& parallel) {
  Result<MixFamily> family = FindMix(mix_name);
  if (!family.ok()) {
    std::fprintf(stderr, "%s\n", family.status().ToString().c_str());
    return 1;
  }
  const WorkloadMix mix = MakeMix(*family, count);
  MachineConfig machine_config;
  machine_config.ips_noise_sigma = 0.0;
  SimulatedMachine machine(machine_config);
  std::vector<AppId> apps;
  for (const WorkloadDescriptor& descriptor : mix.apps) {
    Result<AppId> app =
        machine.LaunchApp(descriptor, CoresPerApp(mix.apps.size()));
    CHECK(app.ok()) << app.status().ToString();
    apps.push_back(*app);
  }
  const ResourcePool pool{.first_way = 0, .num_ways = 11,
                          .max_mba_percent = 100};
  const StaticOracleResult oracle =
      FindStaticOracleState(machine, apps, pool, parallel);
  std::printf("mix %s: best static state %s\n", mix.name.c_str(),
              oracle.best_state.ToString().c_str());
  std::printf("predicted unfairness %.4f (%zu states evaluated)\n",
              oracle.best_unfairness, oracle.states_evaluated);
  std::printf("sweep: %s\n", oracle.stats.Summary().c_str());
  return 0;
}

int CmdCaseStudy(bool use_eq) {
  ServeScenarioConfig config = Fig15ServeScenario();
  if (use_eq) {
    config.mode = ServeMode::kEqualShare;
  }
  const ServeScenarioResult result = RunServeScenario(config);
  const ServeLcResult& lc = result.lc.front();
  std::printf("manager: %s\n",
              use_eq ? "EqualShare (static split, no SLO awareness)"
                     : "CoPart (SLO mode)");
  std::printf("mean batch unfairness: %.4f\n", result.mean_batch_unfairness);
  std::printf("LC run p95: %.3f ms (%llu/%llu requests completed, "
              "%llu dropped)\n",
              lc.p95_ms, static_cast<unsigned long long>(lc.completions),
              static_cast<unsigned long long>(lc.arrivals),
              static_cast<unsigned long long>(lc.drops));
  std::printf("p95 SLO violations: %.1f%% of samples\n",
              100.0 * lc.slo_violation_fraction);
  if (!use_eq) {
    std::printf("re-adaptations: %llu\n",
                static_cast<unsigned long long>(result.copart_adaptations));
  }
  return 0;
}

// The §6.3 burst scenario served by the discrete-event engine under all
// three modes. --csv writes one per-epoch series per mode; --out attaches
// the observability bundle to the CoPart cell and exports its artifacts.
int CmdServe(const std::string& csv_prefix, const std::string& obs_prefix,
             const ParallelConfig& parallel) {
  Observability obs;
  ServeScenarioConfig config = Section63ServeScenario();
  if (!obs_prefix.empty()) {
    config.obs = &obs;
  }
  const ServeComparisonResult result = RunServeComparison(config, parallel);

  auto fmt = [](const char* spec, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), spec, value);
    return std::string(buf);
  };
  std::vector<std::vector<std::string>> rows;
  for (const ServeScenarioResult* mode :
       {&result.copart, &result.equal_share, &result.no_part}) {
    const ServeLcResult& lc = mode->lc.front();
    rows.push_back({ServeModeName(mode->mode),
                    fmt("%.1f%%", 100.0 * lc.slo_violation_fraction),
                    fmt("%.3f", lc.p50_ms), fmt("%.3f", lc.p95_ms),
                    fmt("%.3f", lc.p99_ms), std::to_string(lc.drops),
                    fmt("%.4f", mode->run_batch_unfairness)});
  }
  PrintTable({"mode", "slo_viol", "p50_ms", "p95_ms", "p99_ms", "drops",
              "batch_unfairness"},
             rows);
  const ServeLcResult& lc = result.copart.lc.front();
  std::printf("SLO: p95 <= %.1f ms; CoPart resizes: %llu, re-adaptations: "
              "%llu\n",
              lc.slo_p95_ms,
              static_cast<unsigned long long>(result.copart.slo_resizes),
              static_cast<unsigned long long>(result.copart.copart_adaptations));

  if (!csv_prefix.empty()) {
    for (const ServeScenarioResult* mode :
         {&result.copart, &result.equal_share, &result.no_part}) {
      const std::string path =
          csv_prefix + "_" + ServeModeName(mode->mode) + ".csv";
      const Status status = WriteServeCsv(*mode, path);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("series -> %s\n", path.c_str());
    }
  }
  if (!obs_prefix.empty()) {
    const Status status = obs.ExportAll(obs_prefix);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("observability -> %s.{trace,audit,metrics}.json\n",
                obs_prefix.c_str());
  }
  return 0;
}

int CmdSensing(const std::string& mix_name, size_t count, double duration,
               const std::string& csv_path, const ParallelConfig& parallel) {
  Result<MixFamily> family = FindMix(mix_name);
  if (!family.ok()) {
    std::fprintf(stderr, "%s\n", family.status().ToString().c_str());
    return 1;
  }
  SensingConfig config;
  config.family = *family;
  config.app_count = count;
  config.duration_sec = duration;
  config.parallel = parallel;
  const SensingComparison comparison = RunSensingComparison(config);
  std::fputs(FormatSensingTable(comparison).c_str(), stdout);
  if (!csv_path.empty()) {
    const Status status = WriteSensingCsv(comparison, csv_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("csv -> %s\n", csv_path.c_str());
  }
  return 0;
}

int CmdChaos(int num_schedules, uint64_t base_seed,
             const ParallelConfig& parallel) {
  ChaosSuiteConfig config;
  config.num_schedules = num_schedules;
  config.base_seed = base_seed;
  const ChaosSuiteResult suite = RunChaosSuite(config, parallel);
  std::printf("chaos: %d/%d schedules passed (base seed 0x%llx)\n",
              suite.num_passed, suite.num_schedules,
              static_cast<unsigned long long>(base_seed));
  std::printf(
      "injected failures: %llu  actuation failures: %llu  rollbacks: %llu\n",
      static_cast<unsigned long long>(suite.injected_failures),
      static_cast<unsigned long long>(suite.actuation_failures),
      static_cast<unsigned long long>(suite.rollbacks));
  std::printf(
      "degraded entries: %llu  degraded ticks: %llu  recoveries: %llu  "
      "quarantines: %llu\n",
      static_cast<unsigned long long>(suite.degraded_entries),
      static_cast<unsigned long long>(suite.degraded_ticks),
      static_cast<unsigned long long>(suite.degraded_recoveries),
      static_cast<unsigned long long>(suite.quarantines));
  for (const ChaosScheduleResult& failure : suite.failures) {
    std::fprintf(stderr,
                 "FAILED schedule seed 0x%llx at period %d: %s\n"
                 "  replay: copartctl chaos --seed 0x%llx\n",
                 static_cast<unsigned long long>(failure.seed),
                 failure.failure_period, failure.failure.c_str(),
                 static_cast<unsigned long long>(failure.seed));
  }
  return suite.failures.empty() ? 0 : 1;
}

int CmdChaosReplay(uint64_t seed) {
  ChaosScheduleConfig config;
  config.seed = seed;
  const ChaosScheduleResult result = RunChaosSchedule(config);
  std::printf("schedule seed 0x%llx: %s\n",
              static_cast<unsigned long long>(seed),
              result.passed ? "PASSED" : "FAILED");
  if (!result.passed) {
    std::printf("  period %d: %s\n", result.failure_period,
                result.failure.c_str());
  }
  std::printf(
      "injected failures: %llu  actuation failures: %llu  rollbacks: %llu\n"
      "degraded entries: %llu  degraded ticks: %llu  recoveries: %llu  "
      "quarantines: %llu\n",
      static_cast<unsigned long long>(result.injected_failures),
      static_cast<unsigned long long>(result.actuation_failures),
      static_cast<unsigned long long>(result.rollbacks),
      static_cast<unsigned long long>(result.degraded_entries),
      static_cast<unsigned long long>(result.degraded_ticks),
      static_cast<unsigned long long>(result.degraded_recoveries),
      static_cast<unsigned long long>(result.quarantines));
  return result.passed ? 0 : 1;
}

// Runs a CoPart experiment with the full observability bundle attached and
// exports the three artifacts next to `prefix`. The controller trace, audit
// log, and the deterministic section of the metrics dump depend only on the
// mix and machine seed — see DESIGN.md §8.
int CmdTrace(const std::string& target, size_t count, double duration,
             const std::string& prefix) {
  Observability obs;
  if (target == "casestudy") {
    // The §6.3 case study with CoPart managing the batch slice.
    ServeScenarioConfig config = Fig15ServeScenario();
    config.obs = &obs;
    const ServeScenarioResult result = RunServeScenario(config);
    std::printf("case study (CoPart batch manager), observability on:\n");
    std::printf("mean batch unfairness: %.4f   re-adaptations: %llu\n",
                result.mean_batch_unfairness,
                static_cast<unsigned long long>(result.copart_adaptations));
  } else if (target == "serve") {
    // The §6.3 burst scenario, CoPart SLO-mode cell only.
    ServeScenarioConfig config = Section63ServeScenario();
    config.mode = ServeMode::kCopartSlo;
    config.obs = &obs;
    const ServeScenarioResult result = RunServeScenario(config);
    const ServeLcResult& lc = result.lc.front();
    std::printf("serve scenario (CoPart SLO mode), observability on:\n");
    std::printf("LC run p95: %.3f ms   SLO violations: %.1f%%   "
                "batch unfairness: %.4f\n",
                lc.p95_ms, 100.0 * lc.slo_violation_fraction,
                result.run_batch_unfairness);
  } else if (target == "cluster") {
    // A small placement demo: a fault-free two-node fleet of CoPart nodes,
    // six jobs placed by the what-if policy, run to convergence. Node 0's
    // controller carries the trace/audit streams; the fleet adds its
    // migration records and dumps its copart.fleet.* counters and gauges
    // into the shared metrics registry.
    FleetParams params;
    params.placement = PlacementPolicy::kWhatIfBest;
    params.obs = &obs;
    // Two nodes tick on the calling thread, so node 0's spans land in one
    // trace ring whatever the host's core count.
    params.parallel.num_threads = 1;
    FleetController fleet(2, params);
    fleet.node(0)->manager().SetObservability(&obs);
    const WorkloadDescriptor jobs[] = {WaterNsquared(), Cg(),  Sp(),
                                       Swaptions(),     Fmm(), Ep()};
    for (const WorkloadDescriptor& job : jobs) {
      FleetJobSpec spec;
      spec.workload = job;
      spec.cores = 4;
      const Result<FleetJobId> placed = fleet.Submit(spec);
      if (!placed.ok()) {
        std::fprintf(stderr, "%s\n", placed.status().ToString().c_str());
        return 1;
      }
    }
    for (int epoch = 0; epoch < 40; ++epoch) {
      fleet.RunEpoch();
    }
    fleet.ExportMetrics(ObsMetrics(&obs));
    std::printf("fleet (2 nodes, 6 jobs, what-if placement), "
                "observability on node n0:\n");
    std::printf("mean node unfairness: %.4f   resident jobs: %zu   "
                "migrations: %llu\n",
                fleet.MeanNodeUnfairness(), fleet.ResidentJobs(),
                static_cast<unsigned long long>(
                    fleet.counters().migrations_completed));
  } else {
    Result<MixFamily> family = FindMix(target);
    if (!family.ok()) {
      std::fprintf(stderr, "%s\n", family.status().ToString().c_str());
      return 1;
    }
    ExperimentConfig config;
    config.duration_sec = duration;
    config.obs = &obs;
    const WorkloadMix mix = MakeMix(*family, count);
    std::printf("CoPart on %s (%zu apps, %.0fs), observability on:\n",
                mix.name.c_str(), mix.apps.size(), duration);
    PrintExperiment(RunExperiment(mix, CoPartFactory(), config));
  }
  const Status status = obs.ExportAll(prefix);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "trace: %zu events (%llu dropped) -> %s.trace.json\n"
      "audit: %zu records (%llu dropped) -> %s.audit.json\n"
      "metrics -> %s.metrics.json\n",
      obs.tracer.event_count(),
      static_cast<unsigned long long>(obs.tracer.dropped_events()),
      prefix.c_str(), obs.audit.size(),
      static_cast<unsigned long long>(obs.audit.dropped()), prefix.c_str(),
      prefix.c_str());
  return 0;
}

int CmdFleet(size_t nodes, int epochs, uint64_t seed, int wave_epoch,
             const std::string& obs_prefix, const ParallelConfig& parallel) {
  Observability obs;
  FleetScenarioConfig config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.epochs = epochs;
  config.crash_wave_epoch = wave_epoch;
  // Offered load scales with the fleet so any size runs near the same
  // per-node pressure (the harness default is tuned for ~64 nodes).
  config.job_arrivals.base_rate_rps = 0.15 * static_cast<double>(nodes);
  config.crash_probability = 0.0002;
  config.slow_probability = 0.002;
  config.blackout_probability = 0.002;
  config.parallel = parallel;
  config.obs = &obs;
  std::printf("fleet: %zu nodes, %d epochs, crash wave at epoch %d, seed "
              "%llu\n",
              nodes, epochs, wave_epoch,
              static_cast<unsigned long long>(seed));
  const FleetScenarioResult r = RunFleetScenario(config);
  const FleetCounters& c = r.counters;
  std::printf(
      "jobs: %llu submitted, %llu completed, %zu resident, "
      "%llu shed (%llu admission / %llu overload / %llu migration), "
      "%llu lost to crashes\n",
      static_cast<unsigned long long>(c.submitted),
      static_cast<unsigned long long>(c.completed), r.resident_jobs,
      static_cast<unsigned long long>(c.shed_total()),
      static_cast<unsigned long long>(c.shed_admission),
      static_cast<unsigned long long>(c.shed_overload),
      static_cast<unsigned long long>(c.shed_migration),
      static_cast<unsigned long long>(c.lost_to_crash));
  std::printf(
      "faults: %llu crashes, %llu reboots, %llu slow episodes, "
      "%llu blackouts; alive %zu/%zu, recovery %d epochs\n",
      static_cast<unsigned long long>(c.crashes),
      static_cast<unsigned long long>(c.reboots),
      static_cast<unsigned long long>(c.slow_episodes),
      static_cast<unsigned long long>(c.blackout_episodes), r.alive_nodes,
      nodes, r.recovery_epochs);
  std::printf(
      "migrations: %llu planned, %llu verified, %llu rolled back, "
      "%llu failed\n",
      static_cast<unsigned long long>(c.migrations_planned),
      static_cast<unsigned long long>(c.migrations_completed),
      static_cast<unsigned long long>(c.migration_rollbacks),
      static_cast<unsigned long long>(c.migration_failures));
  std::printf("fleet p99 slowdown %.3f, mean node unfairness %.4f, "
              "%llu node-ticks\n",
              r.fleet_p99_slowdown, r.mean_node_unfairness,
              static_cast<unsigned long long>(r.node_ticks));
  if (c.invariant_violations > 0) {
    std::printf("INVARIANT VIOLATIONS: %llu (first: %s)\n",
                static_cast<unsigned long long>(c.invariant_violations),
                r.first_violation.c_str());
  } else {
    std::printf("job conservation: %llu checks, 0 violations\n",
                static_cast<unsigned long long>(c.conservation_checks));
  }
  if (!obs_prefix.empty()) {
    const Status status = obs.ExportAll(obs_prefix);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("audit: %zu records -> %s.audit.json, metrics -> "
                "%s.metrics.json\n",
                obs.audit.size(), obs_prefix.c_str(), obs_prefix.c_str());
  }
  return c.invariant_violations > 0 ? 1 : 0;
}

// The partition-policy A/B table (DESIGN.md §14): every registered policy
// over the paper's mixes plus the many-apps consolidation that per-app
// CoPart cannot cover. --json writes the full-precision serialization the
// golden test pins.
int CmdPolicies(size_t many_apps, size_t paper_apps, double duration,
                const std::string& json_path, const ParallelConfig& parallel) {
  PolicyAbConfig config;
  config.many_apps = many_apps;
  config.paper_mix_app_count = paper_apps;
  config.duration_sec = duration;
  config.parallel = parallel;
  const PolicyAbResult result = RunPolicyAb(config);
  PrintPolicyAbTable(result);
  std::printf("sweep: %s\n", result.stats.Summary().c_str());
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string json = PolicyAbToJson(result);
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("json -> %s\n", json_path.c_str());
  }
  return 0;
}

// SLO-governor A/B comparison (DESIGN.md §15). Before trusting the table,
// verifies the extracted threshold governor still reproduces the §6.3
// serve golden byte-for-byte — if the registry's "threshold" has drifted
// from the behavior the golden pins, every baseline column is suspect.
int CmdGovernors(const std::string& json_path, const std::string& csv_path,
                 const std::string& obs_prefix,
                 const ParallelConfig& parallel) {
  const std::string golden_path =
      std::string(COPART_GOLDEN_DIR) + "/serve_golden.json";
  std::ifstream golden_in(golden_path, std::ios::binary);
  if (golden_in.good()) {
    std::ostringstream golden;
    golden << golden_in.rdbuf();
    const ServeComparisonResult canonical = RunServeComparison(
        Section63ServeScenario(), ParallelConfig{.num_threads = 1});
    if (SerializeServeComparison(canonical) != golden.str()) {
      std::fprintf(stderr,
                   "governors: threshold governor diverges from %s — the "
                   "extracted walk no longer matches the golden baseline\n",
                   golden_path.c_str());
      return 1;
    }
    std::printf("threshold governor matches %s\n", golden_path.c_str());
  } else {
    std::fprintf(stderr, "governors: warning: golden %s unreadable, "
                 "skipping threshold self-check\n", golden_path.c_str());
  }

  GovernorAbConfig config;
  config.parallel = parallel;
  const GovernorAbResult result = RunGovernorAb(config);
  PrintGovernorAbTable(result);
  std::printf("sweep: %s\n", result.stats.Summary().c_str());

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string json = GovernorAbToJson(result);
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("json -> %s\n", json_path.c_str());
  }
  if (!csv_path.empty()) {
    const Status status = WriteGovernorAbCsv(result, csv_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("csv -> %s\n", csv_path.c_str());
  }
  if (!obs_prefix.empty()) {
    // Export the observability artifacts of the most instructive cell:
    // the MPC governor riding the phase-shift scenario, whose audit log
    // carries the new governor_outcome records alongside the resizes.
    Observability obs;
    for (GovernorAbScenario& scenario : GovernorAbScenarios()) {
      if (scenario.name != "phase-shift") {
        continue;
      }
      scenario.config.mode = ServeMode::kCopartSlo;
      scenario.config.copart_params.slo.governor = "mpc";
      scenario.config.obs = &obs;
      RunServeScenario(scenario.config);
    }
    const Status status = obs.ExportAll(obs_prefix);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("observability (phase-shift/mpc) -> "
                "%s.{trace,audit,metrics}.json\n",
                obs_prefix.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  const ParallelConfig parallel = ParseThreadsFlag(argc, argv);
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "benchmarks") {
    return CmdBenchmarks();
  }
  if (command == "characterize" && argc >= 3) {
    return CmdCharacterize(argv[2], parallel);
  }
  if (command == "run" && argc >= 4) {
    const size_t count = argc >= 5 ? std::strtoul(argv[4], nullptr, 10) : 4;
    const double duration = argc >= 6 ? std::strtod(argv[5], nullptr) : 50.0;
    return CmdRun(argv[2], argv[3], count, duration);
  }
  if (command == "compare" && argc >= 3) {
    const size_t count = argc >= 4 ? std::strtoul(argv[3], nullptr, 10) : 4;
    return CmdCompare(argv[2], count);
  }
  if (command == "oracle" && argc >= 3) {
    const size_t count = argc >= 4 ? std::strtoul(argv[3], nullptr, 10) : 4;
    return CmdOracle(argv[2], count, parallel);
  }
  if (command == "casestudy") {
    return CmdCaseStudy(argc >= 3 && std::strcmp(argv[2], "--eq") == 0);
  }
  if (command == "serve") {
    std::string csv_prefix;
    std::string obs_prefix;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
        csv_prefix = argv[++i];
      } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        obs_prefix = argv[++i];
      } else {
        return Usage();
      }
    }
    return CmdServe(csv_prefix, obs_prefix, parallel);
  }
  if (command == "sensing") {
    std::string mix = "H-LLC";
    std::string csv_path;
    size_t count = 3;
    double duration = 50.0;
    int positional = 0;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
        csv_path = argv[++i];
      } else if (positional == 0) {
        mix = argv[i];
        ++positional;
      } else if (positional == 1) {
        count = std::strtoul(argv[i], nullptr, 10);
        ++positional;
      } else if (positional == 2) {
        duration = std::strtod(argv[i], nullptr);
        ++positional;
      } else {
        return Usage();
      }
    }
    return CmdSensing(mix, count, duration, csv_path, parallel);
  }
  if (command == "chaos") {
    if (argc >= 4 && std::strcmp(argv[2], "--seed") == 0) {
      return CmdChaosReplay(std::strtoull(argv[3], nullptr, 0));
    }
    const int schedules =
        argc >= 3 ? static_cast<int>(std::strtol(argv[2], nullptr, 0)) : 200;
    const uint64_t base_seed =
        argc >= 4 ? std::strtoull(argv[3], nullptr, 0) : 0xC0CA05ULL;
    if (schedules <= 0) {
      std::fprintf(stderr, "chaos: schedule count must be positive\n");
      return 2;
    }
    return CmdChaos(schedules, base_seed, parallel);
  }
  if (command == "fleet") {
    size_t nodes = 256;
    int epochs = 240;
    uint64_t seed = 0xF1EE7ULL;
    int wave_epoch = 60;
    std::string obs_prefix;
    int positional = 0;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        seed = std::strtoull(argv[++i], nullptr, 0);
      } else if (std::strcmp(argv[i], "--wave") == 0 && i + 1 < argc) {
        wave_epoch = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
      } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        obs_prefix = argv[++i];
      } else if (positional == 0) {
        nodes = std::strtoul(argv[i], nullptr, 10);
        ++positional;
      } else if (positional == 1) {
        epochs = static_cast<int>(std::strtol(argv[i], nullptr, 10));
        ++positional;
      } else {
        return Usage();
      }
    }
    if (nodes == 0 || epochs <= 0) {
      std::fprintf(stderr, "fleet: nodes and epochs must be positive\n");
      return 2;
    }
    return CmdFleet(nodes, epochs, seed, wave_epoch, obs_prefix, parallel);
  }
  if (command == "policies") {
    size_t many_apps = 48;
    size_t paper_apps = 6;
    double duration = 50.0;
    std::string json_path;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--many") == 0 && i + 1 < argc) {
        many_apps = std::strtoul(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--apps") == 0 && i + 1 < argc) {
        paper_apps = std::strtoul(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
        duration = std::strtod(argv[++i], nullptr);
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        json_path = argv[++i];
      } else {
        return Usage();
      }
    }
    return CmdPolicies(many_apps, paper_apps, duration, json_path, parallel);
  }
  if (command == "governors") {
    std::string json_path;
    std::string csv_path;
    std::string obs_prefix;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
        csv_path = argv[++i];
      } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        obs_prefix = argv[++i];
      } else {
        return Usage();
      }
    }
    return CmdGovernors(json_path, csv_path, obs_prefix, parallel);
  }
  if (command == "trace" && argc >= 3) {
    std::string prefix = "copart_trace";
    size_t count = 4;
    double duration = 50.0;
    int positional = 0;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        prefix = argv[++i];
      } else if (positional == 0) {
        count = std::strtoul(argv[i], nullptr, 10);
        ++positional;
      } else if (positional == 1) {
        duration = std::strtod(argv[i], nullptr);
        ++positional;
      }
    }
    return CmdTrace(argv[2], count, duration, prefix);
  }
  return Usage();
}

}  // namespace
}  // namespace copart

int main(int argc, char** argv) { return copart::Main(argc, argv); }
