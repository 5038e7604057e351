// Throughput and robustness outcomes of the fleet layer (src/cluster/fleet
// + harness/fleet): node-ticks/sec of the parallel fleet control loop, and
// the deterministic outcome of the canonical robustness scenario — fleet
// p99 slowdown, migration/rollback counts, and crash-wave recovery time.
// Emits a machine-readable BENCH_fleet.json (committed at the repo root as
// the baseline); tools/run_perf_smoke.sh band-gates the throughput point
// (>20% regression fails) and EXACT-gates the outcome points: they are
// pure functions of the seed, so any drift is a behavior change that must
// be a deliberate baseline refresh, not noise.
//
// The throughput loop also runs at 1 thread, and the report carries the
// default thread count, the 1-thread rate and the ratio of the two rates
// (how the fleet scales with threads on the host that runs the bench).
// Those points depend on the host's cores, so the smoke script prints them
// without gating them. So does it print the canonical scenario's migration
// rollback ratio (rollbacks over planned moves), the what-if scorer's
// calibration.
//
// Flags:
//   --json=PATH         where to write the JSON report
//                       (default BENCH_fleet.json in the CWD — run from
//                       the repo root to refresh the baseline)
//   --min-seconds=S     measurement time for the throughput point
//                       (default 0.25)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/fleet.h"
#include "common/parallel.h"
#include "harness/fleet.h"
#include "workload/workload.h"

namespace copart {
namespace {

using Clock = std::chrono::steady_clock;

double Elapsed(const Clock::time_point& start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The canonical robustness scenario: the copartctl `fleet` demo at 128
// nodes — diurnal arrivals, background faults, a 10% crash wave — whose
// outcome fields are deterministic and exact-gated.
FleetScenarioConfig CanonicalScenario() {
  FleetScenarioConfig config;
  config.num_nodes = 128;
  config.epochs = 180;
  config.job_arrivals.base_rate_rps =
      0.15 * static_cast<double>(config.num_nodes);
  config.crash_wave_epoch = 45;
  config.crash_probability = 0.0002;
  config.slow_probability = 0.002;
  config.blackout_probability = 0.002;
  return config;
}

// Alive-node ticks per wall-clock second of the fleet control loop at
// `parallel`, measured on a steadily loaded fleet with no faults (so the
// work per epoch is stable and the number is comparable across runs).
double MeasureNodeTicksPerSec(double min_seconds,
                              const ParallelConfig& parallel) {
  FleetParams params;
  params.machine.ips_noise_sigma = 0.005;
  params.parallel = parallel;
  FleetController fleet(128, params);
  FleetJobSpec spec;
  spec.workload = Swaptions();
  spec.cores = 2;
  for (size_t i = 0; i < 4 * fleet.NumNodes(); ++i) {
    if (!fleet.Submit(spec).ok()) {
      break;
    }
  }
  for (int i = 0; i < 4; ++i) {
    fleet.RunEpoch();  // Warm up (manager profiling phases).
  }
  const uint64_t warm = fleet.node_ticks();
  double elapsed = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    for (int i = 0; i < 8; ++i) {
      fleet.RunEpoch();
    }
    elapsed = Elapsed(start);
  } while (elapsed < min_seconds);
  return static_cast<double>(fleet.node_ticks() - warm) / elapsed;
}

int Run(const std::string& json_path, double min_seconds) {
  const ParallelConfig default_threads;  // The hardware concurrency.
  const double node_ticks_per_sec =
      MeasureNodeTicksPerSec(min_seconds, default_threads);
  const double node_ticks_per_sec_1_thread =
      MeasureNodeTicksPerSec(min_seconds, ParallelConfig{.num_threads = 1});
  const double thread_scaling =
      node_ticks_per_sec / node_ticks_per_sec_1_thread;
  std::printf(
      "fleet: node_ticks_per_sec=%.0f at %u threads, %.0f at 1 thread "
      "(scaling %.3f)\n",
      node_ticks_per_sec, default_threads.ResolveThreads(),
      node_ticks_per_sec_1_thread, thread_scaling);

  const FleetScenarioResult r = RunFleetScenario(CanonicalScenario());
  const double rollback_ratio =
      r.counters.migrations_planned > 0
          ? static_cast<double>(r.counters.migration_rollbacks) /
                static_cast<double>(r.counters.migrations_planned)
          : 0.0;
  std::printf(
      "fleet: p99_slowdown=%.4f migrations=%llu rollbacks=%llu "
      "rollback_ratio=%.4f recovery_epochs=%d violations=%llu\n",
      r.fleet_p99_slowdown,
      static_cast<unsigned long long>(r.counters.migrations_completed),
      static_cast<unsigned long long>(r.counters.migration_rollbacks),
      rollback_ratio, r.recovery_epochs,
      static_cast<unsigned long long>(r.counters.invariant_violations));
  if (r.counters.invariant_violations > 0) {
    std::fprintf(stderr, "fleet: invariant violations in the canonical "
                         "scenario: %s\n",
                 r.first_violation.c_str());
    return 1;
  }

  // One result object per line so the smoke script can grep/sed it without
  // a JSON parser (same convention as bench_sim_throughput).
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"fleet\",\n");
  std::fprintf(out, "  \"results\": [\n");
  std::fprintf(out,
               "    {\"point\": \"fleet_node_ticks_per_sec\", "
               "\"value\": %.1f},\n",
               node_ticks_per_sec);
  std::fprintf(out,
               "    {\"point\": \"fleet_p99_slowdown\", \"value\": %.4f},\n",
               r.fleet_p99_slowdown);
  std::fprintf(out,
               "    {\"point\": \"fleet_migrations\", \"value\": %llu},\n",
               static_cast<unsigned long long>(
                   r.counters.migrations_completed));
  std::fprintf(
      out, "    {\"point\": \"fleet_migration_rollbacks\", \"value\": %llu},\n",
      static_cast<unsigned long long>(r.counters.migration_rollbacks));
  std::fprintf(out,
               "    {\"point\": \"fleet_recovery_epochs\", \"value\": %d},\n",
               r.recovery_epochs);
  std::fprintf(out, "    {\"point\": \"fleet_threads\", \"value\": %u},\n",
               default_threads.ResolveThreads());
  std::fprintf(out,
               "    {\"point\": \"fleet_node_ticks_per_sec_1_thread\", "
               "\"value\": %.1f},\n",
               node_ticks_per_sec_1_thread);
  std::fprintf(out,
               "    {\"point\": \"fleet_thread_scaling\", \"value\": %.3f},\n",
               thread_scaling);
  std::fprintf(out,
               "    {\"point\": \"fleet_migration_rollback_ratio\", "
               "\"value\": %.4f}\n",
               rollback_ratio);
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("fleet: wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace copart

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fleet.json";
  double min_seconds = 0.25;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--min-seconds=", 14) == 0) {
      min_seconds = std::atof(arg + 14);
      if (min_seconds <= 0.0) {
        std::fprintf(stderr, "invalid --min-seconds\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH] [--min-seconds=S]\n",
                   argv[0]);
      return 2;
    }
  }
  return copart::Run(json_path, min_seconds);
}
