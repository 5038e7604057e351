// Datacenter consolidation scenario (the paper's §6.3 case study): a
// latency-critical memcached surrogate with a 1 ms p95 SLO shares the
// server with two batch analytics jobs. A Heracles-style outer manager
// sizes the LC slice as the offered load steps up and down; CoPart keeps
// the batch slice fair through every re-size.
//
// Usage:  ./build/examples/datacenter_consolidation [--eq]
//   --eq replaces CoPart with the equal-split baseline for comparison.
#include <cstdio>
#include <cstring>

#include "harness/serve.h"
#include "serve/arrival.h"

int main(int argc, char** argv) {
  using namespace copart;
  ServeScenarioConfig config = Fig15ServeScenario();
  const bool use_copart = !(argc > 1 && std::strcmp(argv[1], "--eq") == 0);
  if (!use_copart) {
    config.mode = ServeMode::kEqualShare;
  }
  const ArrivalConfig& arrival = config.lc_apps.front().arrival;

  std::printf(
      "workloads: memcached (8 cores, LC, SLO p95 <= %.1f ms), "
      "word_count (4 cores), kmeans (4 cores)\n"
      "load trace: 75k rps -> 150k rps @ t=99.4s -> 75k rps @ t=299.4s\n"
      "batch manager: %s\n\n",
      config.lc_apps.front().workload.slo_p95_ms,
      use_copart ? "CoPart" : "EQ");

  const ServeScenarioResult result = RunServeScenario(config);

  std::printf("t(s)   load    p95(ms)  LC-ways  batch-MBA  batch-unfairness\n");
  double last_load = -1.0;
  uint32_t last_ways = 0;
  for (const ServeSample& sample : result.samples) {
    // The configured step rate at the period's start.
    const double load_rps =
        ArrivalRateAt(arrival, sample.time - config.control_period_sec);
    // Print on every slice change plus a 20 s heartbeat.
    const bool changed = load_rps != last_load || sample.lc_ways != last_ways;
    const bool heartbeat =
        static_cast<long long>(sample.time * 10) % 200 == 0;
    if (changed || heartbeat) {
      std::printf("%6.1f  %5.0fk  %7.3f  %7u  %9u  %8.4f  %s\n", sample.time,
                  load_rps / 1000.0, sample.p95_ms, sample.lc_ways,
                  sample.batch_max_mba, sample.batch_unfairness,
                  sample.phase.c_str());
    }
    last_load = load_rps;
    last_ways = sample.lc_ways;
  }

  std::printf("\nmean batch unfairness: %.4f\n", result.mean_batch_unfairness);
  std::printf("SLO violations: %.1f%% of samples\n",
              100.0 * result.lc.front().slo_violation_fraction);
  if (use_copart) {
    std::printf("CoPart re-adaptations: %llu\n",
                static_cast<unsigned long long>(result.copart_adaptations));
  }
  return 0;
}
