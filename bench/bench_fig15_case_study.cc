// Figure 15: runtime behaviour of CoPart in the dynamic server
// consolidation case study (§6.3). A memcached surrogate (latency-critical,
// 1 ms p95 SLO) is consolidated with Word Count and Kmeans surrogates; the
// offered load steps up at t=99.4 s and back down at t=299.4 s. Expected
// shape: the batch slice shrinks at high load, CoPart re-adapts after each
// step (with a short transient of lower fairness) and keeps the batch
// unfairness well below the EQ split throughout.
// With an argument, additionally dumps the full-resolution time series to
// that CSV path (columns: time, load, p95, lc_ways, batch_mba,
// unfairness_copart, unfairness_eq, phase).
#include <cstdio>

#include "harness/csv_writer.h"
#include "harness/serve.h"
#include "harness/table_printer.h"
#include "serve/arrival.h"

int main(int argc, char** argv) {
  using namespace copart;
  std::printf("== Figure 15: runtime behavior of CoPart (case study) ==\n\n");

  ServeScenarioConfig config = Fig15ServeScenario();
  const ServeScenarioResult copart = RunServeScenario(config);
  config.mode = ServeMode::kEqualShare;
  const ServeScenarioResult eq = RunServeScenario(config);
  // The configured step rate at a period's start (a sample's time is its
  // end).
  auto load_rps = [&](const ServeSample& sample) {
    return ArrivalRateAt(config.lc_apps.front().arrival,
                         sample.time - config.control_period_sec);
  };

  std::printf(
      "time series (5 s samples): load, p95, LC ways, batch MBA ceiling, "
      "batch unfairness (CoPart vs EQ), CoPart phase\n");
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < copart.samples.size(); i += 10) {
    const ServeSample& sample = copart.samples[i];
    rows.push_back({FormatFixed(sample.time, 1),
                    FormatFixed(load_rps(sample) / 1000.0, 0) + "k",
                    FormatFixed(sample.p95_ms, 3),
                    std::to_string(sample.lc_ways),
                    std::to_string(sample.batch_max_mba),
                    FormatFixed(sample.batch_unfairness, 4),
                    FormatFixed(eq.samples[i].batch_unfairness, 4),
                    sample.phase});
  }
  PrintTable({"t(s)", "load", "p95(ms)", "LC ways", "batch MBA",
              "unfair(CoPart)", "unfair(EQ)", "phase"},
             rows);

  if (argc > 1) {
    CsvWriter csv(argv[1]);
    if (!csv.ok()) {
      std::fprintf(stderr, "%s\n", csv.status().ToString().c_str());
      return 1;
    }
    csv.WriteRow({"time_s", "load_rps", "p95_ms", "lc_ways", "batch_mba",
                  "unfairness_copart", "unfairness_eq", "phase"});
    for (size_t i = 0; i < copart.samples.size(); ++i) {
      const ServeSample& sample = copart.samples[i];
      csv.WriteRow({FormatFixed(sample.time, 1),
                    FormatFixed(load_rps(sample), 0),
                    FormatFixed(sample.p95_ms, 4),
                    std::to_string(sample.lc_ways),
                    std::to_string(sample.batch_max_mba),
                    FormatFixed(sample.batch_unfairness, 5),
                    FormatFixed(eq.samples[i].batch_unfairness, 5),
                    sample.phase});
    }
    std::printf("\nwrote %zu samples to %s\n", copart.samples.size(),
                argv[1]);
  }

  std::printf("\nmean batch unfairness: CoPart %.4f vs EQ %.4f\n",
              copart.mean_batch_unfairness, eq.mean_batch_unfairness);
  std::printf("p95 SLO (1 ms) violations: CoPart %.1f%% of samples\n",
              100.0 * copart.lc.front().slo_violation_fraction);
  std::printf("CoPart re-adaptations triggered: %llu\n",
              static_cast<unsigned long long>(copart.copart_adaptations));
  return 0;
}
