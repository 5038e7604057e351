// Statistical robustness of the Fig. 12 comparison: every policy on the
// three highly-sensitive mixes, replicated over 10 machine seeds, reported
// as mean +/- stddev of the raw unfairness. Expected shape: the policy
// ordering (CoPart ~ ST < CAT-only/MBA-only < EQ on their respective weak
// mixes) is stable — the error bars do not overlap across the headline
// gaps.
#include <cstdio>

#include "common/parallel.h"
#include "harness/mix.h"
#include "harness/replication.h"
#include "harness/table_printer.h"

int main(int argc, char** argv) {
  using namespace copart;
  const ParallelConfig parallel = ParseThreadsFlag(argc, argv);
  std::printf(
      "== Replication: unfairness mean +/- stddev over 10 seeds ==\n\n");
  constexpr size_t kReplicas = 10;
  ExperimentConfig config;
  config.parallel = parallel;
  for (MixFamily family :
       {MixFamily::kHighLlc, MixFamily::kHighBw, MixFamily::kHighBoth}) {
    const WorkloadMix mix = MakeMix(family, 4);
    std::vector<std::vector<std::string>> rows;
    SweepStats mix_stats;
    for (const auto& [name, factory] : StandardPolicies()) {
      const ReplicatedResult result =
          RunReplicatedExperiment(mix, factory, config, kReplicas);
      mix_stats.cells_completed += result.stats.cells_completed;
      mix_stats.threads = result.stats.threads;
      mix_stats.wall_sec += result.stats.wall_sec;
      mix_stats.cpu_sec += result.stats.cpu_sec;
      std::string range = "[";
      range += FormatFixed(result.unfairness.min, 4);
      range += ", ";
      range += FormatFixed(result.unfairness.max, 4);
      range += "]";
      rows.push_back({name,
                      FormatFixed(result.unfairness.mean, 4) + " +/- " +
                          FormatFixed(result.unfairness.stddev, 4),
                      range});
    }
    std::printf("-- %s --\n", mix.name.c_str());
    PrintTable({"policy", "unfairness", "range"}, rows);
    std::printf("sweep: %s\n", mix_stats.Summary().c_str());
    std::printf("sweep_stats_json: {\"sweep\": \"replication/%s\", %s\n\n",
                mix.name.c_str(), mix_stats.ToJson().substr(1).c_str());
  }
  return 0;
}
