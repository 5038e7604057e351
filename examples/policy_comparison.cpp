// Compares the five resource allocation policies from the paper (EQ, ST,
// CAT-only, MBA-only, CoPart) on a workload mix chosen on the command line.
//
// Usage:  ./build/examples/policy_comparison [H-LLC|H-BW|H-Both|M-LLC|M-BW|
//                                            M-Both|IS] [app_count]
// Defaults to H-Both with 4 apps.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/experiment.h"
#include "harness/mix.h"
#include "harness/table_printer.h"

namespace {

copart::MixFamily ParseFamily(const char* name) {
  using copart::MixFamily;
  for (MixFamily family : copart::AllMixFamilies()) {
    if (std::strcmp(name, copart::MixFamilyName(family)) == 0) {
      return family;
    }
  }
  std::fprintf(stderr, "unknown mix '%s'; expected one of", name);
  for (MixFamily family : copart::AllMixFamilies()) {
    std::fprintf(stderr, " %s", copart::MixFamilyName(family));
  }
  std::fprintf(stderr, "\n");
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace copart;
  const MixFamily family = argc > 1 ? ParseFamily(argv[1])
                                    : MixFamily::kHighBoth;
  const size_t count = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
  const WorkloadMix mix = MakeMix(family, count);

  std::printf("mix %s:", mix.name.c_str());
  for (const WorkloadDescriptor& app : mix.apps) {
    std::printf(" %s", app.short_name.c_str());
  }
  std::printf("  (%u cores each, 50s run)\n\n", CoresPerApp(count));

  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, factory] : StandardPolicies()) {
    const ExperimentResult result = RunExperiment(mix, factory, {});
    std::string slowdowns;
    for (size_t i = 0; i < result.slowdowns.size(); ++i) {
      if (i > 0) {
        slowdowns += ' ';
      }
      slowdowns += FormatFixed(result.slowdowns[i], 2);
    }
    rows.push_back({name, FormatFixed(result.unfairness, 4),
                    FormatSci(result.throughput_geomean), slowdowns});
  }
  PrintTable({"policy", "unfairness", "geomean IPS", "per-app slowdowns"},
             rows);
  return 0;
}
