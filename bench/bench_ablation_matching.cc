// Ablation: the Hospitals/Residents matcher (Algorithm 2) vs a naive greedy
// allocator that performs only the single steepest transfer per period
// (highest-slowdown consumer takes from the lowest-slowdown producer).
// Expected shape: HR converges at least as fair and usually faster — it
// resolves ALL matchable producer/consumer pairs per period with stable
// preferences, while greedy moves one resource at a time.
#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "core/hr_matching.h"
#include "harness/experiment.h"
#include "harness/mix.h"
#include "harness/table_printer.h"

namespace copart {
namespace {

// One steepest transfer per period: the most-slowed demander takes its
// demanded resource from the least-slowed supplier.
void GreedySingleMove(const SystemState& state,
                      const std::vector<MatchAppInfo>& apps, Rng& rng,
                      bool enable_llc, bool enable_mba, MatchResult* result) {
  result->next_state = state;
  result->transfers.clear();
  double best_gap = 0.0;
  ssize_t best_producer = -1, best_consumer = -1;
  bool best_is_llc = false;
  for (size_t c = 0; c < apps.size(); ++c) {
    for (size_t p = 0; p < apps.size(); ++p) {
      if (p == c) {
        continue;
      }
      const double gap = apps[c].slowdown - apps[p].slowdown;
      if (gap <= best_gap) {
        continue;
      }
      const bool llc_ok = enable_llc &&
                          apps[c].llc_class == ResourceClass::kDemand &&
                          apps[p].llc_class == ResourceClass::kSupply &&
                          state.allocation(p).llc_ways > 1;
      const bool mba_ok =
          enable_mba && apps[c].mba_class == ResourceClass::kDemand &&
          apps[p].mba_class == ResourceClass::kSupply &&
          state.allocation(p).mba_level.CanDecrease() &&
          state.allocation(c).mba_level.percent() + MbaLevel::kStep <=
              state.pool().max_mba_percent;
      if (!llc_ok && !mba_ok) {
        continue;
      }
      best_gap = gap;
      best_producer = static_cast<ssize_t>(p);
      best_consumer = static_cast<ssize_t>(c);
      best_is_llc = llc_ok && (!mba_ok || rng.NextBool(0.5));
    }
  }
  if (best_producer >= 0) {
    AppAllocation& from = result->next_state.allocation(
        static_cast<size_t>(best_producer));
    AppAllocation& to = result->next_state.allocation(
        static_cast<size_t>(best_consumer));
    if (best_is_llc) {
      --from.llc_ways;
      ++to.llc_ways;
    } else {
      from.mba_level = from.mba_level.Decreased();
      to.mba_level = to.mba_level.Increased();
    }
    result->transfers.push_back({best_is_llc,
                                 static_cast<size_t>(best_producer),
                                 static_cast<size_t>(best_consumer)});
  }
}

}  // namespace
}  // namespace copart

int main() {
  using namespace copart;
  std::printf(
      "== Ablation: HR matching (Algorithm 2) vs greedy single-move ==\n\n");

  ResourceManagerParams greedy_params;
  greedy_params.matcher = GreedySingleMove;

  std::vector<std::vector<std::string>> rows;
  std::vector<double> hr_values, greedy_values;
  for (MixFamily family : AllMixFamilies()) {
    const WorkloadMix mix = MakeMix(family, 4);
    const ExperimentResult hr = RunExperiment(mix, CoPartFactory(), {});
    const ExperimentResult greedy =
        RunExperiment(mix, CoPartFactory(greedy_params), {});
    rows.push_back({mix.name, FormatFixed(hr.unfairness, 4),
                    FormatFixed(greedy.unfairness, 4)});
    hr_values.push_back(std::max(hr.unfairness, 1e-4));
    greedy_values.push_back(std::max(greedy.unfairness, 1e-4));
  }
  rows.push_back({"geomean", FormatFixed(GeoMean(hr_values), 4),
                  FormatFixed(GeoMean(greedy_values), 4)});
  PrintTable({"mix", "HR unfairness", "greedy unfairness"}, rows);
  return 0;
}
