// Figure 16: overhead of CoPart — the wall-clock time of one system state
// space exploration step (getNextSystemState) as the application count
// grows from 3 to 6 (plus larger counts to expose the O(N^2) trend).
// Expected shape: tens of microseconds or less, growing mildly with the
// app count. (The paper reports 10.6/11.8/12.7/14.4 us for 3/4/5/6 apps.)
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/hr_matching.h"
#include "core/system_state.h"

namespace copart {
namespace {

void BM_GetNextSystemState(benchmark::State& state) {
  const size_t num_apps = static_cast<size_t>(state.range(0));
  const ResourcePool pool{
      .first_way = 0,
      .num_ways = std::max<uint32_t>(11, static_cast<uint32_t>(num_apps)),
      .max_mba_percent = 100};
  Rng rng(12345);
  SystemState system_state = SystemState::EqualShare(pool, num_apps);
  // Mixed classification: cycle Supply/Maintain/Demand across apps for a
  // worst-ish case with real matching work.
  std::vector<MatchAppInfo> infos(num_apps);
  const ResourceClass classes[] = {ResourceClass::kSupply,
                                   ResourceClass::kMaintain,
                                   ResourceClass::kDemand};
  for (size_t i = 0; i < num_apps; ++i) {
    infos[i].slowdown = 1.0 + 0.3 * static_cast<double>(i);
    infos[i].llc_class = classes[i % 3];
    infos[i].mba_class = classes[(i + 1) % 3];
  }
  MatchResult result;
  result.Reserve(num_apps);
  for (auto _ : state) {
    GetNextSystemState(system_state, infos, rng, /*enable_llc=*/true,
                       /*enable_mba=*/true, &result);
    benchmark::DoNotOptimize(result);
  }
}

BENCHMARK(BM_GetNextSystemState)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_RandomNeighbor(benchmark::State& state) {
  const size_t num_apps = static_cast<size_t>(state.range(0));
  const ResourcePool pool{.first_way = 0, .num_ways = 11,
                          .max_mba_percent = 100};
  Rng rng(777);
  const SystemState system_state = SystemState::EqualShare(pool, num_apps);
  SystemState next;
  for (auto _ : state) {
    system_state.RandomNeighbor(rng, true, true, &next);
    benchmark::DoNotOptimize(next);
  }
}

BENCHMARK(BM_RandomNeighbor)->Arg(3)->Arg(6)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace copart

BENCHMARK_MAIN();
