// Extension study: placement policy x per-node partitioning on a two-node,
// fault-free fleet. A skewed arrival stream (big insensitive jobs first,
// then small cache-hungry ones) is submitted under each placement policy
// (FleetParams::placement), with the nodes either unpartitioned (the
// "nopart" policy: everything shares the LLC) or running CoPart. Migration
// and overload shedding are off, so every job stays where it was placed.
//
// Expected shape: on unpartitioned nodes placement is all that stands
// between the fleet and heavy contention, so cache-aware (what-if)
// placement beats first-fit on both mean and worst slowdown. Per-node
// CoPart then absorbs most of the damage under every placement policy,
// but it does not make placement irrelevant: first-fit still stacks the
// cache-hungry jobs on one node, and what-if placement still beats it on
// both mean and worst slowdown.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "cluster/fleet.h"
#include "common/logging.h"
#include "common/stats.h"
#include "harness/table_printer.h"

namespace copart {
namespace {

struct FleetOutcome {
  double mean_slowdown = 0.0;
  double worst_slowdown = 0.0;
  double mean_node_unfairness = 0.0;
};

FleetOutcome RunFleet(PlacementPolicy placement, bool partition,
                      const ParallelConfig& parallel) {
  // Big insensitive jobs first so core-count balancing and cache-pressure
  // balancing disagree.
  const std::vector<std::pair<WorkloadDescriptor, uint32_t>> arrivals = {
      {Swaptions(), 8}, {WaterNsquared(), 2}, {WaterSpatial(), 2},
      {Sp(), 2},        {Ep(), 8},            {Raytrace(), 2},
      {OceanNcp(), 2},  {Fmm(), 2},           {Ft(), 2},
      {Ep(), 2}};
  FleetParams params;
  params.placement = placement;
  params.parallel = parallel;
  if (!partition) {
    params.manager.partition_policy = "nopart";
  }
  params.max_migrations_per_epoch = 0;
  params.shed_unfairness_threshold = std::numeric_limits<double>::infinity();
  FleetController fleet(2, params);
  for (const auto& [workload, cores] : arrivals) {
    FleetJobSpec spec;
    spec.workload = workload;
    spec.cores = cores;
    CHECK(fleet.Submit(spec).ok());
  }
  for (int i = 0; i < 200; ++i) {
    fleet.RunEpoch();
  }
  const std::vector<double> slowdowns = fleet.AllSlowdowns();
  return FleetOutcome{
      Mean(slowdowns),
      *std::max_element(slowdowns.begin(), slowdowns.end()),
      fleet.MeanNodeUnfairness()};
}

}  // namespace
}  // namespace copart

int main(int argc, char** argv) {
  using namespace copart;
  const ParallelConfig parallel = ParseThreadsFlag(argc, argv);
  std::printf(
      "== Extension: placement policy x per-node partitioning "
      "(2 nodes) ==\n\n");
  for (bool partition : {false, true}) {
    std::printf("-- nodes %s --\n",
                partition ? "running CoPart"
                          : "running \"nopart\" (shared LLC)");
    std::vector<std::vector<std::string>> rows;
    for (PlacementPolicy placement :
         {PlacementPolicy::kFirstFit, PlacementPolicy::kLeastLoaded,
          PlacementPolicy::kWhatIfBest}) {
      const FleetOutcome outcome = RunFleet(placement, partition, parallel);
      rows.push_back({PlacementPolicyName(placement),
                      FormatFixed(outcome.mean_slowdown, 3),
                      FormatFixed(outcome.worst_slowdown, 3),
                      FormatFixed(outcome.mean_node_unfairness, 4)});
    }
    PrintTable({"placement", "mean slowdown", "worst slowdown",
                "mean node unfairness"},
               rows);
    std::printf("\n");
  }
  return 0;
}
