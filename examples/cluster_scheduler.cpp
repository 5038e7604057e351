// Fleet-level consolidation: three simulated servers, each running its own
// CoPart instance, receiving a stream of jobs at the fleet front door.
// Placement quality and partitioning quality compose: the what-if
// placement keeps cache pressure balanced across nodes, and per-node
// CoPart partitions whatever lands.
//
// Usage:  ./build/examples/cluster_scheduler [first-fit|least-loaded|
//                                             what-if-best]
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "cluster/fleet.h"
#include "common/stats.h"
#include "harness/table_printer.h"

int main(int argc, char** argv) {
  using namespace copart;
  FleetParams params;
  params.placement = PlacementPolicy::kWhatIfBest;
  if (argc > 1) {
    if (std::strcmp(argv[1], "first-fit") == 0) {
      params.placement = PlacementPolicy::kFirstFit;
    } else if (std::strcmp(argv[1], "least-loaded") == 0) {
      params.placement = PlacementPolicy::kLeastLoaded;
    } else if (std::strcmp(argv[1], "what-if-best") != 0) {
      std::fprintf(stderr, "unknown policy '%s'\n", argv[1]);
      return 1;
    }
  }
  FleetController fleet(3, params);

  // A mixed arrival stream: cache-hungry, bandwidth-hungry, and filler.
  const std::vector<WorkloadDescriptor> arrivals = {
      WaterNsquared(), Cg(), Sp(),        Swaptions(), WaterSpatial(),
      OceanCp(),       Ep(), OceanNcp(),  Raytrace(),  Ft(),
      Fmm(),           Ep()};

  std::printf("placement policy: %s\n\n",
              PlacementPolicyName(params.placement));
  for (const WorkloadDescriptor& workload : arrivals) {
    FleetJobSpec spec;
    spec.workload = workload;
    spec.cores = 4;
    Result<FleetJobId> placed = fleet.Submit(spec);
    if (!placed.ok()) {
      std::printf("  %-16s -> REJECTED (%s)\n", workload.name.c_str(),
                  placed.status().ToString().c_str());
      continue;
    }
    std::printf("  %-16s -> %s\n", workload.name.c_str(),
                fleet.node(fleet.jobs()[*placed].node)->name().c_str());
    // Let the fleet settle a little between arrivals, as it would live.
    fleet.RunEpoch();
  }

  // Converge every node's controller.
  for (int i = 0; i < 160; ++i) {
    fleet.RunEpoch();
  }

  std::printf("\nfleet after convergence (migrations: %llu verified, "
              "%llu rolled back):\n",
              static_cast<unsigned long long>(
                  fleet.counters().migrations_completed),
              static_cast<unsigned long long>(
                  fleet.counters().migration_rollbacks));
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < fleet.NumNodes(); ++i) {
    ClusterNode* node = fleet.node(i);
    std::string jobs;
    for (const WorkloadDescriptor& workload : node->ResidentWorkloads()) {
      jobs += (jobs.empty() ? "" : " ") + workload.short_name;
    }
    rows.push_back({node->name(), std::to_string(node->NumJobs()),
                    ResourceManager::PhaseName(node->manager().phase()),
                    FormatFixed(node->CurrentUnfairness(), 4), jobs});
  }
  PrintTable({"node", "jobs", "copart", "unfairness", "resident"}, rows);

  const std::vector<double> slowdowns = fleet.AllSlowdowns();
  std::printf("\nfleet-wide slowdowns: mean %.3f, worst %.3f\n",
              Mean(slowdowns),
              *std::max_element(slowdowns.begin(), slowdowns.end()));
  std::printf("mean node unfairness: %.4f\n", fleet.MeanNodeUnfairness());
  return 0;
}
