#include "core/ucp_policy.h"

#include <algorithm>

#include "common/logging.h"

namespace copart {

SystemState ComputeUcpAllocation(const SimulatedMachine& machine,
                                 const std::vector<AppId>& apps,
                                 const ResourcePool& pool) {
  CHECK(!apps.empty());
  CHECK_GE(pool.num_ways, apps.size());
  const size_t n = apps.size();
  const uint64_t way_bytes = machine.config().llc.WayBytes();

  // Nominal miss rate (misses/sec) of app i when owning w ways: the
  // stall-free instruction rate times MPI. Using the nominal rate keeps the
  // utility metric monotone and matches UCP's "misses saved" currency.
  auto miss_rate = [&](size_t i, uint32_t ways) {
    const WorkloadDescriptor& d = machine.Descriptor(apps[i]);
    const double nominal_ips =
        machine.AppCores(apps[i]) * machine.config().core_freq_hz /
        d.cpi_exec;
    const double miss_ratio =
        d.reuse_profile.MissRatio(way_bytes * ways, machine.config().mrc_mode);
    return nominal_ips * d.accesses_per_instr * miss_ratio;
  };

  std::vector<AppAllocation> allocations(n);
  const MbaLevel ceiling = MbaLevel::FromPercentChecked(
      pool.max_mba_percent / 10 * 10);
  for (AppAllocation& allocation : allocations) {
    allocation.llc_ways = 1;
    allocation.mba_level = ceiling;
  }
  uint32_t remaining = pool.num_ways - static_cast<uint32_t>(n);
  while (remaining > 0) {
    // Marginal utility of one more way for each app; ties go to the
    // earliest app (deterministic).
    size_t best = 0;
    double best_utility = -1.0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t ways = allocations[i].llc_ways;
      const double utility = miss_rate(i, ways) - miss_rate(i, ways + 1);
      if (utility > best_utility) {
        best_utility = utility;
        best = i;
      }
    }
    ++allocations[best].llc_ways;
    --remaining;
  }
  SystemState state(pool, std::move(allocations));
  CHECK(state.Valid());
  return state;
}

}  // namespace copart
