// Utility-based Cache Partitioning (UCP) baseline.
//
// An extension beyond the paper's four baselines: the classic
// miss-minimizing allocator of Qureshi & Patt [MICRO'06], which the paper
// cites as representative prior LLC-partitioning work [34]. UCP assigns
// ways greedily by marginal *utility* — the reduction in aggregate miss
// rate per extra way — and does not partition memory bandwidth (MBA stays
// at the pool ceiling). It optimizes throughput, not fairness, which is
// exactly the contrast the CoPart comparison needs:
// bench_ablation_policies shows UCP matching or beating the others on raw
// throughput while losing badly on unfairness for skewed mixes.
//
// On hardware UCP samples miss curves with shadow-tag UMON monitors; here
// the per-app miss-ratio curves come from the workload descriptors, i.e.
// this is an idealized (oracle-curve) UCP, like ST is an oracle search.
// The harness computes the allocation once from the launched apps and runs
// it as a fixed-state StaticPartitionPolicy (core/static_policy.h).
#ifndef COPART_CORE_UCP_POLICY_H_
#define COPART_CORE_UCP_POLICY_H_

#include <vector>

#include "core/system_state.h"
#include "machine/app_id.h"
#include "machine/simulated_machine.h"

namespace copart {

// Computes the UCP way allocation for the given apps within `pool`:
// every app starts with one way; each remaining way goes to the app with
// the highest marginal miss-rate reduction (misses/sec at the nominal
// instruction rate). MBA levels are set to the pool ceiling.
SystemState ComputeUcpAllocation(const SimulatedMachine& machine,
                                 const std::vector<AppId>& apps,
                                 const ResourcePool& pool);

}  // namespace copart

#endif  // COPART_CORE_UCP_POLICY_H_
