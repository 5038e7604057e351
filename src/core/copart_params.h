// Design parameters of CoPart (paper §5.2, §5.3, §5.4, Fig. 11).
//
// The values are the ones the paper selected through design-space
// exploration; bench_fig11_param_sensitivity sweeps them. Only what some
// run varies is a field here; the tuning values no run varies are named
// constants next to their one reader (ResourceManager's hardening and
// probe constants, LfocPolicy, CbpPolicy, and the SLO governors).
#ifndef COPART_CORE_COPART_PARAMS_H_
#define COPART_CORE_COPART_PARAMS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "slo/slo_params.h"

namespace copart {

class SystemState;
struct MatchAppInfo;
struct MatchResult;
class Rng;

// Signature of the allocation step (Algorithm 2), GetNextSystemState's:
// it writes the next state into the caller's MatchResult. Overridable so
// ablation studies can swap the HR matcher for alternatives
// (bench_ablation_matching).
using MatchFunction = std::function<void(
    const SystemState& state, const std::vector<MatchAppInfo>& apps, Rng& rng,
    bool enable_llc, bool enable_mba, MatchResult* result)>;

struct ClassifierParams {
  // alpha: LLC access-rate floor (accesses/s). Below it the app has no use
  // for cache capacity and supplies its ways.
  double llc_access_rate_floor = 1.5e6;
  // beta: "sufficiently low" LLC miss ratio -> the app supplies ways.
  double llc_miss_ratio_low = 0.01;
  // Beta (capital): high LLC miss ratio -> the app demands ways.
  double llc_miss_ratio_high = 0.03;
  // gamma: memory-traffic ratio (vs. STREAM) below which the app supplies
  // memory bandwidth.
  double traffic_ratio_low = 0.10;
  // Gamma (capital): traffic ratio above which the app demands bandwidth.
  double traffic_ratio_high = 0.30;
  // deltaP: relative performance change considered significant.
  double perf_delta = 0.05;
};

// SloParams (the SLO-aware serving mode, paper §6.3, DESIGN.md §9/§15)
// lives in slo/slo_params.h next to the pluggable governors; it is
// re-exported here as ResourceManagerParams::slo.

// CBP-style prefetch coordination (core/cbp_policy.h; arxiv 2102.11528):
// LFOC clustering plus a third actuator — streaming apps get their
// prefetcher throttled, trading their (speculatively inflated) bandwidth
// demand for a longer per-miss stall, which relieves the memory controller
// for everyone else. Hysteresis: the throttle engages at
// ClassifierParams::traffic_ratio_high and releases only once the app's
// traffic ratio falls below release_traffic_ratio.
struct CbpParams {
  double release_traffic_ratio = 0.15;
};

struct ResourceManagerParams {
  ClassifierParams classifier;

  // Which PartitionPolicy drives classification/allocation
  // (core/partition_policy.h): "copart" (default; the paper's per-app
  // controller), its "cat-only"/"mba-only" modes, the "lfoc", "lfoc+" and
  // "cbp" rivals, or the "eq", "nopart" and "dcat" baselines.
  std::string partition_policy = "copart";

  // CLOS budget the policy may use for its partition slots, on top of the
  // default group (CLOS 0). Clustered policies must respect it; per-app
  // CoPart is additionally bounded by one way per app.
  uint32_t max_clos = 16;

  // Prefetch rival policy knob (unused by "copart").
  CbpParams cbp;

  // SLO-aware serving mode; disabled by default (pure batch fairness).
  SloParams slo;

  // Control period between adaptation steps (Algorithm 1's sleep(period)).
  double control_period_sec = 0.5;

  // theta: neighbor-state retries before transitioning to the idle phase.
  int theta = 3;

  // Idle phase: relative IPS drift (vs. the value recorded when entering
  // idle) that re-triggers adaptation, e.g. when an outer server manager
  // resizes the pool (§5.4.3, §6.3).
  double idle_ips_drift_threshold = 0.20;

  // RNG seed for the randomized pieces (neighbor states, ANY tie-breaks).
  uint64_t seed = 0xC0'FA'27ULL;

  // Allocation step override; null selects the paper's HR matcher
  // (GetNextSystemState). Used only by ablation studies.
  MatchFunction matcher;
};

}  // namespace copart

#endif  // COPART_CORE_COPART_PARAMS_H_
