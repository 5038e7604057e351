// Design parameters of CoPart (paper §5.2, §5.3, §5.4, Fig. 11).
//
// The values are the ones the paper selected through design-space
// exploration; bench_fig11_param_sensitivity sweeps them.
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

// Hardening knobs for the actuation path (retry/backoff, degraded mode,
// counter quarantine). Delays are measured in control periods, not seconds:
// the manager acts only at period boundaries, so that is its native clock.
struct ActuationParams {
  // R: consecutive failed actuation attempts (after per-attempt rollback)
  // before the manager gives up and enters the degraded phase.
  int max_consecutive_failures = 5;

  // Exponential backoff between actuation retries, in control periods.
  double backoff_initial_periods = 1.0;
  double backoff_multiplier = 2.0;
  double backoff_max_periods = 8.0;
  double backoff_jitter = 0.25;

  // K: consecutive bad counter samples (dropped, stale, or saturated)
  // before an app is quarantined to the conservative class; consecutive
  // good samples required to release it.
  int quarantine_after_bad_samples = 3;
  int quarantine_release_good_samples = 3;

  // Consecutive successful fair-share applies in the degraded phase before
  // the manager declares the substrate healthy and restarts adaptation.
  int degraded_recovery_successes = 3;

  // Instruction-delta ceiling per sample; anything above is a saturated or
  // wrapped counter, never a real reading (16 cores * 2.1 GHz * 0.5 s is
  // ~1.7e10).
  double saturation_instructions = 1e12;
};

// SloParams (the SLO-aware serving mode, paper §6.3, DESIGN.md §9/§15)
// lives in slo/slo_params.h next to the pluggable governors; it is
// re-exported here as ResourceManagerParams::slo.

// Unfairness-trend backoff (an FCP-style OFF/ON/BACKOFF governor over the
// exploration loop; DESIGN.md §10.3). Partitioning does not help every
// consolidation — when the measured unfairness keeps RISING for
// max_increasing_intervals consecutive exploration periods, continuing to
// move ways and MBA levels is thrash, not control. The manager then
// restores the best state seen this exploration, parks on it for
// backoff_periods control periods (no re-adaptation triggers), and only
// then re-probes from profiling.
struct TrendBackoffParams {
  bool enabled = false;

  // Exploration periods observed before the trend detector arms; the first
  // samples after (re)profiling measure transient allocations.
  int warmup_periods = 3;

  // Relative growth that counts as "unfairness increased" (1.02 = +2%);
  // sub-threshold wobble never feeds the streak.
  double increase_factor = 1.02;

  // Consecutive increasing intervals that engage the backoff.
  int max_increasing_intervals = 2;

  // Control periods to hold the best state before re-probing. The chaos
  // property suite pins that a re-probe (or a degraded entry) always
  // happens within this window.
  int backoff_periods = 10;
};

// LFOC / LFOC+ clustering policy (core/lfoc_policy.h; arxiv 2402.07578 and
// its LFOC+ refinement 2402.07693). Apps are classified light / streaming /
// sensitive each period and packed into *shared* CLOSes — one light
// cluster, one streaming cluster, and one or more sensitive clusters — so
// the policy scales past the hardware CLOS limit that per-app CoPart hits.
struct LfocParams {
  // Ways pinned to the light cluster (apps that cannot use cache anyway)
  // and to the streaming cluster (apps that thrash it), when non-empty.
  uint32_t light_ways = 1;
  uint32_t streaming_ways = 1;

  // MBA ceiling for the streaming cluster: bandwidth hogs are throttled so
  // the sensitive clusters' misses see an uncongested controller.
  uint32_t streaming_mba_percent = 40;

  // LFOC+ cluster resizing (only with the "lfoc+" policy): when the
  // max-min slowdown spread inside the sensitive class exceeds
  // split_spread, one more sensitive cluster is opened (isolating the
  // most-slowed apps); when it falls below merge_spread, clusters merge
  // back. resize_cooldown_periods must elapse between resizes.
  double split_spread = 0.15;
  double merge_spread = 0.05;
  int resize_cooldown_periods = 4;
};

// CBP-style prefetch coordination (core/cbp_policy.h; arxiv 2102.11528):
// LFOC clustering plus a third actuator — streaming apps get their
// prefetcher throttled, trading their (speculatively inflated) bandwidth
// demand for a longer per-miss stall, which relieves the memory controller
// for everyone else. Hysteresis: the throttle engages at
// ClassifierParams::traffic_ratio_high and releases only once the app's
// traffic ratio falls below release_traffic_ratio.
struct CbpParams {
  uint32_t throttled_prefetch_percent = 40;
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

  // Clustering/prefetch rival policy knobs (unused by "copart").
  LfocParams lfoc;
  CbpParams cbp;

  // SLO-aware serving mode; disabled by default (pure batch fairness).
  SloParams slo;

  // Unfairness-trend backoff governor; disabled by default.
  TrendBackoffParams trend;

  // Control period between adaptation steps (Algorithm 1's sleep(period)).
  double control_period_sec = 0.5;

  // theta: neighbor-state retries before transitioning to the idle phase.
  int theta = 3;

  // Profiling probes (§5.4.1): l_P ways at 100% MBA, and all ways at M_P.
  uint32_t profile_ways = 2;
  uint32_t profile_mba_percent = 20;
  // Degradation threshold that sets the initial FSM state to Demand.
  double profile_degradation_threshold = 0.10;

  // Idle phase: relative IPS drift (vs. the value recorded when entering
  // idle) that re-triggers adaptation, e.g. when an outer server manager
  // resizes the pool (§5.4.3, §6.3).
  double idle_ips_drift_threshold = 0.20;

  // RNG seed for the randomized pieces (neighbor states, ANY tie-breaks).
  uint64_t seed = 0xC0'FA'27ULL;

  // Allocation step override; null selects the paper's HR matcher
  // (GetNextSystemState). Used only by ablation studies.
  MatchFunction matcher;

  // Retry/backoff/degraded-mode policy for the actuation path.
  ActuationParams actuation;
};

}  // namespace copart

#endif  // COPART_CORE_COPART_PARAMS_H_
