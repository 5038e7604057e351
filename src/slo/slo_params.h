// Parameters of the SLO-aware serving mode and its pluggable governors
// (DESIGN.md §9, §15). Lives in src/slo so the governor implementations —
// which sit below core — can share the knobs with the ResourceManager
// driver; core/copart_params.h re-exports SloParams as part of
// ResourceManagerParams.
#ifndef COPART_SLO_SLO_PARAMS_H_
#define COPART_SLO_SLO_PARAMS_H_

#include <cstdint>
#include <string>

namespace copart {

// Contextual-bandit governor (slo/bandit_governor.h): UCB1 over way-delta
// arms applied to the walk's width, with context = offered-load bucket x
// workload phase id.
struct SloBanditParams {
  // Exploration constant of the UCB index (mean + c*sqrt(ln N / n)).
  double exploration_c = 0.5;
};

// SLO-aware serving mode (paper §6.3, DESIGN.md §9). When enabled, the
// manager carves a latency-critical slice off its resource pool *before*
// running the CoPart fairness allocation: each registered LC app
// (ResourceManager::SetLatencyCriticalApp) gets the smallest CLOS for
// which its predicted p95 — an M/M/1 sojourn tail at the app's modelled
// IPS capability (serve/queue_model.h) — meets the SLO with headroom,
// and the batch apps are matched over the remaining ways. The walk's
// tuning values (headroom, utilization guard, shrink margin, MBA cap)
// are constants of SloGovernor (slo/slo_governor.h).
struct SloParams {
  bool enabled = false;

  // Which SloGovernor plans the LC slices (slo/slo_governor.h):
  // "threshold" (default; the hand-tuned M/M/1 loop), "mpc" (online
  // learned p95 surface), or "bandit" (contextual UCB over way deltas).
  std::string governor = "threshold";

  // Minimum ways an LC CLOS may ever hold. The governor never plans below
  // it, and the chaos property suite pins that no fault schedule can leave
  // the actuated LC mask narrower — for EVERY registered governor.
  uint32_t lc_way_floor = 1;

  // Offered load (requests/s) at or above which the batch slice's MBA
  // ceiling is capped (SloGovernor::kBatchMbaProtectPercent), shielding
  // the LC app's memory traffic during load peaks (Fig. 15's burst
  // response); <= 0 disables. The cap also engages whenever the SLO is
  // predicted unattainable at every permitted slice width.
  double protect_rps_threshold = 0.0;

  // Bandit-governor knob (unused by "threshold" and "mpc").
  SloBanditParams bandit;
};

}  // namespace copart

#endif  // COPART_SLO_SLO_PARAMS_H_
