// Pluggable SLO governors: size a latency-critical CLOS from predicted
// tail latency (DESIGN.md §15).
//
// ResourceManager (core/resource_manager.h) is the *driver* of the SLO
// mode: it owns admission, the bottom-up carving of LC slices out of the
// resource pool, transactional actuation and telemetry. An SloGovernor
// owns the *sizing decision*: given the offered load and the permitted
// width range, pick the slice width and whether the batch MBA ceiling must
// be capped.
//
// Every governor runs one walk, Plan(): grow ways first — the smallest
// width in [floor, max_ways] whose predicted p95 meets the SLO with
// kHeadroom and whose utilization stays at or below kMaxUtilization — then
// the shrink hysteresis, then the batch MBA protection. SloGovernor with
// no override IS the hand-tuned M/M/1 threshold loop ("threshold",
// golden-enforced). The online-learned rivals override hooks of that one
// walk: the MPC governor (slo/mpc_governor.h) its p95 prediction and its
// predictive-protection test, the bandit (slo/bandit_governor.h) one arm
// step after the walk.
//
// Learned governors close the loop through ObserveOutcome: the serve
// harness reports each period's measured p95 back through
// ResourceManager::ReportLcOutcome, which pairs it with the decision that
// served the period (width, MBA cap, offered load — the same pair the
// AuditLog records under the "slo_outcome" trigger) and forwards it here.
// Governors must be deterministic: decisions are pure functions of the
// constructor arguments and the observation history — no wall clock, no
// unseeded randomness — so every scenario replays bit-identically at any
// --threads value.
#ifndef COPART_SLO_SLO_GOVERNOR_H_
#define COPART_SLO_SLO_GOVERNOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "slo/slo_params.h"

namespace copart {

// Model of one latency-critical app, supplied by the outer harness (a
// Heracles-style manager would fit it from profiling).
struct LcAppModel {
  // Tail-latency SLO: 95th percentile sojourn time, milliseconds.
  double slo_p95_ms = 1.0;
  // Mean instructions retired per request (converts IPS into requests/s).
  double instructions_per_request = 60000.0;
  // Predicted IPS capability of the app with `ways` LLC ways at the full
  // MBA level. Must be monotone non-decreasing in `ways` and deterministic
  // (a fixed function of the width): the governor memoizes it per width so
  // every Plan() after the first answers from the cache. Harnesses may
  // back it with the analytic CPI model (harness/serve.h) or with the
  // snapshot/rollback what-if evaluator (harness/whatif.h).
  std::function<double(uint32_t ways)> capability_ips;
  // Offered load (requests/s) the first plan — at registration, before any
  // SetLcOfferedLoad call — is sized for.
  double initial_offered_rps = 0.0;
};

struct SloDecision {
  uint32_t lc_ways = 0;
  // Requested batch-slice MBA ceiling (the pool maximum unless protection
  // engaged).
  uint32_t batch_mba_percent = 100;
  double predicted_p95_ms = 0.0;
  // False when even max_ways cannot meet the SLO with headroom.
  bool attainable = true;
};

// Measured outcome of one served control period, paired with the decision
// that served it — the learning signal for adaptive governors and the
// payload of the "slo_outcome" audit records.
struct SloOutcome {
  // Offered load the period was planned for (requests/s).
  double offered_rps = 0.0;
  // Actuated slice width and batch MBA ceiling the period ran under.
  uint32_t lc_ways = 0;
  uint32_t batch_mba_percent = 100;
  // p95 sojourn of the period's completions, ms (0 when none completed).
  double measured_p95_ms = 0.0;
  // True when the period completed nothing while requests were queued.
  bool stalled = false;
  // Workload phase id in effect during the period (bandit context; 0 for
  // phase-free workloads).
  size_t phase_index = 0;
};

class SloGovernor {
 public:
  // The slice is sized so predicted p95 <= slo_p95_ms / kHeadroom.
  static constexpr double kHeadroom = 1.25;
  // Capacity guard: the slice must also keep offered/service utilization
  // at or below this. Near saturation the M/M/1 tail is hyper-sensitive
  // to capability-model error (a few percent of optimism turns a "meets
  // the SLO" plan into an overloaded queue), so the p95 test alone is not
  // a safe provisioning criterion.
  static constexpr double kMaxUtilization = 0.9;
  // Shrink hysteresis: a narrower slice is adopted only if it still meets
  // the target with the offered load inflated by this factor, so way
  // quantization noise cannot flap the slice every period.
  static constexpr double kShrinkLoadMargin = 1.2;
  // Batch MBA ceiling while protection is engaged (SloParams::
  // protect_rps_threshold, an unattainable SLO, or a learned signal).
  static constexpr uint32_t kBatchMbaProtectPercent = 50;
  // Log-scale offered-load bucketing of the learned governors' tables:
  // bucket = floor(log(rps) / log(kLoadBucketStep)).
  static constexpr double kLoadBucketStep = 1.25;

  // The threshold governor; MakeSloGovernor builds every governor.
  SloGovernor(const SloParams& params, LcAppModel model);
  virtual ~SloGovernor() = default;

  virtual const char* name() const { return "threshold"; }

  // Plans the slice for `offered_rps` with widths in [floor, max_ways].
  // `current_ways` (0 = none yet) engages the shrink hysteresis;
  // `pool_max_mba` is the batch ceiling when protection is off. The
  // returned width is never below min(lc_way_floor, max_ways).
  SloDecision Plan(double offered_rps, uint32_t max_ways,
                   uint32_t current_ways, uint32_t pool_max_mba);

  // Feeds the measured outcome of the previously planned period. The
  // threshold governor ignores it; learned governors update their model.
  virtual void ObserveOutcome(const SloOutcome& /*outcome*/) {}

  const LcAppModel& model() const { return model_; }

 protected:
  // Predicted p95 (ms) at `ways`: the analytic M/M/1 tail.
  virtual double P95Ms(double offered_rps, uint32_t ways);
  // True when a learned signal asks for the batch MBA cap although the
  // plan is attainable and below protect_rps_threshold.
  virtual bool PredictsOverload(double /*offered_rps*/) const {
    return false;
  }
  // Moves the walk's width (after the hysteresis, before protection).
  virtual void StepAfterWalk(double /*offered_rps*/, uint32_t /*max_ways*/,
                             SloDecision* /*decision*/) {}

  // Service rate (requests/s) at `ways`, memoized: capability_ips may be
  // an expensive model evaluation (e.g. a what-if machine solve) and
  // Plan probes the same few widths every period.
  double ServiceRps(uint32_t ways);
  // True when `p95_ms` at `ways` meets the SLO with headroom and the
  // utilization guard holds.
  bool Meets(double offered_rps, uint32_t ways, double p95_ms);
  uint32_t WayFloor(uint32_t max_ways) const;
  static int LoadBucket(double offered_rps);

  SloParams params_;
  LcAppModel model_;

 private:
  // The smallest width in [floor, max_ways] meeting the SLO for
  // `offered_rps`; attainable=false (and width max_ways) when none does.
  SloDecision SmallestMeeting(double offered_rps, uint32_t max_ways);

  // Per-width memo for ServiceRps; negative entries are unset.
  std::vector<double> service_rps_cache_;
};

// Factory: builds the governor named by `name` ("threshold", "mpc",
// "bandit"); CHECK-fails on an unknown name. `params.governor` is NOT
// consulted — the caller picks (ResourceManager passes params.slo.governor).
std::unique_ptr<SloGovernor> MakeSloGovernor(const std::string& name,
                                             const SloParams& params,
                                             LcAppModel model);

// Every registered governor name, in registration order — the chaos and
// conformance suites parameterize over this.
const std::vector<std::string>& RegisteredSloGovernorNames();

}  // namespace copart

#endif  // COPART_SLO_SLO_GOVERNOR_H_
