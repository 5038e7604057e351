// Model-predictive SLO governor: learns the p95-vs-(ways, offered-load)
// surface online from decision/outcome pairs (DESIGN.md §15).
//
// The analytic M/M/1 prediction the threshold governor trusts is built on
// PredictLcCapabilityIps, which reads the *baseline* workload descriptor —
// it is phase-blind and calibration-blind. This governor runs the same
// grow-ways-first walk (SloGovernor::Plan) but multiplies every analytic
// p95 by a learned correction factor: an EWMA of measured/predicted
// ratios bucketed by (slice width × log-scale offered-load bucket),
// optimistically initialized at 1.0 (trust the model until evidence says
// otherwise) and falling back to the load-bucket marginal while a cell is
// cold. A stalled period (queued requests, zero completions) records
// kMaxCorrection — the strongest possible "the model was wrong" signal.
// When the load marginal says the analytic model is optimistic by
// kProtectCorrection or more, the batch MBA cap engages predictively,
// before the static protect_rps_threshold would.
//
// Deterministic by construction: no randomness anywhere — decisions are a
// pure function of the constructor arguments and the ObserveOutcome
// history, so A/B tables replay bit-identically at any --threads value.
#ifndef COPART_SLO_MPC_GOVERNOR_H_
#define COPART_SLO_MPC_GOVERNOR_H_

#include <cstdint>
#include <map>
#include <utility>

#include "slo/slo_governor.h"

namespace copart {

class MpcSloGovernor : public SloGovernor {
 public:
  // EWMA weight of a fresh measured/predicted p95 ratio.
  static constexpr double kLearningRate = 0.3;
  // Corrections are clamped into [kMinCorrection, kMaxCorrection]; a
  // stalled epoch (completions 0, queue > 0) records kMaxCorrection. The
  // ceiling is deliberately high: during a queue-drain transient the
  // steady-state model predicts microseconds while the backlog serves in
  // milliseconds, and the correction must span that gap for the governor
  // to buy drain bandwidth (extra ways) instead of re-trusting the model.
  static constexpr double kMinCorrection = 0.25;
  static constexpr double kMaxCorrection = 64.0;
  // Cells answer the optimistic prior (correction 1.0 — trust the analytic
  // model) until they have accumulated this many outcomes; below it the
  // load-bucket marginal stands in when IT has enough samples.
  static constexpr int kMinCellSamples = 2;
  // Predictive MBA protection: a learned load-marginal correction at or
  // above this factor (the analytic model is measurably optimistic at the
  // current load) engages the batch MBA cap even below the static
  // protect_rps_threshold.
  static constexpr double kProtectCorrection = 1.5;

  using SloGovernor::SloGovernor;

  const char* name() const override { return "mpc"; }

  void ObserveOutcome(const SloOutcome& outcome) override;

  // Correction factor applied to the analytic p95 at (ways, offered_rps):
  // the (ways × load-bucket) cell when warm, else the load-bucket
  // marginal when warm, else the optimistic prior 1.0. Exposed for tests.
  double CorrectionFor(uint32_t ways, double offered_rps) const;

  // Number of outcomes absorbed so far. Exposed for tests.
  int outcomes_observed() const { return outcomes_observed_; }

 private:
  struct Cell {
    double correction = 1.0;
    int samples = 0;
  };

  // The analytic p95 times CorrectionFor(ways, offered_rps).
  double P95Ms(double offered_rps, uint32_t ways) override;
  bool PredictsOverload(double offered_rps) const override;

  // (ways, load bucket) -> learned correction. std::map keeps iteration
  // (and therefore any future serialization) deterministic.
  std::map<std::pair<uint32_t, int>, Cell> cells_;
  // load bucket -> marginal correction across all widths (the cold-cell
  // fallback and the predictive-protection signal).
  std::map<int, Cell> load_marginal_;
  int outcomes_observed_ = 0;
};

}  // namespace copart

#endif  // COPART_SLO_MPC_GOVERNOR_H_
