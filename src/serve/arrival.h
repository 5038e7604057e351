// Open-loop request arrival generators for the serve engine.
//
// Three shapes, all driven from explicitly forked Rng streams so a
// multi-server scenario replays bit-for-bit (DESIGN.md §9):
//
//   - kPoisson:    homogeneous Poisson process at base_rate_rps.
//   - kDiurnal:    sinusoidal rate ramp, base * (1 + amplitude*sin(2*pi*t/T)).
//   - kBurst:      piecewise-constant rate phases cycling through
//                  burst_phases (the §6.3 load-step trace is one of these).
//   - kFlashCrowd: base rate everywhere except one [start, start+duration)
//                  window at base * flash_multiplier — the one-shot
//                  flash-crowd step (it does NOT cycle like kBurst).
//
// The time-varying shapes use Lewis–Shedler thinning against the peak
// rate: candidate arrivals are drawn from a homogeneous process at
// PeakRate() and accepted with probability RateAt(t)/PeakRate(). The
// draw sequence (one exponential + one uniform per candidate) is fixed
// for every shape — including plain Poisson — so switching shapes never
// shifts a co-located generator's stream.
#ifndef COPART_SERVE_ARRIVAL_H_
#define COPART_SERVE_ARRIVAL_H_

#include <vector>

#include "common/rng.h"

namespace copart {

enum class ArrivalKind { kPoisson, kDiurnal, kBurst, kFlashCrowd };

// One piecewise-constant phase of a kBurst trace; phases cycle.
struct BurstPhase {
  double duration_sec = 0.0;
  double rate_multiplier = 1.0;  // Applied to base_rate_rps.
};

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double base_rate_rps = 1000.0;

  // kDiurnal: rate = base * (1 + amplitude * sin(2*pi*t/period)), >= 0.
  double diurnal_period_sec = 86400.0;
  double diurnal_amplitude = 0.5;  // In [0, 1].

  // kBurst phases, cycled for the lifetime of the generator. Empty falls
  // back to the constant base rate.
  std::vector<BurstPhase> burst_phases;

  // kFlashCrowd: rate = base * flash_multiplier while
  // t in [flash_start_sec, flash_start_sec + flash_duration_sec),
  // base elsewhere. One-shot, not cyclic.
  double flash_start_sec = 10.0;
  double flash_duration_sec = 5.0;
  double flash_multiplier = 4.0;
};

// Instantaneous offered rate (requests/s) of `config` at time t. The
// harness uses this to feed the SLO governor the next period's offered
// load without owning a generator.
double ArrivalRateAt(const ArrivalConfig& config, double t);

class ArrivalGenerator {
 public:
  ArrivalGenerator(const ArrivalConfig& config, Rng rng);

  // Absolute time (seconds since t=0) of the next arrival; strictly
  // increasing across calls.
  double Next();

  // Instantaneous offered rate (requests/s) at time t.
  double RateAt(double t) const;

  // Maximum of RateAt over all t — the thinning envelope.
  double PeakRate() const;

 private:
  ArrivalConfig config_;
  Rng rng_;
  // PeakRate() and the candidate stream's mean gap 1 / PeakRate(), fixed
  // by the config and so computed once, not per thinning candidate.
  double peak_rate_ = 0.0;
  double candidate_mean_gap_sec_ = 0.0;
  double t_ = 0.0;
};

}  // namespace copart

#endif  // COPART_SERVE_ARRIVAL_H_
