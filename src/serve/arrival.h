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
//
// Candidates are thinned a block at a time: a refill draws both uniforms
// of kBlock candidates in stream order, turns the first of each pair into
// an exponential gap in one pass, then walks the gaps and keeps the
// accepted arrivals. Every draw and every floating-point operation happens
// in the order a one-candidate-at-a-time loop would do them, so Next()
// returns bit-identical times; the stream is private, so drawing ahead is
// unobservable.
#ifndef COPART_SERVE_ARRIVAL_H_
#define COPART_SERVE_ARRIVAL_H_

#include <array>
#include <cstddef>
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
  // back to the constant base rate; otherwise at least one phase needs a
  // positive rate_multiplier, or no candidate would ever be accepted.
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
  double Next() {
    while (next_kept_ == num_kept_) {
      Refill();
    }
    return kept_[next_kept_++];
  }

  // Instantaneous offered rate (requests/s) at time t; always equal to
  // ArrivalRateAt(config, t). A kBurst lookup answers from the cached
  // cycle and moves the cache to t's cycle, hence non-const.
  double RateAt(double t);

  // Maximum of RateAt over all t — the thinning envelope.
  double PeakRate() const;

 private:
  // Thinning candidates per refill.
  static constexpr size_t kBlock = 64;

  void Refill();
  // RateAt's body, inlined into Refill's thinning pass.
  double CandidateRate(double t);
  // Points the kBurst cycle cache at t's cycle [n*C, (n+1)*C); true when
  // t lies in it and the cycle is exact.
  bool CacheCycle(double t);

  ArrivalConfig config_;
  Rng rng_;
  // PeakRate() and the candidate stream's mean gap 1 / PeakRate(), fixed
  // by the config and so computed once, not per thinning candidate.
  double peak_rate_ = 0.0;
  double candidate_mean_gap_sec_ = 0.0;
  // Time of the last candidate drawn (accepted or not).
  double t_ = 0.0;

  // kBurst: the cycle length C, summed once in phase order, and the
  // cached cycle. While cycle_exact_, both ends are exact multiples of C
  // and t - cycle_start_ == fmod(t, C) for every t in the range. Shapes
  // without a cycle keep one inexact range over every t.
  double cycle_sec_ = 0.0;
  double cycle_start_ = 0.0;
  double cycle_end_ = 0.0;
  bool cycle_exact_ = false;

  // The current block: uniforms, then exponential gaps (gaps_) and
  // acceptance uniforms (accepts_) of its candidates, and the accepted
  // arrival times kept_[next_kept_, num_kept_) still to hand out.
  std::array<double, kBlock> gaps_;
  std::array<double, kBlock> accepts_;
  std::array<double, kBlock> kept_;
  size_t next_kept_ = 0;
  size_t num_kept_ = 0;
};

}  // namespace copart

#endif  // COPART_SERVE_ARRIVAL_H_
