#include "serve/arrival.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace copart {
namespace {

double BurstCycleSec(const ArrivalConfig& config) {
  double cycle_sec = 0.0;
  for (const BurstPhase& phase : config.burst_phases) {
    cycle_sec += phase.duration_sec;
  }
  return cycle_sec;
}

// The kBurst rate at `offset` seconds into the cycle. ArrivalRateAt and the
// generator's cached lookup both walk the phases here, so a given offset
// takes the same subtractions and lands in the same phase either way.
double BurstRateAtOffset(const ArrivalConfig& config, double offset) {
  for (const BurstPhase& phase : config.burst_phases) {
    if (offset < phase.duration_sec) {
      return config.base_rate_rps * phase.rate_multiplier;
    }
    offset -= phase.duration_sec;
  }
  return config.base_rate_rps * config.burst_phases.back().rate_multiplier;
}

}  // namespace

ArrivalGenerator::ArrivalGenerator(const ArrivalConfig& config, Rng rng)
    : config_(config), rng_(rng) {
  CHECK_GT(config_.base_rate_rps, 0.0);
  if (config_.kind == ArrivalKind::kDiurnal) {
    CHECK_GT(config_.diurnal_period_sec, 0.0);
    CHECK_GE(config_.diurnal_amplitude, 0.0);
    CHECK_LE(config_.diurnal_amplitude, 1.0);
  }
  if (config_.kind == ArrivalKind::kFlashCrowd) {
    CHECK_GE(config_.flash_start_sec, 0.0);
    CHECK_GT(config_.flash_duration_sec, 0.0);
    CHECK_GE(config_.flash_multiplier, 0.0);
  }
  for (const BurstPhase& phase : config_.burst_phases) {
    CHECK_GT(phase.duration_sec, 0.0);
    CHECK_GE(phase.rate_multiplier, 0.0);
  }
  if (config_.kind == ArrivalKind::kBurst && !config_.burst_phases.empty()) {
    // PeakRate() floors the envelope at the base rate, so phases that are
    // all silent would reject every candidate and Next() would never
    // return.
    CHECK(std::any_of(
        config_.burst_phases.begin(), config_.burst_phases.end(),
        [](const BurstPhase& phase) { return phase.rate_multiplier > 0.0; }))
        << "kBurst phases carry no traffic";
  }
  peak_rate_ = PeakRate();
  candidate_mean_gap_sec_ = 1.0 / peak_rate_;
  cycle_sec_ = BurstCycleSec(config_);
  if (config_.kind != ArrivalKind::kBurst || cycle_sec_ <= 0.0) {
    // No cycle to cache: one range over every t, never exact, sends each
    // lookup straight to ArrivalRateAt.
    cycle_start_ = -std::numeric_limits<double>::infinity();
    cycle_end_ = std::numeric_limits<double>::infinity();
  }
}

double ArrivalRateAt(const ArrivalConfig& config, double t) {
  switch (config.kind) {
    case ArrivalKind::kPoisson:
      return config.base_rate_rps;
    case ArrivalKind::kDiurnal: {
      const double phase = 2.0 * M_PI * t / config.diurnal_period_sec;
      return std::max(
          0.0, config.base_rate_rps *
                   (1.0 + config.diurnal_amplitude * std::sin(phase)));
    }
    case ArrivalKind::kBurst: {
      const double cycle_sec = BurstCycleSec(config);
      if (cycle_sec <= 0.0) {
        return config.base_rate_rps;
      }
      double offset = std::fmod(t, cycle_sec);
      if (offset < 0.0) {
        offset += cycle_sec;
      }
      return BurstRateAtOffset(config, offset);
    }
    case ArrivalKind::kFlashCrowd: {
      const bool in_flash =
          t >= config.flash_start_sec &&
          t < config.flash_start_sec + config.flash_duration_sec;
      return in_flash ? config.base_rate_rps * config.flash_multiplier
                      : config.base_rate_rps;
    }
  }
  return config.base_rate_rps;
}

inline double ArrivalGenerator::CandidateRate(double t) {
  const bool cached = t >= cycle_start_ && t < cycle_end_ ? cycle_exact_
                                                          : CacheCycle(t);
  return cached ? BurstRateAtOffset(config_, t - cycle_start_)
                : ArrivalRateAt(config_, t);
}

double ArrivalGenerator::RateAt(double t) { return CandidateRate(t); }

bool ArrivalGenerator::CacheCycle(double t) {
  // t / C rounds, so t can miss the cycle computed here by an ulp near a
  // boundary; RateAt then falls back for that t. The range is exact only
  // when std::fma, which rounds n*C - end once, finds both ends to be
  // exact multiples: then t - n*C is fmod(t, C) for every t >= 0 in it,
  // because fmod's result is exact and so is that subtraction.
  const double n = std::floor(t / cycle_sec_);
  cycle_start_ = n * cycle_sec_;
  cycle_end_ = (n + 1.0) * cycle_sec_;
  cycle_exact_ = n >= 0.0 &&
                 std::fma(n, cycle_sec_, -cycle_start_) == 0.0 &&
                 std::fma(n + 1.0, cycle_sec_, -cycle_end_) == 0.0;
  return cycle_exact_ && t >= cycle_start_ && t < cycle_end_;
}

double ArrivalGenerator::PeakRate() const {
  switch (config_.kind) {
    case ArrivalKind::kPoisson:
      return config_.base_rate_rps;
    case ArrivalKind::kDiurnal:
      return config_.base_rate_rps * (1.0 + config_.diurnal_amplitude);
    case ArrivalKind::kBurst: {
      double peak = 1.0;
      for (const BurstPhase& phase : config_.burst_phases) {
        peak = std::max(peak, phase.rate_multiplier);
      }
      return config_.base_rate_rps * peak;
    }
    case ArrivalKind::kFlashCrowd:
      return config_.base_rate_rps * std::max(1.0, config_.flash_multiplier);
  }
  return config_.base_rate_rps;
}

void ArrivalGenerator::Refill() {
  // Stream order: each candidate's gap uniform, then its acceptance
  // uniform (one exponential + one uniform, as the header promises).
  for (size_t i = 0; i < kBlock; ++i) {
    gaps_[i] = rng_.NextDouble();
    accepts_[i] = rng_.NextDouble();
  }
  // Rng::NextExponential's transform, guard included.
  for (double& gap : gaps_) {
    gap = -candidate_mean_gap_sec_ * std::log(gap <= 0.0 ? 0x1.0p-53 : gap);
  }
  // Every candidate advances t_; the accepted ones are stored and counted
  // without a branch (a rejected one is overwritten by the next store).
  size_t kept = 0;
  double t = t_;
  for (size_t i = 0; i < kBlock; ++i) {
    t += gaps_[i];
    kept_[kept] = t;
    kept += accepts_[i] * peak_rate_ < CandidateRate(t) ? 1 : 0;
  }
  t_ = t;
  next_kept_ = 0;
  num_kept_ = kept;
}

}  // namespace copart
