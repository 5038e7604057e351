#include "serve/arrival.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace copart {

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
  peak_rate_ = PeakRate();
  candidate_mean_gap_sec_ = 1.0 / peak_rate_;
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
      double cycle_sec = 0.0;
      for (const BurstPhase& phase : config.burst_phases) {
        cycle_sec += phase.duration_sec;
      }
      if (cycle_sec <= 0.0) {
        return config.base_rate_rps;
      }
      double offset = std::fmod(t, cycle_sec);
      if (offset < 0.0) {
        offset += cycle_sec;
      }
      for (const BurstPhase& phase : config.burst_phases) {
        if (offset < phase.duration_sec) {
          return config.base_rate_rps * phase.rate_multiplier;
        }
        offset -= phase.duration_sec;
      }
      return config.base_rate_rps * config.burst_phases.back().rate_multiplier;
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

double ArrivalGenerator::RateAt(double t) const {
  return ArrivalRateAt(config_, t);
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

double ArrivalGenerator::Next() {
  for (;;) {
    t_ += rng_.NextExponential(candidate_mean_gap_sec_);
    // One uniform per candidate regardless of shape keeps the stream
    // layout identical across kinds (see the header).
    const double accept = rng_.NextDouble();
    if (accept * peak_rate_ < RateAt(t_)) {
      return t_;
    }
  }
}

}  // namespace copart
