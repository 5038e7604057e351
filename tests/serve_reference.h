// Reference implementations of the serve engine's request path, drawn one
// thinning candidate and one service demand at a time, with the kBurst rate
// looked up through std::fmod on every call. This is the straightforward
// form of the engine; the production ArrivalGenerator and LcServer draw
// ahead in blocks and cache the burst cycle, and the differential tests in
// serve_arrival_test.cc and serve_engine_test.cc hold them to these
// references bit for bit.
#ifndef COPART_TESTS_SERVE_REFERENCE_H_
#define COPART_TESTS_SERVE_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "serve/arrival.h"
#include "serve/latency_sketch.h"
#include "serve/serve_engine.h"

namespace copart::serve_reference {

inline double RateAt(const ArrivalConfig& config, double t) {
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

inline double PeakRate(const ArrivalConfig& config) {
  switch (config.kind) {
    case ArrivalKind::kPoisson:
      return config.base_rate_rps;
    case ArrivalKind::kDiurnal:
      return config.base_rate_rps * (1.0 + config.diurnal_amplitude);
    case ArrivalKind::kBurst: {
      double peak = 1.0;
      for (const BurstPhase& phase : config.burst_phases) {
        peak = std::max(peak, phase.rate_multiplier);
      }
      return config.base_rate_rps * peak;
    }
    case ArrivalKind::kFlashCrowd:
      return config.base_rate_rps * std::max(1.0, config.flash_multiplier);
  }
  return config.base_rate_rps;
}

// Lewis–Shedler thinning, one exponential gap and one acceptance uniform per
// candidate, each drawn when the candidate is examined.
class Arrivals {
 public:
  Arrivals(const ArrivalConfig& config, Rng rng)
      : config_(config),
        rng_(rng),
        peak_rate_(PeakRate(config)),
        mean_gap_sec_(1.0 / peak_rate_) {}

  double Next() {
    for (;;) {
      t_ += rng_.NextExponential(mean_gap_sec_);
      const double accept = rng_.NextDouble();
      ++candidates_;
      if (accept * peak_rate_ < RateAt(config_, t_)) {
        return t_;
      }
    }
  }

  uint64_t candidates() const { return candidates_; }

 private:
  ArrivalConfig config_;
  Rng rng_;
  double peak_rate_;
  double mean_gap_sec_;
  double t_ = 0.0;
  uint64_t candidates_ = 0;
};

// The event loop of LcServer::AdvanceEpoch with every piece of state in a
// member and the service demand drawn when a request enters service.
class Server {
 public:
  Server(const LcServerConfig& config, const Rng& rng)
      : config_(config),
        service_rng_(rng.Fork(1)),
        arrivals_(config.arrival, rng.Fork(0)),
        slots_(config.queue_capacity, 0.0) {}

  EpochServeStats AdvanceEpoch(double dt, double ips_capability) {
    const double end = now_ + dt;
    const double mu = std::max(ips_capability, 0.0);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    EpochServeStats stats;
    epoch_sketch_.Clear();
    double cursor = now_;
    for (;;) {
      if (!have_pending_) {
        pending_arrival_ = arrivals_.Next();
        have_pending_ = true;
      }
      const double completion =
          in_service_ && mu > 0.0 ? cursor + remaining_instructions_ / mu
                                  : kInf;
      const double event = std::min(pending_arrival_, completion);
      if (event >= end) {
        if (in_service_ && mu > 0.0) {
          remaining_instructions_ =
              std::max(0.0, remaining_instructions_ - (end - cursor) * mu);
        }
        break;
      }
      if (completion <= pending_arrival_) {
        epoch_sketch_.Record(completion - slots_[head_]);
        head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
        --size_;
        ++total_completions_;
        ++stats.completions;
        cursor = completion;
        if (size_ > 0) {
          StartService();
        } else {
          in_service_ = false;
          remaining_instructions_ = 0.0;
        }
      } else {
        const double t = pending_arrival_;
        have_pending_ = false;
        if (in_service_ && mu > 0.0) {
          remaining_instructions_ =
              std::max(0.0, remaining_instructions_ - (t - cursor) * mu);
        }
        cursor = t;
        ++stats.arrivals;
        ++total_arrivals_;
        if (size_ == slots_.size()) {
          ++stats.drops;
          ++total_drops_;
        } else {
          slots_[tail_] = t;
          tail_ = tail_ + 1 == slots_.size() ? 0 : tail_ + 1;
          ++size_;
          if (!in_service_) {
            StartService();
          }
        }
      }
    }
    now_ = end;
    total_sketch_.Merge(epoch_sketch_);
    stats.queue_depth_end = size_;
    stats.offered_rps = static_cast<double>(stats.arrivals) / dt;
    if (epoch_sketch_.count() > 0) {
      stats.p50_ms = 1e3 * epoch_sketch_.Quantile(0.50);
      stats.p95_ms = 1e3 * epoch_sketch_.Quantile(0.95);
      stats.p99_ms = 1e3 * epoch_sketch_.Quantile(0.99);
    }
    return stats;
  }

  double now() const { return now_; }
  uint64_t total_arrivals() const { return total_arrivals_; }
  uint64_t total_completions() const { return total_completions_; }
  uint64_t total_drops() const { return total_drops_; }
  uint64_t queue_depth() const { return size_; }
  const LatencySketch& cumulative_latency() const { return total_sketch_; }

 private:
  void StartService() {
    remaining_instructions_ =
        config_.exponential_service
            ? service_rng_.NextExponential(config_.instructions_per_request)
            : config_.instructions_per_request;
    remaining_instructions_ = std::max(remaining_instructions_, 1.0);
    in_service_ = true;
  }

  LcServerConfig config_;
  Rng service_rng_;
  Arrivals arrivals_;
  std::vector<double> slots_;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t size_ = 0;
  double now_ = 0.0;
  double pending_arrival_ = 0.0;
  bool have_pending_ = false;
  double remaining_instructions_ = 0.0;
  bool in_service_ = false;
  LatencySketch epoch_sketch_;
  LatencySketch total_sketch_;
  uint64_t total_arrivals_ = 0;
  uint64_t total_completions_ = 0;
  uint64_t total_drops_ = 0;
};

}  // namespace copart::serve_reference

#endif  // COPART_TESTS_SERVE_REFERENCE_H_
