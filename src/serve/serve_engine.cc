#include "serve/serve_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace copart {

LcServer::LcServer(const LcServerConfig& config, const Rng& rng)
    : config_(config),
      service_rng_(rng.Fork(1)),
      generator_(config.arrival, rng.Fork(0)) {
  CHECK_GT(config_.instructions_per_request, 0.0);
  CHECK_GT(config_.queue_capacity, 0u);
  queue_.slots.assign(config_.queue_capacity, 0.0);
  // From here on the server always holds the next arrival.
  pending_arrival_ = generator_.Next();
}

void LcServer::RefillDemands() {
  // Every demand is floored at one instruction: an exponential draw can be
  // arbitrarily small but never helpfully zero, and the floor keeps every
  // completion advancing time.
  if (config_.exponential_service) {
    // Rng::NextExponential's draws, then its transform, guard included.
    for (double& demand : demands_) {
      demand = service_rng_.NextDouble();
    }
    for (double& demand : demands_) {
      demand = std::max(-config_.instructions_per_request *
                            std::log(demand <= 0.0 ? 0x1.0p-53 : demand),
                        1.0);
    }
  } else {
    demands_.fill(std::max(config_.instructions_per_request, 1.0));
  }
  next_demand_ = 0;
}

EpochServeStats LcServer::AdvanceEpoch(double dt, double ips_capability) {
  CHECK_GT(dt, 0.0);
  const double end = now_ + dt;
  const double mu = std::max(ips_capability, 0.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  EpochServeStats stats;
  epoch_sketch_.Clear();

  // The loop's state lives in locals and is written back once, below.
  double cursor = now_;  // Time up to which the in-service request has run.
  double arrival = pending_arrival_;
  double remaining = remaining_instructions_;
  bool in_service = in_service_;
  for (;;) {
    const double completion =
        in_service && mu > 0.0 ? cursor + remaining / mu : kInf;
    const double event = std::min(arrival, completion);
    if (event >= end) {
      // Epoch boundary: progress the in-service request to `end` and stop.
      if (in_service && mu > 0.0) {
        remaining = std::max(0.0, remaining - (end - cursor) * mu);
      }
      break;
    }
    if (completion <= arrival) {
      epoch_sketch_.Record(completion - queue_.front());
      queue_.pop();
      ++stats.completions;
      cursor = completion;
      in_service = queue_.size_ > 0;
      remaining = in_service ? NextDemand() : 0.0;
    } else {
      const double t = arrival;
      arrival = generator_.Next();
      if (in_service && mu > 0.0) {
        remaining = std::max(0.0, remaining - (t - cursor) * mu);
      }
      cursor = t;
      ++stats.arrivals;
      if (queue_.full()) {
        ++stats.drops;
      } else {
        queue_.push(t);
        if (!in_service) {
          remaining = NextDemand();
          in_service = true;
        }
      }
    }
  }
  pending_arrival_ = arrival;
  remaining_instructions_ = remaining;
  in_service_ = in_service;

  now_ = end;
  total_arrivals_ += stats.arrivals;
  total_completions_ += stats.completions;
  total_drops_ += stats.drops;
  // Bucket counts are integers, so merging once per epoch gives the
  // cumulative sketch the same counts as recording each request into it.
  total_sketch_.Merge(epoch_sketch_);
  stats.queue_depth_end = queue_.size_;
  stats.offered_rps = static_cast<double>(stats.arrivals) / dt;
  if (epoch_sketch_.count() > 0) {
    stats.p50_ms = 1e3 * epoch_sketch_.Quantile(0.50);
    stats.p95_ms = 1e3 * epoch_sketch_.Quantile(0.95);
    stats.p99_ms = 1e3 * epoch_sketch_.Quantile(0.99);
  }
  return stats;
}

}  // namespace copart
