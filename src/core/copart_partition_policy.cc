#include "core/copart_partition_policy.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace copart {

CoPartPartitionPolicy::CoPartPartitionPolicy(
    const ResourceManagerParams& params, Mode mode)
    : params_(params), mode_(mode) {}

std::string CoPartPartitionPolicy::name() const {
  switch (mode_) {
    case Mode::kCoordinated:
      return "copart";
    case Mode::kCatOnly:
      return "cat-only";
    case Mode::kMbaOnly:
      return "mba-only";
  }
  return "?";
}

void CoPartPartitionPolicy::OnAppAdded() {
  apps_.push_back(AppState{.llc_fsm = LlcClassifierFsm(params_.classifier),
                           .mba_fsm = MbaClassifierFsm(params_.classifier)});
  ReserveRoom(infos_, apps_.size());
  ReserveRoom(llc_events_, apps_.size());
  ReserveRoom(mba_events_, apps_.size());
  match_.Reserve(apps_.size());
}

void CoPartPartitionPolicy::OnAppRemoved(size_t index) {
  apps_.erase(apps_.begin() + static_cast<ptrdiff_t>(index));
}

void CoPartPartitionPolicy::ObserveProbe(size_t app, ProbeKind kind,
                                         const ProbeSignal& signal) {
  AppState& state = apps_[app];
  switch (kind) {
    case ProbeKind::kFull:
      // The slowdown reference (IPS_full) lives in the driver; nothing to
      // classify from the full-resource probe itself.
      break;
    case ProbeKind::kFewWays: {
      const double degradation = 1.0 - signal.ips / signal.ips_full;
      if (degradation > kProfileDegradationThreshold) {
        state.llc_initial = ResourceClass::kDemand;
      } else if (signal.llc_access_rate <
                     params_.classifier.llc_access_rate_floor ||
                 signal.llc_miss_ratio <
                     params_.classifier.llc_miss_ratio_low) {
        state.llc_initial = ResourceClass::kSupply;
      } else {
        state.llc_initial = ResourceClass::kMaintain;
      }
      break;
    }
    case ProbeKind::kLowMba: {
      const double degradation = 1.0 - signal.ips / signal.ips_full;
      const double traffic_ratio =
          signal.llc_misses_per_sec / signal.stream_miss_rate_ref;
      if (degradation > kProfileDegradationThreshold) {
        state.mba_initial = ResourceClass::kDemand;
      } else if (traffic_ratio < params_.classifier.traffic_ratio_low) {
        state.mba_initial = ResourceClass::kSupply;
      } else {
        state.mba_initial = ResourceClass::kMaintain;
      }
      break;
    }
  }
}

void CoPartPartitionPolicy::ObserveProbeSkipped(size_t app) {
  // Quarantined mid-profile: no trustworthy probes, conservative defaults.
  apps_[app].llc_initial = ResourceClass::kMaintain;
  apps_[app].mba_initial = ResourceClass::kMaintain;
}

void CoPartPartitionPolicy::StartExploration(const ResourcePool& pool,
                                             size_t num_apps,
                                             PartitionDecision* decision) {
  CHECK_EQ(num_apps, apps_.size());
  retry_count_ = 0;
  for (AppState& app : apps_) {
    app.llc_fsm.Reset(app.llc_initial);
    app.mba_fsm.Reset(app.mba_initial);
  }
  llc_events_.assign(apps_.size(), ResourceEvent::kNone);
  mba_events_.assign(apps_.size(), ResourceEvent::kNone);
  infos_.assign(apps_.size(), MatchAppInfo{});
  FairShare(pool, num_apps, decision);
}

void CoPartPartitionPolicy::FairShare(const ResourcePool& pool,
                                      size_t num_apps,
                                      PartitionDecision* decision) const {
  // Exploration starts from equal ways. When MBA partitioning is dynamic the
  // levels start at the pool ceiling (the hardware reset state): Supply apps
  // are throttled *down* from there, and a level-up for a consumer is paired
  // with a level-down at a producer — matching the paper's
  // producer/consumer formulation. When MBA moves are disabled (the
  // CAT-only baseline's "equal memory bandwidth partitioning"), the levels
  // are frozen at the equal static share instead.
  if (mba_moves()) {
    decision->state.AssignEqualShare(pool, num_apps);
  } else {
    decision->state.AssignEqualShareThrottled(pool, num_apps);
  }
  MakePerAppDecision(decision);
}

void CoPartPartitionPolicy::Classify(
    const std::vector<PolicySignals>& signals) {
  CHECK_EQ(signals.size(), apps_.size());
  infos_.resize(apps_.size());
  for (size_t i = 0; i < apps_.size(); ++i) {
    AppState& app = apps_[i];
    const PolicySignals& s = signals[i];
    if (s.healthy) {
      ClassifierInput llc_input{
          .llc_access_rate = s.llc_access_rate,
          .llc_miss_ratio = s.llc_miss_ratio,
          .traffic_ratio = 0.0,
          .perf_delta = s.perf_delta,
          .last_event = llc_events_[i],
      };
      app.llc_fsm.Update(llc_input);

      ClassifierInput mba_input = llc_input;
      mba_input.traffic_ratio = s.traffic_ratio;
      mba_input.last_event = mba_events_[i];
      app.mba_fsm.Update(mba_input);
    }
    // Unhealthy: keep the FSM states from the last trusted period — garbage
    // must not drive classification.
    if (s.quarantined) {
      // Conservative citizen: no measured slowdown, no resource pressure.
      infos_[i] = MatchAppInfo{
          .slowdown = 1.0,
          .llc_class = ResourceClass::kMaintain,
          .mba_class = ResourceClass::kMaintain,
      };
    } else {
      infos_[i] = MatchAppInfo{
          .slowdown = s.slowdown,
          .llc_class = app.llc_fsm.state(),
          .mba_class = app.mba_fsm.state(),
      };
    }
  }
}

void CoPartPartitionPolicy::Allocate(const SystemState& current,
                                     const std::vector<PolicySignals>& signals,
                                     Rng& rng, PartitionDecision* decision) {
  (void)signals;  // Consumed by Classify; infos_ carries what the matcher
                  // needs.
  CHECK(&decision->state != &current);
  if (params_.matcher) {
    params_.matcher(current, infos_, rng, llc_moves(), mba_moves(), &match_);
  } else {
    GetNextSystemState(current, infos_, rng, llc_moves(), mba_moves(),
                       &match_);
  }

  SystemState& next = decision->state;
  bool used_neighbor = false;
  if (match_.next_state == current) {
    if (retry_count_ < params_.theta) {
      current.RandomNeighbor(rng, llc_moves(), mba_moves(), &next);
      used_neighbor = true;
      ++retry_count_;
    } else {
      next = current;
      MakePerAppDecision(decision);
      decision->converged = true;
      decision->retries = retry_count_;
      return;
    }
  } else {
    next = match_.next_state;
  }

  // Derive per-app resource events from the state diff; they feed the FSMs
  // next period.
  for (size_t i = 0; i < apps_.size(); ++i) {
    const AppAllocation& before = current.allocation(i);
    const AppAllocation& after = next.allocation(i);
    if (after.llc_ways > before.llc_ways) {
      llc_events_[i] = ResourceEvent::kGainedLlcWay;
    } else if (after.llc_ways < before.llc_ways) {
      llc_events_[i] = ResourceEvent::kLostLlcWay;
    } else {
      llc_events_[i] = ResourceEvent::kNone;
    }
    if (after.mba_level > before.mba_level) {
      mba_events_[i] = ResourceEvent::kGainedMba;
    } else if (after.mba_level < before.mba_level) {
      mba_events_[i] = ResourceEvent::kLostMba;
    } else if (llc_events_[i] == ResourceEvent::kGainedLlcWay) {
      // The MBA FSM's Demand state treats "gained an LLC way with little
      // benefit" specially (§5.3).
      mba_events_[i] = ResourceEvent::kGainedLlcWay;
    } else {
      mba_events_[i] = ResourceEvent::kNone;
    }
  }

  MakePerAppDecision(decision);
  decision->used_neighbor = used_neighbor;
  decision->retries = retry_count_;
}

ResourceClass CoPartPartitionPolicy::LlcClassOf(size_t app) const {
  return apps_[app].llc_fsm.state();
}

ResourceClass CoPartPartitionPolicy::MbaClassOf(size_t app) const {
  return apps_[app].mba_fsm.state();
}

}  // namespace copart
