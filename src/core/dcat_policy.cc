#include "core/dcat_policy.h"

#include <sys/types.h>

#include "common/logging.h"

namespace copart {

void DcatPolicy::OnAppAdded() { apps_.push_back(AppState{}); }

void DcatPolicy::OnAppRemoved(size_t index) {
  apps_.erase(apps_.begin() + static_cast<ptrdiff_t>(index));
}

void DcatPolicy::StartExploration(const ResourcePool& pool, size_t num_apps,
                                  PartitionDecision* decision) {
  CHECK_EQ(num_apps, apps_.size());
  apps_.assign(num_apps, AppState{});
  tick_ = 0;
  FairShare(pool, num_apps, decision);
}

void DcatPolicy::FairShare(const ResourcePool& pool, size_t num_apps,
                           PartitionDecision* decision) const {
  // Equal LLC start; MBA frozen at the equal static share (dCat does not
  // manage bandwidth).
  decision->state.AssignEqualShareThrottled(pool, num_apps);
  MakePerAppDecision(decision);
}

void DcatPolicy::Classify(const std::vector<PolicySignals>& signals) {
  CHECK_EQ(signals.size(), apps_.size());
  for (size_t i = 0; i < apps_.size(); ++i) {
    if (!signals[i].healthy) {
      continue;  // An untrusted sample must not move the estimate.
    }
    AppState& app = apps_[i];
    const double ips = signals[i].ips;
    if (app.prev_ips > 0.0 && ips > 0.0) {
      const double relative_change = (ips - app.prev_ips) / app.prev_ips;
      if (app.last_delta_ways != 0) {
        // Observed benefit per way, signed toward "gaining helps".
        const double per_way =
            relative_change / static_cast<double>(app.last_delta_ways);
        app.benefit_estimate = kSmoothing * per_way +
                               (1.0 - kSmoothing) * app.benefit_estimate;
      } else {
        // No change applied: decay toward neutral so stale estimates fade
        // and the policy periodically re-probes.
        app.benefit_estimate *= 1.0 - kSmoothing * 0.25;
      }
    }
    app.prev_ips = ips;
    app.last_delta_ways = 0;
  }
}

void DcatPolicy::Allocate(const SystemState& current,
                          const std::vector<PolicySignals>& /*signals*/,
                          Rng& /*rng*/, PartitionDecision* decision) {
  CHECK_EQ(current.NumApps(), apps_.size());
  ++tick_;
  const size_t n = apps_.size();
  decision->state = current;
  MakePerAppDecision(decision);
  SystemState& next = decision->state;

  // Cold-start probe: cycle a way to each app in turn (taken from the
  // currently largest allocation) so every benefit estimate receives a
  // signed sample before the steady-state policy kicks in.
  if (tick_ <= 2 * n && n > 1) {
    const size_t target = static_cast<size_t>(tick_ % n);
    ssize_t donor = -1;
    for (size_t i = 0; i < n; ++i) {
      if (i == target || next.allocation(i).llc_ways <= 1) {
        continue;
      }
      if (donor < 0 || next.allocation(i).llc_ways >
                           next.allocation(static_cast<size_t>(donor))
                               .llc_ways) {
        donor = static_cast<ssize_t>(i);
      }
    }
    if (donor >= 0) {
      --next.allocation(static_cast<size_t>(donor)).llc_ways;
      ++next.allocation(target).llc_ways;
      apps_[static_cast<size_t>(donor)].last_delta_ways = -1;
      apps_[target].last_delta_ways = 1;
    }
    return;
  }

  // Steepest feasible transfer: the highest estimated gainer takes one way
  // from the lowest estimated loser.
  ssize_t gainer = -1, loser = -1;
  for (size_t i = 0; i < n; ++i) {
    if (gainer < 0 || apps_[i].benefit_estimate >
                          apps_[static_cast<size_t>(gainer)].benefit_estimate) {
      gainer = static_cast<ssize_t>(i);
    }
    if (next.allocation(i).llc_ways > 1 &&
        (loser < 0 || apps_[i].benefit_estimate <
                          apps_[static_cast<size_t>(loser)].benefit_estimate)) {
      loser = static_cast<ssize_t>(i);
    }
  }
  if (gainer < 0 || loser < 0 || gainer == loser) {
    return;
  }
  AppState& gain_app = apps_[static_cast<size_t>(gainer)];
  AppState& lose_app = apps_[static_cast<size_t>(loser)];
  // Transfer only when the gainer's estimated benefit meaningfully exceeds
  // the loser's (hysteresis against thrash).
  if (gain_app.benefit_estimate - lose_app.benefit_estimate >= kMinBenefit) {
    --next.allocation(static_cast<size_t>(loser)).llc_ways;
    ++next.allocation(static_cast<size_t>(gainer)).llc_ways;
    gain_app.last_delta_ways = 1;
    lose_app.last_delta_ways = -1;
  }
}

}  // namespace copart
