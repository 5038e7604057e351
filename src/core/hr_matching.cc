#include "core/hr_matching.h"

#include <algorithm>
#include <initializer_list>

#include "common/logging.h"

namespace copart {
namespace {

using Workspace = MatchResult::Workspace;
using Consumer = Workspace::Consumer;
using ResourceType = Workspace::Resource;
constexpr ResourceType kLlc = Workspace::kLlc;
constexpr ResourceType kMba = Workspace::kMba;
constexpr ResourceType kAny = Workspace::kAny;
constexpr size_t kNumTypes = Workspace::kNumResources;

void SetPreferences(Consumer& consumer,
                    std::initializer_list<ResourceType> preferences) {
  consumer.count = 0;
  for (const ResourceType t : preferences) {
    consumer.preferences[consumer.count++] = t;
  }
  consumer.next = 0;
}

// Removes and returns the index (into `members`) of the extreme-slowdown
// element; `lowest` selects min (victims / producers) vs. max.
template <typename GetSlowdown>
size_t ExtremeIndex(const std::vector<size_t>& members,
                    GetSlowdown get_slowdown, bool lowest) {
  CHECK(!members.empty());
  size_t best = 0;
  for (size_t i = 1; i < members.size(); ++i) {
    const double a = get_slowdown(members[i]);
    const double b = get_slowdown(members[best]);
    if (lowest ? a < b : a > b) {
      best = i;
    }
  }
  return best;
}

}  // namespace

void MatchResult::Reserve(size_t num_apps) {
  next_state.Reserve(num_apps);
  ReserveRoom(transfers, num_apps);
  ReserveRoom(workspace.consumers, num_apps);
  for (size_t t = 0; t < kNumTypes; ++t) {
    ReserveRoom(workspace.producers[t], num_apps);
    ReserveRoom(workspace.accepted[t], num_apps);
  }
}

void GetNextSystemState(const SystemState& state,
                        const std::vector<MatchAppInfo>& apps, Rng& rng,
                        bool enable_llc, bool enable_mba,
                        MatchResult* result) {
  CHECK_EQ(apps.size(), state.NumApps());
  result->next_state = state;
  result->transfers.clear();
  SystemState& next = result->next_state;
  std::vector<size_t>* producers = result->workspace.producers;
  std::vector<Consumer>& consumers = result->workspace.consumers;
  std::vector<size_t>* accepted = result->workspace.accepted;
  consumers.clear();
  for (size_t t = 0; t < kNumTypes; ++t) {
    producers[t].clear();
    accepted[t].clear();
  }
  const size_t n = apps.size();

  // --- Bucket the producers (Algorithm 2, lines 2-5). ---
  // An app that can supply exactly one resource type lands in that bucket;
  // an app that can supply both is an ANY producer. Feasibility is part of
  // eligibility: an app at 1 way cannot give a way, an app at the MBA floor
  // cannot throttle further.
  for (size_t i = 0; i < n; ++i) {
    const bool supplies_llc = enable_llc &&
                              apps[i].llc_class == ResourceClass::kSupply &&
                              state.allocation(i).llc_ways > 1;
    const bool supplies_mba = enable_mba &&
                              apps[i].mba_class == ResourceClass::kSupply &&
                              state.allocation(i).mba_level.CanDecrease();
    if (supplies_llc && supplies_mba) {
      producers[kAny].push_back(i);
    } else if (supplies_llc) {
      producers[kLlc].push_back(i);
    } else if (supplies_mba) {
      producers[kMba].push_back(i);
    }
  }

  // --- Build the consumers and their preference lists (lines 6-18). ---
  for (size_t i = 0; i < n; ++i) {
    const bool can_take_mba =
        state.allocation(i).mba_level.percent() + MbaLevel::kStep <=
        state.pool().max_mba_percent;
    const bool demands_llc =
        enable_llc && apps[i].llc_class == ResourceClass::kDemand;
    const bool demands_mba = enable_mba &&
                             apps[i].mba_class == ResourceClass::kDemand &&
                             can_take_mba;
    if (!demands_llc && !demands_mba) {
      continue;
    }
    Consumer consumer;
    consumer.app = i;
    consumer.slowdown = apps[i].slowdown;
    if (demands_llc && demands_mba) {
      consumer.demanded = kAny;
      // Randomized priority between the two specific types (paper: avoids
      // converging to a local optimum), then the ANY hospital.
      if (rng.NextBool(0.5)) {
        SetPreferences(consumer, {kLlc, kMba, kAny});
      } else {
        SetPreferences(consumer, {kMba, kLlc, kAny});
      }
    } else if (demands_llc) {
      consumer.demanded = kLlc;
      SetPreferences(consumer, {kLlc, kAny});
    } else {
      consumer.demanded = kMba;
      SetPreferences(consumer, {kMba, kAny});
    }
    consumers.push_back(consumer);
  }

  // --- Step 1: decide which consumers receive which resource type. ---
  // Proposal with displacement: an oversubscribed hospital rejects its
  // lowest-slowdown tentative resident, who then proposes further down its
  // own preference list (instability chaining).
  for (size_t c = 0; c < consumers.size(); ++c) {
    size_t current = c;
    while (true) {
      Consumer& consumer = consumers[current];
      if (consumer.next == consumer.count) {
        break;  // Exhausted all hospitals; stays unmatched this round.
      }
      const ResourceType t = consumer.preferences[consumer.next++];
      if (producers[t].empty()) {
        continue;  // Hospital with zero capacity: try the next preference.
      }
      accepted[t].push_back(current);
      if (accepted[t].size() > producers[t].size()) {
        const size_t victim_pos = ExtremeIndex(
            accepted[t],
            [&](size_t idx) { return consumers[idx].slowdown; },
            /*lowest=*/true);
        const size_t victim = accepted[t][victim_pos];
        accepted[t].erase(accepted[t].begin() +
                          static_cast<ptrdiff_t>(victim_pos));
        if (victim == current) {
          continue;  // Rejected immediately; keep walking our own list.
        }
        current = victim;  // Displaced consumer re-proposes.
        continue;
      }
      break;
    }
  }

  // --- Step 2: reclaim from producers, favoring low slowdowns (19-29). ---
  for (size_t t = 0; t < kNumTypes; ++t) {
    for (size_t consumer_idx : accepted[t]) {
      const Consumer& consumer = consumers[consumer_idx];
      bool take_llc;
      if (t != kAny) {
        take_llc = (t == kLlc);
      } else if (consumer.demanded != kAny) {
        take_llc = (consumer.demanded == kLlc);
      } else {
        take_llc = rng.NextBool(0.5);
      }
      // An ANY producer supplies both types, so any choice is feasible for
      // the producer; re-check the consumer side for MBA headroom (it can
      // have been consumed by an earlier transfer this round).
      if (!take_llc) {
        const AppAllocation& a = next.allocation(consumer.app);
        if (a.mba_level.percent() + MbaLevel::kStep >
            state.pool().max_mba_percent) {
          if (t == kAny || consumer.demanded == kAny) {
            take_llc = true;
          } else {
            continue;
          }
        }
      }
      CHECK(!producers[t].empty());
      const size_t producer_pos = ExtremeIndex(
          producers[t], [&](size_t app) { return apps[app].slowdown; },
          /*lowest=*/true);
      const size_t producer = producers[t][producer_pos];
      producers[t].erase(producers[t].begin() +
                         static_cast<ptrdiff_t>(producer_pos));

      if (take_llc) {
        AppAllocation& from = next.allocation(producer);
        AppAllocation& to = next.allocation(consumer.app);
        CHECK_GT(from.llc_ways, 1u);
        --from.llc_ways;
        ++to.llc_ways;
      } else {
        AppAllocation& from = next.allocation(producer);
        AppAllocation& to = next.allocation(consumer.app);
        CHECK(from.mba_level.CanDecrease());
        from.mba_level = from.mba_level.Decreased();
        to.mba_level = to.mba_level.Increased();
      }
      result->transfers.push_back(
          {.is_llc = take_llc, .producer = producer, .consumer = consumer.app});
    }
  }

  CHECK(next.Valid()) << "matcher produced invalid state " << next.ToString();
}

}  // namespace copart
