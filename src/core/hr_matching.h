// The coordinated allocation step: CoPart's getNextSystemState
// (paper §5.4.2, Algorithm 2).
//
// The resource allocation problem is formulated as a Hospitals/Residents
// matching: resource types {LLC, MBA, ANY} act as hospitals whose capacity
// is the number of applications willing to supply that type; applications
// demanding resources are the residents. Hospitals prefer consumers with
// HIGHER slowdowns (fairness: feed the most-slowed apps first); when
// reclaiming, producers with LOWER slowdowns are drafted first. Consumers
// demanding one specific type prefer the matching hospital over ANY;
// consumers demanding both randomize which specific type they try first —
// the paper's randomness that keeps the search from converging to a local
// optimum. The matching is resolved with an instability-chaining-style
// displacement pass in O(N_A^2).
#ifndef COPART_CORE_HR_MATCHING_H_
#define COPART_CORE_HR_MATCHING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/classifiers.h"
#include "core/system_state.h"

namespace copart {

// Per-app matching inputs, index-aligned with the SystemState.
struct MatchAppInfo {
  double slowdown = 1.0;
  ResourceClass llc_class = ResourceClass::kMaintain;
  ResourceClass mba_class = ResourceClass::kMaintain;
};

// One resource transfer decided by the matcher (for logging/diagnostics and
// for deriving the per-app ResourceEvents fed back into the FSMs).
struct ResourceTransfer {
  bool is_llc = false;
  size_t producer = 0;
  size_t consumer = 0;
};

// One matcher call's output. The caller owns it and passes the same object
// every period: a call overwrites every field and reuses the storage,
// including the matcher's working buffers, so once Reserve() has sized it
// for the app count a call allocates nothing.
struct MatchResult {
  SystemState next_state;
  std::vector<ResourceTransfer> transfers;

  // GetNextSystemState's working storage; unspecified between calls.
  struct Workspace {
    enum Resource : uint8_t { kLlc = 0, kMba = 1, kAny = 2, kNumResources };
    struct Consumer {
      size_t app = 0;
      double slowdown = 1.0;
      Resource demanded = kAny;  // What the app's FSMs demand.
      // Hospitals left to propose to: preferences[next, count).
      Resource preferences[kNumResources] = {kAny, kAny, kAny};
      uint8_t next = 0;
      uint8_t count = 0;
    };
    std::vector<size_t> producers[kNumResources];
    std::vector<Consumer> consumers;
    std::vector<size_t> accepted[kNumResources];  // Indices into consumers.
  };
  Workspace workspace;

  // Sizes every buffer for a matching over `num_apps` apps.
  void Reserve(size_t num_apps);
};

// Computes the next system state from the current state and the per-app
// classifications into `*result`. Gates: `enable_llc` / `enable_mba`
// restrict which resource types may move (used by the CAT-only / MBA-only
// baselines). The resulting state is always Valid(); it equals `state` when
// no producer/consumer pair can be matched.
void GetNextSystemState(const SystemState& state,
                        const std::vector<MatchAppInfo>& apps, Rng& rng,
                        bool enable_llc, bool enable_mba, MatchResult* result);

}  // namespace copart

#endif  // COPART_CORE_HR_MATCHING_H_
