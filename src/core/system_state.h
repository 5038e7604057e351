// Resource allocation state (paper §2.3).
//
// The resource allocation state s_i of application i is (l_i, m_i): the
// number of LLC ways and the MBA level allocated to it. The system state S
// is the vector of all s_i. CoPart explores system states drawn from a
// ResourcePool — the contiguous region of ways and the MBA ceiling that an
// outer server manager has granted to the consolidated (batch) apps; for
// whole-machine experiments the pool is simply all ways and MBA 100.
#ifndef COPART_CORE_SYSTEM_STATE_H_
#define COPART_CORE_SYSTEM_STATE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "membw/mba.h"

namespace copart {

// Makes room in `buffer` for `count` elements without touching its
// contents. A buffer that must grow at least doubles, so one sized at every
// admission reallocates O(log count) times over its owner's life.
template <typename T>
void ReserveRoom(std::vector<T>& buffer, size_t count) {
  if (buffer.capacity() < count) {
    buffer.reserve(std::max(count, 2 * buffer.capacity()));
  }
}

// The slice of machine resources the controller may hand out.
struct ResourcePool {
  uint32_t first_way = 0;
  uint32_t num_ways = 11;
  uint32_t max_mba_percent = 100;

  bool operator==(const ResourcePool& other) const = default;
};

// Per-app allocation (s_i).
struct AppAllocation {
  uint32_t llc_ways = 1;
  MbaLevel mba_level;

  bool operator==(const AppAllocation& other) const = default;
};

class SystemState {
 public:
  SystemState() = default;
  SystemState(ResourcePool pool, std::vector<AppAllocation> allocations);

  // Equal split: ways divided as evenly as possible (earlier apps take the
  // remainder), every app at the pool's MBA ceiling. CHECK-fails when there
  // are more apps than ways.
  static SystemState EqualShare(const ResourcePool& pool, size_t num_apps);
  // Equal ways, MBA level ~= ceiling/num_apps rounded to the platform step
  // (the EQ baseline's "equal memory bandwidth" interpretation).
  static SystemState EqualShareThrottled(const ResourcePool& pool,
                                         size_t num_apps);
  // The same shares written into this state in place (Reshape's storage
  // reuse): what the policies' per-period fair shares call.
  void AssignEqualShare(const ResourcePool& pool, size_t num_apps);
  void AssignEqualShareThrottled(const ResourcePool& pool, size_t num_apps);

  size_t NumApps() const { return allocations_.size(); }
  const ResourcePool& pool() const { return pool_; }
  const AppAllocation& allocation(size_t app) const;
  AppAllocation& allocation(size_t app);
  const std::vector<AppAllocation>& allocations() const {
    return allocations_;
  }

  // Invariants: every app has >= 1 way, way total == pool size, MBA levels
  // within [10, pool ceiling].
  bool Valid() const;

  // Re-shapes the state in place: `num_apps` default allocations on
  // `pool`, for the caller to fill. Keeps the storage, so a state refilled
  // every period allocates only when it outgrows its capacity.
  void Reshape(const ResourcePool& pool, size_t num_apps);
  // Makes room for `num_apps` allocations (ReserveRoom) without changing
  // the state.
  void Reserve(size_t num_apps) { ReserveRoom(allocations_, num_apps); }

  // Uniformly random single-step perturbation (Algorithm 1's
  // getNeighborState): move one way between two random apps, or step one
  // random app's MBA level. Writes a valid state differing in one move to
  // `*next` (which must not be this state), or *this unchanged if no move
  // is possible. Draws one NextUint64 over the feasible moves, in the
  // order: every LLC (donor, recipient) pair by donor then recipient, then
  // each app's MBA step down and up; draws nothing when there is no move.
  void RandomNeighbor(Rng& rng, bool allow_llc_moves, bool allow_mba_moves,
                      SystemState* next) const;

  // Contiguous way mask bits for app `i`, packing apps left to right in
  // index order within the pool.
  uint64_t WayMaskBits(size_t app) const;

  std::string ToString() const;

  bool operator==(const SystemState& other) const = default;

 private:
  ResourcePool pool_;
  std::vector<AppAllocation> allocations_;
};

}  // namespace copart

#endif  // COPART_CORE_SYSTEM_STATE_H_
