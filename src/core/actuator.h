// The resource manager's one actuation path (DESIGN.md §7): CoPart acts on
// the machine only through resctrl (paper §5.4). ResourceManager decides
// what the machine should hold; the Actuator lands every write it makes and
// owns its resctrl group lifecycle.
#ifndef COPART_CORE_ACTUATOR_H_
#define COPART_CORE_ACTUATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "machine/app_id.h"
#include "resctrl/resctrl.h"

namespace copart {

// The writes that must land together for the machine to hold one coherent
// allocation, in issue order: the CLOS entries first (entry k is writes[2k],
// its L3 line, and writes[2k + 1], its MB line), then the task bindings,
// then the prefetch-MSR writes.
struct ActuationPlan {
  enum class Kind : uint8_t { kL3, kMb, kBind, kPrefetch };
  struct Write {
    Kind kind = Kind::kL3;
    uint32_t clos = 0;  // kL3, kMb: the CLOS whose line is written.
    AppId app;          // kBind, kPrefetch: the app; kL3, kMb: its owner.
    // Mask bits (kL3), percent (kMb, kPrefetch) or the CLOS bound to.
    uint64_t value = 0;
    // kL3, kMb, for the audit: the owner's index in the manager's app list,
    // -1 for an LC slice or a cluster slot (whose `app` is invalid).
    int32_t app_index = -1;
  };

  std::vector<Write> writes;
  size_t entries = 0;  // CLOS entries.

  void Clear() {
    writes.clear();
    entries = 0;
  }
  void AddClos(ResctrlGroupId group, uint64_t mask_bits, uint32_t mba_percent,
               AppId app = AppId(), int32_t app_index = -1) {
    CHECK_EQ(writes.size(), 2 * entries) << "CLOS entries come first";
    writes.push_back({Kind::kL3, group.clos(), app, mask_bits, app_index});
    writes.push_back({Kind::kMb, group.clos(), app, mba_percent, app_index});
    ++entries;
  }
  void AddBind(ResctrlGroupId group, AppId app) {
    writes.push_back({Kind::kBind, 0, app, group.clos()});
  }
  void AddPrefetch(AppId app, uint32_t percent) {
    writes.push_back({Kind::kPrefetch, 0, app, percent});
  }
};

class Actuator {
 public:
  explicit Actuator(Resctrl* resctrl);

  // Lands `plan` as one transaction. It reads every register the plan names
  // and writes only those that differ, then verifies every one by readback
  // (a silently dropped write reports success). On failure it writes back
  // exactly the writes it issued: every resctrl fault and validation error
  // fires before its write mutates anything. Returns the first failure.
  Status Apply(const ActuationPlan& plan);
  // True when every register `plan` names holds its planned value. Reads
  // only; allocates nothing.
  bool Holds(const ActuationPlan& plan) const {
    return FirstMismatch(plan) == plan.writes.size();
  }
  // What the last Apply read from the register of its plan's write `i`
  // before writing.
  uint64_t before(size_t i) const { return before_[i]; }
  // Makes room for plans of up to `writes` writes (ReserveRoom).
  void Reserve(size_t writes);

  // The group lifecycle. A group whose removal fails is parked as a zombie;
  // RetryZombies() (every tick) retries each until it is removed or fails
  // for a reason other than kUnavailable, so CLOSes never leak.
  //
  // Creates the group `name` and, with `app`, binds the app to it; a failed
  // bind removes the group again and returns the bind's failure.
  Result<ResctrlGroupId> CreateGroup(const std::string& name,
                                     std::optional<AppId> app = std::nullopt);
  // Binds an app's tasks to `group` outside any plan; issues nothing when
  // the app already runs in it.
  Status Bind(ResctrlGroupId group, AppId app);
  void RemoveGroup(ResctrlGroupId group);
  void RetryZombies();
  size_t zombies() const { return zombies_.size(); }

 private:
  uint64_t Read(const ActuationPlan::Write& write) const;
  Status Issue(const ActuationPlan::Write& write, uint64_t value);
  // The first write whose register does not hold its planned value;
  // plan.writes.size() when every one does.
  size_t FirstMismatch(const ActuationPlan& plan) const;

  Resctrl* resctrl_;              // Not owned.
  std::vector<uint64_t> before_;  // Apply's pre-write readback.
  std::vector<ResctrlGroupId> zombies_;
};

}  // namespace copart

#endif  // COPART_CORE_ACTUATOR_H_
