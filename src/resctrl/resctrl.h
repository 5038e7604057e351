// In-process analogue of the Linux resctrl filesystem.
//
// The paper's prototype is a user-level runtime that partitions the LLC and
// memory bandwidth through /sys/fs/resctrl: it creates one resource group
// per consolidated application, writes the group's schemata (an L3 capacity
// bit mask and an MB throttle percentage), and binds the application's tasks
// to the group. This module exposes the same operations with the same
// validation rules against the SimulatedMachine:
//
//   - group count limited by the CPU's CLOS count,
//   - L3 masks must be non-zero, in-range, and contiguous (kernel rule),
//   - MB values must be 10..100 in steps of 10 (the platform's granularity),
//   - the default group (CLOS 0) always exists and cannot be removed.
//
// CoPart and all baseline policies actuate exclusively through this
// interface, exactly as the user-level prototype does on real hardware.
#ifndef COPART_RESCTRL_RESCTRL_H_
#define COPART_RESCTRL_RESCTRL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "machine/app_id.h"
#include "machine/simulated_machine.h"

namespace copart {

class FaultInjector;

// Fault points of the resctrl surface (common/fault_injector.h). Real
// /sys/fs/resctrl can reject or misapply writes: transient -EBUSY while
// another writer holds rdtgroup_mutex, and permanent CLOS exhaustion. Each
// named point models one such condition; all checks fire *before* any state
// mutation, so a failed call leaves the interface untouched. A torn
// schemata (L3 line applied, MB line failed) arises from a set_mb fault
// after a successful set_l3 write, which is the order the controller
// writes them in.
namespace fault_points {
// CreateGroup: transient failure vs. permanent CLOS exhaustion.
inline constexpr std::string_view kResctrlCreateGroup =
    "resctrl.create_group.unavailable";
inline constexpr std::string_view kResctrlCreateGroupExhausted =
    "resctrl.create_group.exhausted";
// RemoveGroup: transient failure; bound tasks stay bound.
inline constexpr std::string_view kResctrlRemoveGroup =
    "resctrl.remove_group.unavailable";
// Schemata writes: transient rejection of one resource line.
inline constexpr std::string_view kResctrlSetL3 = "resctrl.set_l3.unavailable";
inline constexpr std::string_view kResctrlSetMb = "resctrl.set_mb.unavailable";
// Silent drops: the write reports success but does not take (invalid-mask
// races on real hardware) — only verify-readback can catch these.
inline constexpr std::string_view kResctrlSetL3Silent =
    "resctrl.set_l3.silent_drop";
inline constexpr std::string_view kResctrlSetMbSilent =
    "resctrl.set_mb.silent_drop";
// Task binding (writes to `tasks`).
inline constexpr std::string_view kResctrlAssignApp =
    "resctrl.assign_app.unavailable";
// Per-app prefetch-throttle MSR writes (the 0x1A4 analogue): transient
// rejection, and a silent drop only verify-readback can catch.
inline constexpr std::string_view kPrefetchWrite =
    "msr.prefetch_write.unavailable";
inline constexpr std::string_view kPrefetchWriteSilent =
    "msr.prefetch_write.silent_drop";
}  // namespace fault_points

class ResctrlGroupId {
 public:
  ResctrlGroupId() = default;
  explicit ResctrlGroupId(uint32_t clos) : clos_(clos) {}

  uint32_t clos() const { return clos_; }
  bool operator==(const ResctrlGroupId& other) const = default;

 private:
  uint32_t clos_ = 0;
};

class Resctrl {
 public:
  explicit Resctrl(SimulatedMachine* machine);

  // The always-present default group (CLOS 0, full resources at reset).
  ResctrlGroupId DefaultGroup() const { return ResctrlGroupId(0); }

  // Creates a group backed by a free CLOS. Fails with kResourceExhausted
  // once all CLOSes are in use, and kAlreadyExists on a duplicate name.
  Result<ResctrlGroupId> CreateGroup(const std::string& name);

  // Removes a group; its apps fall back to the default group. The default
  // group itself cannot be removed.
  Status RemoveGroup(ResctrlGroupId group);

  Result<ResctrlGroupId> FindGroup(const std::string& name) const;
  std::vector<std::string> GroupNames() const;

  // Writes the L3 schemata line: validates CAT rules (non-zero, in-range,
  // contiguous bits).
  Status SetCacheMask(ResctrlGroupId group, uint64_t mask_bits);

  // Writes the MB schemata line: validates the 10..100 step-10 range.
  Status SetMbaPercent(ResctrlGroupId group, uint32_t percent);

  // Binds an app's tasks to a group (like writing PIDs into `tasks`).
  Status AssignApp(ResctrlGroupId group, AppId app);

  // Writes the app's prefetcher aggressiveness (the MSR 0x1A4 analogue the
  // CBP-style policy actuates): percent must be 0..100 in steps of 10.
  // 100 = prefetch fully enabled (hardware reset state).
  Status SetAppPrefetch(AppId app, uint32_t percent);

  // Reads back the group's schemata, e.g. "L3:0=7ff;MB:0=100".
  std::string ReadSchemata(ResctrlGroupId group) const;

  // --- Monitoring (the CMT / MBM analogue of Intel RDT) ---
  // Real resctrl exposes per-group llc_occupancy and mbm_*_bytes files;
  // these aggregate over the apps currently bound to the group.

  // Current LLC occupancy attributed to the group's apps, in bytes
  // (Cache Monitoring Technology).
  double ReadLlcOccupancyBytes(ResctrlGroupId group) const;

  // Memory traffic of the group over the last epoch, in bytes/second
  // (Memory Bandwidth Monitoring).
  double ReadMemoryBandwidth(ResctrlGroupId group) const;

  SimulatedMachine& machine() { return *machine_; }
  const SimulatedMachine& machine() const { return *machine_; }

  // Write telemetry: schemata line writes attempted through SetCacheMask /
  // SetMbaPercent and how many returned an error. Silent drops claim
  // success and are counted as such — only verify-readback sees them.
  uint64_t schemata_writes() const { return schemata_writes_; }
  uint64_t schemata_write_failures() const { return schemata_write_failures_; }

 private:
  struct Group {
    std::string name;
    uint32_t clos = 0;
    bool active = false;
  };

  bool GroupActive(uint32_t clos) const;

  // True when the machine's fault injector fails the named point.
  bool InjectFault(std::string_view point) const;

  SimulatedMachine* machine_;  // Not owned.
  FaultInjector* injector_;    // Not owned; null = no injection.
  std::vector<Group> groups_;  // Indexed by CLOS; [0] is the default group.
  uint64_t schemata_writes_ = 0;
  uint64_t schemata_write_failures_ = 0;
};

}  // namespace copart

#endif  // COPART_RESCTRL_RESCTRL_H_
