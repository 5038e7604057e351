#include "resctrl/resctrl.h"

#include <cstdio>

#include "cache/way_mask.h"
#include "common/fault_injector.h"
#include "common/logging.h"

namespace copart {

Resctrl::Resctrl(SimulatedMachine* machine)
    : machine_(machine),
      injector_(machine ? machine->config().fault_injector : nullptr) {
  CHECK_NE(machine, nullptr);
  groups_.resize(machine_->config().num_clos);
  groups_[0] = Group{.name = "", .clos = 0, .active = true};
}

bool Resctrl::InjectFault(std::string_view point) const {
  return injector_ != nullptr && injector_->ShouldFail(point);
}

Result<ResctrlGroupId> Resctrl::CreateGroup(const std::string& name) {
  if (name.empty()) {
    return InvalidArgumentError("group name must not be empty");
  }
  if (InjectFault(fault_points::kResctrlCreateGroupExhausted)) {
    return ResourceExhaustedError("injected: out of CLOSes");
  }
  if (InjectFault(fault_points::kResctrlCreateGroup)) {
    return UnavailableError("injected: mkdir returned EBUSY");
  }
  for (const Group& group : groups_) {
    if (group.active && group.name == name) {
      return AlreadyExistsError("group already exists: " + name);
    }
  }
  for (uint32_t clos = 1; clos < groups_.size(); ++clos) {
    if (!groups_[clos].active) {
      groups_[clos] = Group{.name = name, .clos = clos, .active = true};
      // Hardware reset state for a fresh CLOS: full mask, no throttling.
      machine_->SetClosWayMask(
          clos, WayMask::Contiguous(0, machine_->config().llc.num_ways));
      machine_->SetClosMbaLevel(clos, MbaLevel());
      return ResctrlGroupId(clos);
    }
  }
  return ResourceExhaustedError("out of CLOSes");
}

Status Resctrl::RemoveGroup(ResctrlGroupId group) {
  if (group.clos() == 0) {
    return InvalidArgumentError("cannot remove the default group");
  }
  if (group.clos() >= groups_.size() || !groups_[group.clos()].active) {
    return NotFoundError("no such group");
  }
  if (InjectFault(fault_points::kResctrlRemoveGroup)) {
    // Fires before any mutation: a failed rmdir leaves the group active and
    // every task still bound to it (tests/resctrl_test.cc pins this).
    return UnavailableError("injected: rmdir returned EBUSY");
  }
  // Apps bound to the removed CLOS fall back to the default group, like
  // tasks returning to the resctrl root.
  for (AppId app : machine_->ListApps()) {
    if (machine_->AppClos(app) == group.clos()) {
      machine_->AssignAppToClos(app, 0);
    }
  }
  groups_[group.clos()].active = false;
  groups_[group.clos()].name.clear();
  return Status::Ok();
}

Result<ResctrlGroupId> Resctrl::FindGroup(const std::string& name) const {
  for (const Group& group : groups_) {
    if (group.active && group.name == name) {
      return ResctrlGroupId(group.clos);
    }
  }
  return NotFoundError("no such group: " + name);
}

std::vector<std::string> Resctrl::GroupNames() const {
  std::vector<std::string> names;
  for (const Group& group : groups_) {
    if (group.active && group.clos != 0) {
      names.push_back(group.name);
    }
  }
  return names;
}

bool Resctrl::GroupActive(uint32_t clos) const {
  return clos < groups_.size() && groups_[clos].active;
}

Status Resctrl::SetCacheMask(ResctrlGroupId group, uint64_t mask_bits) {
  ++schemata_writes_;
  if (!GroupActive(group.clos())) {
    ++schemata_write_failures_;
    return NotFoundError("no such group");
  }
  Result<WayMask> mask =
      WayMask::FromBits(mask_bits, machine_->config().llc.num_ways);
  if (!mask.ok()) {
    ++schemata_write_failures_;
    return mask.status();
  }
  if (InjectFault(fault_points::kResctrlSetL3)) {
    ++schemata_write_failures_;
    return UnavailableError("injected: L3 schemata write returned EBUSY");
  }
  if (InjectFault(fault_points::kResctrlSetL3Silent)) {
    return Status::Ok();  // Claims success; the mask did not take.
  }
  machine_->SetClosWayMask(group.clos(), *mask);
  return Status::Ok();
}

Status Resctrl::SetMbaPercent(ResctrlGroupId group, uint32_t percent) {
  ++schemata_writes_;
  if (!GroupActive(group.clos())) {
    ++schemata_write_failures_;
    return NotFoundError("no such group");
  }
  Result<MbaLevel> level = MbaLevel::FromPercent(percent);
  if (!level.ok()) {
    ++schemata_write_failures_;
    return level.status();
  }
  if (InjectFault(fault_points::kResctrlSetMb)) {
    ++schemata_write_failures_;
    return UnavailableError("injected: MB schemata write returned EBUSY");
  }
  if (InjectFault(fault_points::kResctrlSetMbSilent)) {
    return Status::Ok();  // Claims success; the level did not take.
  }
  machine_->SetClosMbaLevel(group.clos(), *level);
  return Status::Ok();
}

Status Resctrl::AssignApp(ResctrlGroupId group, AppId app) {
  if (!GroupActive(group.clos())) {
    return NotFoundError("no such group");
  }
  if (!machine_->AppExists(app)) {
    return NotFoundError("no such app");
  }
  if (InjectFault(fault_points::kResctrlAssignApp)) {
    return UnavailableError("injected: tasks write returned EBUSY");
  }
  machine_->AssignAppToClos(app, group.clos());
  return Status::Ok();
}

Status Resctrl::SetAppPrefetch(AppId app, uint32_t percent) {
  if (!machine_->AppExists(app)) {
    return NotFoundError("no such app");
  }
  if (percent > 100 || percent % 10 != 0) {
    return InvalidArgumentError("prefetch percent must be 0..100 step 10");
  }
  if (InjectFault(fault_points::kPrefetchWrite)) {
    return UnavailableError("injected: prefetch MSR write failed");
  }
  if (InjectFault(fault_points::kPrefetchWriteSilent)) {
    return Status::Ok();  // Claims success; the write did not take.
  }
  machine_->SetAppPrefetchPercent(app, percent);
  return Status::Ok();
}

double Resctrl::ReadLlcOccupancyBytes(ResctrlGroupId group) const {
  CHECK(GroupActive(group.clos()));
  double occupancy = 0.0;
  for (AppId app : machine_->ListApps()) {
    if (machine_->AppClos(app) == group.clos()) {
      occupancy += machine_->LastEpoch(app).effective_capacity_bytes;
    }
  }
  return occupancy;
}

double Resctrl::ReadMemoryBandwidth(ResctrlGroupId group) const {
  CHECK(GroupActive(group.clos()));
  double bytes_per_sec = 0.0;
  for (AppId app : machine_->ListApps()) {
    if (machine_->AppClos(app) == group.clos()) {
      const AppEpochSnapshot& epoch = machine_->LastEpoch(app);
      bytes_per_sec +=
          epoch.llc_misses_per_sec * machine_->config().llc.line_bytes;
    }
  }
  return bytes_per_sec;
}

std::string Resctrl::ReadSchemata(ResctrlGroupId group) const {
  CHECK(GroupActive(group.clos()));
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "L3:0=%s;MB:0=%u",
                machine_->ClosWayMask(group.clos()).ToHex().c_str(),
                machine_->ClosMbaLevel(group.clos()).percent());
  return buffer;
}

}  // namespace copart
