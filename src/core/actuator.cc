#include "core/actuator.h"

#include <utility>

#include "common/logging.h"
#include "core/system_state.h"

namespace copart {

Actuator::Actuator(Resctrl* resctrl) : resctrl_(resctrl) {
  CHECK_NE(resctrl, nullptr);
}

void Actuator::Reserve(size_t writes) { ReserveRoom(before_, writes); }

uint64_t Actuator::Read(const ActuationPlan::Write& write) const {
  const SimulatedMachine& machine = resctrl_->machine();
  switch (write.kind) {
    case ActuationPlan::Kind::kL3:
      return machine.ClosWayMask(write.clos).bits();
    case ActuationPlan::Kind::kMb:
      return machine.ClosMbaLevel(write.clos).percent();
    case ActuationPlan::Kind::kBind:
      return machine.AppClos(write.app);
    case ActuationPlan::Kind::kPrefetch:
      return machine.AppPrefetchPercent(write.app);
  }
  return 0;
}

Status Actuator::Issue(const ActuationPlan::Write& write, uint64_t value) {
  const auto narrow = static_cast<uint32_t>(value);  // All but kL3 fit.
  switch (write.kind) {
    case ActuationPlan::Kind::kL3:
      return resctrl_->SetCacheMask(ResctrlGroupId(write.clos), value);
    case ActuationPlan::Kind::kMb:
      return resctrl_->SetMbaPercent(ResctrlGroupId(write.clos), narrow);
    case ActuationPlan::Kind::kBind:
      return resctrl_->AssignApp(ResctrlGroupId(narrow), write.app);
    case ActuationPlan::Kind::kPrefetch:
      return resctrl_->SetAppPrefetch(write.app, narrow);
  }
  return InternalError("unknown write kind");
}

size_t Actuator::FirstMismatch(const ActuationPlan& plan) const {
  size_t i = 0;
  while (i < plan.writes.size() &&
         Read(plan.writes[i]) == plan.writes[i].value) {
    ++i;
  }
  return i;
}

Status Actuator::Apply(const ActuationPlan& plan) {
  const std::vector<ActuationPlan::Write>& writes = plan.writes;
  before_.resize(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    before_[i] = Read(writes[i]);
  }
  // Every write before `issued` either already held its value or landed.
  Status failure = Status::Ok();
  size_t issued = 0;
  for (; issued < writes.size() && failure.ok(); ++issued) {
    if (before_[issued] != writes[issued].value) {
      failure = Issue(writes[issued], writes[issued].value);
    }
  }
  if (failure.ok()) {
    const size_t bad = FirstMismatch(plan);
    if (bad == writes.size()) {
      return failure;
    }
    std::string message = "verify-readback mismatch on plan write ";
    message += std::to_string(bad);
    failure = UnavailableError(std::move(message));
  } else {
    --issued;  // The rejected write changed nothing.
  }
  // Best effort: a rollback write can fail too, and the next retry reads
  // back whatever stuck, so a partial rollback only widens the window.
  for (size_t i = 0; i < issued; ++i) {
    if (before_[i] != writes[i].value) {
      (void)Issue(writes[i], before_[i]);
    }
  }
  return failure;
}

Result<ResctrlGroupId> Actuator::CreateGroup(const std::string& name,
                                             std::optional<AppId> app) {
  Result<ResctrlGroupId> group = resctrl_->CreateGroup(name);
  if (!group.ok() || !app.has_value()) {
    return group;
  }
  Status bound = resctrl_->AssignApp(*group, *app);
  if (!bound.ok()) {
    RemoveGroup(*group);
    return bound;
  }
  return group;
}

Status Actuator::Bind(ResctrlGroupId group, AppId app) {
  const SimulatedMachine& machine = resctrl_->machine();
  if (machine.AppExists(app) && machine.AppClos(app) == group.clos()) {
    return Status::Ok();  // Already there, as Apply skips a held register.
  }
  return resctrl_->AssignApp(group, app);
}

void Actuator::RemoveGroup(ResctrlGroupId group) {
  if (!resctrl_->RemoveGroup(group).ok()) {
    zombies_.push_back(group);
  }
}

void Actuator::RetryZombies() {
  for (size_t i = zombies_.size(); i-- > 0;) {
    Status status = resctrl_->RemoveGroup(zombies_[i]);
    if (status.ok() || status.code() != StatusCode::kUnavailable) {
      zombies_.erase(zombies_.begin() + static_cast<ptrdiff_t>(i));
    }
  }
}

}  // namespace copart
