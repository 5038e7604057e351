#include "core/resource_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "common/logging.h"
#include "membw/mba_throttle_model.h"

namespace copart {
namespace {

uint64_t ContiguousBits(uint32_t first, uint32_t count) {
  const uint64_t ones = count == 64 ? ~0ULL : ((1ULL << count) - 1ULL);
  return ones << first;
}

// Stream index of the backoff jitter Rng, forked off the manager's seed
// with the const Fork(stream) so the neighbor/matcher draw sequence of
// rng_ is untouched (golden experiment results depend on it).
constexpr uint64_t kBackoffStream = 0xBAC0FFULL;

}  // namespace

ResourceManager::ResourceManager(Resctrl* resctrl, PerfMonitor* monitor,
                                 const ResourceManagerParams& params)
    : ResourceManager(resctrl, monitor, params,
                      MakePartitionPolicy(params.partition_policy, params)) {}

ResourceManager::ResourceManager(Resctrl* resctrl, PerfMonitor* monitor,
                                 const ResourceManagerParams& params,
                                 std::unique_ptr<PartitionPolicy> policy)
    : resctrl_(resctrl),
      monitor_(monitor),
      actuator_(resctrl),
      params_(params),
      throttle_(resctrl->machine().config().mba_cap_exponent),
      rng_(params.seed),
      backoff_(kRetryBackoff, rng_.Fork(kBackoffStream)) {
  CHECK_NE(resctrl, nullptr);
  CHECK_NE(monitor, nullptr);
  CHECK(policy != nullptr);
  policy_ = std::move(policy);
  pool_ = ResourcePool{
      .first_way = 0,
      .num_ways = resctrl_->machine().config().llc.num_ways,
      .max_mba_percent = MbaLevel::kMax,
  };
  base_pool_ = pool_;
  last_seen_generation_ = resctrl_->machine().app_generation();
}

const char* ResourceManager::PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kProfiling:
      return "profiling";
    case Phase::kExploration:
      return "exploration";
    case Phase::kIdle:
      return "idle";
    case Phase::kDegraded:
      return "degraded";
  }
  return "?";
}

Status ResourceManager::AddApp(AppId app) {
  if (!resctrl_->machine().AppExists(app)) {
    return NotFoundError("no such app");
  }
  // An admission can race an unannounced death (a container crashing the
  // instant another launches). StartAdaptation below re-attaches every
  // managed app's monitor, so corpses must go first.
  ReapDeadApps();
  for (const ManagedApp& managed : apps_) {
    if (managed.id == app) {
      return AlreadyExistsError("app already managed");
    }
  }
  ResctrlGroupId app_group;
  if (policy_->per_app_groups()) {
    if (apps_.size() + 1 > pool_.num_ways) {
      // CAT needs at least one way per app; admission control, not a crash.
      return ResourceExhaustedError(
          "resource pool has fewer ways than managed apps");
    }
    Result<ResctrlGroupId> group = actuator_.CreateGroup(
        "copart_app_" + std::to_string(app.value()), app);
    if (!group.ok()) {
      return group.status();
    }
    app_group = *group;
  } else {
    // Clustering policies share CLOSes, so admission is not bounded by the
    // way count. Park the newcomer in the default group; the next decision
    // binds it to its cluster slot.
    Status assigned = actuator_.Bind(resctrl_->DefaultGroup(), app);
    if (!assigned.ok()) {
      return assigned;
    }
    app_group = resctrl_->DefaultGroup();
  }
  monitor_->Attach(app);

  apps_.push_back(ManagedApp{.id = app, .group = app_group});
  policy_->OnAppAdded();
  ReserveTickBuffers();
  last_seen_generation_ = resctrl_->machine().app_generation();
  if (phase_ != Phase::kDegraded) {
    StartAdaptation();
  } else {
    // In the degraded phase the next fair-share apply covers the newcomer;
    // adaptation restarts only after the substrate recovers. Keep state_
    // sized to the live app set in the meantime.
    AdoptFairShare();
  }
  return Status::Ok();
}

Status ResourceManager::RemoveApp(AppId app) {
  for (size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i].id == app) {
      DropApp(i);
      AfterAppRemoval();
      return Status::Ok();
    }
  }
  return NotFoundError("app not managed");
}

void ResourceManager::DropApp(size_t index) {
  const ManagedApp& app = apps_[index];
  monitor_->Detach(app.id);
  if (policy_->per_app_groups()) {
    actuator_.RemoveGroup(app.group);
  } else if (resctrl_->machine().AppExists(app.id)) {
    // Evict a departing tenant from its cluster's CLOS (best effort: the
    // next decision rebinds it anyway). A dead app already left it.
    (void)actuator_.Bind(resctrl_->DefaultGroup(), app.id);
  }
  apps_.erase(apps_.begin() + static_cast<ptrdiff_t>(index));
  policy_->OnAppRemoved(index);
}

void ResourceManager::AfterAppRemoval() {
  last_seen_generation_ = resctrl_->machine().app_generation();
  pending_plan_.reset();  // Plans index the old app set.
  if (apps_.empty()) {
    phase_ = Phase::kIdle;
  } else if (phase_ != Phase::kDegraded) {
    StartAdaptation();
  } else {
    AdoptFairShare();
  }
}

void ResourceManager::SetResourcePool(const ResourcePool& pool) {
  CHECK_GE(pool.num_ways, 1u);
  CHECK_LE(pool.first_way + pool.num_ways,
           resctrl_->machine().config().llc.num_ways);
  CHECK_GE(pool.max_mba_percent, MbaLevel::kMin);
  base_pool_ = pool;
  if (params_.slo.enabled && !lc_apps_.empty()) {
    if (phase_ == Phase::kDegraded) {
      // Keep the batch slice clear of the currently actuated LC slices;
      // the governor re-plans properly once the substrate recovers.
      const uint32_t lc_total = lc_total_ways();
      pool_ = ResourcePool{
          .first_way = pool.first_way + lc_total,
          .num_ways = pool.num_ways > lc_total ? pool.num_ways - lc_total : 1,
          .max_mba_percent = pool.max_mba_percent};
      return;
    }
    audit_trigger_ = "slo_pool_change";
    (void)EvaluateSlo(/*force=*/true);
    if (!apps_.empty() && phase_ != Phase::kDegraded) {
      StartFullAdaptation();
    }
    return;
  }
  pool_ = pool;
  if (!apps_.empty() && phase_ != Phase::kDegraded) {
    StartFullAdaptation();
  }
}

// --- SLO-aware serving mode ---

size_t ResourceManager::LcIndex(AppId id) const {
  for (size_t i = 0; i < lc_apps_.size(); ++i) {
    if (lc_apps_[i].id == id) {
      return i;
    }
  }
  LOG_FATAL << "app not latency-critical: " << id.value();
  __builtin_unreachable();
}

uint32_t ResourceManager::LcWays(AppId app) const {
  return lc_apps_[LcIndex(app)].ways;
}

double ResourceManager::LcPredictedP95Ms(AppId app) const {
  return lc_apps_[LcIndex(app)].predicted_p95_ms;
}

uint32_t ResourceManager::lc_total_ways() const {
  uint32_t total = 0;
  for (const LcManaged& lc : lc_apps_) {
    total += lc.ways;
  }
  return total;
}

void ResourceManager::SetLcOfferedLoad(AppId app, double rps) {
  lc_apps_[LcIndex(app)].offered_rps = std::max(rps, 0.0);
}

void ResourceManager::ReportLcOutcome(AppId app, double measured_p95_ms,
                                      bool stalled, size_t phase_index) {
  LcManaged& lc = lc_apps_[LcIndex(app)];
  SloOutcome outcome;
  // lc.offered_rps still holds the load the served period was planned
  // for: the harness reports before feeding the next period's load.
  outcome.offered_rps = lc.offered_rps;
  outcome.lc_ways = lc.ways;
  outcome.batch_mba_percent = pool_.max_mba_percent;
  outcome.measured_p95_ms = measured_p95_ms;
  outcome.stalled = stalled;
  outcome.phase_index = phase_index;
  lc.governor->ObserveOutcome(outcome);
  if (AuditLog* audit = ObsAudit(obs_)) {
    AuditRecord record;
    record.kind = AuditKind::kGovernorOutcome;
    record.epoch = ticks_;
    record.time_sec = resctrl_->machine().now();
    record.phase = PhaseName(phase_);
    record.trigger = "slo_outcome";
    record.app_id = static_cast<int32_t>(app.value());
    record.clos = static_cast<int32_t>(lc.group.clos());
    record.new_mask = lc.ways;
    record.new_mba = static_cast<int32_t>(pool_.max_mba_percent);
    record.detail = stalled ? "stalled"
                    : measured_p95_ms <= lc.governor->model().slo_p95_ms
                        ? "meets"
                        : "violation";
    audit->Append(record);
  }
}

Status ResourceManager::SetLatencyCriticalApp(AppId app,
                                              const LcAppModel& model) {
  if (!params_.slo.enabled) {
    return FailedPreconditionError("SLO mode disabled (params.slo.enabled)");
  }
  if (!resctrl_->machine().AppExists(app)) {
    return NotFoundError("no such app");
  }
  for (const LcManaged& lc : lc_apps_) {
    if (lc.id == app) {
      return AlreadyExistsError("app already latency-critical");
    }
  }
  for (const ManagedApp& managed : apps_) {
    if (managed.id == app) {
      return AlreadyExistsError("app is batch-managed");
    }
  }
  // Admission: every LC floor plus one way per batch app (at least one,
  // so batch admission stays possible) must fit in the base pool.
  const uint32_t floors = static_cast<uint32_t>(lc_apps_.size() + 1) *
                          params_.slo.lc_way_floor;
  const uint32_t batch_reserve =
      std::max<uint32_t>(static_cast<uint32_t>(apps_.size()), 1);
  if (floors + batch_reserve > base_pool_.num_ways) {
    return ResourceExhaustedError("resource pool too narrow for LC floors");
  }
  Result<ResctrlGroupId> group = actuator_.CreateGroup(
      "copart_lc_" + std::to_string(app.value()), app);
  if (!group.ok()) {
    return group.status();
  }
  lc_apps_.push_back(LcManaged{
      app, *group, MakeSloGovernor(params_.slo.governor, params_.slo, model)});
  lc_apps_.back().offered_rps = std::max(model.initial_offered_rps, 0.0);
  ReserveTickBuffers();
  audit_trigger_ = "slo_admit";
  const bool pool_changed = EvaluateSlo(/*force=*/true);
  if (pool_changed && !apps_.empty() && phase_ != Phase::kDegraded) {
    StartFullAdaptation();
  }
  return Status::Ok();
}

bool ResourceManager::EvaluateSlo(bool force) {
  const ResourcePool old_pool = pool_;
  if (lc_apps_.empty()) {
    pool_ = base_pool_;
    return pool_.first_way != old_pool.first_way ||
           pool_.num_ways != old_pool.num_ways ||
           pool_.max_mba_percent != old_pool.max_mba_percent;
  }

  // Plan every LC slice, carving from the bottom of the base pool in
  // registration order. Later LC apps' floors and one way per batch app
  // stay reserved, so the batch pool can never be squeezed to nothing.
  const uint32_t batch_reserve =
      std::max<uint32_t>(static_cast<uint32_t>(apps_.size()), 1);
  std::vector<SloDecision>& decisions = slo_decisions_;
  std::vector<uint32_t>& firsts = slo_firsts_;
  decisions.resize(lc_apps_.size());
  firsts.resize(lc_apps_.size());
  uint32_t next_first = base_pool_.first_way;
  uint32_t remaining = base_pool_.num_ways;
  uint32_t batch_mba = base_pool_.max_mba_percent;
  bool resize_needed = force;
  bool any_unattainable = false;
  for (size_t i = 0; i < lc_apps_.size(); ++i) {
    uint32_t reserved = batch_reserve;
    for (size_t j = i + 1; j < lc_apps_.size(); ++j) {
      reserved += params_.slo.lc_way_floor;
    }
    const uint32_t max_ways = remaining > reserved ? remaining - reserved : 1;
    decisions[i] = lc_apps_[i].governor->Plan(
        lc_apps_[i].offered_rps, max_ways, lc_apps_[i].ways,
        base_pool_.max_mba_percent);
    firsts[i] = next_first;
    next_first += decisions[i].lc_ways;
    CHECK_GE(remaining, decisions[i].lc_ways);
    remaining -= decisions[i].lc_ways;
    batch_mba = std::min(batch_mba, decisions[i].batch_mba_percent);
    if (decisions[i].lc_ways != lc_apps_[i].ways ||
        firsts[i] != lc_apps_[i].first_way) {
      resize_needed = true;
    }
    any_unattainable = any_unattainable || !decisions[i].attainable;
  }
  CHECK_GE(remaining, 1u);
  batch_mba = std::max(batch_mba, MbaLevel::kMin);

  if (resize_needed) {
    plan_.Clear();
    for (size_t i = 0; i < lc_apps_.size(); ++i) {
      plan_.AddClos(lc_apps_[i].group,
                    ContiguousBits(firsts[i], decisions[i].lc_ways),
                    MbaLevel::kMax, lc_apps_[i].id);
    }
    if (!Actuate(plan_)) {
      // The retry machinery (or degraded mode) owns the plan now; keep the
      // old bookkeeping so the governor re-plans from reality next tick.
      return false;
    }
    ++slo_resizes_;
  }
  for (size_t i = 0; i < lc_apps_.size(); ++i) {
    LcManaged& lc = lc_apps_[i];
    if (lc.attainable != decisions[i].attainable) {
      const char* saved_trigger = audit_trigger_;
      audit_trigger_ = "slo_governor";
      EmitPhaseAudit(decisions[i].attainable ? "slo_attainable"
                                             : "slo_unattainable");
      audit_trigger_ = saved_trigger;
    }
    if (resize_needed) {
      lc.ways = decisions[i].lc_ways;
      lc.first_way = firsts[i];
    }
    lc.predicted_p95_ms = decisions[i].predicted_p95_ms;
    lc.attainable = decisions[i].attainable;
  }
  if (any_unattainable) {
    ++slo_unattainable_ticks_;
  }

  pool_ = ResourcePool{.first_way = next_first,
                       .num_ways = remaining,
                       .max_mba_percent = batch_mba};
  return pool_.first_way != old_pool.first_way ||
         pool_.num_ways != old_pool.num_ways ||
         pool_.max_mba_percent != old_pool.max_mba_percent;
}

void ResourceManager::EvaluateSloTick() {
  audit_trigger_ = "slo_resize";
  const bool pool_changed = EvaluateSlo(/*force=*/false);
  if (pool_changed && !apps_.empty() && phase_ != Phase::kDegraded) {
    StartFullAdaptation();
  }
}

void ResourceManager::ReapDeadLcApps() {
  bool removed = false;
  for (size_t i = lc_apps_.size(); i-- > 0;) {
    if (!resctrl_->machine().AppExists(lc_apps_[i].id)) {
      actuator_.RemoveGroup(lc_apps_[i].group);
      lc_apps_.erase(lc_apps_.begin() + static_cast<ptrdiff_t>(i));
      removed = true;
    }
  }
  if (removed && phase_ != Phase::kDegraded && !pending_plan_.has_value()) {
    audit_trigger_ = "slo_reap";
    const bool pool_changed = EvaluateSlo(/*force=*/true);
    if (pool_changed && !apps_.empty()) {
      StartFullAdaptation();
    }
  }
}

size_t ResourceManager::AppIndex(AppId id) const {
  for (size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i].id == id) {
      return i;
    }
  }
  LOG_FATAL << "app not managed: " << id.value();
  __builtin_unreachable();
}

double ResourceManager::SlowdownEstimate(AppId app) const {
  const ManagedApp& managed = apps_[AppIndex(app)];
  if (managed.ips_full <= 0.0 || managed.prev_ips <= 0.0) {
    return 1.0;
  }
  return std::max(1.0, managed.ips_full / managed.prev_ips);
}

double ResourceManager::IpsFull(AppId app) const {
  return apps_[AppIndex(app)].ips_full;
}

bool ResourceManager::Quarantined(AppId app) const {
  return apps_[AppIndex(app)].quarantined;
}

ResourceClass ResourceManager::LlcClass(AppId app) const {
  return policy_->LlcClassOf(AppIndex(app));
}

ResourceClass ResourceManager::MbaClass(AppId app) const {
  return policy_->MbaClassOf(AppIndex(app));
}

double ResourceManager::StreamMissRateReference(MbaLevel level) const {
  const MachineConfig& config = resctrl_->machine().config();
  return throttle_.CapFraction(level) * config.total_memory_bandwidth /
         config.llc.line_bytes;
}

// --- Transactional actuation ---

void ResourceManager::AdoptDecision(const PartitionDecision& decision) {
  state_ = decision.state;
  app_slot_ = decision.app_slot;
  verified_generation_.reset();
}

void ResourceManager::AdoptFairShare() {
  policy_->FairShare(pool_, apps_.size(), &decision_);
  AdoptDecision(decision_);
}

void ResourceManager::ReserveTickBuffers() {
  const size_t n = apps_.size();
  for (SystemState* state : {&state_, &best_state_, &decision_.state}) {
    state->Reserve(n);
  }
  for (std::vector<uint32_t>* slots :
       {&app_slot_, &decision_.app_slot, &decision_.prefetch_percent}) {
    ReserveRoom(*slots, n);
  }
  // Two lines per CLOS entry, then at most one binding and one prefetch
  // write per app.
  const size_t writes = 2 * std::max(n, lc_apps_.size()) + 2 * n;
  ReserveRoom(plan_.writes, writes);
  actuator_.Reserve(writes);
  ReserveRoom(outcomes_, n);
  ReserveRoom(signals_, n);
  ReserveRoom(slowdowns_, n);
  ReserveRoom(slo_decisions_, lc_apps_.size());
  ReserveRoom(slo_firsts_, lc_apps_.size());
}

Status ResourceManager::EnsureSlotGroups(size_t count) {
  if (policy_->per_app_groups()) {
    return Status::Ok();
  }
  verified_generation_.reset();
  while (slot_groups_.size() < count) {
    Result<ResctrlGroupId> group = actuator_.CreateGroup(
        "copart_cluster_" + std::to_string(slot_groups_.size()));
    if (!group.ok()) {
      return group.status();
    }
    slot_groups_.push_back(*group);
  }
  return Status::Ok();
}

const ActuationPlan& ResourceManager::PlanForLayout(
    const SystemState& state, const std::vector<uint32_t>& app_slot) {
  CHECK(state.Valid());
  CHECK_EQ(app_slot.size(), apps_.size());
  const bool per_app = policy_->per_app_groups();
  CHECK(per_app ? state.NumApps() == apps_.size()
                : state.NumApps() <= slot_groups_.size());
  const auto slot_group = [&](size_t slot) {
    return per_app ? apps_[slot].group : slot_groups_[slot];
  };
  plan_.Clear();
  for (size_t k = 0; k < state.NumApps(); ++k) {
    plan_.AddClos(slot_group(k), state.WayMaskBits(k),
                  state.allocation(k).mba_level.percent(),
                  per_app ? apps_[k].id : AppId(),
                  per_app ? static_cast<int32_t>(k) : -1);
  }
  // An app outside its slot's group (a newcomer, a cluster move, an
  // out-of-band re-bind) joins it in the same transaction. A dead app is
  // reaped next tick; nothing to bind.
  const SimulatedMachine& machine = resctrl_->machine();
  for (size_t i = 0; i < apps_.size(); ++i) {
    const ResctrlGroupId group = slot_group(app_slot[i]);
    if (machine.AppExists(apps_[i].id) &&
        machine.AppClos(apps_[i].id) != group.clos()) {
      plan_.AddBind(group, apps_[i].id);
    }
  }
  return plan_;
}

const ActuationPlan& ResourceManager::PlanForDecision(
    const PartitionDecision& decision) {
  PlanForLayout(decision.state, decision.app_slot);
  if (!decision.prefetch_percent.empty()) {
    CHECK_EQ(decision.prefetch_percent.size(), apps_.size());
    const SimulatedMachine& machine = resctrl_->machine();
    for (size_t i = 0; i < apps_.size(); ++i) {
      if (machine.AppPrefetchPercent(apps_[i].id) !=
          decision.prefetch_percent[i]) {
        plan_.AddPrefetch(apps_[i].id, decision.prefetch_percent[i]);
      }
    }
  }
  return plan_;
}

bool ResourceManager::ActuateDecision(const PartitionDecision& decision) {
  Status groups = EnsureSlotGroups(decision.state.NumApps());
  if (!groups.ok()) {
    // Group creation failed before any schemata write: count it as an
    // actuation failure (it gates the same degraded-mode policy) but
    // schedule no retry plan — the next decision re-attempts creation.
    ++actuation_attempts_;
    ++actuation_failures_;
    if (++consecutive_actuation_failures_ >= kMaxConsecutiveFailures) {
      EnterDegraded();
    }
    return false;
  }
  return Actuate(PlanForDecision(decision));
}

const ActuationPlan& ResourceManager::PlanForProbe() {
  // The probed app gets the probe allocation; every co-runner is squeezed
  // to minimal resources (one shared way at the top of the pool, MBA floor)
  // so the probe measures the profiled app itself rather than the
  // co-runners' cache pollution and bandwidth pressure: IPS_full is the
  // Eq. 1 slowdown reference and must approximate the full-resource rate.
  // The co-runners pay for one period per probe — the adaptation transient
  // visible in Fig. 15.
  const uint64_t full_bits = ContiguousBits(pool_.first_way, pool_.num_ways);
  const uint32_t max_mba = state_.pool().max_mba_percent;
  uint64_t mask_bits = full_bits;
  uint32_t mba_percent = max_mba;
  switch (probe_) {
    case Probe::kFull:
      break;  // All pool ways at the pool's MBA ceiling.
    case Probe::kFewWays:
      mask_bits = ContiguousBits(pool_.first_way,
                                 std::min(kProfileWays, pool_.num_ways));
      break;
    case Probe::kLowMba:
      mba_percent = kProfileMbaPercent;
      break;
  }
  const uint64_t squeeze_bits =
      ContiguousBits(pool_.first_way + pool_.num_ways - 1, 1);
  plan_.Clear();
  for (size_t i = 0; i < apps_.size(); ++i) {
    const bool probed = i == profile_app_;
    plan_.AddClos(apps_[i].group, probed ? mask_bits : squeeze_bits,
                  probed ? mba_percent : MbaLevel::kMin, apps_[i].id,
                  static_cast<int32_t>(i));
  }
  return plan_;
}

Status ResourceManager::ApplyPlan(const ActuationPlan& plan) {
  verified_generation_.reset();
  ++actuation_attempts_;
  TraceTick::Span span(trace_tick_, "apply_schemata");
  span.set_cost(plan.entries);
  span.set_arg1("entries", static_cast<int64_t>(plan.entries));
  const Status status = actuator_.Apply(plan);
  span.set_arg2("ok", status.ok() ? 1 : 0);
  rollbacks_ += status.ok() ? 0 : 1;
  AuditLog* audit = ObsAudit(obs_);
  if (audit == nullptr) {
    return status;
  }
  AuditRecord record;
  record.epoch = ticks_;
  record.time_sec = resctrl_->machine().now();
  record.phase = PhaseName(phase_);
  record.trigger = audit_trigger_;
  record.degraded = phase_ == Phase::kDegraded;
  // The streak before this attempt: Actuate counts it after ApplyPlan.
  record.failure_streak = consecutive_actuation_failures_;
  if (!status.ok()) {
    record.kind = AuditKind::kActuationFailure;
    record.rollback = true;
    record.detail = "transaction rolled back";
    audit->Append(record);
    return status;
  }
  // One record per CLOS whose mask or MBA level changed. A batch entry's
  // index is current: plans are dropped whenever the app set changes.
  for (size_t i = 0; i < 2 * plan.entries; i += 2) {
    const ActuationPlan::Write& l3 = plan.writes[i];
    const ActuationPlan::Write& mb = plan.writes[i + 1];
    if (actuator_.before(i) == l3.value &&
        actuator_.before(i + 1) == mb.value) {
      continue;
    }
    AuditRecord entry = record;
    entry.app_index = l3.app_index;
    entry.app_id = l3.app.valid() ? static_cast<int32_t>(l3.app.value()) : -1;
    const auto index = static_cast<size_t>(l3.app_index);
    if (l3.app_index >= 0 && index < apps_.size()) {
      entry.llc_class = ResourceClassName(policy_->LlcClassOf(index));
      entry.quarantined = apps_[index].quarantined;
    }
    entry.clos = static_cast<int32_t>(l3.clos);
    entry.old_mask = actuator_.before(i);
    entry.new_mask = l3.value;
    entry.old_mba = static_cast<int32_t>(actuator_.before(i + 1));
    entry.new_mba = static_cast<int32_t>(mb.value);
    audit->Append(entry);
  }
  return status;
}

int ResourceManager::DelayTicks(double periods) const {
  return std::max(1, static_cast<int>(std::lround(periods)));
}

bool ResourceManager::Actuate(const ActuationPlan& plan) {
  if (ApplyPlan(plan).ok()) {
    consecutive_actuation_failures_ = 0;
    backoff_.Reset();
    pending_plan_.reset();
    backoff_ticks_remaining_ = 0;
    return true;
  }
  ++actuation_failures_;
  ++consecutive_actuation_failures_;
  if (consecutive_actuation_failures_ >= kMaxConsecutiveFailures) {
    EnterDegraded();
    return false;
  }
  pending_plan_ = plan;
  backoff_ticks_remaining_ = DelayTicks(backoff_.NextDelay());
  return false;
}

bool ResourceManager::RetryPendingActuation() {
  if (!pending_plan_.has_value()) {
    return true;
  }
  if (backoff_ticks_remaining_ > 0) {
    --backoff_ticks_remaining_;
    return false;
  }
  const ActuationPlan plan = *pending_plan_;
  pending_plan_.reset();
  audit_trigger_ = "actuation_retry";
  if (Actuate(plan)) {
    // The periods spent waiting measured whatever allocation happened to be
    // on the machine, not the intended plan — restart the sampling windows
    // and resume the control loop next period.
    for (ManagedApp& app : apps_) {
      monitor_->Attach(app.id);
    }
  }
  return false;
}

// --- Counter health / quarantine ---

ResourceManager::SampleOutcome ResourceManager::SampleApp(ManagedApp& app) {
  SampleOutcome outcome;
  Result<PmcSample> sample = monitor_->TrySample(app.id);
  if (sample.ok()) {
    outcome.sample = *sample;
    // A live app always retires instructions over a period; a zero delta is
    // a stale counter, and an absurd one is saturation or wraparound.
    outcome.healthy = outcome.sample.interval_sec > 0.0 &&
                      outcome.sample.instructions > 0.0 &&
                      outcome.sample.instructions < kSaturationInstructions;
  }
  if (outcome.healthy) {
    app.bad_sample_streak = 0;
    ++app.good_sample_streak;
    if (app.quarantined &&
        app.good_sample_streak >= kQuarantineReleaseGoodSamples) {
      app.quarantined = false;
      EmitQuarantineAudit(app, /*engaged=*/false);
    }
  } else {
    app.good_sample_streak = 0;
    ++app.bad_sample_streak;
    if (!app.quarantined &&
        app.bad_sample_streak >= kQuarantineAfterBadSamples) {
      app.quarantined = true;
      ++quarantines_;
      EmitQuarantineAudit(app, /*engaged=*/true);
    }
  }
  return outcome;
}

// --- Phases ---

void ResourceManager::StartAdaptation() {
  CHECK(!apps_.empty());
  if (policy_->per_app_groups()) {
    CHECK_GE(pool_.num_ways, apps_.size()) << "more apps than pool ways";
  }
  ++adaptations_started_;
  pending_plan_.reset();
  backoff_ticks_remaining_ = 0;
  profile_app_ = NextUnprofiled(0);
  if (!policy_->needs_profiling() || profile_app_ == apps_.size()) {
    // Probe-free policies classify from the live signals, and profiled
    // apps keep their slowdown references and initial classes: adaptation
    // goes straight to the exploration loop.
    EnterExploration();
    return;
  }
  phase_ = Phase::kProfiling;
  probe_ = Probe::kFull;
  AdoptFairShare();
  audit_trigger_ = "adaptation_start";
  EmitPhaseAudit("enter_profiling");
  // May fail and schedule a retry (or enter the degraded phase); the tick
  // loop picks it up either way.
  (void)Actuate(PlanForProbe());
  // Restart the sampling windows so the first probe reads a clean period.
  for (ManagedApp& app : apps_) {
    monitor_->Attach(app.id);
    app.prev_ips = 0.0;
  }
}

void ResourceManager::StartFullAdaptation() {
  for (ManagedApp& app : apps_) {
    app.profiled = false;
  }
  StartAdaptation();
}

size_t ResourceManager::NextUnprofiled(size_t from) const {
  while (from < apps_.size() && apps_[from].profiled) {
    ++from;
  }
  return from;
}

void ResourceManager::TickProfiling() {
  audit_trigger_ = "profiling_probe";
  if (trace_tick_ != nullptr) {
    trace_tick_->Instant("profiling_probe", "app",
                         static_cast<int64_t>(profile_app_));
  }
  ManagedApp& app = apps_[profile_app_];
  bool advance = false;
  bool skip_app = false;
  if (app.quarantined) {
    skip_app = true;
  } else {
    const SampleOutcome outcome = SampleApp(app);
    if (app.quarantined) {
      // The K-th consecutive bad probe sample tipped the app into
      // quarantine: stop burning probe periods on it.
      skip_app = true;
    } else if (outcome.healthy) {
      const PmcSample& sample = outcome.sample;
      const double ips = sample.Ips();
      if (probe_ == Probe::kFull) {
        // The slowdown reference (Eq. 1 numerator) stays driver-side; it
        // feeds the online slowdown estimates, not just the policy.
        app.ips_full = std::max(ips, 1.0);
      }
      const MbaLevel probe_level =
          MbaLevel::FromPercentChecked(kProfileMbaPercent);
      const ProbeSignal signal{
          .ips = ips,
          .ips_full = app.ips_full,
          .llc_access_rate = sample.LlcAccessesPerSec(),
          .llc_miss_ratio = sample.LlcMissRatio(),
          .llc_misses_per_sec = sample.LlcMissesPerSec(),
          .stream_miss_rate_ref = StreamMissRateReference(probe_level)};
      policy_->ObserveProbe(profile_app_, static_cast<ProbeKind>(probe_),
                            signal);
      advance = true;
    }
    // Unhealthy but below the quarantine threshold: repeat this probe.
  }

  if (skip_app) {
    // Quarantined: no trustworthy probes. Conservative defaults — no
    // slowdown reference (estimate 1.0), and the policy adopts its own
    // safe initial classification.
    app.ips_full = 0.0;
    policy_->ObserveProbeSkipped(profile_app_);
    probe_ = Probe::kLowMba;
    advance = true;
  }

  if (advance) {
    if (probe_ != Probe::kLowMba) {
      probe_ = static_cast<Probe>(static_cast<int>(probe_) + 1);
    } else {
      app.profiled = !skip_app;
      probe_ = Probe::kFull;
      profile_app_ = NextUnprofiled(profile_app_ + 1);
      if (profile_app_ >= apps_.size()) {
        EnterExploration();
        return;
      }
    }
  }
  if (Actuate(PlanForProbe())) {
    // Restart the profiled app's sampling window so the next read covers
    // exactly this probe period (and none of the time it spent squeezed
    // during the other apps' probes).
    monitor_->Attach(apps_[profile_app_].id);
  }
}

void ResourceManager::EnterExploration() {
  phase_ = Phase::kExploration;
  audit_trigger_ = "exploration_start";
  EmitPhaseAudit("enter_exploration");
  // The policy resets its exploration state (FSM initials, pending events)
  // and writes the opening decision — the fair share it explores from.
  policy_->StartExploration(pool_, apps_.size(), &decision_);
  for (ManagedApp& app : apps_) {
    app.prev_ips = 0.0;
    monitor_->Attach(app.id);  // Fresh sampling window.
  }
  has_best_state_ = false;
  best_unfairness_ = 0.0;
  AdoptDecision(decision_);
  (void)ActuateDecision(decision_);
  if (decision_.converged && phase_ == Phase::kExploration) {
    // A static policy: nothing to explore. A failed apply above is retried
    // from idle like any other pending plan.
    EnterIdle();
  }
}

void ResourceManager::TickExploration() {
  const size_t n = apps_.size();

  // Phase 1: read every app's PMCs through the fallible path. Sampling is
  // per-app independent and draws no randomness, so hoisting it out of the
  // classification loop changes nothing observable.
  std::vector<SampleOutcome>& outcomes = outcomes_;
  outcomes.resize(n);
  {
    TraceTick::Span span(trace_tick_, "pmc_sample");
    span.set_cost(n);
    span.set_arg1("apps", static_cast<int64_t>(n));
    for (size_t i = 0; i < n; ++i) {
      outcomes[i] = SampleApp(apps_[i]);
    }
  }

  // Assemble the per-app signal bundle the policy classifies from. Pure
  // arithmetic over the samples — no policy state is touched yet.
  std::vector<PolicySignals>& signals = signals_;
  signals.assign(n, PolicySignals{});
  for (size_t i = 0; i < n; ++i) {
    ManagedApp& app = apps_[i];
    const SampleOutcome& outcome = outcomes[i];
    PolicySignals& s = signals[i];
    s.healthy = outcome.healthy;
    s.quarantined = app.quarantined;
    if (outcome.healthy) {
      const PmcSample& sample = outcome.sample;
      const double ips = sample.Ips();
      s.ips = ips;
      s.perf_delta =
          app.prev_ips > 0.0 ? (ips - app.prev_ips) / app.prev_ips : 0.0;
      s.llc_access_rate = sample.LlcAccessesPerSec();
      s.llc_miss_ratio = sample.LlcMissRatio();
      const MbaLevel level = state_.allocation(app_slot_[i]).mba_level;
      s.traffic_ratio =
          sample.LlcMissesPerSec() / StreamMissRateReference(level);
      app.prev_ips = ips;
    }
    // Unhealthy: keep prev_ips (and the policy keeps its classification)
    // from the last trusted period — garbage must not drive decisions.
    s.slowdown = app.quarantined
                     ? 1.0
                     : (app.ips_full > 0.0 && app.prev_ips > 0.0
                            ? std::max(1.0, app.ips_full / app.prev_ips)
                            : 1.0);
  }

  // Phase 2: the policy updates its per-app classification.
  {
    TraceTick::Span span(trace_tick_, "classify");
    span.set_cost(n);
    policy_->Classify(signals);
  }

  if (MetricsRegistry* metrics = ObsMetrics(obs_)) {
    // Bucket 0 holds only estimates below 1.0, which the floor rules out.
    static const double kSlowdownEdges[] = {
        std::nextafter(1.0, 0.0), 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0};
    Histogram* slowdowns =
        metrics->GetHistogram("copart.manager.slowdown", kSlowdownEdges);
    for (size_t i = 0; i < n; ++i) {
      slowdowns->Observe(signals[i].slowdown);
    }
  }

  // These samples measured `state_` (applied at the end of the previous
  // tick); remember it if it is the fairest state seen this exploration.
  {
    std::vector<double>& slowdowns = slowdowns_;
    slowdowns.resize(n);
    for (size_t i = 0; i < n; ++i) {
      slowdowns[i] = signals[i].slowdown;
    }
    const double mean = Mean(slowdowns);
    const double unfairness = mean > 0.0 ? StdDev(slowdowns) / mean : 0.0;
    if (!has_best_state_ || unfairness < best_unfairness_) {
      has_best_state_ = true;
      best_unfairness_ = unfairness;
      best_state_ = state_;
    }
  }

  // Phase 3: ask the policy for the next decision (for CoPart: the HR
  // matcher plus the random neighbor retry of Algorithm 1). The span's
  // duration is the virtual cost (one unit) — the *wall-clock* solve time
  // stays in exploration_time_stats_, outside the deterministic trace
  // surface.
  PartitionDecision& decision = decision_;
  {
    TraceTick::Span span(trace_tick_, "solve");
    const auto start = std::chrono::steady_clock::now();
    policy_->Allocate(state_, signals, rng_, &decision);
    const auto end = std::chrono::steady_clock::now();
    last_exploration_us_ =
        std::chrono::duration<double, std::micro>(end - start).count();
    exploration_time_stats_.Add(last_exploration_us_);
    span.set_arg1("retries", decision.retries);
    span.set_arg2("neighbor", decision.used_neighbor ? 1 : 0);
  }
  if (decision.converged) {
    EnterIdle();
    return;
  }

  AdoptDecision(decision);
  audit_trigger_ =
      decision.used_neighbor ? "exploration_neighbor" : "exploration_match";
  (void)ActuateDecision(decision);
}

void ResourceManager::EnterIdle() {
  phase_ = Phase::kIdle;
  audit_trigger_ = "idle_restore_best";
  EmitPhaseAudit("enter_idle");
  if (policy_->restore_best_state() && has_best_state_ &&
      !(best_state_ == state_)) {
    state_ = best_state_;
    (void)Actuate(PlanForLayout(state_, app_slot_));
    // The idle IPS baselines are re-read on the first idle tick; prev_ips
    // still reflects the pre-restore state, so clear the baselines to avoid
    // a spurious drift trigger.
    for (ManagedApp& app : apps_) {
      app.idle_baseline_ips = 0.0;
    }
    return;
  }
  for (ManagedApp& app : apps_) {
    app.idle_baseline_ips = app.prev_ips;
  }
}

void ResourceManager::TickIdle() {
  if (apps_.empty()) {
    return;
  }
  // Consolidation change? (New apps are handled synchronously by AddApp;
  // this catches terminations observed through the machine.)
  if (resctrl_->machine().app_generation() != last_seen_generation_) {
    last_seen_generation_ = resctrl_->machine().app_generation();
    StartAdaptation();
    return;
  }
  // Allocation drift: a write the substrate rolled back after the fact, or
  // an out-of-band schemata edit. Re-actuate the current decision (through
  // the usual retry/backoff/degraded path) rather than run the rest of the
  // phase on the wrong partitioning. Every machine mutator bumps the input
  // generation on a change, so while it still equals the one a clean
  // readback saw, nothing can have drifted and the readback is skipped.
  const uint64_t generation = resctrl_->machine().input_generation();
  if (verified_generation_ != generation) {
    if ((!policy_->per_app_groups() &&
         slot_groups_.size() < state_.NumApps()) ||
        !actuator_.Holds(PlanForLayout(state_, app_slot_))) {
      audit_trigger_ = "idle_drift_repair";
      decision_.state = state_;
      decision_.app_slot = app_slot_;
      decision_.ClearExtras();
      (void)ActuateDecision(decision_);
      return;
    }
    verified_generation_ = generation;
  }
  // Significant IPS drift, e.g. the outer manager squeezed the batch slice
  // or a co-runner changed behaviour.
  for (ManagedApp& app : apps_) {
    const SampleOutcome outcome = SampleApp(app);
    if (!outcome.healthy || app.quarantined) {
      // Untrusted reading: never let it move the drift baseline or trigger
      // a (pointless) re-adaptation.
      continue;
    }
    const double ips = outcome.sample.Ips();
    app.prev_ips = ips;
    if (app.idle_baseline_ips <= 0.0) {
      // First idle tick after a best-state restore: adopt this measurement
      // as the baseline instead of comparing against the pre-restore rate.
      app.idle_baseline_ips = ips;
    } else {
      const double drift =
          std::abs(ips - app.idle_baseline_ips) / app.idle_baseline_ips;
      if (drift > params_.idle_ips_drift_threshold) {
        StartFullAdaptation();
        return;
      }
    }
  }
}

void ResourceManager::EnterDegraded() {
  if (phase_ == Phase::kDegraded) {
    return;
  }
  phase_ = Phase::kDegraded;
  ++degraded_entries_;
  EmitPhaseAudit("degraded_enter");  // Records the streak that tripped it.
  degraded_success_streak_ = 0;
  consecutive_actuation_failures_ = 0;
  pending_plan_.reset();
  backoff_ticks_remaining_ = 0;
  backoff_.Reset();
}

void ResourceManager::TickDegraded() {
  if (backoff_ticks_remaining_ > 0) {
    --backoff_ticks_remaining_;
    return;
  }
  // Keep trying to pin the static fair share — the safest partition when
  // neither actuation nor feedback can be trusted.
  policy_->FairShare(pool_, apps_.size(), &decision_);
  audit_trigger_ = "degraded_fair_share";
  Status status = EnsureSlotGroups(decision_.state.NumApps());
  if (status.ok()) {
    status = ApplyPlan(PlanForDecision(decision_));
  } else {
    ++actuation_attempts_;  // Group creation failed before any write.
  }
  if (status.ok()) {
    AdoptDecision(decision_);
    ++degraded_success_streak_;
    if (degraded_success_streak_ >= kDegradedRecoverySuccesses) {
      ++degraded_recoveries_;
      backoff_.Reset();
      StartFullAdaptation();
      EmitPhaseAudit("degraded_recovery");
    }
    return;
  }
  ++actuation_failures_;
  degraded_success_streak_ = 0;
  backoff_ticks_remaining_ = DelayTicks(backoff_.NextDelay());
}

void ResourceManager::EmitPhaseAudit(const char* detail) {
  AuditLog* audit = ObsAudit(obs_);
  if (audit == nullptr) {
    return;
  }
  AuditRecord record;
  record.kind = AuditKind::kPhaseTransition;
  record.epoch = ticks_;
  record.time_sec = resctrl_->machine().now();
  record.phase = PhaseName(phase_);
  record.trigger = audit_trigger_;
  record.degraded = phase_ == Phase::kDegraded;
  record.failure_streak = consecutive_actuation_failures_;
  record.detail = detail;
  audit->Append(record);
}

void ResourceManager::EmitQuarantineAudit(const ManagedApp& app,
                                          bool engaged) {
  AuditLog* audit = ObsAudit(obs_);
  if (audit == nullptr) {
    return;
  }
  AuditRecord record;
  record.kind = AuditKind::kQuarantineChange;
  record.epoch = ticks_;
  record.time_sec = resctrl_->machine().now();
  record.phase = PhaseName(phase_);
  record.trigger = engaged ? "quarantine_engage" : "quarantine_release";
  record.app_index = static_cast<int32_t>(&app - apps_.data());
  record.app_id = static_cast<int32_t>(app.id.value());
  record.clos = static_cast<int32_t>(app.group.clos());
  record.quarantined = engaged;
  record.degraded = phase_ == Phase::kDegraded;
  record.detail = engaged ? "counters untrusted" : "counters recovered";
  audit->Append(record);
}

void ResourceManager::ExportMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) {
    return;
  }
  metrics->GetCounter("copart.manager.ticks")->Increment(ticks_);
  metrics->GetCounter("copart.manager.adaptations_started")
      ->Increment(adaptations_started_);
  metrics->GetCounter("copart.manager.actuation_attempts")
      ->Increment(actuation_attempts_);
  metrics->GetCounter("copart.manager.actuation_failures")
      ->Increment(actuation_failures_);
  metrics->GetCounter("copart.manager.rollbacks")->Increment(rollbacks_);
  metrics->GetCounter("copart.manager.degraded_entries")
      ->Increment(degraded_entries_);
  metrics->GetCounter("copart.manager.degraded_recoveries")
      ->Increment(degraded_recoveries_);
  metrics->GetCounter("copart.manager.quarantines")->Increment(quarantines_);
  metrics->GetCounter("copart.manager.apps")->Increment(apps_.size());
  metrics->GetCounter("copart.pmc.try_samples")
      ->Increment(monitor_->try_samples());
  metrics->GetCounter("copart.pmc.try_sample_failures")
      ->Increment(monitor_->try_sample_failures());
  metrics->GetCounter("copart.resctrl.schemata_writes")
      ->Increment(resctrl_->schemata_writes());
  metrics->GetCounter("copart.resctrl.schemata_write_failures")
      ->Increment(resctrl_->schemata_write_failures());
  // Wall-clock matcher cost (the paper's Fig. 16 overhead metric): real
  // host time, so excluded from the deterministic byte-compared surface.
  metrics->GetGauge("copart.manager.exploration_us_last",
                    /*deterministic=*/false)
      ->Set(last_exploration_us_);
  metrics->GetGauge("copart.manager.exploration_us_mean",
                    /*deterministic=*/false)
      ->Set(exploration_time_stats_.mean());
  metrics->GetCounter("copart.manager.exploration_solves")
      ->Increment(exploration_time_stats_.count());
  if (monitor_->sensing_params().enabled) {
    metrics->GetCounter("copart.pmc.sensed_samples")
        ->Increment(monitor_->sensed_samples());
    metrics->GetCounter("copart.pmc.estimator_fallbacks")
        ->Increment(monitor_->estimator_fallbacks());
    metrics->GetCounter("copart.pmc.stale_reports")
        ->Increment(monitor_->stale_reports());
  }
  if (params_.slo.enabled) {
    metrics->GetCounter("copart.manager.slo_resizes")->Increment(slo_resizes_);
    metrics->GetCounter("copart.manager.slo_unattainable_ticks")
        ->Increment(slo_unattainable_ticks_);
    metrics->GetGauge("copart.manager.lc_ways_total")
        ->Set(lc_total_ways());
    for (const LcManaged& lc : lc_apps_) {
      const std::string prefix =
          "copart.manager.lc." + std::to_string(lc.id.value());
      metrics->GetGauge(prefix + ".ways")->Set(lc.ways);
      // Unattainable predictions are +inf; dump as -1 to keep the metrics
      // JSON numeric.
      metrics->GetGauge(prefix + ".predicted_p95_ms")
          ->Set(std::isfinite(lc.predicted_p95_ms) ? lc.predicted_p95_ms
                                                   : -1.0);
    }
  }
}

void ResourceManager::Tick() {
  ++ticks_;
  // The virtual trace clock for this control period: simulated time in
  // microseconds as the base, a deterministic intra-tick cursor on top.
  // Stack-scoped; trace_tick_ exposes it to the phase methods.
  TraceTick trace_tick(
      ObsTracer(obs_),
      static_cast<uint64_t>(std::llround(resctrl_->machine().now() * 1e6)));
  trace_tick_ = trace_tick.active() ? &trace_tick : nullptr;
  TickImpl();
  trace_tick_ = nullptr;
  if (Tracer* tracer = ObsTracer(obs_)) {
    // Epoch boundary: move this period's events off the hot-path rings.
    tracer->DrainRings();
  }
}

void ResourceManager::TickImpl() {
  ReapDeadApps();
  ReapDeadLcApps();
  actuator_.RetryZombies();
  // SLO governor step: re-plan the LC slices for the offered load before
  // the batch phases run, so a grown slice and the resulting batch
  // re-adaptation land in the same period. Skipped while a pending plan
  // is backing off (Actuate would clobber its retry) and in the degraded
  // phase (the substrate can't hold an allocation anyway — the LC masks
  // keep their last actuated, floor-respecting values).
  if (params_.slo.enabled && !lc_apps_.empty() &&
      phase_ != Phase::kDegraded && !pending_plan_.has_value()) {
    EvaluateSloTick();
  }
  if (apps_.empty()) {
    return;
  }
  if (phase_ == Phase::kDegraded) {
    TickDegraded();
    return;
  }
  if (!RetryPendingActuation()) {
    return;
  }
  switch (phase_) {
    case Phase::kProfiling:
      TickProfiling();
      break;
    case Phase::kExploration:
      TickExploration();
      break;
    case Phase::kIdle:
      TickIdle();
      break;
    case Phase::kDegraded:
      break;  // Handled above.
  }
}

void ResourceManager::ReapDeadApps() {
  // Apps can terminate without an explicit RemoveApp (a crashed container,
  // a batch job finishing). Sampling a dead app would fault, so reap them
  // first and re-adapt for the survivors — the §5.4.3 "termination of an
  // application" trigger, made robust.
  bool removed = false;
  for (size_t i = apps_.size(); i-- > 0;) {
    if (!resctrl_->machine().AppExists(apps_[i].id)) {
      DropApp(i);
      removed = true;
    }
  }
  if (removed) {
    AfterAppRemoval();
  }
}

}  // namespace copart
