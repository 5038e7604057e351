#include "machine/simulated_machine.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>

#include "common/logging.h"

namespace copart {
namespace {

// Below this misses-per-instruction the app is treated as generating no
// memory traffic (avoids 0/0 in the roofline division).
constexpr double kNegligibleMpi = 1e-15;

// Fixed-point iterations for the shared-capacity solve. Occupancy converges
// geometrically; four rounds are plenty for the accuracy the model needs.
constexpr int kCapacityIterations = 4;

constexpr double kUncapped = std::numeric_limits<double>::infinity();

}  // namespace

SimulatedMachine::SimulatedMachine(const MachineConfig& config)
    : config_(config),
      throttle_model_(config.mba_cap_exponent),
      arbiter_(config.total_memory_bandwidth),
      rng_(config.seed) {
  CHECK_GT(config_.num_cores, 0u);
  CHECK_GT(config_.num_clos, 0u);
  clos_.resize(config_.num_clos);
  for (ClosSetting& state : clos_) {
    state.way_mask = WayMask::Contiguous(0, config_.llc.num_ways);
    state.mba_level = MbaLevel();  // 100%
  }
}

void SimulatedMachine::ReserveEpochBuffers() {
  const size_t apps = std::max(apps_.size(), 2 * solved_ips_.capacity());
  for (std::vector<double>* buffer :
       {&soa_cores_hz_, &soa_api_, &soa_cpi_exec_, &soa_mem_lat_, &soa_mlp_,
        &soa_kappa_, &soa_mba_term_, &soa_cap_bps_, &soa_pf_lat_, &soa_pf_bw_,
        &solved_ips_, &solved_capability_, &solved_miss_ratio_,
        &solved_capacity_, &solved_demand_, &solved_grant_, &solved_mpi_,
        &solved_api_, &scratch_capacities_, &scratch_weights_,
        &scratch_miss_ratios_, &scratch_capped_, &scratch_grants_}) {
    buffer->reserve(apps);
  }
  arbiter_.Reserve(apps);
  const size_t clos = clos_.size();
  clos_mask_bits_.reserve(clos);
  scratch_clos_weight_.reserve(clos);
  scratch_clos_capacity_.reserve(clos);
  scratch_active_clos_.reserve(clos);
}

Result<AppId> SimulatedMachine::LaunchApp(const WorkloadDescriptor& descriptor,
                                          std::optional<uint32_t> num_cores) {
  const uint32_t cores = num_cores.value_or(descriptor.num_threads);
  if (cores == 0) {
    return InvalidArgumentError("app must use at least one core");
  }
  if (used_cores_ + cores > config_.num_cores) {
    return ResourceExhaustedError("not enough free cores for " +
                                  descriptor.name);
  }
  App app;
  app.id = AppId(next_app_id_++);
  app.descriptor = descriptor;
  app.num_cores = cores;
  app.launch_time = now_;
  app.solo_ips = SoloFullResourceIps(descriptor, cores);
  used_cores_ += cores;
  ++app_generation_;
  ++input_generation_;
  ++capacity_generation_;
  app_index_[app.id] = apps_.size();
  if (!app.descriptor.phases.empty()) {
    phased_apps_.push_back(apps_.size());
  }
  params_cache_.push_back(
      EffectiveParamsFor(app, app.descriptor.PhaseIndexAt(0.0)));
  apps_.push_back(std::move(app));
  app_clos_.push_back(0);
  required_ips_.push_back(kUncapped);
  prefetch_percent_.push_back(100);
  counters_.emplace_back();
  last_epoch_.emplace_back();
  return apps_.back().id;
}

Status SimulatedMachine::TerminateApp(AppId id) {
  const auto it = app_index_.find(id);
  if (it == app_index_.end()) {
    return NotFoundError("no such app");
  }
  const size_t index = it->second;
  used_cores_ -= apps_[index].num_cores;
  apps_.erase(apps_.begin() + static_cast<ptrdiff_t>(index));
  app_clos_.erase(app_clos_.begin() + static_cast<ptrdiff_t>(index));
  required_ips_.erase(required_ips_.begin() + static_cast<ptrdiff_t>(index));
  prefetch_percent_.erase(prefetch_percent_.begin() +
                          static_cast<ptrdiff_t>(index));
  counters_.erase(counters_.begin() + static_cast<ptrdiff_t>(index));
  last_epoch_.erase(last_epoch_.begin() + static_cast<ptrdiff_t>(index));
  params_cache_.erase(params_cache_.begin() + static_cast<ptrdiff_t>(index));
  std::erase(phased_apps_, index);
  for (size_t& phased : phased_apps_) {
    if (phased > index) {
      --phased;
    }
  }
  app_index_.erase(it);
  // The erase shifted every later app down one slot.
  for (auto& [app_id, app_pos] : app_index_) {
    if (app_pos > index) {
      --app_pos;
    }
  }
  ++app_generation_;
  ++input_generation_;
  ++capacity_generation_;
  return Status::Ok();
}

std::vector<AppId> SimulatedMachine::ListApps() const {
  std::vector<AppId> ids;
  ids.reserve(apps_.size());
  for (const App& app : apps_) {
    ids.push_back(app.id);
  }
  return ids;
}

bool SimulatedMachine::AppExists(AppId id) const {
  return app_index_.find(id) != app_index_.end();
}

size_t SimulatedMachine::IndexOf(AppId id) const {
  const auto it = app_index_.find(id);
  if (it == app_index_.end()) {
    LOG_FATAL << "no such app: " << id.value();
    __builtin_unreachable();
  }
  return it->second;
}

const SimulatedMachine::App& SimulatedMachine::GetApp(AppId id) const {
  return apps_[IndexOf(id)];
}

const WorkloadDescriptor& SimulatedMachine::Descriptor(AppId id) const {
  return GetApp(id).descriptor;
}

uint32_t SimulatedMachine::AppCores(AppId id) const {
  return GetApp(id).num_cores;
}

double SimulatedMachine::AppLaunchTime(AppId id) const {
  return GetApp(id).launch_time;
}

void SimulatedMachine::SetClosWayMask(uint32_t clos, const WayMask& mask) {
  CHECK_LT(clos, clos_.size());
  CHECK(!mask.Empty()) << "CLOS way mask must keep at least one way";
  CHECK_LE(mask.FirstWay() + mask.CountWays(), config_.llc.num_ways);
  if (clos_[clos].way_mask == mask) {
    return;  // No observable change: keep the cached solve valid.
  }
  clos_[clos].way_mask = mask;
  ++input_generation_;
  ++capacity_generation_;
}

void SimulatedMachine::SetClosMbaLevel(uint32_t clos, MbaLevel level) {
  CHECK_LT(clos, clos_.size());
  if (clos_[clos].mba_level == level) {
    return;
  }
  clos_[clos].mba_level = level;
  ++input_generation_;
}

void SimulatedMachine::AssignAppToClos(AppId id, uint32_t clos) {
  CHECK_LT(clos, clos_.size());
  const size_t index = IndexOf(id);
  if (app_clos_[index] == clos) {
    return;
  }
  app_clos_[index] = clos;
  ++input_generation_;
  ++capacity_generation_;
}

const WayMask& SimulatedMachine::ClosWayMask(uint32_t clos) const {
  CHECK_LT(clos, clos_.size());
  return clos_[clos].way_mask;
}

MbaLevel SimulatedMachine::ClosMbaLevel(uint32_t clos) const {
  CHECK_LT(clos, clos_.size());
  return clos_[clos].mba_level;
}

uint32_t SimulatedMachine::AppClos(AppId id) const {
  return app_clos_[IndexOf(id)];
}

void SimulatedMachine::SetAppRequiredIps(AppId id,
                                         std::optional<double> required_ips) {
  if (required_ips.has_value()) {
    CHECK_GT(*required_ips, 0.0);
  }
  const size_t index = IndexOf(id);
  const double cap = required_ips.value_or(kUncapped);
  if (required_ips_[index] == cap) {
    return;
  }
  required_ips_[index] = cap;
  ++input_generation_;
}

void SimulatedMachine::SetAppPrefetchPercent(AppId id, uint32_t percent) {
  CHECK_LE(percent, 100u);
  const size_t index = IndexOf(id);
  if (prefetch_percent_[index] == percent) {
    return;
  }
  prefetch_percent_[index] = percent;
  // Bandwidth tier only: the latency/demand factors never feed the capacity
  // fixed point, so the incremental tick keeps the cached capacities.
  ++input_generation_;
}

uint32_t SimulatedMachine::AppPrefetchPercent(AppId id) const {
  return prefetch_percent_[IndexOf(id)];
}

double SimulatedMachine::UnconstrainedCpi(const WorkloadDescriptor& d,
                                          double cpi_exec, double mpi,
                                          MbaLevel level, double contention,
                                          double prefetch_lat) {
  const double stall_per_miss =
      contention * d.mem_latency_cycles / d.mlp * prefetch_lat;
  const double throttle_stretch =
      1.0 + d.mba_kappa * (100.0 / level.percent() - 1.0);
  return cpi_exec + mpi * stall_per_miss * throttle_stretch;
}

SimulatedMachine::EffectiveParams SimulatedMachine::EffectiveParamsFor(
    const App& app, size_t phase_index) const {
  const WorkloadDescriptor& d = app.descriptor;
  const WorkloadPhase phase =
      d.phases.empty() ? WorkloadPhase{} : d.phases[phase_index];
  EffectiveParams params;
  params.accesses_per_instr =
      d.accesses_per_instr * phase.access_intensity_scale;
  params.cpi_exec = d.cpi_exec * phase.cpi_exec_scale;
  params.phase_index = phase_index;
  if (phase.streaming_scale == 1.0) {
    params.profile = d.reuse_profile;
  } else {
    // Scale the streaming share of the profile, stealing from / returning
    // to the residual (always-hit) weight so the total never exceeds 1.
    double component_weight = 0.0;
    for (const ReuseComponent& component : d.reuse_profile.components()) {
      component_weight += component.weight;
    }
    const double scaled = std::min(
        d.reuse_profile.streaming_weight() * phase.streaming_scale,
        1.0 - component_weight);
    params.profile = ReuseProfile(d.reuse_profile.components(), scaled);
  }
  return params;
}

void SimulatedMachine::RefreshEffectiveParams() {
  const bool app_set_changed = params_generation_ != app_generation_;
  params_generation_ = app_generation_;
  for (const size_t i : phased_apps_) {
    const App& app = apps_[i];
    const size_t phase_index =
        app.descriptor.PhaseIndexAt(now_ - app.launch_time);
    if (phase_index != params_cache_[i].phase_index) {
      params_cache_[i] = EffectiveParamsFor(app, phase_index);
      // A phase crossing changes the solve inputs, including the profile
      // and access intensity the capacity fixed point reads.
      if (!app_set_changed) {
        ++input_generation_;
        ++capacity_generation_;
      }
    }
  }
}

void SimulatedMachine::RefreshSoaInputs() {
  if (soa_input_generation_ == input_generation_ &&
      soa_app_generation_ == app_generation_) {
    return;
  }
  const size_t n = apps_.size();
  soa_cores_hz_.resize(n);
  soa_api_.resize(n);
  soa_cpi_exec_.resize(n);
  soa_mem_lat_.resize(n);
  soa_mlp_.resize(n);
  soa_kappa_.resize(n);
  soa_mba_term_.resize(n);
  soa_cap_bps_.resize(n);
  soa_pf_lat_.resize(n);
  soa_pf_bw_.resize(n);
  solved_ips_.resize(n);
  solved_capability_.resize(n);
  solved_miss_ratio_.resize(n);
  solved_capacity_.resize(n);
  solved_demand_.resize(n);
  solved_grant_.resize(n);
  solved_mpi_.resize(n);
  solved_api_.resize(n);
  clos_mask_bits_.resize(clos_.size());
  for (size_t c = 0; c < clos_.size(); ++c) {
    clos_mask_bits_[c] = clos_[c].way_mask.bits();
  }
  for (size_t i = 0; i < n; ++i) {
    const App& app = apps_[i];
    soa_cores_hz_[i] = app.num_cores * config_.core_freq_hz;
    soa_api_[i] = params_cache_[i].accesses_per_instr;
    soa_cpi_exec_[i] = params_cache_[i].cpi_exec;
    soa_mem_lat_[i] = app.descriptor.mem_latency_cycles;
    soa_mlp_[i] = app.descriptor.mlp;
    soa_kappa_[i] = app.descriptor.mba_kappa;
    const MbaLevel level = clos_[app_clos_[i]].mba_level;
    soa_mba_term_[i] = 100.0 / level.percent() - 1.0;
    soa_cap_bps_[i] =
        throttle_model_.CapFraction(level) * config_.total_memory_bandwidth;
    const double throttled = 1.0 - prefetch_percent_[i] / 100.0;
    soa_pf_lat_[i] = 1.0 + config_.prefetch_latency_penalty * throttled;
    soa_pf_bw_[i] = 1.0 - config_.prefetch_bw_share * throttled;
  }
  soa_input_generation_ = input_generation_;
  soa_app_generation_ = app_generation_;
}

void SimulatedMachine::SolveEffectiveCapacities() {
  const size_t n = apps_.size();
  scratch_capacities_.assign(n, 0.0);
  if (n == 0) {
    return;
  }
  const double way_bytes = static_cast<double>(config_.llc.WayBytes());

  // The CLOSes that actually host apps this epoch, in order of first use;
  // the way split only has to iterate these, not all apps (all sharers of a
  // CLOS see one mask).
  scratch_clos_weight_.assign(clos_.size(), 0.0);
  scratch_clos_capacity_.assign(clos_.size(), 0.0);
  scratch_active_clos_.clear();
  for (const uint32_t clos : app_clos_) {
    if (scratch_clos_weight_[clos] == 0.0) {
      scratch_active_clos_.push_back(clos);
      scratch_clos_weight_[clos] = 1.0;  // Presence marker.
    }
  }

  // Fill-intensity weights; initialized equal, refined by the fixed point.
  scratch_miss_ratios_.resize(n);
  scratch_weights_.assign(n, 1.0);
  for (int iteration = 0; iteration <= kCapacityIterations; ++iteration) {
    // Split each way among the CLOSes that may allocate into it, then give
    // every app its fill-weight share of its CLOS's cut.
    for (const uint32_t clos : scratch_active_clos_) {
      scratch_clos_weight_[clos] = 0.0;
      scratch_clos_capacity_[clos] = 0.0;
    }
    for (size_t i = 0; i < n; ++i) {
      scratch_clos_weight_[app_clos_[i]] += scratch_weights_[i];
    }
    for (uint32_t way = 0; way < config_.llc.num_ways; ++way) {
      double total_weight = 0.0;
      for (const uint32_t clos : scratch_active_clos_) {
        if ((clos_mask_bits_[clos] >> way) & 1u) {
          total_weight += scratch_clos_weight_[clos];
        }
      }
      if (total_weight <= 0.0) {
        continue;
      }
      for (const uint32_t clos : scratch_active_clos_) {
        if ((clos_mask_bits_[clos] >> way) & 1u) {
          scratch_clos_capacity_[clos] +=
              way_bytes * scratch_clos_weight_[clos] / total_weight;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      scratch_capacities_[i] = scratch_clos_capacity_[app_clos_[i]] *
                               scratch_weights_[i] /
                               scratch_clos_weight_[app_clos_[i]];
    }
    if (iteration == kCapacityIterations) {
      break;
    }
    // Refine weights: occupancy under LRU is proportional to fill (miss)
    // intensity, scaled by the nominal (stall-free) instruction rate. The
    // miss-ratio queries stay a scalar loop (table walk per app); the weight
    // refinement is elementwise over the flat arrays.
    for (size_t i = 0; i < n; ++i) {
      scratch_miss_ratios_[i] = params_cache_[i].profile.MissRatio(
          static_cast<uint64_t>(scratch_capacities_[i]), config_.mrc_mode);
    }
    for (size_t i = 0; i < n; ++i) {
      scratch_weights_[i] = soa_cores_hz_[i] / soa_cpi_exec_[i] * soa_api_[i] *
                                scratch_miss_ratios_[i] +
                            1e-6;
    }
  }
}

void SimulatedMachine::SolveEpoch(bool capacity_clean) {
  const size_t n = apps_.size();
  const double line_bytes = config_.llc.line_bytes;

  // Capacity tier: the fixed point and the miss-ratio table walks. When
  // only bandwidth-tier inputs moved (capacity_clean), the cached
  // solved_capacity_/solved_miss_ratio_ are exactly what re-running this
  // block would produce (the fixed point is a pure function of masks,
  // membership and phase params), so skip it.
  if (!capacity_clean) {
    SolveEffectiveCapacities();
    for (size_t i = 0; i < n; ++i) {
      solved_miss_ratio_[i] = params_cache_[i].profile.MissRatio(
          static_cast<uint64_t>(scratch_capacities_[i]), config_.mrc_mode);
    }
    for (size_t i = 0; i < n; ++i) {
      solved_capacity_[i] = scratch_capacities_[i];
    }
  }

  // Pass 1: contention-free IPS and bandwidth demands. Everything below is
  // elementwise over the flat arrays with the exact expression shapes of
  // the app-at-a-time reference, so the compiler may vectorize across apps
  // without changing a single bit.
  scratch_capped_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double mpi = soa_api_[i] * solved_miss_ratio_[i];
    const double stall_per_miss =
        soa_mem_lat_[i] / soa_mlp_[i] * soa_pf_lat_[i];
    const double throttle_stretch = 1.0 + soa_kappa_[i] * soa_mba_term_[i];
    const double cpi =
        soa_cpi_exec_[i] + mpi * stall_per_miss * throttle_stretch;
    double ips = soa_cores_hz_[i] / cpi;
    ips = std::min(ips, required_ips_[i]);
    solved_mpi_[i] = mpi;
    solved_demand_[i] = ips * mpi * line_bytes * soa_pf_bw_[i];
    scratch_capped_[i] = std::min(solved_demand_[i], soa_cap_bps_[i]);
  }

  arbiter_.ArbitrateCappedInto(scratch_capped_, &scratch_grants_);
  const std::vector<double>& grants = scratch_grants_;

  double total_grant = 0.0;
  for (const double grant : grants) {
    total_grant += grant;
  }
  const double rho =
      std::min(1.0, total_grant / config_.total_memory_bandwidth);
  const double contention =
      1.0 + config_.queueing_delay_factor * rho * rho;

  // Pass 2: contention-adjusted IPS, bounded by the bandwidth grant.
  for (size_t i = 0; i < n; ++i) {
    const double mpi = solved_mpi_[i];
    const double stall_per_miss =
        contention * soa_mem_lat_[i] / soa_mlp_[i] * soa_pf_lat_[i];
    const double throttle_stretch = 1.0 + soa_kappa_[i] * soa_mba_term_[i];
    const double cpi =
        soa_cpi_exec_[i] + mpi * stall_per_miss * throttle_stretch;
    double ips = soa_cores_hz_[i] / cpi;
    solved_capability_[i] = ips;
    ips = std::min(ips, required_ips_[i]);
    const double roofline_ips =
        grants[i] / (mpi * line_bytes * soa_pf_bw_[i]);
    ips = mpi > kNegligibleMpi ? std::min(ips, roofline_ips) : ips;
    solved_ips_[i] = ips;
    solved_grant_[i] = grants[i];
    solved_api_[i] = soa_api_[i];
  }
}

void SimulatedMachine::CommitEpoch(double dt) {
  const size_t n = apps_.size();
  const double line_bytes = config_.llc.line_bytes;
  const bool noisy = config_.ips_noise_sigma > 0.0;
  for (size_t i = 0; i < n; ++i) {
    double ips = solved_ips_[i];
    if (noisy) {
      const double factor =
          std::max(0.1, 1.0 + config_.ips_noise_sigma * rng_.NextGaussian());
      ips *= factor;
    }
    AppEpochSnapshot& epoch = last_epoch_[i];
    epoch.ips = ips;
    epoch.ips_capability = solved_capability_[i];
    epoch.llc_accesses_per_sec = ips * solved_api_[i];
    epoch.llc_misses_per_sec = ips * solved_mpi_[i];
    epoch.miss_ratio = solved_miss_ratio_[i];
    epoch.effective_capacity_bytes = solved_capacity_[i];
    epoch.bandwidth_demand_bytes_per_sec = solved_demand_[i];
    epoch.bandwidth_grant_bytes_per_sec = solved_grant_[i];

    AppCounters& counters = counters_[i];
    counters.instructions += ips * dt;
    counters.llc_accesses += ips * solved_api_[i] * dt;
    counters.llc_misses += ips * solved_mpi_[i] * dt;
    counters.memory_bytes += ips * solved_mpi_[i] * line_bytes * dt;
  }
}

void SimulatedMachine::AdvanceTime(double dt) {
  CHECK_GT(dt, 0.0);
  now_ += dt;
  if (apps_.empty()) {
    return;
  }

  RefreshEffectiveParams();
  if (!config_.incremental_epochs || !solved_valid_ ||
      solved_input_generation_ != input_generation_) {
    if (solved_ips_.capacity() < apps_.size()) {
      ReserveEpochBuffers();
    }
    RefreshSoaInputs();
    // Bandwidth-only dirt (MBA / required-IPS moves) keeps the capacity
    // fixed point valid; re-run just the elementwise passes against it.
    const bool capacity_clean =
        config_.incremental_epochs && solved_valid_ &&
        solved_capacity_generation_ == capacity_generation_;
    SolveEpoch(capacity_clean);
    if (capacity_clean) {
      ++partial_solves_;
    } else {
      ++full_solves_;
    }
    solved_input_generation_ = input_generation_;
    solved_capacity_generation_ = capacity_generation_;
    solved_valid_ = true;
  }
  CommitEpoch(dt);
}

MachineSnapshot SimulatedMachine::Snapshot() const {
  MachineSnapshot s;
  s.now = now_;
  s.app_generation = app_generation_;
  s.input_generation = input_generation_;
  s.capacity_generation = capacity_generation_;
  s.solved_input_generation = solved_input_generation_;
  s.solved_capacity_generation = solved_capacity_generation_;
  s.solved_valid = solved_valid_;
  s.ips_noise_sigma = config_.ips_noise_sigma;
  s.rng = rng_;
  s.clos = clos_;
  s.app_clos = app_clos_;
  s.required_ips = required_ips_;
  s.prefetch_percent = prefetch_percent_;
  s.counters = counters_;
  s.last_epoch = last_epoch_;
  s.solved_ips = solved_ips_;
  s.solved_capability = solved_capability_;
  s.solved_miss_ratio = solved_miss_ratio_;
  s.solved_capacity = solved_capacity_;
  s.solved_demand = solved_demand_;
  s.solved_grant = solved_grant_;
  s.solved_mpi = solved_mpi_;
  s.solved_api = solved_api_;
  return s;
}

void SimulatedMachine::Restore(const MachineSnapshot& snapshot) {
  CHECK_EQ(snapshot.app_generation, app_generation_)
      << "snapshot was taken against a different app set";
  CHECK_EQ(snapshot.clos.size(), clos_.size());
  CHECK_EQ(snapshot.app_clos.size(), apps_.size());
  now_ = snapshot.now;
  input_generation_ = snapshot.input_generation;
  capacity_generation_ = snapshot.capacity_generation;
  solved_input_generation_ = snapshot.solved_input_generation;
  solved_capacity_generation_ = snapshot.solved_capacity_generation;
  solved_valid_ = snapshot.solved_valid;
  config_.ips_noise_sigma = snapshot.ips_noise_sigma;
  rng_ = snapshot.rng;
  clos_ = snapshot.clos;
  app_clos_ = snapshot.app_clos;
  required_ips_ = snapshot.required_ips;
  prefetch_percent_ = snapshot.prefetch_percent;
  counters_ = snapshot.counters;
  last_epoch_ = snapshot.last_epoch;
  solved_ips_ = snapshot.solved_ips;
  solved_capability_ = snapshot.solved_capability;
  solved_miss_ratio_ = snapshot.solved_miss_ratio;
  solved_capacity_ = snapshot.solved_capacity;
  solved_demand_ = snapshot.solved_demand;
  solved_grant_ = snapshot.solved_grant;
  solved_mpi_ = snapshot.solved_mpi;
  solved_api_ = snapshot.solved_api;
  // The SoA input caches and phase-adjusted params may reflect mutations
  // made after the snapshot; invalidate the stamps so the next dirty solve
  // rebuilds them. (Phase entries re-validate against the restored clock in
  // RefreshEffectiveParams.)
  soa_input_generation_ = ~0ull;
  soa_app_generation_ = ~0ull;
  for (const size_t i : phased_apps_) {
    // Force the phase check to recompute against the restored clock even if
    // a post-snapshot crossing left the cache on another phase.
    const App& app = apps_[i];
    const size_t phase_index =
        app.descriptor.PhaseIndexAt(now_ - app.launch_time);
    if (phase_index != params_cache_[i].phase_index) {
      params_cache_[i] = EffectiveParamsFor(app, phase_index);
    }
  }
}

const AppCounters& SimulatedMachine::Counters(AppId id) const {
  return counters_[IndexOf(id)];
}

const AppEpochSnapshot& SimulatedMachine::LastEpoch(AppId id) const {
  return last_epoch_[IndexOf(id)];
}

double SimulatedMachine::SoloFullResourceIps(
    const WorkloadDescriptor& descriptor,
    std::optional<uint32_t> num_cores) const {
  const uint32_t cores = num_cores.value_or(descriptor.num_threads);
  const double capacity = static_cast<double>(config_.llc.total_bytes);
  const double miss_ratio = descriptor.reuse_profile.MissRatio(
      static_cast<uint64_t>(capacity), config_.mrc_mode);
  const double mpi = descriptor.accesses_per_instr * miss_ratio;
  // Mirror AdvanceTime's two-pass scheme exactly: pass 1 computes the
  // contention-free demand, whose (capped) grant sets the controller
  // utilization; pass 2 applies the queueing stretch and the grant bound.
  const double cpi_free = UnconstrainedCpi(descriptor, descriptor.cpi_exec,
                                           mpi, MbaLevel(),
                                           /*contention=*/1.0,
                                           /*prefetch_lat=*/1.0);
  const double ips_free = cores * config_.core_freq_hz / cpi_free;
  const double grant =
      std::min(ips_free * mpi * config_.llc.line_bytes,
               config_.total_memory_bandwidth);
  const double rho = grant / config_.total_memory_bandwidth;
  const double contention =
      1.0 + config_.queueing_delay_factor * rho * rho;
  const double cpi = UnconstrainedCpi(descriptor, descriptor.cpi_exec, mpi,
                                      MbaLevel(), contention,
                                      /*prefetch_lat=*/1.0);
  double ips = cores * config_.core_freq_hz / cpi;
  if (mpi > kNegligibleMpi) {
    ips = std::min(ips, grant / (mpi * config_.llc.line_bytes));
  }
  return ips;
}

double SimulatedMachine::SoloIps(AppId id) const {
  return GetApp(id).solo_ips;
}

uint32_t SimulatedMachine::FreeCores() const {
  return config_.num_cores - used_cores_;
}

void SimulatedMachine::SetIpsNoiseSigma(double sigma) {
  CHECK_GE(sigma, 0.0);
  config_.ips_noise_sigma = sigma;
}

}  // namespace copart
