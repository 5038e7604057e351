// Reference implementation of SimulatedMachine's epoch solve, computed app
// by app from the machine's public state alone: ListApps() order (the solve
// order), each app's descriptor, cores and phase at now() - AppLaunchTime,
// its CLOS's way mask and MBA level, its prefetch percent, the config, and
// the required-IPS caps of Snapshot(). This is the straightforward form of
// the model; the production kernel runs the same expression shapes as flat
// loops over cached structure-of-arrays state, reuses the last solve while
// nothing changed, and keeps phase parameters in a per-app cache. The
// differential checks in machine_incremental_test.cc,
// harness_determinism_test.cc and bench_sim_throughput --scalar-check hold
// it to this reference bit for bit. Edit this header only with a deliberate
// change to the model (and goldens moving with it), never to make a
// speed-up pass.
#ifndef COPART_TESTS_MACHINE_REFERENCE_H_
#define COPART_TESTS_MACHINE_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cache/miss_ratio_curve.h"
#include "machine/app_id.h"
#include "machine/machine_config.h"
#include "machine/simulated_machine.h"
#include "membw/bandwidth_arbiter.h"
#include "membw/mba.h"
#include "membw/mba_throttle_model.h"
#include "workload/workload.h"

namespace copart::machine_reference {

// Below this misses-per-instruction the app generates no memory traffic.
inline constexpr double kNegligibleMpi = 1e-15;
// Rounds of the shared-capacity fixed point.
inline constexpr int kCapacityIterations = 4;

// The pre-noise fixed point of one epoch, one entry per app in ListApps()
// order; the fields mirror MachineSnapshot's solved_* arrays.
struct EpochSolve {
  std::vector<double> ips;
  std::vector<double> capability;
  std::vector<double> miss_ratio;
  std::vector<double> capacity;
  std::vector<double> demand;
  std::vector<double> grant;
  std::vector<double> mpi;
  std::vector<double> api;
};

// Phase-adjusted model parameters of one app.
struct PhaseParams {
  double accesses_per_instr = 0.0;
  double cpi_exec = 1.0;
  ReuseProfile profile{{}, 0.0};
};

inline PhaseParams ParamsAt(const WorkloadDescriptor& d, size_t phase_index) {
  const WorkloadPhase phase =
      d.phases.empty() ? WorkloadPhase{} : d.phases[phase_index];
  PhaseParams params;
  params.accesses_per_instr =
      d.accesses_per_instr * phase.access_intensity_scale;
  params.cpi_exec = d.cpi_exec * phase.cpi_exec_scale;
  params.profile = d.reuse_profile;
  if (phase.streaming_scale != 1.0) {
    // Scale the streaming share, stealing from / returning to the residual
    // (always-hit) weight so the total never exceeds 1.
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

// CPI at the given misses per instruction and MBA level, before the
// bandwidth grant bounds it.
inline double UnconstrainedCpi(const WorkloadDescriptor& d, double cpi_exec,
                               double mpi, MbaLevel level, double contention,
                               double prefetch_lat) {
  const double stall_per_miss =
      contention * d.mem_latency_cycles / d.mlp * prefetch_lat;
  const double throttle_stretch =
      1.0 + d.mba_kappa * (100.0 / level.percent() - 1.0);
  return cpi_exec + mpi * stall_per_miss * throttle_stretch;
}

// Solves the epoch the machine is in now, for its current inputs.
inline EpochSolve SolveEpoch(const SimulatedMachine& machine) {
  const MachineConfig& config = machine.config();
  const std::vector<AppId> apps = machine.ListApps();
  const std::vector<double> required_ips = machine.Snapshot().required_ips;
  const size_t n = apps.size();

  std::vector<PhaseParams> params;
  std::vector<uint32_t> app_clos;
  std::vector<double> prefetch_lat;
  std::vector<double> prefetch_bw;
  for (const AppId id : apps) {
    const WorkloadDescriptor& d = machine.Descriptor(id);
    params.push_back(
        ParamsAt(d, d.PhaseIndexAt(machine.now() - machine.AppLaunchTime(id))));
    app_clos.push_back(machine.AppClos(id));
    const double throttled = 1.0 - machine.AppPrefetchPercent(id) / 100.0;
    prefetch_lat.push_back(1.0 + config.prefetch_latency_penalty * throttled);
    prefetch_bw.push_back(1.0 - config.prefetch_bw_share * throttled);
  }

  // Shared-capacity fixed point. Each way is split among the CLOSes hosting
  // apps, taken in order of first use, and each app gets its fill-weight
  // share of its CLOS's cut.
  const double way_bytes = static_cast<double>(config.llc.WayBytes());
  std::vector<double> clos_weight(config.num_clos, 0.0);
  std::vector<double> clos_capacity(config.num_clos, 0.0);
  std::vector<uint32_t> active_clos;
  for (const uint32_t clos : app_clos) {
    if (clos_weight[clos] == 0.0) {
      active_clos.push_back(clos);
      clos_weight[clos] = 1.0;  // Presence marker.
    }
  }
  std::vector<double> capacities(n, 0.0);
  std::vector<double> weights(n, 1.0);
  for (int iteration = 0; iteration <= kCapacityIterations; ++iteration) {
    for (const uint32_t clos : active_clos) {
      clos_weight[clos] = 0.0;
      clos_capacity[clos] = 0.0;
    }
    for (size_t i = 0; i < n; ++i) {
      clos_weight[app_clos[i]] += weights[i];
    }
    for (uint32_t way = 0; way < config.llc.num_ways; ++way) {
      double total_weight = 0.0;
      for (const uint32_t clos : active_clos) {
        if (machine.ClosWayMask(clos).Contains(way)) {
          total_weight += clos_weight[clos];
        }
      }
      if (total_weight <= 0.0) {
        continue;
      }
      for (const uint32_t clos : active_clos) {
        if (machine.ClosWayMask(clos).Contains(way)) {
          clos_capacity[clos] += way_bytes * clos_weight[clos] / total_weight;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      capacities[i] =
          clos_capacity[app_clos[i]] * weights[i] / clos_weight[app_clos[i]];
    }
    if (iteration == kCapacityIterations) {
      break;
    }
    // Occupancy under LRU is proportional to fill (miss) intensity, scaled
    // by the nominal (stall-free) instruction rate.
    for (size_t i = 0; i < n; ++i) {
      const double miss_ratio = params[i].profile.MissRatio(
          static_cast<uint64_t>(capacities[i]), config.mrc_mode);
      const double nominal_ips = machine.AppCores(apps[i]) *
                                 config.core_freq_hz / params[i].cpi_exec;
      weights[i] =
          nominal_ips * params[i].accesses_per_instr * miss_ratio + 1e-6;
    }
  }

  // Pass 1: contention-free IPS and bandwidth demands.
  const MbaThrottleModel throttle_model(config.mba_cap_exponent);
  EpochSolve solve;
  std::vector<BandwidthRequest> requests(n);
  for (size_t i = 0; i < n; ++i) {
    const WorkloadDescriptor& d = machine.Descriptor(apps[i]);
    const MbaLevel level = machine.ClosMbaLevel(app_clos[i]);
    solve.miss_ratio.push_back(params[i].profile.MissRatio(
        static_cast<uint64_t>(capacities[i]), config.mrc_mode));
    solve.mpi.push_back(params[i].accesses_per_instr * solve.miss_ratio[i]);
    const double cpi =
        UnconstrainedCpi(d, params[i].cpi_exec, solve.mpi[i], level,
                         /*contention=*/1.0, prefetch_lat[i]);
    double ips = machine.AppCores(apps[i]) * config.core_freq_hz / cpi;
    ips = std::min(ips, required_ips[i]);
    requests[i].demand_bytes_per_sec =
        ips * solve.mpi[i] * config.llc.line_bytes * prefetch_bw[i];
    requests[i].cap_bytes_per_sec =
        throttle_model.CapFraction(level) * config.total_memory_bandwidth;
  }
  const std::vector<double> grants =
      BandwidthArbiter(config.total_memory_bandwidth).Arbitrate(requests);

  // Controller utilization -> queueing delay stretch on every miss.
  double total_grant = 0.0;
  for (const double grant : grants) {
    total_grant += grant;
  }
  const double rho = std::min(1.0, total_grant / config.total_memory_bandwidth);
  const double contention = 1.0 + config.queueing_delay_factor * rho * rho;

  // Pass 2: contention-adjusted IPS, bounded by the bandwidth grant.
  for (size_t i = 0; i < n; ++i) {
    const WorkloadDescriptor& d = machine.Descriptor(apps[i]);
    const MbaLevel level = machine.ClosMbaLevel(app_clos[i]);
    const double mpi = solve.mpi[i];
    const double cpi = UnconstrainedCpi(d, params[i].cpi_exec, mpi, level,
                                        contention, prefetch_lat[i]);
    double ips = machine.AppCores(apps[i]) * config.core_freq_hz / cpi;
    solve.capability.push_back(ips);
    ips = std::min(ips, required_ips[i]);
    if (mpi > kNegligibleMpi) {
      ips = std::min(ips, grants[i] / (mpi * config.llc.line_bytes *
                                       prefetch_bw[i]));
    }
    solve.ips.push_back(ips);
    solve.capacity.push_back(capacities[i]);
    solve.demand.push_back(requests[i].demand_bytes_per_sec);
    solve.grant.push_back(grants[i]);
    solve.api.push_back(params[i].accesses_per_instr);
  }
  return solve;
}

// "" when the machine's last solve (the solved_* arrays of Snapshot())
// equals SolveEpoch(machine) bit for bit, else the first difference. Call
// it after AdvanceTime and before any further mutation: the machine solves
// lazily, so its stored fixed point trails a mutation until the next
// epoch. A machine with no apps solves nothing and always matches.
inline std::string SolveMismatch(const SimulatedMachine& machine) {
  if (machine.NumApps() == 0) {
    return "";
  }
  const MachineSnapshot snapshot = machine.Snapshot();
  if (!snapshot.solved_valid) {
    return "the machine holds no solve";
  }
  const EpochSolve want = SolveEpoch(machine);
  const struct {
    const char* name;
    const std::vector<double>& want;
    const std::vector<double>& got;
  } fields[] = {
      {"ips", want.ips, snapshot.solved_ips},
      {"capability", want.capability, snapshot.solved_capability},
      {"miss_ratio", want.miss_ratio, snapshot.solved_miss_ratio},
      {"capacity", want.capacity, snapshot.solved_capacity},
      {"demand", want.demand, snapshot.solved_demand},
      {"grant", want.grant, snapshot.solved_grant},
      {"mpi", want.mpi, snapshot.solved_mpi},
      {"api", want.api, snapshot.solved_api},
  };
  for (const auto& field : fields) {
    if (field.got.size() != field.want.size()) {
      return std::string(field.name) + ": the machine holds " +
             std::to_string(field.got.size()) + " entries for " +
             std::to_string(field.want.size()) + " apps";
    }
    for (size_t i = 0; i < field.want.size(); ++i) {
      if (std::memcmp(&field.want[i], &field.got[i], sizeof(double)) != 0) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "app %zu %s: machine %.17g, reference %.17g", i,
                      field.name, field.got[i], field.want[i]);
        return line;
      }
    }
  }
  return "";
}

}  // namespace copart::machine_reference

#endif  // COPART_TESTS_MACHINE_REFERENCE_H_
