// The simulated commodity server.
//
// SimulatedMachine hosts consolidated applications (each pinned to dedicated
// cores and bound to a CLOS) and advances simulated time in epochs. Each
// epoch it solves the coupled performance model:
//
//   1. *Effective LLC capacity* per app: ways owned exclusively contribute
//      fully; ways shared by several CLOSes are split in proportion to each
//      sharer's fill (miss) intensity, computed as a short fixed point —
//      the standard occupancy approximation for shared LRU caches.
//   2. *Miss ratio* from the app's ReuseProfile at that capacity.
//   3. *Unconstrained IPS* from the CPI model:
//        CPI = cpi_exec + MPI * (Lmem/mlp) * (1 + kappa*(100/level - 1))
//      where MPI = accesses_per_instr * miss_ratio; the kappa term is the
//      per-request MBA throttle delay (see membw/mba_throttle_model.h).
//   4. *Bandwidth demand* = IPS * MPI * line_bytes, arbitrated max-min
//      against the MBA caps and the controller's total bandwidth.
//   5. *Achieved IPS* = min(unconstrained, grant-limited) (roofline), with
//      optional multiplicative noise modeling run-to-run variation.
//
// Per-app counters (instructions, LLC accesses, LLC misses) accumulate each
// epoch; the pmc module samples them exactly like PAPI would on hardware.
//
// Partitioning state (per-CLOS way mask + MBA level) is mutated only through
// the resctrl module, mirroring the paper's user-level prototype.
//
// Epoch fast path (DESIGN.md §12). The solve above is memoryless: its output
// depends only on (descriptors, phases, masks, MBA levels, CLOS membership,
// required-IPS caps), never on prior epochs. The machine therefore keeps all
// hot per-app state in flat structure-of-arrays vectors, tracks an
// input_generation_ that every observable mutation bumps (mutators compare
// values first, so rewriting identical state stays clean), and when a tick
// arrives with an unchanged generation it skips the coupled solve entirely
// and replays the stored fixed point (CommitEpoch) — bit-identical to
// re-solving, including the per-epoch noise stream. The dirty set is
// two-tier: the shared-capacity fixed point (step 1, all the miss-ratio
// queries) reads only masks, CLOS membership and phase params, so a
// mutation touching nothing but MBA levels or required-IPS caps re-runs
// just the cheap elementwise CPI/arbitration passes against the cached
// capacities and miss ratios — bit-identical to a full solve, at a
// fraction of the cost (this is the common move in MBA coordinate-descent
// searches). Every solve runs one kernel over the SoA arrays; the tests hold
// it bit for bit to an app-at-a-time reference that derives each input from
// the public API (tests/machine_reference.h).
// Snapshot()/Restore() copy the mutable value state (partitioning, counters,
// RNG, last solved fixed point) in O(apps + clos), independent of simulated
// history, so what-if evaluation can roll one machine back instead of
// reconstructing and re-simulating from scratch.
#ifndef COPART_MACHINE_SIMULATED_MACHINE_H_
#define COPART_MACHINE_SIMULATED_MACHINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/way_mask.h"
#include "common/rng.h"
#include "common/status.h"
#include "machine/app_id.h"
#include "machine/machine_config.h"
#include "membw/bandwidth_arbiter.h"
#include "membw/mba.h"
#include "membw/mba_throttle_model.h"
#include "workload/workload.h"

namespace copart {

// Cumulative hardware counters for one app (since launch).
struct AppCounters {
  double instructions = 0.0;
  double llc_accesses = 0.0;
  double llc_misses = 0.0;
  double memory_bytes = 0.0;
};

// Model outputs of the most recent epoch for one app.
struct AppEpochSnapshot {
  double ips = 0.0;
  // IPS the app could sustain at its current allocation ignoring the
  // bandwidth grant and any required-IPS cap; the latency-critical harness
  // uses it as the service capacity of a queueing model.
  double ips_capability = 0.0;
  double llc_accesses_per_sec = 0.0;
  double llc_misses_per_sec = 0.0;
  double miss_ratio = 0.0;
  double effective_capacity_bytes = 0.0;
  double bandwidth_demand_bytes_per_sec = 0.0;
  double bandwidth_grant_bytes_per_sec = 0.0;
};

// Per-CLOS partitioning state.
struct ClosSetting {
  WayMask way_mask;
  MbaLevel mba_level;
};

// Value snapshot of a machine's mutable epoch state: simulated clock,
// partitioning, per-app counters/outputs, RNG, generation counters and the
// last converged solve. Treat the contents as opaque — capture with
// SimulatedMachine::Snapshot(), apply with Restore(). A snapshot is only
// restorable into a machine with the same app set (same app_generation);
// Restore CHECK-fails otherwise.
struct MachineSnapshot {
  double now = 0.0;
  uint64_t app_generation = 0;
  uint64_t input_generation = 0;
  uint64_t capacity_generation = 0;
  uint64_t solved_input_generation = 0;
  uint64_t solved_capacity_generation = 0;
  bool solved_valid = false;
  double ips_noise_sigma = 0.0;
  Rng rng{0};
  std::vector<ClosSetting> clos;
  std::vector<uint32_t> app_clos;
  std::vector<double> required_ips;
  std::vector<uint32_t> prefetch_percent;
  std::vector<AppCounters> counters;
  std::vector<AppEpochSnapshot> last_epoch;
  std::vector<double> solved_ips;
  std::vector<double> solved_capability;
  std::vector<double> solved_miss_ratio;
  std::vector<double> solved_capacity;
  std::vector<double> solved_demand;
  std::vector<double> solved_grant;
  std::vector<double> solved_mpi;
  std::vector<double> solved_api;
};

class SimulatedMachine {
 public:
  explicit SimulatedMachine(const MachineConfig& config);

  // --- App lifecycle ---

  // Launches `descriptor` on `num_cores` dedicated cores (defaults to the
  // descriptor's thread count). Fails if not enough free cores remain.
  // The app starts in CLOS 0 (the default group, full resources).
  Result<AppId> LaunchApp(const WorkloadDescriptor& descriptor,
                          std::optional<uint32_t> num_cores = std::nullopt);
  Status TerminateApp(AppId id);

  std::vector<AppId> ListApps() const;
  size_t NumApps() const { return apps_.size(); }
  bool AppExists(AppId id) const;
  const WorkloadDescriptor& Descriptor(AppId id) const;
  uint32_t AppCores(AppId id) const;
  // Simulated time at which the app launched; with Descriptor().PhaseIndexAt
  // this lets external sensors (pmc/perf_monitor's estimator feed) track the
  // app's current execution phase.
  double AppLaunchTime(AppId id) const;

  // Monotonic counter bumped on every launch/termination; the controller's
  // idle phase polls it to detect consolidation changes (paper §5.4.3).
  uint64_t app_generation() const { return app_generation_; }
  // Counter bumped by every mutation of the epoch solve's inputs: masks,
  // MBA levels, CLOS membership, caps, prefetch, launches, terminations and
  // phase crossings. Mutators compare values first, so while it is
  // unchanged the partitioning is too; the controller's idle readback
  // relies on this. Restore() rewinds it with the rest of the snapshot.
  uint64_t input_generation() const { return input_generation_; }

  // --- Partitioning state (called by the resctrl module) ---

  void SetClosWayMask(uint32_t clos, const WayMask& mask);
  void SetClosMbaLevel(uint32_t clos, MbaLevel level);
  void AssignAppToClos(AppId id, uint32_t clos);

  const WayMask& ClosWayMask(uint32_t clos) const;
  MbaLevel ClosMbaLevel(uint32_t clos) const;
  uint32_t AppClos(AppId id) const;

  // --- Work limiting (latency-critical apps) ---

  // Caps the app's executed IPS at `required_ips` (open-loop offered load);
  // nullopt removes the cap. Used by the case-study harness.
  void SetAppRequiredIps(AppId id, std::optional<double> required_ips);

  // --- Prefetch throttling (CBP-style third actuator) ---

  // Sets the app's prefetcher aggressiveness percent in [0, 100]; 100 (the
  // launch default) is the hardware reset state and leaves the epoch solve
  // bit-identical to a machine without the prefetch model. Lower values
  // stretch the per-miss stall and shrink the bandwidth demand (see
  // MachineConfig::prefetch_bw_share / prefetch_latency_penalty). Mutated
  // through the resctrl module in managed runs (Resctrl::SetAppPrefetch).
  void SetAppPrefetchPercent(AppId id, uint32_t percent);
  uint32_t AppPrefetchPercent(AppId id) const;

  // --- Time ---

  // Advances simulated time by `dt` seconds as a single epoch.
  void AdvanceTime(double dt);
  double now() const { return now_; }

  // --- Snapshot / rollback ---

  // Captures the machine's mutable epoch state as a plain value copy,
  // O(apps + clos) regardless of how much time has been simulated.
  MachineSnapshot Snapshot() const;

  // Rolls the machine back to `snapshot`. The app set must be unchanged
  // since the snapshot was taken (CHECK on app_generation); partitioning,
  // counters, clock, RNG and the cached solve all revert. Subsequent epochs
  // are bit-identical to a machine that never diverged.
  void Restore(const MachineSnapshot& snapshot);

  // Number of full coupled solves since construction. Steady-state epochs
  // served by the incremental fast path do not increment it.
  uint64_t full_solves() const { return full_solves_; }

  // Number of partial re-solves: epochs whose inputs changed only in the
  // bandwidth tier (MBA levels, required-IPS caps), which reuse the cached
  // capacity fixed point and re-run just the elementwise passes. Only a
  // machine with incremental_epochs takes this tier; without it every epoch
  // solves in full.
  uint64_t partial_solves() const { return partial_solves_; }

  // --- Observation ---

  const AppCounters& Counters(AppId id) const;
  const AppEpochSnapshot& LastEpoch(AppId id) const;
  // LastEpoch and SoloIps by position: index i is ListApps()[i]. For scans
  // over every resident, which need no id lookup.
  const AppEpochSnapshot& LastEpochAt(size_t index) const {
    return last_epoch_[index];
  }
  double SoloIpsAt(size_t index) const { return apps_[index].solo_ips; }

  // IPS the descriptor would achieve running alone with all ways, MBA 100
  // and an uncontended memory controller — the IPS_full reference of Eq. 1.
  // Deterministic (no noise).
  double SoloFullResourceIps(const WorkloadDescriptor& descriptor,
                             std::optional<uint32_t> num_cores =
                                 std::nullopt) const;
  // SoloFullResourceIps(Descriptor(id), AppCores(id)), computed once at
  // launch: the slowdown reference of a resident app.
  double SoloIps(AppId id) const;

  const MachineConfig& config() const { return config_; }
  uint32_t FreeCores() const;

  // Overrides the per-epoch IPS noise, e.g. to make an offline-search clone
  // of the machine deterministic. SimulatedMachine is copyable precisely to
  // support such what-if clones (harness/static_oracle.h).
  void SetIpsNoiseSigma(double sigma);

 private:
  // Reads the params cache to hold it to a full rebuild
  // (tests/machine_incremental_test.cc).
  friend class SimulatedMachineTestPeer;

  struct App {
    AppId id;
    WorkloadDescriptor descriptor;
    uint32_t num_cores = 0;
    double launch_time = 0.0;
    double solo_ips = 0.0;
  };

  // Phase-adjusted model parameters for one epoch (workload phases scale
  // the baseline access intensity, streaming traffic and execution CPI).
  struct EffectiveParams {
    double accesses_per_instr = 0.0;
    double cpi_exec = 1.0;
    ReuseProfile profile{{}, 0.0};
    // Phase the params were computed for; the cache in AdvanceTime is
    // invalidated when the app crosses into another phase.
    size_t phase_index = 0;
  };

  size_t IndexOf(AppId id) const;
  const App& GetApp(AppId id) const;

  EffectiveParams EffectiveParamsFor(const App& app,
                                     size_t phase_index) const;

  // Brings params_cache_ up to date for the current now_: re-derives the
  // entry of every phased app that crossed a phase boundary, which dirties
  // the solve unless the app set changed since the last refresh (the
  // launch or terminate dirtied it already). LaunchApp and TerminateApp
  // keep the cache index-parallel with apps_, so steady-state epochs reuse
  // the cached entries untouched — zero heap allocations.
  void RefreshEffectiveParams();

  // Sizes the buffers of the vectorized solve for the app count, at least
  // doubling them, and for the CLOS count. A solve that outgrows them calls
  // it, so they grow O(log apps) times, not launch by launch.
  void ReserveEpochBuffers();

  // Rebuilds the flat SoA model-input arrays (per-app constants, phase
  // params, per-CLOS-derived MBA terms and caps) when input_generation_
  // moved since the last rebuild. Only dirty epochs pay this; it is O(apps).
  void RefreshSoaInputs();

  // Shared-capacity fixed point across the current CLOS masks, over the
  // flat SoA arrays (cached mask bits, split elementwise loops); leaves the
  // per-app result in scratch_capacities_. Aggregates the way-splitting
  // loop per CLOS (all sharers of a CLOS see the same mask), so each
  // fixed-point round costs O(ways * active_clos + apps) instead of
  // O(ways * apps).
  void SolveEffectiveCapacities();

  // Full coupled solve for the current inputs; writes the pre-noise fixed
  // point into the solved_* arrays. Runs the model as flat elementwise
  // loops with the expression shapes of the app-at-a-time reference
  // (tests/machine_reference.h), so the compiler may vectorize across apps
  // without changing results.
  // `capacity_clean` skips the capacity fixed point and its miss-ratio
  // queries, reusing solved_capacity_/solved_miss_ratio_ from the previous
  // solve — valid exactly when no capacity-tier input changed since
  // (solved_capacity_generation_ == capacity_generation_) and bit-identical
  // to a full solve because the fixed point is a pure function of those
  // inputs.
  void SolveEpoch(bool capacity_clean);

  // Applies the stored fixed point for one epoch of length dt: draws the
  // per-app noise (identical RNG stream on fast and slow paths), publishes
  // last_epoch_ and accumulates counters_.
  void CommitEpoch(double dt);

  // CPI at the given miss-per-instruction and MBA level (no grant bound).
  // cpi_exec is passed separately so phase scaling can adjust it;
  // `contention` is the queueing-delay stretch on the miss stall and
  // `prefetch_lat` the prefetch-throttle stretch (1.0 = prefetch fully on).
  static double UnconstrainedCpi(const WorkloadDescriptor& d, double cpi_exec,
                                 double mpi, MbaLevel level, double contention,
                                 double prefetch_lat);

  MachineConfig config_;
  MbaThrottleModel throttle_model_;
  BandwidthArbiter arbiter_;
  Rng rng_;
  double now_ = 0.0;
  uint32_t next_app_id_ = 0;
  uint64_t app_generation_ = 0;
  uint32_t used_cores_ = 0;
  std::vector<App> apps_;
  std::vector<ClosSetting> clos_;
  // id -> index into apps_; maintained by every operation that bumps
  // app_generation_ so GetApp/AppExists are O(1) instead of a linear scan.
  std::unordered_map<AppId, size_t> app_index_;

  // --- Per-app mutable state, SoA (index-parallel with apps_) ---
  std::vector<uint32_t> app_clos_;
  // Required-IPS cap; +inf means uncapped (min(x, +inf) == x bit-exactly,
  // so the solve needs no branch).
  std::vector<double> required_ips_;
  // Prefetcher aggressiveness percent, 100 at launch (factors become exactly
  // 1.0, so untouched apps cost nothing and change nothing).
  std::vector<uint32_t> prefetch_percent_;
  std::vector<AppCounters> counters_;
  std::vector<AppEpochSnapshot> last_epoch_;

  // Cached phase-adjusted params, one per app in apps_ order (LaunchApp
  // appends, TerminateApp erases); valid while each app stays in the phase
  // recorded in its entry.
  std::vector<EffectiveParams> params_cache_;
  // app_generation_ at the last RefreshEffectiveParams.
  uint64_t params_generation_ = ~0ull;
  // Indices of apps with a non-empty phase schedule, ascending; the
  // per-epoch phase check only walks these (empty for purely steady
  // workloads).
  std::vector<size_t> phased_apps_;

  // --- Dirty tracking for the incremental tick ---
  // Bumped by every mutation that can change the epoch solve: launch/
  // terminate, way mask / MBA / CLOS-membership / required-IPS changes
  // (value-compared first) and phase crossings.
  uint64_t input_generation_ = 0;
  // Bumped by the subset of mutations that can change the capacity fixed
  // point (masks, membership, launch/terminate, phase crossings) — NOT by
  // MBA or required-IPS changes, which only affect the bandwidth tier.
  uint64_t capacity_generation_ = 0;
  // Generations the solved_* arrays were computed at, and whether they hold
  // a converged fixed point at all.
  uint64_t solved_input_generation_ = 0;
  uint64_t solved_capacity_generation_ = 0;
  bool solved_valid_ = false;
  uint64_t full_solves_ = 0;
  uint64_t partial_solves_ = 0;

  // --- SoA model inputs (valid while the stamps below match) ---
  std::vector<double> soa_cores_hz_;   // num_cores * core_freq_hz
  std::vector<double> soa_api_;        // accesses_per_instr (phase-adjusted)
  std::vector<double> soa_cpi_exec_;   // cpi_exec (phase-adjusted)
  std::vector<double> soa_mem_lat_;    // mem_latency_cycles
  std::vector<double> soa_mlp_;        // mlp
  std::vector<double> soa_kappa_;      // mba_kappa
  std::vector<double> soa_mba_term_;   // 100/level - 1 for the app's CLOS
  std::vector<double> soa_cap_bps_;    // MBA bandwidth cap for the app's CLOS
  std::vector<double> soa_pf_lat_;     // prefetch latency stretch (1.0 @ 100)
  std::vector<double> soa_pf_bw_;      // prefetch demand scale (1.0 @ 100)
  std::vector<uint64_t> clos_mask_bits_;
  uint64_t soa_input_generation_ = ~0ull;
  uint64_t soa_app_generation_ = ~0ull;

  // --- Last converged solve (pre-noise), replayed by the fast path ---
  std::vector<double> solved_ips_;
  std::vector<double> solved_capability_;
  std::vector<double> solved_miss_ratio_;
  std::vector<double> solved_capacity_;
  std::vector<double> solved_demand_;
  std::vector<double> solved_grant_;
  std::vector<double> solved_mpi_;
  std::vector<double> solved_api_;

  // Epoch scratch, reused across AdvanceTime calls so steady-state epochs
  // never touch the heap (tests/machine_epoch_alloc_test.cc pins this).
  std::vector<double> scratch_capacities_;
  std::vector<double> scratch_weights_;
  std::vector<double> scratch_clos_weight_;
  std::vector<double> scratch_clos_capacity_;
  std::vector<uint32_t> scratch_active_clos_;
  std::vector<double> scratch_miss_ratios_;
  std::vector<double> scratch_capped_;
  std::vector<double> scratch_grants_;
};

}  // namespace copart

#endif  // COPART_MACHINE_SIMULATED_MACHINE_H_
