// Properties of the incremental epoch kernel (DESIGN.md §12).
//
// The machine exposes full_solves() / partial_solves() so these tests can
// observe which tier an epoch took, and the contract is exact:
//   - clean epochs (no observable mutation since the last solve) replay the
//     cached fixed point and increment neither counter;
//   - mutations touching only the bandwidth tier (MBA levels, required-IPS
//     caps) take a partial solve that reuses the cached capacity fixed
//     point;
//   - capacity-tier mutations (way masks, CLOS membership, launch/terminate,
//     phase crossings) force a full solve;
//   - value-identical mutator writes dirty nothing;
//   - incremental_epochs=false always solves in full.
// Whatever tier an epoch takes, the outputs must be bit-identical with and
// without incremental epochs, and equal to the app-at-a-time reference
// (machine_reference.h) — the twin-machine test at the bottom locks that in
// over a randomized mutation schedule including a phased workload, noise and
// required-IPS flips.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cache/way_mask.h"
#include "common/rng.h"
#include "machine/machine_config.h"
#include "machine/simulated_machine.h"
#include "machine_reference.h"
#include "membw/mba.h"
#include "workload/workload.h"

namespace copart {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<AppId> LaunchThreeSteadyApps(SimulatedMachine& machine) {
  const std::vector<WorkloadDescriptor> workloads = {Sp(), Raytrace(),
                                                     AllTable2Benchmarks()[0]};
  std::vector<AppId> apps;
  for (size_t i = 0; i < workloads.size(); ++i) {
    Result<AppId> app = machine.LaunchApp(workloads[i], 2);
    EXPECT_TRUE(app.ok());
    apps.push_back(*app);
    machine.AssignAppToClos(*app, static_cast<uint32_t>(i + 1));
  }
  return apps;
}

MachineConfig Incremental() {
  MachineConfig config;
  config.ips_noise_sigma = 0.0;
  config.incremental_epochs = true;
  return config;
}

TEST(MachineIncrementalTest, CleanEpochsReplayWithoutSolving) {
  SimulatedMachine machine(Incremental());
  LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 1u);
  EXPECT_EQ(machine.partial_solves(), 0u);
  for (int i = 0; i < 50; ++i) {
    machine.AdvanceTime(0.1);
  }
  EXPECT_EQ(machine.full_solves(), 1u)
      << "steady-state epochs must not re-solve";
  EXPECT_EQ(machine.partial_solves(), 0u);
}

TEST(MachineIncrementalTest, BandwidthOnlyMutationsTakePartialSolve) {
  SimulatedMachine machine(Incremental());
  const std::vector<AppId> apps = LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);

  machine.SetClosMbaLevel(1, MbaLevel::FromPercentChecked(40));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 1u);
  EXPECT_EQ(machine.partial_solves(), 1u)
      << "an MBA-only change must reuse the capacity fixed point";

  machine.SetAppRequiredIps(apps[0], 1e9);
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 1u);
  EXPECT_EQ(machine.partial_solves(), 2u);

  machine.SetAppRequiredIps(apps[0], std::nullopt);
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 1u);
  EXPECT_EQ(machine.partial_solves(), 3u);
}

TEST(MachineIncrementalTest, CapacityMutationsForceFullSolve) {
  SimulatedMachine machine(Incremental());
  const std::vector<AppId> apps = LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);

  machine.SetClosWayMask(1, WayMask::Contiguous(0, 4));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 2u)
      << "a way-mask change invalidates the capacity fixed point";
  EXPECT_EQ(machine.partial_solves(), 0u);

  machine.AssignAppToClos(apps[2], 1);
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 3u);

  Result<AppId> extra = machine.LaunchApp(Raytrace(), 2);
  ASSERT_TRUE(extra.ok());
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 4u);

  ASSERT_TRUE(machine.TerminateApp(*extra).ok());
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 5u);
  EXPECT_EQ(machine.partial_solves(), 0u);
}

TEST(MachineIncrementalTest, MixedMutationsEscalateToFullSolve) {
  // When one epoch sees both a bandwidth-tier and a capacity-tier mutation,
  // the capacity tier wins: the epoch must solve in full.
  SimulatedMachine machine(Incremental());
  LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);

  machine.SetClosMbaLevel(2, MbaLevel::FromPercentChecked(30));
  machine.SetClosWayMask(2, WayMask::Contiguous(2, 5));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), 2u);
  EXPECT_EQ(machine.partial_solves(), 0u);
}

TEST(MachineIncrementalTest, ValueIdenticalWritesStayClean) {
  SimulatedMachine machine(Incremental());
  const std::vector<AppId> apps = LaunchThreeSteadyApps(machine);
  machine.SetClosWayMask(1, WayMask::Contiguous(0, 4));
  machine.SetClosMbaLevel(1, MbaLevel::FromPercentChecked(40));
  machine.SetAppRequiredIps(apps[0], 1e9);
  machine.AdvanceTime(0.1);
  const uint64_t full = machine.full_solves();
  const uint64_t partial = machine.partial_solves();

  // Rewriting the exact same state must not dirty anything.
  machine.SetClosWayMask(1, WayMask::Contiguous(0, 4));
  machine.SetClosMbaLevel(1, MbaLevel::FromPercentChecked(40));
  machine.SetAppRequiredIps(apps[0], 1e9);
  machine.AssignAppToClos(apps[0], machine.AppClos(apps[0]));
  machine.AdvanceTime(0.1);
  EXPECT_EQ(machine.full_solves(), full)
      << "no-op mutator writes must leave the epoch clean";
  EXPECT_EQ(machine.partial_solves(), partial);
}

TEST(MachineIncrementalTest, IncrementalOffSolvesEveryEpoch) {
  MachineConfig config = Incremental();
  config.incremental_epochs = false;
  SimulatedMachine machine(config);
  LaunchThreeSteadyApps(machine);
  for (int i = 0; i < 10; ++i) {
    machine.AdvanceTime(0.1);
  }
  EXPECT_EQ(machine.full_solves(), 10u);
  EXPECT_EQ(machine.partial_solves(), 0u)
      << "the partial tier requires incremental_epochs";
}

TEST(MachineIncrementalTest, ForcedDirtyAlwaysResolves) {
  // Alternating a CLOS mask between two values every epoch defeats the
  // cache entirely: every tick must be a fresh full solve, and the counter
  // must track epochs 1:1.
  SimulatedMachine machine(Incremental());
  LaunchThreeSteadyApps(machine);
  machine.AdvanceTime(0.1);
  ASSERT_EQ(machine.full_solves(), 1u);
  for (int i = 0; i < 20; ++i) {
    machine.SetClosWayMask(1, WayMask::Contiguous(i % 2 == 0 ? 0 : 4, 4));
    machine.AdvanceTime(0.1);
  }
  EXPECT_EQ(machine.full_solves(), 21u);
}

// The apps one twin schedule runs, each in its own CLOS.
struct TwinAppSet {
  std::vector<WorkloadDescriptor> workloads;
  uint32_t cores_per_app;
  // Lower bound on the schedule's peak memory-controller utilisation
  // (solved grants over total bandwidth).
  double min_peak_utilisation;
};

// A light set (peak utilisation 0.16) and a bandwidth-heavy one (0.49):
// only near saturation does the contention term carry a last-bit change
// in the bandwidth tier (the solve's total grant, say) into the outputs; a
// light load absorbs it.
TwinAppSet TwinApps(bool heavy) {
  if (!heavy) {
    return {{Sp(), Raytrace(), PhasedScanCompute(/*period_sec=*/1.0)}, 2, 0.0};
  }
  return {{OceanCp(), Cg(), Ft(), PhasedScanCompute(/*period_sec=*/1.0)},
          4,
          0.4};
}

// Twin-machine bit-identity: an incremental machine and one that solves
// every epoch run the same randomized schedule (mask/MBA/required-IPS churn,
// a phased workload crossing boundaries, multiplicative noise) and must
// agree bitwise on every output of every epoch; after every epoch each
// machine's solve must also equal the reference, whichever tier (full,
// partial or replay) produced it.
class MachineIncrementalTwinTest
    : public ::testing::TestWithParam<std::tuple<MrcMode, bool>> {};

TEST_P(MachineIncrementalTwinTest, TwinsMatchEachOtherAndTheReference) {
  MachineConfig base;
  base.mrc_mode = std::get<0>(GetParam());
  base.ips_noise_sigma = 0.01;
  const TwinAppSet set = TwinApps(std::get<1>(GetParam()));
  const std::vector<WorkloadDescriptor>& workloads = set.workloads;
  const int64_t num_clos = static_cast<int64_t>(workloads.size());

  struct Variant {
    const char* name;
    bool incremental;
  };
  const Variant variants[] = {
      {"incremental", true},
      {"full_solve", false},
  };

  std::vector<SimulatedMachine> machines;
  std::vector<std::vector<AppId>> apps(std::size(variants));
  for (const Variant& variant : variants) {
    MachineConfig config = base;
    config.incremental_epochs = variant.incremental;
    machines.emplace_back(config);
  }
  for (size_t m = 0; m < machines.size(); ++m) {
    for (size_t i = 0; i < workloads.size(); ++i) {
      Result<AppId> app =
          machines[m].LaunchApp(workloads[i], set.cores_per_app);
      ASSERT_TRUE(app.ok());
      apps[m].push_back(*app);
      machines[m].AssignAppToClos(*app, static_cast<uint32_t>(i + 1));
    }
  }

  Rng rng(0xBEEFCAFEULL);
  const uint32_t num_ways = base.llc.num_ways;
  bool cap_on = false;
  double peak_utilisation = 0.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    if (rng.NextBool(0.05)) {
      const uint32_t clos = static_cast<uint32_t>(rng.NextInt(1, num_clos));
      const uint32_t width = static_cast<uint32_t>(rng.NextInt(2, 5));
      const uint32_t start = static_cast<uint32_t>(
          rng.NextInt(0, static_cast<int64_t>(num_ways - width)));
      for (SimulatedMachine& machine : machines) {
        machine.SetClosWayMask(clos, WayMask::Contiguous(start, width));
      }
    }
    if (rng.NextBool(0.1)) {
      const uint32_t clos = static_cast<uint32_t>(rng.NextInt(1, num_clos));
      const MbaLevel level = MbaLevel::FromPercentChecked(
          10u * static_cast<uint32_t>(rng.NextInt(1, 10)));
      for (SimulatedMachine& machine : machines) {
        machine.SetClosMbaLevel(clos, level);
      }
    }
    if (rng.NextBool(0.03)) {
      cap_on = !cap_on;
      for (size_t m = 0; m < machines.size(); ++m) {
        machines[m].SetAppRequiredIps(
            apps[m][0], cap_on ? std::optional<double>(2e9) : std::nullopt);
      }
    }
    for (SimulatedMachine& machine : machines) {
      machine.AdvanceTime(0.01);
    }
    for (size_t m = 0; m < machines.size(); ++m) {
      ASSERT_EQ(machine_reference::SolveMismatch(machines[m]), "")
          << "epoch " << epoch << ": " << variants[m].name
          << " diverged from the reference";
    }
    double granted = 0.0;
    for (AppId app : apps[0]) {
      granted += machines[0].LastEpoch(app).bandwidth_grant_bytes_per_sec;
    }
    peak_utilisation =
        std::max(peak_utilisation, granted / base.total_memory_bandwidth);
    for (size_t m = 1; m < machines.size(); ++m) {
      for (size_t i = 0; i < workloads.size(); ++i) {
        const AppEpochSnapshot& ref = machines[0].LastEpoch(apps[0][i]);
        const AppEpochSnapshot& got = machines[m].LastEpoch(apps[m][i]);
        ASSERT_TRUE(SameBits(ref.ips, got.ips) &&
                    SameBits(ref.ips_capability, got.ips_capability) &&
                    SameBits(ref.miss_ratio, got.miss_ratio) &&
                    SameBits(ref.effective_capacity_bytes,
                             got.effective_capacity_bytes) &&
                    SameBits(ref.bandwidth_demand_bytes_per_sec,
                             got.bandwidth_demand_bytes_per_sec) &&
                    SameBits(ref.bandwidth_grant_bytes_per_sec,
                             got.bandwidth_grant_bytes_per_sec))
            << "epoch " << epoch << " app " << i << ": " << variants[m].name
            << " diverged from " << variants[0].name;
      }
    }
  }

  // The schedule must actually have exercised all three tiers on the
  // incremental machine, or the bit-identity claim above is vacuous.
  EXPECT_GT(machines[0].full_solves(), 0u);
  EXPECT_GT(machines[0].partial_solves(), 0u);
  EXPECT_LT(machines[0].full_solves() + machines[0].partial_solves(), 400u)
      << "expected some clean replay epochs";
  // The full-solve twin solves every epoch.
  EXPECT_EQ(machines[1].full_solves(), 400u);
  EXPECT_GE(peak_utilisation, set.min_peak_utilisation);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, MachineIncrementalTwinTest,
    ::testing::Combine(::testing::Values(MrcMode::kExact, MrcMode::kCompiled),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<MrcMode, bool>>& info) {
      std::string name =
          std::get<0>(info.param) == MrcMode::kExact ? "exact" : "compiled";
      if (std::get<1>(info.param)) {
        name += "_heavy";
      }
      return name;
    });

}  // namespace

// The params cache is kept up to date per launch and terminate instead of
// being rebuilt after every change of the app set. This peer holds it to
// that full rebuild: every app's params derived afresh for its phase at
// the current clock, and the ascending index of the phased apps.
class SimulatedMachineTestPeer {
 public:
  // "" when the cache equals the rebuild, else the first difference.
  static std::string CacheMismatch(const SimulatedMachine& machine) {
    std::vector<SimulatedMachine::EffectiveParams> rebuilt;
    std::vector<size_t> phased;
    for (size_t i = 0; i < machine.apps_.size(); ++i) {
      const SimulatedMachine::App& app = machine.apps_[i];
      rebuilt.push_back(machine.EffectiveParamsFor(
          app, app.descriptor.PhaseIndexAt(machine.now_ - app.launch_time)));
      if (!app.descriptor.phases.empty()) {
        phased.push_back(i);
      }
    }
    if (phased != machine.phased_apps_) {
      return "phased-app index differs";
    }
    if (rebuilt.size() != machine.params_cache_.size()) {
      return "cache holds " + std::to_string(machine.params_cache_.size()) +
             " entries for " + std::to_string(rebuilt.size()) + " apps";
    }
    for (size_t i = 0; i < rebuilt.size(); ++i) {
      const SimulatedMachine::EffectiveParams& want = rebuilt[i];
      const SimulatedMachine::EffectiveParams& got = machine.params_cache_[i];
      const std::vector<ReuseComponent>& a = want.profile.components();
      const std::vector<ReuseComponent>& b = got.profile.components();
      bool same = want.phase_index == got.phase_index &&
                  SameBits(want.accesses_per_instr, got.accesses_per_instr) &&
                  SameBits(want.cpi_exec, got.cpi_exec) &&
                  SameBits(want.profile.streaming_weight(),
                           got.profile.streaming_weight()) &&
                  a.size() == b.size();
      for (size_t c = 0; same && c < a.size(); ++c) {
        same = SameBits(a[c].weight, b[c].weight) &&
               a[c].working_set_bytes == b[c].working_set_bytes;
      }
      if (!same) {
        return "app " + std::to_string(i) + " differs from its rebuild";
      }
    }
    return "";
  }
};

namespace {

TEST(MachineParamsCacheTest, PerLaunchUpkeepEqualsFullRebuild) {
  MachineConfig config;
  config.num_cores = 16;
  SimulatedMachine machine(config);
  Rng rng(31);
  const std::vector<WorkloadDescriptor> workloads = {
      PhasedScanCompute(0.7), PhasedScanCompute(1.6), MemcachedPhased(1.1),
      CorrelatedLcBatchPair(0.9).batch, Sp(), Raytrace()};
  std::vector<AppId> apps;
  std::optional<MachineSnapshot> snapshot;
  int launches = 0, terminations = 0, restores = 0;
  for (int step = 0; step < 600; ++step) {
    const uint64_t op = rng.NextUint64(10);
    if (op < 3 && machine.FreeCores() >= 2) {
      Result<AppId> app = machine.LaunchApp(
          workloads[rng.NextUint64(workloads.size())], 2);
      ASSERT_TRUE(app.ok());
      apps.push_back(*app);
      ++launches;
    } else if (op < 5 && !apps.empty()) {
      const size_t victim = rng.NextUint64(apps.size());
      ASSERT_TRUE(machine.TerminateApp(apps[victim]).ok());
      apps.erase(apps.begin() + static_cast<ptrdiff_t>(victim));
      ++terminations;
    } else if (op == 5) {
      snapshot = machine.Snapshot();
    } else if (op == 6 && snapshot.has_value() &&
               snapshot->app_generation == machine.app_generation()) {
      machine.Restore(*snapshot);
      ++restores;
    } else {
      machine.AdvanceTime(0.1 + 0.3 * static_cast<double>(rng.NextUint64(4)));
    }
    ASSERT_EQ(SimulatedMachineTestPeer::CacheMismatch(machine), "")
        << "after step " << step << " (op " << op << ")";
  }
  EXPECT_GT(launches, 20);
  EXPECT_GT(terminations, 20);
  EXPECT_GT(restores, 5);
}

}  // namespace
}  // namespace copart
