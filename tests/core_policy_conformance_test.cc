// Policy conformance suite: every registered partition policy, driven
// through the real ResourceManager against the simulated machine, must
// uphold the driver/policy contract of core/partition_policy.h:
//
//   - the consolidation never uses more CLOSes than ResourceManagerParams::
//     max_clos (the default group plus max_clos - 1 others),
//   - every actuated way mask is non-empty and contiguous (the CAT rule),
//   - every actuated MBA level is legal (10..100, step 10),
//   - every managed app is mapped to exactly one slot of the current state,
//   - the run is a deterministic function of the seed,
//   - the A/B harness built on top serializes bit-identically for every
//     thread count (the common/parallel.h determinism contract).
//
// Parameterized over RegisteredPartitionPolicyNames() so a newly registered
// policy is conformance-checked by construction; the fixed-state static
// shape (ST, UCP), which only the harness can build, runs as an injected
// instance.
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/partition_policy.h"
#include "core/resource_manager.h"
#include "core/static_policy.h"
#include "harness/mix.h"
#include "harness/policy_ab.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

bool ContiguousMask(uint64_t mask) {
  if (mask == 0) {
    return false;
  }
  const uint64_t shifted = mask >> std::countr_zero(mask);
  return (shifted & (shifted + 1)) == 0;
}

struct DriveResult {
  SystemState final_state;
  std::vector<uint32_t> final_slots;
  std::vector<uint32_t> final_clos;  // Actuated CLOS per app, final period.
};

// Builds the policy instance a drive injects; null = the registry policy
// named by ResourceManagerParams::partition_policy.
using PolicyMaker = std::function<std::unique_ptr<PartitionPolicy>()>;

class PolicyConformanceTest : public ::testing::TestWithParam<std::string> {
 public:
  static constexpr int kPeriods = 120;
  static constexpr double kPeriodSec = 0.5;

  static ResourceManagerParams MakeParams(const std::string& policy) {
    ResourceManagerParams params;
    params.partition_policy = policy;
    params.seed = 0xC04F04ULL;
    return params;
  }

  // Drives one consolidation (the H-Both paper mix at 6 apps) under the
  // policy and asserts the per-period invariants; returns the endpoint for
  // determinism comparison.
  static DriveResult Drive(const std::string& policy,
                           const PolicyMaker& make = nullptr) {
    MachineConfig machine_config;
    machine_config.num_cores = 16;
    machine_config.seed = 0x5EED0001ULL;
    SimulatedMachine machine(machine_config);
    Resctrl resctrl(&machine);
    PerfMonitor monitor(&machine);
    const ResourceManagerParams params = MakeParams(policy);
    ResourceManager manager(
        &resctrl, &monitor, params,
        make ? make() : MakePartitionPolicy(params.partition_policy, params));
    // The registry builds the policy it names.
    EXPECT_EQ(manager.partition_policy().name(), policy);

    const WorkloadMix mix = MakeMix(MixFamily::kHighBoth, 6);
    std::vector<AppId> apps;
    for (const WorkloadDescriptor& descriptor : mix.apps) {
      Result<AppId> app = machine.LaunchApp(descriptor, 2);
      CHECK(app.ok());
      CHECK(manager.AddApp(*app).ok());
      apps.push_back(*app);
    }

    DriveResult result;
    for (int period = 0; period < kPeriods; ++period) {
      machine.AdvanceTime(kPeriodSec);
      manager.Tick();
      CheckInvariants(machine, manager, apps, params, policy, period);
    }
    result.final_state = manager.current_state();
    result.final_slots = manager.app_slots();
    for (AppId app : apps) {
      result.final_clos.push_back(machine.AppClos(app));
    }
    return result;
  }

  static void CheckInvariants(const SimulatedMachine& machine,
                              const ResourceManager& manager,
                              const std::vector<AppId>& apps,
                              const ResourceManagerParams& params,
                              const std::string& policy, int period) {
    const SystemState& state = manager.current_state();
    ASSERT_TRUE(state.Valid()) << policy << " period " << period;

    // Slot map: sized for the consolidation, every app in exactly one
    // in-range slot.
    const std::vector<uint32_t>& slots = manager.app_slots();
    ASSERT_EQ(slots.size(), apps.size()) << policy << " period " << period;
    for (size_t i = 0; i < slots.size(); ++i) {
      ASSERT_LT(slots[i], state.NumApps())
          << policy << " period " << period << " app " << i;
    }

    // Planned slots: masks contiguous, MBA levels legal.
    for (size_t slot = 0; slot < state.NumApps(); ++slot) {
      ASSERT_TRUE(ContiguousMask(state.WayMaskBits(slot)))
          << policy << " period " << period << " slot " << slot;
      const uint32_t percent = state.allocation(slot).mba_level.percent();
      ASSERT_GE(percent, 10u) << policy << " period " << period;
      ASSERT_LE(percent, 100u) << policy << " period " << period;
      ASSERT_EQ(percent % 10, 0u) << policy << " period " << period;
    }

    // Actuated surface: the CLOS each app actually runs in holds a
    // non-empty contiguous mask, and the consolidation fits the CLOS
    // budget (the default group plus max_clos - 1 policy groups).
    std::set<uint32_t> used;
    for (AppId app : apps) {
      ASSERT_TRUE(machine.AppExists(app)) << policy << " period " << period;
      const uint32_t clos = machine.AppClos(app);
      used.insert(clos);
      ASSERT_TRUE(ContiguousMask(machine.ClosWayMask(clos).bits()))
          << policy << " period " << period << " clos " << clos;
    }
    ASSERT_LE(used.size(), static_cast<size_t>(params.max_clos))
        << policy << " period " << period;
  }
};

TEST_P(PolicyConformanceTest, InvariantsHoldOverTheWholeRun) {
  Drive(GetParam());
}

TEST_P(PolicyConformanceTest, RunIsDeterministicPerSeed) {
  const DriveResult a = Drive(GetParam());
  const DriveResult b = Drive(GetParam());
  EXPECT_TRUE(a.final_state == b.final_state);
  EXPECT_EQ(a.final_slots, b.final_slots);
  EXPECT_EQ(a.final_clos, b.final_clos);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredPolicies, PolicyConformanceTest,
    ::testing::ValuesIn(RegisteredPartitionPolicyNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        // Test names must be identifiers: "lfoc+" -> "lfocP",
        // "cat-only" -> "cat_only".
        if (c == '+') {
          c = 'P';
        } else if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// The ST/UCP shape: a fixed per-app state for the whole set, equal shares
// while the set is still being admitted.
TEST(FixedStatePolicyConformanceTest, InjectedStaticStateConforms) {
  const PolicyMaker make = [] {
    const uint32_t ways[] = {3, 2, 2, 2, 1, 1};
    const uint32_t mba[] = {100, 60, 80, 40, 100, 20};
    std::vector<AppAllocation> allocations(6);
    for (size_t i = 0; i < 6; ++i) {
      allocations[i] = {.llc_ways = ways[i],
                        .mba_level = MbaLevel::FromPercentChecked(mba[i])};
    }
    return std::make_unique<StaticPartitionPolicy>(
        "st", SystemState(ResourcePool{}, std::move(allocations)));
  };
  const DriveResult a = PolicyConformanceTest::Drive("st", make);
  const DriveResult b = PolicyConformanceTest::Drive("st", make);
  EXPECT_EQ(a.final_state.allocation(0).llc_ways, 3u);
  EXPECT_EQ(a.final_state.allocation(5).mba_level.percent(), 20u);
  EXPECT_TRUE(a.final_state == b.final_state);
  EXPECT_EQ(a.final_slots, b.final_slots);
  EXPECT_EQ(a.final_clos, b.final_clos);
}

// The harness built on the policies inherits their determinism: the
// serialized A/B document is bit-identical for every thread count.
TEST(PolicyAbDeterminismTest, JsonIsThreadCountInvariant) {
  PolicyAbConfig config;
  config.paper_mix_app_count = 4;
  config.many_apps = 12;
  config.duration_sec = 5.0;

  config.parallel = ParallelConfig{.num_threads = 1};
  const std::string serial = PolicyAbToJson(RunPolicyAb(config));
  config.parallel = ParallelConfig{.num_threads = 4};
  const std::string threaded = PolicyAbToJson(RunPolicyAb(config));
  EXPECT_EQ(serial, threaded);

  // And the reduced document still covers every policy the A/B compares.
  for (const std::string& policy : PolicyAbConfig{}.policies) {
    EXPECT_NE(serial.find("\"policy\": \"" + policy + "\""),
              std::string::npos)
        << policy;
  }
}

}  // namespace
}  // namespace copart
