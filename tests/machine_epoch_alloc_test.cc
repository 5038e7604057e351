// The epoch kernel must be allocation-free in steady state: AdvanceTime on a
// warmed-up machine may not touch the heap, whatever the app count or MRC
// mode. This pins the perf work in simulated_machine.cc (member scratch
// buffers, cached EffectiveParams, ArbitrateCappedInto) against regressions
// that would silently reintroduce per-epoch malloc traffic.
//
// Counting is done by the replaced global operator new of alloc_counter.cc.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "machine/machine_config.h"
#include "machine/simulated_machine.h"
#include "membw/mba.h"
#include "workload/workload.h"

namespace copart {
namespace {

long AllocationsDuringEpochs(SimulatedMachine& machine, int epochs) {
  const long before = HeapAllocations();
  for (int i = 0; i < epochs; ++i) {
    machine.AdvanceTime(0.5);
  }
  return HeapAllocations() - before;
}

// Parameterized over (MRC mode, incremental fast path on/off): the zero-
// allocation property must hold whether steady epochs replay the cached
// fixed point or re-solve in full every tick.
class MachineEpochAllocTest
    : public ::testing::TestWithParam<std::tuple<MrcMode, bool>> {
 protected:
  MachineConfig Config() const {
    MachineConfig config;
    config.ips_noise_sigma = 0.0;
    config.mrc_mode = std::get<0>(GetParam());
    config.incremental_epochs = std::get<1>(GetParam());
    return config;
  }
};

TEST_P(MachineEpochAllocTest, SteadyStateEpochsDoNotAllocate) {
  const MachineConfig config = Config();
  SimulatedMachine machine(config);
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  for (size_t i = 0; i < 6; ++i) {
    Result<AppId> app = machine.LaunchApp(registry[i % registry.size()], 2);
    ASSERT_TRUE(app.ok());
    machine.AssignAppToClos(*app, static_cast<uint32_t>(i + 1));
  }
  // Warm up: size the scratch buffers, build the compiled tables, populate
  // the EffectiveParams cache.
  for (int i = 0; i < 16; ++i) {
    machine.AdvanceTime(0.5);
  }
  EXPECT_EQ(AllocationsDuringEpochs(machine, 200), 0)
      << "AdvanceTime allocated on the steady-state path";
}

// Partitioning churn (MBA moves every epoch, way-mask moves periodically)
// must also stay off the heap: the partial and full re-solve paths only
// write into the member scratch/solved arrays.
TEST_P(MachineEpochAllocTest, PartitioningChurnDoesNotAllocate) {
  const MachineConfig config = Config();
  SimulatedMachine machine(config);
  const std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  for (size_t i = 0; i < 4; ++i) {
    Result<AppId> app = machine.LaunchApp(registry[i % registry.size()], 2);
    ASSERT_TRUE(app.ok());
    machine.AssignAppToClos(*app, static_cast<uint32_t>(i + 1));
  }
  for (int i = 0; i < 16; ++i) {
    machine.AdvanceTime(0.5);
  }
  const long before = HeapAllocations();
  for (int i = 0; i < 100; ++i) {
    machine.SetClosMbaLevel(1u + static_cast<uint32_t>(i % 4),
                            MbaLevel::FromPercentChecked(
                                10u + 10u * static_cast<uint32_t>(i % 10)));
    if (i % 10 == 0) {
      machine.SetClosWayMask(1u + static_cast<uint32_t>(i % 4),
                             WayMask::Contiguous(
                                 static_cast<uint32_t>(i % 4), 4));
    }
    machine.AdvanceTime(0.5);
  }
  EXPECT_EQ(HeapAllocations() - before, 0)
      << "partitioning churn allocated on the epoch path";
}

TEST_P(MachineEpochAllocTest, LaunchInvalidatesThenSteadyAgain) {
  const MachineConfig config = Config();
  SimulatedMachine machine(config);
  Result<AppId> a = machine.LaunchApp(Sp(), 2);
  ASSERT_TRUE(a.ok());
  for (int i = 0; i < 16; ++i) {
    machine.AdvanceTime(0.5);
  }
  ASSERT_EQ(AllocationsDuringEpochs(machine, 50), 0);

  // A launch legitimately derives the newcomer's params and may size
  // buffers...
  Result<AppId> b = machine.LaunchApp(Raytrace(), 2);
  ASSERT_TRUE(b.ok());
  machine.AssignAppToClos(*b, 1);
  for (int i = 0; i < 16; ++i) {
    machine.AdvanceTime(0.5);
  }
  // ...but the loop must settle back to zero afterwards.
  EXPECT_EQ(AllocationsDuringEpochs(machine, 50), 0)
      << "epoch loop did not return to allocation-free after LaunchApp";
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, MachineEpochAllocTest,
    ::testing::Combine(::testing::Values(MrcMode::kExact, MrcMode::kCompiled),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<MrcMode, bool>>& info) {
      const std::string mode =
          std::get<0>(info.param) == MrcMode::kExact ? "exact" : "compiled";
      return mode + (std::get<1>(info.param) ? "_incremental" : "_full");
    });

}  // namespace
}  // namespace copart
