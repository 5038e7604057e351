// The actuation transaction, driven directly against a fault-injected
// resctrl: it writes only the registers that differ from the plan, verifies
// every register by readback, and on failure writes back exactly what it
// issued. Also the group lifecycle: a bind issues nothing when the app
// already runs in the group, a failed bind removes the new group, and a
// failed removal parks it for the zombie retry.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/actuator.h"
#include "machine/simulated_machine.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

FaultSpec FirstQuery() {
  FaultSpec spec;
  spec.one_shot_queries = {0};
  return spec;
}

class ActuatorTest : public ::testing::Test {
 protected:
  static constexpr size_t kGroups = 3;

  ActuatorTest()
      : injector_(0xAC7ULL), machine_(Config(&injector_)),
        resctrl_(&machine_), actuator_(&resctrl_) {}

  static MachineConfig Config(FaultInjector* injector) {
    MachineConfig config;
    config.ips_noise_sigma = 0.0;
    config.fault_injector = injector;
    return config;
  }

  // One app per group, each bound to its own group.
  void SetUp() override {
    for (size_t i = 0; i < kGroups; ++i) {
      Result<AppId> app = machine_.LaunchApp(Cg(), 2);
      ASSERT_TRUE(app.ok());
      std::string name = "group";
      name += std::to_string(i);
      Result<ResctrlGroupId> group = actuator_.CreateGroup(name, *app);
      ASSERT_TRUE(group.ok());
      apps_.push_back(*app);
      groups_.push_back(*group);
    }
  }

  // Group i gets ways [2i, 2i + 2) at `mba[i]` percent.
  ActuationPlan Plan(const std::vector<uint32_t>& mba) const {
    ActuationPlan plan;
    for (size_t i = 0; i < kGroups; ++i) {
      plan.AddClos(groups_[i], 0b11ULL << (2 * i), mba[i], apps_[i],
                   static_cast<int32_t>(i));
    }
    return plan;
  }

  uint64_t Mask(size_t group) const {
    return machine_.ClosWayMask(groups_[group].clos()).bits();
  }
  uint32_t Mba(size_t group) const {
    return machine_.ClosMbaLevel(groups_[group].clos()).percent();
  }

  FaultInjector injector_;  // Must outlive the machine.
  SimulatedMachine machine_;
  Resctrl resctrl_;
  Actuator actuator_;
  std::vector<AppId> apps_;
  std::vector<ResctrlGroupId> groups_;
};

TEST_F(ActuatorTest, HeldPlanIssuesNoWriteAndQueriesNoFaultPoint) {
  ActuationPlan plan = Plan({50, 60, 70});
  plan.AddBind(groups_[2], apps_[2]);  // Already bound there.
  plan.AddPrefetch(apps_[0], 100);     // The reset value.
  ASSERT_TRUE(actuator_.Apply(plan).ok());
  EXPECT_TRUE(actuator_.Holds(plan));

  const uint64_t writes = resctrl_.schemata_writes();
  const uint64_t queries = injector_.total_queries();
  EXPECT_TRUE(actuator_.Apply(plan).ok());
  EXPECT_EQ(resctrl_.schemata_writes(), writes);
  EXPECT_EQ(injector_.total_queries(), queries);
}

TEST_F(ActuatorTest, ChangingOneClosWritesOnlyItsLines) {
  ASSERT_TRUE(actuator_.Apply(Plan({50, 60, 70})).ok());
  const uint64_t writes = resctrl_.schemata_writes();

  ActuationPlan plan = Plan({50, 90, 70});
  plan.writes[2].value = 0b111ULL << 2;  // Group 1's L3 line.
  ASSERT_TRUE(actuator_.Apply(plan).ok());
  EXPECT_EQ(resctrl_.schemata_writes(), writes + 2);
  EXPECT_EQ(Mask(1), 0b111ULL << 2);
  EXPECT_EQ(Mba(1), 90u);
  // The transaction still read every line before writing.
  EXPECT_EQ(actuator_.before(0), 0b11ULL);
  EXPECT_EQ(actuator_.before(2), 0b11ULL << 2);
  EXPECT_EQ(actuator_.before(3), 60u);

  // Only an MBA level moves: one write.
  plan = Plan({50, 60, 70});
  plan.writes[2].value = 0b111ULL << 2;
  ASSERT_TRUE(actuator_.Apply(plan).ok());
  EXPECT_EQ(resctrl_.schemata_writes(), writes + 3);
  EXPECT_EQ(Mba(1), 60u);
}

TEST_F(ActuatorTest, TornSchemataRollsTheL3LineBack) {
  ASSERT_TRUE(actuator_.Apply(Plan({50, 60, 70})).ok());
  ActuationPlan plan = Plan({50, 90, 70});
  plan.writes[2].value = 0b1ULL << 2;
  // Group 1's L3 line lands, its MB line fails: the torn state.
  injector_.Arm(fault_points::kResctrlSetMb, FirstQuery());
  const uint64_t writes = resctrl_.schemata_writes();
  const Status status = actuator_.Apply(plan);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(Mask(1), 0b11ULL << 2);
  EXPECT_EQ(Mba(1), 60u);
  // The L3 write, the failed MB write, and the L3 rollback: no write to
  // the MB line that never took, and none to the other groups.
  EXPECT_EQ(resctrl_.schemata_writes(), writes + 3);
  EXPECT_TRUE(actuator_.Holds(Plan({50, 60, 70})));
}

TEST_F(ActuatorTest, SilentDropIsCaughtByVerifyAndRolledBack) {
  ASSERT_TRUE(actuator_.Apply(Plan({50, 60, 70})).ok());
  ActuationPlan plan = Plan({40, 60, 30});
  plan.writes[0].value = 0b1ULL;
  plan.writes[4].value = 0b1ULL << 4;
  // Group 0's L3 write reports success but does not take.
  injector_.Arm(fault_points::kResctrlSetL3Silent, FirstQuery());
  const Status status = actuator_.Apply(plan);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(actuator_.Holds(Plan({50, 60, 70})));

  // The fault is spent: the retry lands.
  EXPECT_TRUE(actuator_.Apply(plan).ok());
  EXPECT_TRUE(actuator_.Holds(plan));
  EXPECT_EQ(Mask(0), 0b1ULL);
}

TEST_F(ActuatorTest, FailedBindRollsBackTheLinesWrittenBeforeIt) {
  ASSERT_TRUE(actuator_.Apply(Plan({50, 60, 70})).ok());
  ActuationPlan plan = Plan({20, 60, 70});
  plan.writes[2].value = 0b1ULL << 2;
  plan.AddBind(groups_[0], apps_[2]);
  injector_.Arm(fault_points::kResctrlAssignApp, FirstQuery());
  const Status status = actuator_.Apply(plan);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(actuator_.Holds(Plan({50, 60, 70})));
  EXPECT_EQ(machine_.AppClos(apps_[2]), groups_[2].clos());
}

TEST_F(ActuatorTest, HoldsSeesAnOutOfBandEdit) {
  const ActuationPlan plan = Plan({50, 60, 70});
  ASSERT_TRUE(actuator_.Apply(plan).ok());
  machine_.SetClosMbaLevel(groups_[1].clos(), MbaLevel::FromPercentChecked(10));
  EXPECT_FALSE(actuator_.Holds(plan));
  machine_.SetClosMbaLevel(groups_[1].clos(), MbaLevel::FromPercentChecked(60));
  machine_.AssignAppToClos(apps_[0], 0);
  ActuationPlan bound = plan;
  bound.AddBind(groups_[0], apps_[0]);
  EXPECT_TRUE(actuator_.Holds(plan));
  EXPECT_FALSE(actuator_.Holds(bound));
}

TEST_F(ActuatorTest, BindThatAlreadyHoldsIssuesNothing) {
  // A newcomer starts in the default group; apps_[1] runs in groups_[1].
  Result<AppId> app = machine_.LaunchApp(Ep(), 2);
  ASSERT_TRUE(app.ok());
  injector_.Arm(fault_points::kResctrlAssignApp, FirstQuery());
  const uint64_t queries = injector_.total_queries();
  EXPECT_TRUE(actuator_.Bind(resctrl_.DefaultGroup(), *app).ok());
  EXPECT_TRUE(actuator_.Bind(groups_[1], apps_[1]).ok());
  EXPECT_EQ(injector_.total_queries(), queries);
  EXPECT_EQ(injector_.PointQueries(fault_points::kResctrlAssignApp), 0u);

  // A bind that moves the app still issues the tasks write.
  EXPECT_EQ(actuator_.Bind(groups_[0], apps_[1]).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(machine_.AppClos(apps_[1]), groups_[1].clos());
}

TEST_F(ActuatorTest, FailedBindOnCreationRemovesTheGroup) {
  Result<AppId> app = machine_.LaunchApp(Ep(), 2);
  ASSERT_TRUE(app.ok());
  injector_.Arm(fault_points::kResctrlAssignApp, FirstQuery());
  Result<ResctrlGroupId> group = actuator_.CreateGroup("newcomer", *app);
  EXPECT_EQ(group.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(resctrl_.FindGroup("newcomer").ok());
  EXPECT_EQ(actuator_.zombies(), 0u);
}

TEST_F(ActuatorTest, FailedRemovalParksTheGroupUntilTheZombieRetry) {
  Result<AppId> app = machine_.LaunchApp(Ep(), 2);
  ASSERT_TRUE(app.ok());
  injector_.Arm(fault_points::kResctrlAssignApp, FirstQuery());
  injector_.Arm(fault_points::kResctrlRemoveGroup, FirstQuery());
  Result<ResctrlGroupId> group = actuator_.CreateGroup("newcomer", *app);
  EXPECT_EQ(group.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(resctrl_.FindGroup("newcomer").ok());
  EXPECT_EQ(actuator_.zombies(), 1u);

  actuator_.RetryZombies();
  EXPECT_EQ(actuator_.zombies(), 0u);
  EXPECT_FALSE(resctrl_.FindGroup("newcomer").ok());
}

}  // namespace
}  // namespace copart
