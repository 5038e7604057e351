// The experiment runner: metrics plumbing, policy factories, determinism.
#include "harness/experiment.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "harness/mix.h"
#include "obs/obs.h"
#include "resctrl/resctrl.h"

namespace copart {
namespace {

TEST(ExperimentTest, ResultFieldsPopulated) {
  const WorkloadMix mix = MakeMix(MixFamily::kHighLlc, 4);
  const ExperimentResult result = RunExperiment(mix, EqFactory(), {});
  EXPECT_EQ(result.policy_name, "EQ");
  EXPECT_EQ(result.mix_name, "H-LLC-4");
  ASSERT_EQ(result.avg_ips.size(), 4u);
  ASSERT_EQ(result.slowdowns.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_GT(result.avg_ips[i], 0.0);
    EXPECT_GE(result.slowdowns[i], 0.99);
    EXPECT_NEAR(result.slowdowns[i],
                result.solo_full_ips[i] / result.avg_ips[i], 1e-9);
  }
  EXPECT_GT(result.throughput_geomean, 0.0);
  EXPECT_EQ(result.avg_exploration_us, 0.0);  // Static policy.
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  const WorkloadMix mix = MakeMix(MixFamily::kHighBoth, 4);
  const ExperimentResult a = RunExperiment(mix, CoPartFactory(), {});
  const ExperimentResult b = RunExperiment(mix, CoPartFactory(), {});
  EXPECT_DOUBLE_EQ(a.unfairness, b.unfairness);
  for (size_t i = 0; i < a.avg_ips.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.avg_ips[i], b.avg_ips[i]);
  }
}

TEST(ExperimentTest, CoresDerivedFromMixSize) {
  const WorkloadMix mix = MakeMix(MixFamily::kInsensitive, 5);
  ExperimentConfig config;
  config.duration_sec = 2.0;
  // 16/5 = 3 cores per app: solo-full references must use the same count.
  const ExperimentResult result = RunExperiment(mix, EqFactory(), config);
  SimulatedMachine machine(config.machine);
  EXPECT_NEAR(result.solo_full_ips[0],
              machine.SoloFullResourceIps(mix.apps[0], 3), 1.0);
}

TEST(ExperimentTest, RestrictedPoolIsHonored) {
  const WorkloadMix mix = MakeMix(MixFamily::kHighLlc, 4);
  ExperimentConfig config;
  config.pool = ResourcePool{.first_way = 0, .num_ways = 7,
                             .max_mba_percent = 100};
  config.duration_sec = 10.0;
  const ExperimentResult full = RunExperiment(mix, EqFactory(), {});
  const ExperimentResult restricted =
      RunExperiment(mix, EqFactory(), config);
  // Less cache -> strictly slower cache-sensitive apps.
  EXPECT_LT(restricted.avg_ips[0], full.avg_ips[0]);
}

TEST(ExperimentTest, StandardPoliciesHavePaperNames) {
  const auto policies = StandardPolicies();
  ASSERT_EQ(policies.size(), 5u);
  EXPECT_EQ(policies[0].first, "EQ");
  EXPECT_EQ(policies[1].first, "ST");
  EXPECT_EQ(policies[2].first, "CAT-only");
  EXPECT_EQ(policies[3].first, "MBA-only");
  EXPECT_EQ(policies[4].first, "CoPart");
}

TEST(ExperimentTest, CoPartReportsExplorationOverhead) {
  const ExperimentResult result =
      RunExperiment(MakeMix(MixFamily::kHighLlc, 4), CoPartFactory(), {});
  EXPECT_GT(result.avg_exploration_us, 0.0);
}

TEST(ExperimentTest, BaselinesSurviveAResctrlFaultStorm) {
  // The first and then one in five schemata writes and app bindings fail.
  // Every baseline runs through the manager's transactional actuation, so
  // a failed admission leaves the app unmanaged and a failed write is
  // retried — none aborts. The scripted first failure keeps the storm
  // non-vacuous for NoPart, which issues only five such writes in a run.
  const WorkloadMix mix = MakeMix(MixFamily::kHighBoth, 4);
  const std::pair<std::string, PolicyFactory> baselines[] = {
      {"EQ", EqFactory()},         {"ST", StaticOracleFactory()},
      {"NoPart", NoPartFactory()}, {"UCP", UcpFactory()},
      {"dCat", DcatFactory()},     {"CAT-only", CatOnlyFactory()},
      {"MBA-only", MbaOnlyFactory()}};
  for (const auto& [name, factory] : baselines) {
    FaultInjector injector(7);
    FaultSpec storm;
    storm.probability = 0.2;
    storm.one_shot_queries = {0};
    injector.Arm(fault_points::kResctrlSetL3, storm);
    injector.Arm(fault_points::kResctrlAssignApp, storm);
    ExperimentConfig config;
    config.machine.fault_injector = &injector;
    config.duration_sec = 10.0;
    const ExperimentResult result = RunExperiment(mix, factory, config);
    EXPECT_EQ(result.policy_name, name);
    ASSERT_EQ(result.avg_ips.size(), 4u) << name;
    for (double ips : result.avg_ips) {
      EXPECT_GT(ips, 0.0) << name;
    }
    EXPECT_TRUE(std::isfinite(result.unfairness)) << name;
    EXPECT_GT(injector.total_failures(), 0u) << name;
  }
}

TEST(ExperimentTest, ObservabilityCoversTheBaselines) {
  // The baselines run through the same driver as CoPart, so the audit log
  // records their allocations and the manager exports its metrics.
  const WorkloadMix mix = MakeMix(MixFamily::kHighLlc, 4);
  for (const PolicyFactory& factory : {EqFactory(), DcatFactory()}) {
    Observability obs;
    ExperimentConfig config;
    config.duration_sec = 5.0;
    config.obs = &obs;
    const ExperimentResult result = RunExperiment(mix, factory, config);
    size_t allocations = 0;
    for (const AuditRecord& record : obs.audit.records()) {
      if (record.kind == AuditKind::kAllocation) {
        ++allocations;
        // Baselines classify nobody; the audit says so.
        EXPECT_STREQ(record.llc_class, "Maintain") << result.policy_name;
      }
    }
    EXPECT_GE(allocations, 4u) << result.policy_name;
    EXPECT_EQ(obs.metrics.GetCounter("copart.manager.ticks")->value(), 10u)
        << result.policy_name;
  }
}

TEST(ExperimentTest, NoPartBaselineRuns) {
  const ExperimentResult result =
      RunExperiment(MakeMix(MixFamily::kHighLlc, 4), NoPartFactory(), {});
  EXPECT_EQ(result.policy_name, "NoPart");
  EXPECT_GT(result.unfairness, 0.0);
}

}  // namespace
}  // namespace copart
