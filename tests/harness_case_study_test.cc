// The dynamic consolidation case study (paper §6.3, Fig. 15) on the serve
// harness.
#include <gtest/gtest.h>

#include "harness/serve.h"
#include "serve/arrival.h"

namespace copart {
namespace {

// Fig. 15's scenario on a shorter trace: 150 s, steps at 50 s and 100 s.
ServeScenarioConfig ShortConfig() {
  ServeScenarioConfig config = Fig15ServeScenario();
  config.duration_sec = 150.0;
  config.lc_apps.front().arrival.burst_phases = {
      {50.0, 1.0}, {50.0, 2.0}, {50.0, 1.0}};
  return config;
}

// The configured step rate at the start of the period `sample` ends.
double LoadRps(const ServeScenarioConfig& config, const ServeSample& sample) {
  return ArrivalRateAt(config.lc_apps.front().arrival,
                       sample.time - config.control_period_sec);
}

TEST(CaseStudyTest, ProducesFullTimeSeries) {
  const ServeScenarioConfig config = ShortConfig();
  const ServeScenarioResult result = RunServeScenario(config);
  EXPECT_EQ(result.samples.size(), 300u);  // 150 s / 0.5 s.
  for (const ServeSample& sample : result.samples) {
    EXPECT_GT(LoadRps(config, sample), 0.0);
    EXPECT_GT(sample.p95_ms, 0.0);
    EXPECT_GE(sample.lc_ways, 1u);
    EXPECT_LE(sample.lc_ways, 9u);
    EXPECT_GE(sample.batch_unfairness, 0.0);
  }
}

TEST(CaseStudyTest, SloHeldThroughLoadSteps) {
  const ServeScenarioResult result = RunServeScenario(ShortConfig());
  EXPECT_LT(result.lc.front().slo_violation_fraction, 0.05);
}

TEST(CaseStudyTest, HighLoadShrinksBatchSlice) {
  const ServeScenarioResult result = RunServeScenario(ShortConfig());
  // Compare a steady low-load sample with a steady high-load sample.
  const ServeSample& low = result.samples[80];    // t = 40 s.
  const ServeSample& high = result.samples[180];  // t = 90 s.
  EXPECT_GT(high.lc_ways, low.lc_ways);
  EXPECT_LT(high.batch_max_mba, low.batch_max_mba);
  // And the slice is restored after the load drops back.
  const ServeSample& restored = result.samples[290];
  EXPECT_EQ(restored.lc_ways, low.lc_ways);
}

TEST(CaseStudyTest, CoPartReAdaptsOnEveryPoolChange) {
  const ServeScenarioResult result = RunServeScenario(ShortConfig());
  // Initial installation + two load steps = at least 3 adaptations.
  EXPECT_GE(result.copart_adaptations, 3u);
  // After the re-adaptation transient the manager must settle to idle.
  EXPECT_EQ(result.samples.back().phase, "idle");
}

TEST(CaseStudyTest, CoPartFairerThanEqOnBatchApps) {
  ServeScenarioConfig eq_config = ShortConfig();
  eq_config.mode = ServeMode::kEqualShare;
  const ServeScenarioResult copart = RunServeScenario(ShortConfig());
  const ServeScenarioResult eq = RunServeScenario(eq_config);
  EXPECT_LT(copart.mean_batch_unfairness, eq.mean_batch_unfairness)
      << "CoPart=" << copart.mean_batch_unfairness
      << " EQ=" << eq.mean_batch_unfairness;
}

TEST(CaseStudyTest, LatencyRisesWithLoad) {
  const ServeScenarioResult result = RunServeScenario(ShortConfig());
  const double low_p95 = result.samples[80].p95_ms;
  const double high_p95 = result.samples[180].p95_ms;
  EXPECT_GT(high_p95, low_p95);
  EXPECT_LT(high_p95, result.lc.front().slo_p95_ms);
}

}  // namespace
}  // namespace copart
