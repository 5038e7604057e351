// The serve harness's headline contract (paper §6.3 on the discrete-event
// engine): with SLO mode on, the memcached surrogate's deterministic p95
// stays under its SLO through the burst while batch unfairness remains
// within 0.10 of a batch-only CoPart run; EqualShare and NoPart violate the
// SLO under the same trace. The full comparison is additionally pinned by
// a byte-exact golden document that must be bit-identical for every
// --threads value.
//
// To regenerate after an INTENDED behavior change:
//   COPART_REGENERATE_GOLDEN=1 ./harness_serve_test
// then review the diff of tests/golden/serve_golden.json.
#include "harness/serve.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/parallel.h"
#include "harness/experiment.h"
#include "harness/mix.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace copart {
namespace {

#ifndef COPART_GOLDEN_DIR
#error "COPART_GOLDEN_DIR must be defined by the build"
#endif

std::string GoldenPath() {
  return std::string(COPART_GOLDEN_DIR) + "/serve_golden.json";
}

// The serializer itself lives in harness/serve.h (SerializeServeComparison)
// so `copartctl governors` can run the same byte-exact self-check.
std::string SerializeComparison(const ServeComparisonResult& comparison) {
  return SerializeServeComparison(comparison);
}

// The §6.3 comparison is the most expensive computation in this suite;
// compute the canonical (serial) run once and share it across tests.
const ServeComparisonResult& Comparison() {
  static const ServeComparisonResult comparison = RunServeComparison(
      Section63ServeScenario(), ParallelConfig{.num_threads = 1});
  return comparison;
}

TEST(HarnessServeTest, CopartMeetsSloWhileStaticBaselinesViolate) {
  const ServeComparisonResult& comparison = Comparison();
  const double slo_ms = comparison.copart.lc.front().slo_p95_ms;
  ASSERT_GT(slo_ms, 0.0);

  // CoPart: run-level p95 under the SLO, and almost no violating epochs.
  EXPECT_LT(comparison.copart.lc.front().p95_ms, slo_ms);
  EXPECT_LT(comparison.copart.lc.front().slo_violation_fraction, 0.05);
  EXPECT_EQ(comparison.copart.lc.front().drops, 0u);
  // The governor actually rode the burst: at least one resize each way.
  EXPECT_GT(comparison.copart.slo_resizes, 0u);

  // The static baselines drown during the burst.
  for (const ServeScenarioResult* baseline :
       {&comparison.equal_share, &comparison.no_part}) {
    EXPECT_GT(baseline->lc.front().p95_ms, slo_ms)
        << ServeModeName(baseline->mode);
    EXPECT_GT(baseline->lc.front().slo_violation_fraction, 0.25)
        << ServeModeName(baseline->mode);
  }
}

TEST(HarnessServeTest, BatchUnfairnessStaysNearBatchOnlyCopart) {
  // Reference: the same batch pair under plain CoPart with no LC app at
  // all, measured with the experiment harness's Eq. 1/Eq. 2 methodology.
  const ServeScenarioConfig config = Section63ServeScenario();
  WorkloadMix mix;
  mix.name = "batch_only";
  for (const ServeBatchSpec& spec : config.batch_apps) {
    mix.apps.push_back(spec.workload);
  }
  ExperimentConfig experiment;
  experiment.machine = config.machine;
  experiment.duration_sec = config.duration_sec;
  experiment.control_period_sec = config.control_period_sec;
  experiment.cores_per_app = 4;
  const ExperimentResult batch_only =
      RunExperiment(mix, CoPartFactory(config.copart_params), experiment);

  // Serving memcached through the burst may cost the batch apps some
  // fairness (the governor takes ways and throttles MBA), but no more
  // than 0.10 on the [0, 1] unfairness metric.
  const double delta = Comparison().copart.run_batch_unfairness -
                       batch_only.unfairness;
  EXPECT_LE(std::abs(delta), 0.10)
      << "serve " << Comparison().copart.run_batch_unfairness
      << " vs batch-only " << batch_only.unfairness;
}

TEST(HarnessServeTest, EveryModeSurvivesAdmissionAndActuationFaults) {
  // The first group creation fails (the LC app's admission in CoPart and
  // EqualShare, NoPart's shared group), and one in five schemata writes and
  // app bindings fails. Every mode runs through the manager, so a refused
  // admission leaves the app unmanaged and a failed write is retried.
  for (ServeMode mode : {ServeMode::kCopartSlo, ServeMode::kEqualShare,
                         ServeMode::kNoPart}) {
    ServeScenarioConfig config = Section63ServeScenario();
    config.duration_sec = 10.0;
    config.mode = mode;
    const ServeScenarioResult clean = RunServeScenario(config);

    FaultInjector injector(7);
    FaultSpec first_create;
    first_create.one_shot_queries = {0};
    injector.Arm(fault_points::kResctrlCreateGroup, first_create);
    FaultSpec storm;
    storm.probability = 0.2;
    injector.Arm(fault_points::kResctrlSetL3, storm);
    injector.Arm(fault_points::kResctrlAssignApp, storm);
    config.machine.fault_injector = &injector;
    const ServeScenarioResult faulty = RunServeScenario(config);

    EXPECT_EQ(injector.PointFailures(fault_points::kResctrlCreateGroup), 1u)
        << ServeModeName(mode);
    EXPECT_EQ(faulty.samples.size(), clean.samples.size())
        << ServeModeName(mode);
    EXPECT_EQ(faulty.lc.front().arrivals, clean.lc.front().arrivals)
        << ServeModeName(mode);
    EXPECT_TRUE(std::isfinite(faulty.run_batch_unfairness))
        << ServeModeName(mode);
  }
}

TEST(HarnessServeTest, ComparisonMatchesGoldenFile) {
  const std::string actual = SerializeComparison(Comparison());
  const std::string path = GoldenPath();

  if (std::getenv("COPART_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path << "; review the diff";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run with COPART_REGENERATE_GOLDEN=1 to create it";
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string expected = contents.str();

  if (actual != expected) {
    std::istringstream actual_lines(actual), expected_lines(expected);
    std::string actual_line, expected_line;
    size_t line = 0;
    while (true) {
      ++line;
      const bool have_actual =
          static_cast<bool>(std::getline(actual_lines, actual_line));
      const bool have_expected =
          static_cast<bool>(std::getline(expected_lines, expected_line));
      if (!have_actual && !have_expected) {
        break;
      }
      if (!have_actual || !have_expected || actual_line != expected_line) {
        FAIL() << "golden mismatch at line " << line << "\n  golden: "
               << (have_expected ? expected_line : "<eof>")
               << "\n  actual: " << (have_actual ? actual_line : "<eof>")
               << "\nIf this change is intended, regenerate with "
                  "COPART_REGENERATE_GOLDEN=1 and review the diff.";
      }
    }
  }
  SUCCEED();
}

TEST(HarnessServeTest, ComparisonIsBitIdenticalAcrossThreadCounts) {
  // The whole golden document — every sampled trajectory point of every
  // mode — must serialize byte-for-byte the same at any --threads value.
  const std::string serial = SerializeComparison(Comparison());
  for (uint32_t threads : {2u, 8u}) {
    const ServeComparisonResult parallel = RunServeComparison(
        Section63ServeScenario(), ParallelConfig{.num_threads = threads});
    EXPECT_EQ(SerializeComparison(parallel), serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace copart
