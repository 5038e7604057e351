// Golden regression test for the baseline policies: every policy of the
// paper's comparison (EQ, ST, CAT-only, MBA-only, CoPart) plus the NoPart,
// UCP and dCat extension baselines runs the seven mix families at 4 apps
// for 20 simulated seconds, and the per-app average IPS, the unfairness and
// the throughput geomean are serialized with full double precision (%.17g)
// and compared byte-for-byte against tests/golden/baselines_golden.json.
// A change to any baseline's decisions, to how the driver actuates them, or
// to the order in which they consume the machine's noise fails here.
//
// To regenerate after an INTENDED behavior change:
//   COPART_REGENERATE_GOLDEN=1 ./harness_baselines_golden_test
// then review the diff of tests/golden/baselines_golden.json like any other
// code change.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/mix.h"

namespace copart {
namespace {

#ifndef COPART_GOLDEN_DIR
#error "COPART_GOLDEN_DIR must be defined by the build"
#endif

std::string GoldenPath() {
  return std::string(COPART_GOLDEN_DIR) + "/baselines_golden.json";
}

std::vector<std::pair<std::string, PolicyFactory>> Baselines() {
  return {{"EQ", EqFactory()},           {"ST", StaticOracleFactory()},
          {"NoPart", NoPartFactory()},   {"UCP", UcpFactory()},
          {"dCat", DcatFactory()},       {"CAT-only", CatOnlyFactory()},
          {"MBA-only", MbaOnlyFactory()}, {"CoPart", CoPartFactory()}};
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string RunGrid() {
  ExperimentConfig config;
  config.duration_sec = 20.0;
  std::string out = "{\n  \"cells\": [\n";
  bool first = true;
  for (const MixFamily family : AllMixFamilies()) {
    const WorkloadMix mix = MakeMix(family, 4);
    for (const auto& [label, factory] : Baselines()) {
      const ExperimentResult result = RunExperiment(mix, factory, config);
      out += first ? "" : ",\n";
      first = false;
      out += "    {\"policy\": \"" + label + "\", \"name\": \"" +
             result.policy_name + "\", \"mix\": \"" + result.mix_name +
             "\", \"avg_ips\": [";
      for (size_t i = 0; i < result.avg_ips.size(); ++i) {
        out += (i == 0 ? "" : ", ") + Number(result.avg_ips[i]);
      }
      out += "], \"unfairness\": " + Number(result.unfairness) +
             ", \"throughput_geomean\": " +
             Number(result.throughput_geomean) + "}";
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

TEST(BaselinesGoldenTest, GridMatchesGoldenFile) {
  const std::string actual = RunGrid();
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

  std::istringstream actual_lines(actual), expected_lines(expected);
  std::string actual_line, expected_line;
  for (size_t line = 1;; ++line) {
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

}  // namespace
}  // namespace copart
