// Classification accuracy of realistic sensing vs the exact baseline
// (DESIGN.md §10.3): for every paper mix family the A/B harness runs the
// same consolidation under exact, estimated, and estimated+noisy PMCs and
// scores the per-period classifier decisions. This suite commits the
// thresholds the repo promises:
//
//   - at the default sampling/noise parameters, >= 90% of (period, app,
//     resource) decisions match the exact run, for every mix family;
//   - the noisy controller settles within 2x the exact baseline's epochs,
//     and re-converges after the probe app's phase flip;
//   - across a sampling-rate x noise-level sweep the agreement never falls
//     below a documented floor (sensing degrades gracefully, not off a
//     cliff);
//   - the exact convergence-epoch counts are pinned by a golden file
//     (tests/golden/sensing_convergence_golden.json), regenerable with
//     COPART_REGENERATE_GOLDEN=1 after an intended controller change.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/mix.h"
#include "harness/sensing.h"

namespace copart {
namespace {

#ifndef COPART_GOLDEN_DIR
#error "COPART_GOLDEN_DIR must be defined by the build"
#endif

// The committed accuracy floors. kDefaultAgreementFloor is the acceptance
// threshold at default sensing parameters; kSweepAgreementFloor bounds the
// worst cell of the stress sweep (4x sparser sampling, 2.5x the noise).
constexpr double kDefaultAgreementFloor = 0.90;
constexpr double kSweepAgreementFloor = 0.75;

SensingConfig BaseConfig(MixFamily family) {
  SensingConfig config;
  config.family = family;
  config.app_count = 3;
  config.duration_sec = 50.0;
  return config;
}

TEST(ClassifierAccuracyTest, DefaultSensingAgreesAtLeast90PctOnEveryMix) {
  for (const MixFamily family : AllMixFamilies()) {
    const SensingComparison comparison =
        RunSensingComparison(BaseConfig(family));
    EXPECT_EQ(comparison.agreement[0], 1.0) << MixFamilyName(family);
    for (size_t mode = 1; mode < kNumSensingModes; ++mode) {
      EXPECT_GE(comparison.agreement[mode], kDefaultAgreementFloor)
          << MixFamilyName(family) << " mode "
          << SensingModeName(static_cast<SensingMode>(mode));
    }
  }
}

TEST(ClassifierAccuracyTest, NoisySensingConvergesWithinTwiceExactEpochs) {
  for (const MixFamily family : AllMixFamilies()) {
    const SensingComparison comparison =
        RunSensingComparison(BaseConfig(family));
    const int exact_epochs = comparison.epochs_to_converge[0];
    ASSERT_GT(exact_epochs, 0) << MixFamilyName(family);
    for (size_t mode = 1; mode < kNumSensingModes; ++mode) {
      const int epochs = comparison.epochs_to_converge[mode];
      EXPECT_GT(epochs, 0) << MixFamilyName(family);
      EXPECT_LE(epochs, 2 * exact_epochs)
          << MixFamilyName(family) << " mode "
          << SensingModeName(static_cast<SensingMode>(mode));
      // The phase flip re-triggered adaptation and it settled again.
      EXPECT_GT(comparison.reconverge_epochs[mode], 0)
          << MixFamilyName(family);
      EXPECT_LE(comparison.reconverge_epochs[mode],
                2 * comparison.reconverge_epochs[0])
          << MixFamilyName(family);
    }
  }
}

TEST(ClassifierAccuracyTest, SamplingRateTimesNoiseSweepDegradesGracefully) {
  const double rates[] = {1.0 / 16.0, 1.0 / 64.0, 1.0 / 256.0};
  const double sigmas[] = {0.0, 0.02, 0.05};
  for (const double rate : rates) {
    for (const double sigma : sigmas) {
      SensingConfig config = BaseConfig(MixFamily::kHighLlc);
      config.sensing.mrc_sampling_rate = rate;
      config.sensing.noise_sigma = sigma;
      const SensingComparison comparison = RunSensingComparison(config);
      for (size_t mode = 1; mode < kNumSensingModes; ++mode) {
        EXPECT_GE(comparison.agreement[mode], kSweepAgreementFloor)
            << "rate=1/" << 1.0 / rate << " sigma=" << sigma << " mode "
            << SensingModeName(static_cast<SensingMode>(mode));
      }
    }
  }
}

// ---- Convergence-epochs golden ----

std::string GoldenPath() {
  return std::string(COPART_GOLDEN_DIR) + "/sensing_convergence_golden.json";
}

std::string ComputeGoldenDocument() {
  std::ostringstream out;
  out << "{\n  \"sensing_convergence_epochs\": [\n";
  const std::vector<MixFamily> families = AllMixFamilies();
  for (size_t f = 0; f < families.size(); ++f) {
    const SensingComparison comparison =
        RunSensingComparison(BaseConfig(families[f]));
    out << "    {\"mix\": \"" << comparison.mix_name << "\", \"converge\": [";
    for (size_t mode = 0; mode < kNumSensingModes; ++mode) {
      out << (mode == 0 ? "" : ", ") << comparison.epochs_to_converge[mode];
    }
    out << "], \"reconverge\": [";
    for (size_t mode = 0; mode < kNumSensingModes; ++mode) {
      out << (mode == 0 ? "" : ", ") << comparison.reconverge_epochs[mode];
    }
    out << "]}" << (f + 1 == families.size() ? "" : ",") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

TEST(ClassifierAccuracyTest, ConvergenceEpochsMatchGoldenFile) {
  const std::string actual = ComputeGoldenDocument();
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
  EXPECT_EQ(actual, contents.str())
      << "convergence epochs drifted; if intended, regenerate with "
         "COPART_REGENERATE_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace copart
