// Arrival generators (src/serve/arrival.h): seed determinism down to the
// exact draw sequence, bit identity with the one-candidate-at-a-time
// reference (serve_reference.h), the cached burst-rate lookup at every
// boundary, shape correctness of the rate functions, and the statistical
// sanity of the thinned processes.
#include "serve/arrival.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "harness/serve.h"
#include "serve_reference.h"

namespace copart {
namespace {

// Known-answer pins: the first arrivals of a seeded generator are part of
// the determinism contract (goldens and the serve harness depend on the
// stream layout). If an intentional Rng or thinning change shifts these,
// regenerate the serve goldens too.
TEST(ArrivalGeneratorTest, PoissonKnownAnswerSequence) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kPoisson;
  config.base_rate_rps = 1000.0;
  ArrivalGenerator generator(config, Rng(123));
  const double expected[] = {
      0.0016261042669824923, 0.0023865878554015798, 0.0034719439831913616,
      0.0044449047345042729, 0.0047179842589593433, 0.0051453646101030709,
  };
  for (double value : expected) {
    EXPECT_EQ(generator.Next(), value);
  }
}

TEST(ArrivalGeneratorTest, BurstKnownAnswerSequence) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = 500.0;
  config.burst_phases = {{1.0, 1.0}, {1.0, 4.0}};
  ArrivalGenerator generator(config, Rng(7));
  const double expected[] = {
      0.001670392215931772,  0.0021239257586970371, 0.0044671987317274429,
      0.0056952436669343914, 0.0093810325233945543, 0.010140917074460342,
  };
  for (double value : expected) {
    EXPECT_EQ(generator.Next(), value);
  }
}

TEST(ArrivalGeneratorTest, FlashCrowdKnownAnswerSequence) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kFlashCrowd;
  config.base_rate_rps = 1000.0;
  config.flash_start_sec = 0.002;
  config.flash_duration_sec = 0.004;
  config.flash_multiplier = 4.0;
  ArrivalGenerator generator(config, Rng(17));
  const double expected[] = {
      0.0020190084751718481, 0.0022934571225699707, 0.0028943165008006142,
      0.0029109712008757644, 0.0029337590346401759, 0.0031334837687397011,
  };
  for (double value : expected) {
    EXPECT_EQ(generator.Next(), value);
  }
}

TEST(ArrivalGeneratorTest, SameSeedReplaysIdentically) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kDiurnal;
  config.base_rate_rps = 2000.0;
  config.diurnal_period_sec = 10.0;
  config.diurnal_amplitude = 0.8;
  ArrivalGenerator a(config, Rng(99));
  ArrivalGenerator b(config, Rng(99));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next()) << "arrival " << i;
  }
}

TEST(ArrivalGeneratorTest, ForkedStreamsAreIndependent) {
  ArrivalConfig config;
  config.base_rate_rps = 1000.0;
  const Rng root(42);
  ArrivalGenerator a(config, root.Fork(0));
  ArrivalGenerator b(config, root.Fork(1));
  int identical = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++identical;
    }
  }
  EXPECT_EQ(identical, 0);
}

TEST(ArrivalGeneratorTest, ArrivalsStrictlyIncreaseForEveryShape) {
  std::vector<ArrivalConfig> configs(4);
  configs[0].kind = ArrivalKind::kPoisson;
  configs[1].kind = ArrivalKind::kDiurnal;
  configs[1].diurnal_period_sec = 5.0;
  configs[1].diurnal_amplitude = 1.0;
  configs[2].kind = ArrivalKind::kBurst;
  configs[2].burst_phases = {{0.5, 2.0}, {0.5, 0.25}};
  configs[3].kind = ArrivalKind::kFlashCrowd;
  configs[3].flash_start_sec = 0.1;
  configs[3].flash_duration_sec = 0.3;
  configs[3].flash_multiplier = 6.0;
  for (ArrivalConfig& config : configs) {
    config.base_rate_rps = 5000.0;
    ArrivalGenerator generator(config, Rng(7));
    double last = 0.0;
    for (int i = 0; i < 5000; ++i) {
      const double t = generator.Next();
      ASSERT_GT(t, last) << "arrival " << i;
      last = t;
    }
  }
}

ArrivalConfig BurstConfig(double base_rate_rps,
                          std::vector<BurstPhase> phases) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = base_rate_rps;
  config.burst_phases = std::move(phases);
  return config;
}

TEST(ArrivalGeneratorTest, BlockDrawsMatchOneCandidateAtATimeReference) {
  // Every shape, and the burst traces the harnesses and perfbench run, each
  // at its own rate (fine-grained times) and, where the cycle is long, at a
  // low rate so one run crosses many phase and cycle boundaries. The last
  // case's cycle (0.1 + 0.2 s) has multiples that are not exact doubles, so
  // its lookups take the fmod fallback.
  struct Case {
    std::string name;
    ArrivalConfig config;
  };
  std::vector<Case> cases;
  ArrivalConfig poisson;
  poisson.base_rate_rps = 1000.0;
  cases.push_back({"poisson", poisson});
  ArrivalConfig diurnal;
  diurnal.kind = ArrivalKind::kDiurnal;
  diurnal.base_rate_rps = 2000.0;
  diurnal.diurnal_period_sec = 5.0;
  diurnal.diurnal_amplitude = 1.0;
  cases.push_back({"diurnal", diurnal});
  cases.push_back({"burst", BurstConfig(5000.0, {{0.5, 2.0}, {0.5, 0.25}})});
  ArrivalConfig flash;
  flash.kind = ArrivalKind::kFlashCrowd;
  flash.base_rate_rps = 5000.0;
  flash.flash_start_sec = 0.5;
  flash.flash_duration_sec = 1.0;
  flash.flash_multiplier = 6.0;
  cases.push_back({"flash_crowd", flash});
  const ArrivalConfig section63 = Section63ServeScenario().lc_apps[0].arrival;
  cases.push_back({"section63", section63});
  cases.push_back({"section63_slow", BurstConfig(100.0,
                                                 section63.burst_phases)});
  const std::vector<BurstPhase> perfbench_cycle = {
      {5.0, 1.0}, {15.0, 2.4}, {20.0, 1.0}};
  cases.push_back({"perfbench", BurstConfig(75000.0, perfbench_cycle)});
  cases.push_back({"perfbench_slow", BurstConfig(100.0, perfbench_cycle)});
  const ArrivalConfig fig15 = Fig15ServeScenario().lc_apps[0].arrival;
  cases.push_back({"fig15", fig15});
  cases.push_back({"fig15_slow", BurstConfig(20.0, fig15.burst_phases)});
  cases.push_back(
      {"inexact_cycle", BurstConfig(1000.0, {{0.1, 3.0}, {0.2, 0.5}})});

  constexpr uint64_t kCandidatesPerRun = 40000;
  uint64_t total_candidates = 0;
  for (const Case& c : cases) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      ArrivalGenerator generator(c.config, Rng(seed));
      serve_reference::Arrivals reference(c.config, Rng(seed));
      for (uint64_t i = 0; reference.candidates() < kCandidatesPerRun; ++i) {
        const double expected = reference.Next();
        ASSERT_EQ(generator.Next(), expected)
            << c.name << " seed " << seed << " arrival " << i;
      }
      total_candidates += reference.candidates();
    }
  }
  EXPECT_GE(total_candidates, 1000000u);
}

TEST(ArrivalGeneratorTest, CachedBurstLookupMatchesArrivalRateAtAtBoundaries) {
  // RateAt answers from the cached cycle. At every phase and cycle boundary
  // of the first 50 cycles, and 1..64 ulps to either side, it must give
  // ArrivalRateAt's answer, and both must give the reference's. The queries
  // step back and forth across cycle boundaries, so the cache moves both
  // ways. In the 5/15/20 s cycle every multiple is an exact double; in the
  // 0.1/0.2 s one some are not, and those cycles fall back to fmod.
  struct Case {
    std::vector<BurstPhase> phases;
    bool exact_multiples;
  };
  const Case cases[] = {
      {{{5.0, 1.0}, {15.0, 2.4}, {20.0, 1.0}}, true},
      {{{0.1, 3.0}, {0.2, 0.5}}, false},
  };
  constexpr int kCycles = 50;
  constexpr int kUlps = 64;
  for (const Case& c : cases) {
    const ArrivalConfig config = BurstConfig(1000.0, c.phases);
    double cycle_sec = 0.0;
    for (const BurstPhase& phase : c.phases) {
      cycle_sec += phase.duration_sec;
    }
    int inexact = 0;
    for (int n = 0; n <= kCycles; ++n) {
      const double start = n * cycle_sec;
      inexact += std::fma(n, cycle_sec, -start) != 0.0 ? 1 : 0;
    }
    EXPECT_EQ(inexact == 0, c.exact_multiples) << inexact;

    ArrivalGenerator generator(config, Rng(1));
    for (int n = 0; n <= kCycles; ++n) {
      // Cycle n's start, then each later phase's start within it.
      double boundary = n * cycle_sec;
      for (size_t p = 0; p < c.phases.size(); ++p) {
        double t = boundary;
        for (int k = 0; k < kUlps; ++k) {
          t = std::nextafter(t, -std::numeric_limits<double>::infinity());
        }
        for (int k = -kUlps; k <= kUlps; ++k) {
          const double expected = serve_reference::RateAt(config, t);
          ASSERT_EQ(ArrivalRateAt(config, t), expected)
              << "cycle " << n << " boundary " << p << " ulps " << k;
          ASSERT_EQ(generator.RateAt(t), expected)
              << "cycle " << n << " boundary " << p << " ulps " << k;
          t = std::nextafter(t, std::numeric_limits<double>::infinity());
        }
        boundary += c.phases[p].duration_sec;
      }
    }
  }
}

TEST(ArrivalGeneratorDeathTest, BurstWithoutTrafficIsRejected) {
  // PeakRate() floors the envelope at the base rate, so all-silent phases
  // would reject every candidate and Next() would spin forever.
  const ArrivalConfig config = BurstConfig(1000.0, {{1.0, 0.0}, {2.0, 0.0}});
  EXPECT_DEATH(ArrivalGenerator(config, Rng(1)), "no traffic");
}

TEST(ArrivalGeneratorTest, EmpiricalRateMatchesConfiguredRate) {
  // 100 simulated seconds at 1 krps: the count is Poisson(100000), whose
  // +-5 sigma band is well inside +-2%.
  ArrivalConfig config;
  config.kind = ArrivalKind::kPoisson;
  config.base_rate_rps = 1000.0;
  ArrivalGenerator generator(config, Rng(42));
  uint64_t count = 0;
  while (generator.Next() < 100.0) {
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count), 100000.0, 2000.0);
}

TEST(ArrivalGeneratorTest, ThinningRealizesBurstPhaseRates) {
  // Phases at 1x and 4x the base rate: the per-phase counts must reflect
  // the 1:4 ratio, not the homogeneous envelope the thinning draws from.
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = 1000.0;
  config.burst_phases = {{1.0, 1.0}, {1.0, 4.0}};
  ArrivalGenerator generator(config, Rng(3));
  uint64_t low = 0, high = 0;
  for (;;) {
    const double t = generator.Next();
    if (t >= 100.0) {
      break;
    }
    const double offset = t - 2.0 * std::floor(t / 2.0);
    (offset < 1.0 ? low : high) += 1;
  }
  // 50 cycles: ~50k low-phase and ~200k high-phase arrivals.
  EXPECT_NEAR(static_cast<double>(low), 50000.0, 2500.0);
  EXPECT_NEAR(static_cast<double>(high), 200000.0, 5000.0);
}

TEST(ArrivalGeneratorTest, ThinningRealizesFlashCrowdStep) {
  // 100 simulated seconds, flash window [40, 60) at 4x: ~80k arrivals in
  // the window (20 s * 4 krps) and ~80k outside (80 s * 1 krps).
  ArrivalConfig config;
  config.kind = ArrivalKind::kFlashCrowd;
  config.base_rate_rps = 1000.0;
  config.flash_start_sec = 40.0;
  config.flash_duration_sec = 20.0;
  config.flash_multiplier = 4.0;
  ArrivalGenerator generator(config, Rng(5));
  uint64_t inside = 0, outside = 0;
  for (;;) {
    const double t = generator.Next();
    if (t >= 100.0) {
      break;
    }
    (t >= 40.0 && t < 60.0 ? inside : outside) += 1;
  }
  EXPECT_EQ(inside, 80204u);    // Seed-pinned; ~Poisson(80000).
  EXPECT_EQ(outside, 79941u);
  EXPECT_NEAR(static_cast<double>(inside), 80000.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(outside), 80000.0, 2000.0);
}

TEST(ArrivalRateAtTest, FlashCrowdStepsExactlyAtWindowBoundaries) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kFlashCrowd;
  config.base_rate_rps = 200.0;
  config.flash_start_sec = 5.0;
  config.flash_duration_sec = 2.0;
  config.flash_multiplier = 3.0;
  EXPECT_EQ(ArrivalRateAt(config, 0.0), 200.0);
  EXPECT_EQ(ArrivalRateAt(config, 4.999), 200.0);
  EXPECT_EQ(ArrivalRateAt(config, 5.0), 600.0);  // Window start inclusive.
  EXPECT_EQ(ArrivalRateAt(config, 6.999), 600.0);
  EXPECT_EQ(ArrivalRateAt(config, 7.0), 200.0);  // Window end exclusive.
  EXPECT_EQ(ArrivalRateAt(config, 100.0), 200.0);  // One-shot: no cycling.
  ArrivalGenerator generator(config, Rng(1));
  EXPECT_DOUBLE_EQ(generator.PeakRate(), 600.0);
}

TEST(ArrivalRateAtTest, BurstPhasesCycleWithExactBoundaries) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = 100.0;
  config.burst_phases = {{2.0, 1.0}, {3.0, 5.0}};
  EXPECT_EQ(ArrivalRateAt(config, 0.0), 100.0);
  EXPECT_EQ(ArrivalRateAt(config, 1.999), 100.0);
  EXPECT_EQ(ArrivalRateAt(config, 2.0), 500.0);   // Boundary starts phase 2.
  EXPECT_EQ(ArrivalRateAt(config, 4.999), 500.0);
  EXPECT_EQ(ArrivalRateAt(config, 5.0), 100.0);   // Cycle wraps.
  EXPECT_EQ(ArrivalRateAt(config, 7.5), 500.0);
  EXPECT_EQ(ArrivalRateAt(config, -1.0), 500.0);  // Negative t wraps too.
}

TEST(ArrivalRateAtTest, BurstWithoutPhasesFallsBackToBaseRate) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = 250.0;
  EXPECT_EQ(ArrivalRateAt(config, 0.0), 250.0);
  EXPECT_EQ(ArrivalRateAt(config, 123.4), 250.0);
}

TEST(ArrivalRateAtTest, DiurnalClampsAtZeroAndPeaksAtAmplitude) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kDiurnal;
  config.base_rate_rps = 1000.0;
  config.diurnal_period_sec = 4.0;
  config.diurnal_amplitude = 1.0;
  EXPECT_DOUBLE_EQ(ArrivalRateAt(config, 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(ArrivalRateAt(config, 1.0), 2000.0);  // Peak at T/4.
  EXPECT_NEAR(ArrivalRateAt(config, 3.0), 0.0, 1e-9);    // Trough at 3T/4.
  for (double t = 0.0; t < 8.0; t += 0.01) {
    ASSERT_GE(ArrivalRateAt(config, t), 0.0) << "t=" << t;
  }
  ArrivalGenerator generator(config, Rng(11));
  EXPECT_DOUBLE_EQ(generator.PeakRate(), 2000.0);
  EXPECT_DOUBLE_EQ(generator.RateAt(1.0), 2000.0);
}

}  // namespace
}  // namespace copart
