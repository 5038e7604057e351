// LcServer (src/serve/serve_engine.h): the conservation invariant
// (arrivals == completions + drops + queue depth) after every epoch —
// including overload, zero-capability stalls, and capability steps — plus
// seed determinism of the whole event loop, bit identity with the
// draw-at-service-entry reference (serve_reference.h), and a known-answer
// digest that pins its exact output.
#include "serve/serve_engine.h"

#include <bit>
#include <cstdint>
#include <initializer_list>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve_reference.h"

namespace copart {
namespace {

void ExpectConservation(const LcServer& server) {
  EXPECT_EQ(server.total_arrivals(), server.total_completions() +
                                         server.total_drops() +
                                         server.queue_depth());
}

TEST(LcServerTest, ConservationHoldsInSteadyState) {
  LcServerConfig config;
  config.arrival.base_rate_rps = 10000.0;
  config.instructions_per_request = 60000.0;
  LcServer server(config, Rng(42));
  // mu = 1.2e9 / 60000 = 20 krps: stable at rho = 0.5.
  for (int epoch = 0; epoch < 100; ++epoch) {
    const EpochServeStats stats = server.AdvanceEpoch(0.1, 1.2e9);
    ExpectConservation(server);
    EXPECT_DOUBLE_EQ(stats.offered_rps,
                     static_cast<double>(stats.arrivals) / 0.1);
  }
  EXPECT_GT(server.total_completions(), 90000u);
  EXPECT_EQ(server.total_drops(), 0u);
  EXPECT_GT(server.cumulative_latency().count(), 0u);
}

TEST(LcServerTest, ConservationHoldsUnderOverloadWithDrops) {
  // A 64-slot queue at 4x overload: the tail must drop, and every dropped
  // request must still be accounted for.
  LcServerConfig config;
  config.arrival.base_rate_rps = 80000.0;
  config.instructions_per_request = 60000.0;
  config.queue_capacity = 64;
  LcServer server(config, Rng(7));
  for (int epoch = 0; epoch < 50; ++epoch) {
    server.AdvanceEpoch(0.1, 1.2e9);  // mu = 20 krps << offered 80 krps.
    ExpectConservation(server);
  }
  EXPECT_GT(server.total_drops(), 0u);
  EXPECT_LE(server.queue_depth(), 64u);
  // The overloaded queue's sojourn times pile up near the high buckets.
  EXPECT_GT(server.cumulative_latency().Quantile(0.95), 1e-4);
}

TEST(LcServerTest, ZeroCapabilityStallsServiceButQueuesArrivals) {
  LcServerConfig config;
  config.arrival.base_rate_rps = 1000.0;
  LcServer server(config, Rng(42));
  for (int epoch = 0; epoch < 10; ++epoch) {
    const EpochServeStats stats = server.AdvanceEpoch(0.1, 0.0);
    EXPECT_EQ(stats.completions, 0u);
    ExpectConservation(server);
  }
  EXPECT_EQ(server.total_completions(), 0u);
  EXPECT_GT(server.queue_depth(), 0u);
  // Service resumes: the backlog drains and conservation still holds.
  const uint64_t backlog = server.queue_depth();
  for (int epoch = 0; epoch < 20; ++epoch) {
    server.AdvanceEpoch(0.1, 1.2e9);
    ExpectConservation(server);
  }
  EXPECT_GT(server.total_completions(), backlog);
  EXPECT_LT(server.queue_depth(), backlog);
}

TEST(LcServerTest, SameSeedIsBitIdentical) {
  LcServerConfig config;
  config.arrival.kind = ArrivalKind::kBurst;
  config.arrival.base_rate_rps = 20000.0;
  config.arrival.burst_phases = {{1.0, 1.0}, {1.0, 3.0}};
  LcServer a(config, Rng(123));
  LcServer b(config, Rng(123));
  for (int epoch = 0; epoch < 60; ++epoch) {
    // A capability schedule with a step keeps the event interleaving
    // non-trivial.
    const double capability = epoch < 30 ? 1.2e9 : 3.6e9;
    const EpochServeStats sa = a.AdvanceEpoch(0.1, capability);
    const EpochServeStats sb = b.AdvanceEpoch(0.1, capability);
    ASSERT_EQ(sa.arrivals, sb.arrivals) << "epoch " << epoch;
    ASSERT_EQ(sa.completions, sb.completions) << "epoch " << epoch;
    ASSERT_EQ(sa.drops, sb.drops) << "epoch " << epoch;
    ASSERT_EQ(sa.p95_ms, sb.p95_ms) << "epoch " << epoch;
  }
  EXPECT_EQ(a.total_arrivals(), b.total_arrivals());
  EXPECT_EQ(a.cumulative_latency().Quantile(0.99),
            b.cumulative_latency().Quantile(0.99));
}

// FNV-1a 64 folded over the bytes of each word, low byte first.
uint64_t FoldFnv1a(uint64_t hash, std::initializer_list<uint64_t> words) {
  for (uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(LcServerTest, KnownAnswerAcrossDropsStallsAndWrap) {
  // Pins the engine's exact output, not just its self-consistency. A
  // 64-slot queue under a 3x burst drops and wraps its ring thousands of
  // times; the schedule stalls service outright for five epochs and then
  // steps mu from 20 to 60 krps. Every epoch's counters and the bit
  // patterns of its percentiles are folded into one digest, so any change
  // to the draw order, the event interleaving, the ring or the sketch's
  // bucket assignment moves it.
  LcServerConfig config;
  config.arrival.kind = ArrivalKind::kBurst;
  config.arrival.base_rate_rps = 15000.0;
  config.arrival.burst_phases = {{0.7, 1.0}, {0.3, 3.0}};
  config.queue_capacity = 64;
  LcServer server(config, Rng(2024));
  uint64_t digest = 0xcbf29ce484222325ULL;
  uint64_t stalled_completions = 0;
  for (int epoch = 0; epoch < 80; ++epoch) {
    const bool stalled = epoch >= 20 && epoch < 25;
    const double capability = stalled ? 0.0 : (epoch < 50 ? 1.2e9 : 3.6e9);
    const EpochServeStats stats = server.AdvanceEpoch(0.1, capability);
    ExpectConservation(server);
    if (stalled) {
      stalled_completions += stats.completions;
    }
    digest = FoldFnv1a(digest, {stats.arrivals, stats.completions,
                                stats.drops, stats.queue_depth_end,
                                Bits(stats.p50_ms), Bits(stats.p95_ms),
                                Bits(stats.p99_ms)});
  }
  const LatencySketch& total = server.cumulative_latency();
  // The scenario exercises what it claims to.
  EXPECT_EQ(stalled_completions, 0u);
  EXPECT_GT(server.total_drops(), 0u);
  EXPECT_GT(server.total_completions(), 1000u * config.queue_capacity);

  EXPECT_EQ(digest, 0x138875da8b2bc5fdULL);
  EXPECT_EQ(server.total_arrivals(), 192054u);
  EXPECT_EQ(server.total_completions(), 147210u);
  EXPECT_EQ(server.total_drops(), 44839u);
  EXPECT_EQ(server.queue_depth(), 5u);
  EXPECT_EQ(total.count(), server.total_completions());
  EXPECT_EQ(Bits(total.Quantile(0.50)), 0x3f151fea563d0d05ULL);
  EXPECT_EQ(Bits(total.Quantile(0.95)), 0x3f6dea41aad97ca9ULL);
  EXPECT_EQ(Bits(total.Quantile(0.99)), 0x3f7012cfaad0da13ULL);
}

TEST(LcServerTest, BlockDrawsMatchDrawAtServiceEntryReference) {
  // 2,400 epochs of a 3x burst into a 48-slot queue: the queue drops and
  // its ring wraps throughout, capability steps between three levels, and
  // every 300th epoch starts a three-epoch stall. Every field of every
  // epoch's stats, the totals and the cumulative quantiles must match the
  // reference bit for bit, with exponential and with fixed service. The
  // tiny demands of the last two cases make the one-instruction floor bind
  // (on ~39% of exponential demands, on every fixed one).
  struct Case {
    bool exponential;
    double instructions_per_request;
  };
  for (const Case c : {Case{true, 60000.0}, Case{false, 60000.0},
                       Case{true, 2.0}, Case{false, 0.5}}) {
    SCOPED_TRACE(testing::Message() << "exponential " << c.exponential
                                    << " ipr " << c.instructions_per_request);
    LcServerConfig config;
    config.arrival.kind = ArrivalKind::kBurst;
    config.arrival.base_rate_rps = 5000.0;
    config.arrival.burst_phases = {{0.7, 1.0}, {0.3, 3.0}};
    config.exponential_service = c.exponential;
    config.instructions_per_request = c.instructions_per_request;
    config.queue_capacity = 48;
    LcServer server(config, Rng(77));
    serve_reference::Server reference(config, Rng(77));
    constexpr int kEpochs = 2400;
    uint64_t stalled_epochs = 0;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const bool stalled = epoch % 300 < 3;
      // mu = 5.5, 6.7 and 20 krps at the mean demand, against 5 krps
      // offered (15 in bursts).
      const double levels[] = {5500.0, 6667.0, 20000.0};
      const double capability =
          stalled ? 0.0
                  : levels[(epoch / 40) % 3] * c.instructions_per_request;
      stalled_epochs += stalled ? 1 : 0;
      const EpochServeStats got = server.AdvanceEpoch(0.1, capability);
      const EpochServeStats want = reference.AdvanceEpoch(0.1, capability);
      ASSERT_EQ(got.arrivals, want.arrivals) << "epoch " << epoch;
      ASSERT_EQ(got.completions, want.completions) << "epoch " << epoch;
      ASSERT_EQ(got.drops, want.drops) << "epoch " << epoch;
      ASSERT_EQ(got.queue_depth_end, want.queue_depth_end) << "epoch " << epoch;
      ASSERT_EQ(Bits(got.offered_rps), Bits(want.offered_rps))
          << "epoch " << epoch;
      ASSERT_EQ(Bits(got.p50_ms), Bits(want.p50_ms)) << "epoch " << epoch;
      ASSERT_EQ(Bits(got.p95_ms), Bits(want.p95_ms)) << "epoch " << epoch;
      ASSERT_EQ(Bits(got.p99_ms), Bits(want.p99_ms)) << "epoch " << epoch;
    }
    EXPECT_EQ(Bits(server.now()), Bits(reference.now()));
    EXPECT_EQ(server.total_arrivals(), reference.total_arrivals());
    EXPECT_EQ(server.total_completions(), reference.total_completions());
    EXPECT_EQ(server.total_drops(), reference.total_drops());
    EXPECT_EQ(server.queue_depth(), reference.queue_depth());
    const LatencySketch& got = server.cumulative_latency();
    const LatencySketch& want = reference.cumulative_latency();
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.overflow(), want.overflow());
    for (int percent = 1; percent <= 100; ++percent) {
      const double q = percent / 100.0;
      EXPECT_EQ(Bits(got.Quantile(q)), Bits(want.Quantile(q))) << "q " << q;
    }
    // The scenario exercises what it claims to: drops, wraps many times
    // over, and stalls.
    EXPECT_EQ(stalled_epochs, 24u);
    EXPECT_GT(server.total_drops(), 0u);
    EXPECT_GT(server.total_arrivals(), 1000u * config.queue_capacity);
    ExpectConservation(server);
  }
}

TEST(LcServerTest, CapabilityStepMovesTheTail) {
  // Same arrival stream, twice: the run that gets a mid-run capability
  // boost must complete more and end with lower tail latency — the lever
  // the SLO governor pulls when it widens the LC slice.
  auto run = [](bool boost) {
    LcServerConfig config;
    config.arrival.base_rate_rps = 18000.0;
    LcServer server(config, Rng(5));
    for (int epoch = 0; epoch < 100; ++epoch) {
      const double capability =
          (boost && epoch >= 50) ? 3.6e9 : 1.2e9;  // mu: 20 -> 60 krps.
      server.AdvanceEpoch(0.1, capability);
    }
    return server;
  };
  const LcServer steady = run(false);
  const LcServer boosted = run(true);
  EXPECT_EQ(steady.total_arrivals(), boosted.total_arrivals());
  EXPECT_GE(boosted.total_completions(), steady.total_completions());
  EXPECT_LT(boosted.cumulative_latency().Quantile(0.95),
            steady.cumulative_latency().Quantile(0.95));
}

}  // namespace
}  // namespace copart
