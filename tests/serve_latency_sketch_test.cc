// LatencySketch (src/serve/latency_sketch.h): the fixed-bucket log-latency
// histogram's quantiles must track exact sorted percentiles within one
// bucket ratio (10^(1/32), ~7.5% relative), every value must land in the
// bucket a binary search over the frozen edges picks, and the edge cases —
// empty, underflow, overflow, merge — must saturate rather than misreport.
#include "serve/latency_sketch.h"

#include <algorithm>
#include <cmath>
#include <ios>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace copart {
namespace {

// Upper/lower edge ratio of adjacent buckets: the sketch's worst-case
// relative error for in-range values.
const double kBucketRatio =
    std::pow(10.0, 1.0 / LatencySketch::kBucketsPerDecade);

TEST(LatencySketchTest, BucketEdgesAreMonotone) {
  double last = 0.0;
  for (int i = 0; i < LatencySketch::kNumBuckets; ++i) {
    const double edge = LatencySketch::BucketUpperEdge(i);
    ASSERT_GE(edge, last) << "bucket " << i;
    if (i >= 1 && i < LatencySketch::kNumBuckets - 1) {
      ASSERT_GT(edge, last) << "bucket " << i;
    }
    last = edge;
  }
  EXPECT_DOUBLE_EQ(LatencySketch::BucketUpperEdge(0),
                   LatencySketch::kMinLatencySec);
  // 8 decades above 1 us: the table tops out at 100 s.
  EXPECT_NEAR(LatencySketch::BucketUpperEdge(LatencySketch::kNumBuckets - 1),
              100.0, 1e-6);
}

TEST(LatencySketchTest, BucketAssignmentMatchesUpperBoundAtEveryEdge) {
  // Bucket j (1 <= j <= kNumBuckets - 2) owns [edge[j-1], edge[j]); the
  // underflow bucket owns everything below edge[0] (negatives and NaN count
  // as 0) and the overflow bucket everything from the last edge up. That is
  // std::upper_bound over the frozen edges, which the reference computes.
  // Each value goes into a fresh sketch, whose Quantile(1.0) is the upper
  // edge of the one occupied bucket; overflow() separates the overflow
  // bucket from the last in-range one, which report the same edge.
  std::vector<double> edges;
  for (int j = 0; j < LatencySketch::kNumBuckets - 1; ++j) {
    edges.push_back(LatencySketch::BucketUpperEdge(j));
  }
  const auto reference_bucket = [&](double value) {
    const double clamped = value > 0.0 ? value : 0.0;
    return static_cast<int>(
        std::upper_bound(edges.begin(), edges.end(), clamped) -
        edges.begin());
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {0.0,
                                -0.0,
                                -1.0,
                                -kInf,
                                std::numeric_limits<double>::quiet_NaN(),
                                kInf,
                                1e-300,
                                1e300,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max()};
  for (double edge : edges) {
    values.push_back(edge);
    values.push_back(std::nextafter(edge, 0.0));
    values.push_back(std::nextafter(edge, kInf));
  }
  for (double value : values) {
    const int expected = reference_bucket(value);
    LatencySketch sketch;
    sketch.Record(value);
    EXPECT_EQ(sketch.Quantile(1.0), LatencySketch::BucketUpperEdge(expected))
        << "value " << std::hexfloat << value << " expected bucket "
        << expected;
    EXPECT_EQ(sketch.overflow(),
              expected == LatencySketch::kNumBuckets - 1 ? 1u : 0u)
        << "value " << std::hexfloat << value;
  }
}

TEST(LatencySketchTest, QuantilesMatchExactPercentilesWithinBucketRatio) {
  // 20k exponential sojourn times with a 2 ms mean — the serve engine's
  // native latency scale. The sketch quantile is the upper edge of the
  // bucket holding the rank-ceil(q*n) sample, so it must lie in
  // (exact, exact * ratio].
  Rng rng(42);
  LatencySketch sketch;
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double value = rng.NextExponential(0.002);
    samples.push_back(value);
    sketch.Record(value);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(samples.size()))));
    const double exact = samples[rank - 1];
    const double approx = sketch.Quantile(q);
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact * kBucketRatio * (1.0 + 1e-12)) << "q=" << q;
  }
}

TEST(LatencySketchTest, MergeEqualsRecordingEverything) {
  Rng rng(7);
  LatencySketch combined, a, b;
  for (int i = 0; i < 5000; ++i) {
    const double value = rng.NextExponential(0.01);
    combined.Record(value);
    (i % 2 == 0 ? a : b).Record(value);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(a.Quantile(q), combined.Quantile(q)) << "q=" << q;
  }
}

TEST(LatencySketchTest, EmptySketchReportsZero) {
  LatencySketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.Quantile(1.0), 0.0);
}

TEST(LatencySketchTest, UnderflowSaturatesAtMinLatency) {
  LatencySketch sketch;
  sketch.Record(1e-9);
  sketch.Record(0.0);
  sketch.Record(-1.0);  // Negative latencies count as 0 (underflow).
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), LatencySketch::kMinLatencySec);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), LatencySketch::kMinLatencySec);
}

TEST(LatencySketchTest, OverflowSaturatesAtLargestEdge) {
  LatencySketch sketch;
  sketch.Record(1e6);  // Way beyond the 100 s table.
  EXPECT_EQ(sketch.overflow(), 1u);
  EXPECT_DOUBLE_EQ(
      sketch.Quantile(1.0),
      LatencySketch::BucketUpperEdge(LatencySketch::kNumBuckets - 1));
}

TEST(LatencySketchTest, ClearResetsEverything) {
  LatencySketch sketch;
  sketch.Record(0.5);
  sketch.Clear();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.Quantile(0.95), 0.0);
}

}  // namespace
}  // namespace copart
