#include "serve/latency_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace copart {
namespace {

constexpr int kNumEdges = LatencySketch::kNumBuckets - 1;

// A positive double's slice key: its biased exponent and the top
// kSliceBits bits of its mantissa. Keys grow with the value, and one slice
// spans at most a 2^-kSliceBits = 6.25% relative step, narrower than a
// bucket (10^(1/32), about 7.5%), so a slice holds at most one edge.
constexpr int kSliceBits = 4;
constexpr uint64_t SliceKey(double value) {
  return std::bit_cast<uint64_t>(value) >> (52 - kSliceBits);
}
constexpr uint64_t kFirstSliceKey = SliceKey(LatencySketch::kMinLatencySec);
// A decade spans under four binades (10 < 2^4), so this covers every slice
// from kMinLatencySec up to the last edge.
constexpr size_t kNumSlices = (4 * LatencySketch::kDecades + 1)
                              << kSliceBits;

// Precomputed bucket edges, shared by every sketch. Bucket 0 (underflow)
// owns [0, edges[0]), bucket j in [1, kNumBuckets - 2] owns the half-open
// [edges[j-1], edges[j]), and the overflow bucket owns everything from
// edges[kNumEdges - 1] up: edges[j] is bucket j's upper edge, and
// edges[0] = kMinLatencySec. Computed once with pow(); lookups afterwards
// only compare against these values, so any libm variation is frozen into
// the table at startup and identical for every sketch in the process.
//
// slice_start[k] is the bucket of slice k's lowest value, i.e. the first
// edge above it, derived from the same frozen edges. A lookup starts there
// and steps past the (at most one) edge that lies in the slice at or below
// the value, so it matches std::upper_bound over the edges exactly.
struct EdgeTable {
  EdgeTable() {
    for (int i = 0; i < kNumEdges; ++i) {
      edges[i] = LatencySketch::kMinLatencySec *
                 std::pow(10.0, static_cast<double>(i) /
                                    LatencySketch::kBucketsPerDecade);
    }
    CHECK_LT(SliceKey(edges[kNumEdges - 1]) - kFirstSliceKey, kNumSlices);
    for (size_t k = 0; k < kNumSlices; ++k) {
      const double slice_low =
          std::bit_cast<double>((kFirstSliceKey + k) << (52 - kSliceBits));
      slice_start[k] = static_cast<int>(
          std::upper_bound(edges, edges + kNumEdges, slice_low) - edges);
    }
  }
  double edges[kNumEdges];
  int slice_start[kNumSlices];
};

const EdgeTable& Edges() {
  static const EdgeTable table;
  return table;
}

}  // namespace

LatencySketch::LatencySketch() { Clear(); }

void LatencySketch::Clear() {
  buckets_.fill(0);
  count_ = 0;
}

int LatencySketch::BucketIndex(double latency_sec) {
  const EdgeTable& table = Edges();
  const double value = latency_sec > 0.0 ? latency_sec : 0.0;
  if (value < table.edges[0]) {
    return 0;  // Underflow: below kMinLatencySec.
  }
  if (value >= table.edges[kNumEdges - 1]) {
    return kNumBuckets - 1;  // Overflow.
  }
  // The first edge strictly greater than value: value's bucket owns
  // [edges[i-1], edges[i]). value < edges[kNumEdges - 1] bounds the scan.
  int i = table.slice_start[SliceKey(value) - kFirstSliceKey];
  while (table.edges[i] <= value) {
    ++i;
  }
  return i;
}

void LatencySketch::Record(double latency_sec) {
  ++buckets_[static_cast<size_t>(BucketIndex(latency_sec))];
  ++count_;
}

double LatencySketch::BucketUpperEdge(int index) {
  const EdgeTable& table = Edges();
  if (index <= 0) {
    return kMinLatencySec;
  }
  return table.edges[std::min(index, kNumEdges - 1)];
}

double LatencySketch::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based: ceil(q * count), at least 1.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(clamped * static_cast<double>(count_))));
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[static_cast<size_t>(i)];
    if (cumulative >= rank) {
      return BucketUpperEdge(i);
    }
  }
  return BucketUpperEdge(kNumBuckets - 1);
}

void LatencySketch::Merge(const LatencySketch& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

}  // namespace copart
