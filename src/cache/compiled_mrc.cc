#include "cache/compiled_mrc.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "cache/miss_ratio_curve.h"
#include "common/logging.h"

namespace copart {
namespace {

// Fritsch-Carlson end-slope: one-sided three-point estimate, clipped so the
// interpolant stays monotone in the first/last segment.
double EndSlope(double h0, double h1, double d0, double d1) {
  double m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
  if (m * d0 <= 0.0) {
    return 0.0;
  }
  if (d0 * d1 < 0.0 && std::abs(m) > 3.0 * std::abs(d0)) {
    return 3.0 * d0;
  }
  return m;
}

// A NaN payload the clamped exact solve never returns: marks an unfilled
// below-grid memo slot.
constexpr uint64_t kBelowGridUnset = ~uint64_t{0};

}  // namespace

CompiledMrc::CompiledMrc(const ReuseProfile& profile,
                         const CompiledMrcOptions& options) {
  CHECK_GE(options.samples_per_decade, 4u);
  CHECK_GT(options.min_capacity_bytes, 0u);

  // Filled lazily: an eager fill would add a bisection per capacity to
  // every compile, and most profiles never see a sub-grid capacity.
  below_grid_ = std::make_unique<std::atomic<uint64_t>[]>(
      options.min_capacity_bytes);
  for (uint64_t c = 0; c < options.min_capacity_bytes; ++c) {
    below_grid_[c].store(kBelowGridUnset, std::memory_order_relaxed);
  }

  // Extend the grid past the total footprint so the flat tail (where only
  // streaming misses remain) is inside the table, not in the fallback.
  uint64_t total_ws = 0;
  for (const ReuseComponent& component : profile.components()) {
    total_ws += component.working_set_bytes;
  }
  min_capacity_bytes_ = options.min_capacity_bytes;
  max_capacity_bytes_ =
      std::max(options.max_capacity_bytes,
               std::max(total_ws * 8, min_capacity_bytes_ * 2));

  const double lo = std::log(static_cast<double>(min_capacity_bytes_));
  const double hi = std::log(static_cast<double>(max_capacity_bytes_));
  const double decades = (hi - lo) / std::log(10.0);
  const size_t uniform_count =
      2 + static_cast<size_t>(decades * options.samples_per_decade);

  x_.reserve(uniform_count + profile.components().size() + 1);
  const double step = (hi - lo) / static_cast<double>(uniform_count - 1);
  for (size_t i = 0; i < uniform_count; ++i) {
    x_.push_back(lo + step * static_cast<double>(i));
  }
  x_.back() = hi;
  // Knots at the exact curve's curvature spikes: each component's working
  // set and the total footprint (the hard kink of stream-free mixtures).
  for (const ReuseComponent& component : profile.components()) {
    const double knot = std::log(
        static_cast<double>(component.working_set_bytes));
    if (knot > lo && knot < hi) {
      x_.push_back(knot);
    }
  }
  if (total_ws > 0) {
    const double knot = std::log(static_cast<double>(total_ws));
    if (knot > lo && knot < hi) {
      x_.push_back(knot);
    }
  }
  std::sort(x_.begin(), x_.end());

  // The curve is solved at integer byte counts, so nodes must be deduped in
  // capacity space, not log space: two log nodes can be well-separated yet
  // round to the same byte count (a knot landing within ~1/capacity of a
  // grid node), and a zero-width segment would divide 0/0 in the slope
  // computation.
  std::vector<uint64_t> capacities;
  capacities.reserve(x_.size());
  for (const double lx : x_) {
    const auto capacity = static_cast<uint64_t>(std::llround(std::exp(lx)));
    capacities.push_back(
        std::clamp(capacity, min_capacity_bytes_, max_capacity_bytes_));
  }
  capacities.front() = min_capacity_bytes_;
  capacities.back() = max_capacity_bytes_;
  std::sort(capacities.begin(), capacities.end());
  capacities.erase(std::unique(capacities.begin(), capacities.end()),
                   capacities.end());

  const size_t n = capacities.size();
  x_.resize(n);
  y_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Anchor each node at the capacity actually solved so interpolation
    // nodes are exact.
    x_[i] = std::log(static_cast<double>(capacities[i]));
    y_[i] = profile.MissRatio(capacities[i]);
  }
  // The exact curve is monotone non-increasing; bisection jitter could
  // break that by an ULP, which would poison the monotone interpolant.
  // Near-flat segments are snapped exactly flat: marginal-utility policies
  // (UCP) compare MissRatio(w) - MissRatio(w+1) and must see exactly zero
  // for saturated/insensitive curves, not solver noise. The snap raises a
  // node by < 1e-9 and can accumulate only where the true curve is already
  // flat to ~1e-9/segment, far inside the accuracy budget.
  for (size_t i = 1; i < n; ++i) {
    y_[i] = std::min(y_[i], y_[i - 1]);
    if (y_[i - 1] - y_[i] < 1e-9) {
      y_[i] = y_[i - 1];
    }
  }

  // One bucket per node: buckets split [x_.front(), x_.back()] evenly, so
  // a bucket holds about one node of the uniform grid plus any knot.
  bucket_scale_ = static_cast<double>(n) / (x_[n - 1] - x_[0]);
  bucket_start_.resize(n);
  size_t below = 0;
  for (size_t b = 0; b < n; ++b) {
    while (below < n && BucketOf(x_[below]) < b) {
      ++below;
    }
    bucket_start_[b] = static_cast<uint32_t>(below);
  }

  // PCHIP (Fritsch-Carlson) node slopes.
  slope_.assign(n, 0.0);
  if (n < 2) {
    return;
  }
  if (n == 2) {
    const double d = (y_[1] - y_[0]) / (x_[1] - x_[0]);
    slope_[0] = slope_[1] = d;
    return;
  }
  for (size_t i = 1; i + 1 < n; ++i) {
    const double h0 = x_[i] - x_[i - 1];
    const double h1 = x_[i + 1] - x_[i];
    const double d0 = (y_[i] - y_[i - 1]) / h0;
    const double d1 = (y_[i + 1] - y_[i]) / h1;
    if (d0 * d1 <= 0.0) {
      slope_[i] = 0.0;
    } else {
      const double w0 = 2.0 * h1 + h0;
      const double w1 = h1 + 2.0 * h0;
      slope_[i] = (w0 + w1) / (w0 / d0 + w1 / d1);
    }
  }
  {
    const double h0 = x_[1] - x_[0];
    const double h1 = x_[2] - x_[1];
    const double d0 = (y_[1] - y_[0]) / h0;
    const double d1 = (y_[2] - y_[1]) / h1;
    slope_[0] = EndSlope(h0, h1, d0, d1);
  }
  {
    const double h0 = x_[n - 1] - x_[n - 2];
    const double h1 = x_[n - 2] - x_[n - 3];
    const double d0 = (y_[n - 1] - y_[n - 2]) / h0;
    const double d1 = (y_[n - 2] - y_[n - 3]) / h1;
    slope_[n - 1] = EndSlope(h0, h1, d0, d1);
  }
}

size_t CompiledMrc::BucketOf(double lx) const {
  const double bucket = (lx - x_[0]) * bucket_scale_;
  if (!(bucket > 0.0)) {
    return 0;
  }
  const size_t last = bucket_start_.size() - 1;
  return bucket < static_cast<double>(last) ? static_cast<size_t>(bucket)
                                            : last;
}

double CompiledMrc::Evaluate(uint64_t capacity_bytes) const {
  CHECK(Covers(capacity_bytes));
  const double lx = std::log(static_cast<double>(capacity_bytes));
  // Segment lookup: std::upper_bound's index, reached from the bucket's
  // start by stepping over the nodes of lx's own bucket that lie at or
  // below it. The clamp guards the lx == x_.back() edge.
  const size_t n = x_.size();
  size_t i = bucket_start_[BucketOf(lx)];
  while (i < n && x_[i] <= lx) {
    ++i;
  }
  i = std::clamp<size_t>(i, 1, n - 1) - 1;

  const double h = x_[i + 1] - x_[i];
  const double t = std::clamp((lx - x_[i]) / h, 0.0, 1.0);
  const double t2 = t * t;
  const double t3 = t2 * t;
  const double value = (2.0 * t3 - 3.0 * t2 + 1.0) * y_[i] +
                       (t3 - 2.0 * t2 + t) * h * slope_[i] +
                       (-2.0 * t3 + 3.0 * t2) * y_[i + 1] +
                       (t3 - t2) * h * slope_[i + 1];
  return std::clamp(value, 0.0, 1.0);
}

double CompiledMrc::BelowGrid(uint64_t capacity_bytes,
                              const ReuseProfile& profile) const {
  CHECK_LT(capacity_bytes, min_capacity_bytes_);
  // Relaxed is enough: a slot's bits are the whole message, and every
  // thread that fills it computes the same bits from the same content.
  std::atomic<uint64_t>& slot = below_grid_[capacity_bytes];
  const uint64_t bits = slot.load(std::memory_order_relaxed);
  if (bits != kBelowGridUnset) {
    return std::bit_cast<double>(bits);
  }
  const double miss = profile.MissRatio(capacity_bytes);
  slot.store(std::bit_cast<uint64_t>(miss), std::memory_order_relaxed);
  return miss;
}

}  // namespace copart
