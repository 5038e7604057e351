// Compiled miss-ratio curves: the exact analytic MRC sampled once into a
// monotone interpolation table.
//
// Every experiment in this repository reduces to millions of epoch solves,
// and each epoch queries ReuseProfile::MissRatio ~7x per app (the shared-
// capacity fixed point plus the two CPI passes). The exact query runs a
// 48-iteration bisection with one exp() per mixture component per iteration
// — precise, but ~100 exp() calls for a number the model only needs to
// ~1e-4. Real UCP-style controllers (and CBP/LFOC) face the same economics
// and precompute their MRCs as lookup tables; CompiledMrc is that idea for
// the simulator.
//
// The table samples the exact curve on a log-spaced capacity grid (the MRC
// is smooth in log-capacity), augmented with knots at each component's
// working-set size and at the total footprint where the exact curve has its
// kinks. Queries interpolate with a PCHIP-style (Fritsch-Carlson) monotone
// cubic, which preserves the curve's defining invariant — monotone
// non-increasing in capacity — segment by segment, so policies that rely on
// "more ways never hurt" (UCP's marginal utilities, the heatmap
// monotonicity tests) keep working.
//
// Every hot query is O(1). Evaluate finds its segment through a start-index
// table keyed by the log-capacity bucket (no binary search), and the
// shared-way fixed point's sub-grid capacities (0 to 63 bytes: an app left
// a sliver of a shared way) read a per-capacity memo of the exact solve,
// filled on first use. Only multi-GiB what-if probes above the grid still
// run the exact solve per query; they are not hot.
//
// Accuracy at the default density is ~1e-5 relative, validated against the
// exact solver over randomized mixtures in tests/cache_compiled_mrc_test.cc
// (required bound: 1e-4 everywhere).
#ifndef COPART_CACHE_COMPILED_MRC_H_
#define COPART_CACHE_COMPILED_MRC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace copart {

class ReuseProfile;

struct CompiledMrcOptions {
  // Sample density of the log-spaced grid. The default is chosen so the
  // interpolation error stays comfortably under 1e-4 relative for the kind
  // of mixtures the workload surrogates use (see the property test); the
  // binding constraint is the knee where a mixture approaches its total
  // footprint and the curve bends fastest. Query cost is independent of the
  // density (bucketed segment lookup), build cost is linear and paid once.
  uint32_t samples_per_decade = 256;
  // Grid span. Queries below it read the exact-value memo, queries above it
  // fall back to the exact solve; the upper bound is automatically extended
  // to 8x the profile's total footprint so the tail of the curve is always
  // covered.
  uint64_t min_capacity_bytes = 64;
  uint64_t max_capacity_bytes = 1ull << 30;  // 1 GiB
};

class CompiledMrc {
 public:
  CompiledMrc(const ReuseProfile& profile,
              const CompiledMrcOptions& options = {});

  // True iff `capacity_bytes` lies inside the sampled grid; callers must
  // use BelowGrid or the exact solve otherwise
  // (ReuseProfile::MissRatio(capacity, mode) does this automatically).
  bool Covers(uint64_t capacity_bytes) const {
    return capacity_bytes >= min_capacity_bytes_ &&
           capacity_bytes <= max_capacity_bytes_;
  }

  // Interpolated miss ratio; requires Covers(capacity_bytes).
  double Evaluate(uint64_t capacity_bytes) const;

  // profile.MissRatio(capacity_bytes) for capacity_bytes <
  // min_capacity_bytes(), bit for bit, solved once per capacity and then
  // memoized. `profile` must have the content this table was compiled
  // from. Thread-safe: racing first touches store identical bits.
  double BelowGrid(uint64_t capacity_bytes, const ReuseProfile& profile) const;

  size_t num_samples() const { return x_.size(); }
  uint64_t min_capacity_bytes() const { return min_capacity_bytes_; }
  uint64_t max_capacity_bytes() const { return max_capacity_bytes_; }

  // The interpolation nodes, ascending in capacity, for reference checks of
  // Evaluate.
  const std::vector<double>& node_log_capacities() const { return x_; }
  const std::vector<double>& node_miss_ratios() const { return y_; }
  const std::vector<double>& node_slopes() const { return slope_; }

 private:
  // Log-capacity bucket of a node or query, in [0, bucket_start_.size()).
  // Monotone non-decreasing in lx, which is all the lookup's exactness
  // rests on.
  size_t BucketOf(double lx) const;

  uint64_t min_capacity_bytes_ = 0;
  uint64_t max_capacity_bytes_ = 0;
  // Interpolation nodes: x_ = ln(capacity_bytes), y_ = exact miss ratio
  // (forced monotone non-increasing), slope_ = PCHIP node derivative.
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> slope_;
  // bucket_start_[b]: the number of nodes whose bucket is below b. Every
  // such node lies below any query in bucket b, and every node above
  // bucket b lies above it, so a query starts here and steps only over
  // its own bucket's nodes to reach std::upper_bound's answer exactly.
  double bucket_scale_ = 0.0;
  std::vector<uint32_t> bucket_start_;
  // Bit patterns of the exact miss ratio at capacities [0,
  // min_capacity_bytes_), kBelowGridUnset until first use.
  std::unique_ptr<std::atomic<uint64_t>[]> below_grid_;
};

}  // namespace copart

#endif  // COPART_CACHE_COMPILED_MRC_H_
