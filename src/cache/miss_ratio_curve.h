// Analytic miss-ratio curves (MRCs) from reuse mixtures.
//
// The fast epoch simulator cannot afford to replay address traces for every
// (ways x MBA x mix x policy) point in the paper's sweeps, so each workload
// carries a compact *reuse profile*: a mixture of uniform-random working-set
// components plus a streaming component.
//
// The curve is evaluated with Che's approximation for LRU under the
// independent reference model [Che et al. 2002], which is what makes
// mixtures honest: components COMPETE for the capacity instead of each
// seeing all of it, and the streaming component pollutes.
//
//   - Every line of a uniform-random component of working-set size W and
//     access weight w is referenced at per-line rate lambda = w/(W/64); a
//     line is resident iff it was referenced within the cache's
//     characteristic time T, so the component holds W*(1-exp(-lambda*T))
//     bytes and misses with probability exp(-lambda*T). For a single
//     component this reduces to the exact closed form miss = max(0, 1-C/W).
//   - A streaming component (sequential scan much larger than the LLC, e.g.
//     STREAM or the scan phases of OC/CG/FT) always misses AND occupies
//     w_s * T lines (each streamed line lives one characteristic time).
//   - Residual weight (1 - sum of component weights) models accesses to
//     state that fits in any allocation: always hits, negligible footprint.
//
// T is solved per query by bisection on the occupancy balance
//   sum_j W_j*(1-exp(-lambda_j*T)) + stream_bytes(T) = C,
// and the whole curve is cross-validated against the trace-driven
// way-partitioned cache in tests/cache_mrc_validation_test.cc.
//
// The profile shapes each surrogate benchmark's IPS(ways, MBA) surface; the
// calibrated profiles for the paper's Table 2 live in src/workload.
#ifndef COPART_CACHE_MISS_RATIO_CURVE_H_
#define COPART_CACHE_MISS_RATIO_CURVE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace copart {

class CompiledMrc;

// How MissRatio queries are answered (MachineConfig::mrc_mode selects the
// mode for the whole epoch model):
//   kExact    — per-query bisection on Che's occupancy balance (reference).
//   kCompiled — precompiled monotone-interpolated table (cache/compiled_mrc
//               .h), built once per distinct profile content on first use;
//               ~1e-5 relative error, ~50x cheaper per query.
enum class MrcMode {
  kExact,
  kCompiled,
};

struct ReuseComponent {
  double weight = 0.0;             // Fraction of LLC accesses, in [0, 1].
  uint64_t working_set_bytes = 0;  // Uniform-random footprint.
};

class ReuseProfile {
 public:
  // `components` + `streaming_weight` must sum to <= 1; the remainder is
  // always-hit weight. CHECK-fails otherwise.
  ReuseProfile(std::vector<ReuseComponent> components, double streaming_weight);

  // Pure streaming profile (STREAM benchmark).
  static ReuseProfile Streaming();

  // Expected LLC miss ratio when the workload may allocate into
  // `capacity_bytes` of cache. Monotonically non-increasing in capacity.
  // The exact solve; allocation-free (the per-component scratch is
  // precomputed at construction).
  double MissRatio(uint64_t capacity_bytes) const;

  // Mode-dispatched query: kExact calls the solver above; kCompiled answers
  // from Compiled(): interpolated on the table's grid, the memoized exact
  // value below it (notably capacity 0), and the exact solve above it.
  double MissRatio(uint64_t capacity_bytes, MrcMode mode) const;

  // The compiled table, fetched on first use (thread-safe). There is one
  // table per distinct content per process: every profile with the same
  // components and streaming weight — copies, or the same descriptor built
  // afresh for every submission of a fleet — shares it. The process holds
  // tables weakly, so a table lives as long as some profile uses it.
  const CompiledMrc& Compiled() const;

  // Total footprint: largest component working set (streaming counts as
  // unbounded and is ignored here).
  uint64_t MaxWorkingSetBytes() const;

  const std::vector<ReuseComponent>& components() const { return components_; }
  double streaming_weight() const { return streaming_weight_; }

 private:
  struct LazyCompiled;  // once_flag + table; shared across profile copies.

  std::vector<ReuseComponent> components_;
  double streaming_weight_;
  // Per-component line counts / per-line reference rates, hoisted out of
  // MissRatio so the hot epoch path never heap-allocates.
  std::vector<double> lines_;
  std::vector<double> rates_;
  double total_lines_ = 0.0;
  std::shared_ptr<LazyCompiled> compiled_;
};

}  // namespace copart

#endif  // COPART_CACHE_MISS_RATIO_CURVE_H_
