// Property tests for the compiled (table-interpolated) miss-ratio curves
// against the exact Che solver: tight pointwise agreement across randomized
// reuse mixtures, monotonicity (the invariant UCP-style policies rely on),
// and exact endpoints. Also pins how tables are shared (one per distinct
// content, held weakly), the bit-exact sub-grid memo, and the bucketed
// segment lookup against std::upper_bound.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/compiled_mrc.h"
#include "cache/miss_ratio_curve.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/units.h"
#include "workload/workload.h"

namespace copart {
namespace {

// The accuracy contract of the compiled fast path: relative error <= 1e-4
// wherever the exact value is non-negligible, absolute error <= 1e-5 below
// that (an MRC tail of 1e-5 is ~zero misses for every model consumer).
void ExpectClose(double compiled, double exact, uint64_t capacity,
                 const char* what) {
  const double error = std::abs(compiled - exact);
  EXPECT_LE(error, std::max(1e-4 * exact, 1e-5))
      << what << " at capacity " << capacity << ": compiled=" << compiled
      << " exact=" << exact;
}

// Log-spaced + random capacities spanning the whole operating range of the
// simulated machines (a fraction of a way up to beyond any footprint).
std::vector<uint64_t> ProbeCapacities(Rng& rng) {
  std::vector<uint64_t> capacities;
  for (uint64_t capacity = 1024; capacity <= GiB(1); capacity *= 2) {
    capacities.push_back(capacity);
    capacities.push_back(capacity + capacity / 3);
  }
  for (int i = 0; i < 200; ++i) {
    capacities.push_back(1024 + rng.NextUint64(MiB(64)));
  }
  return capacities;
}

ReuseProfile RandomProfile(Rng& rng) {
  const size_t num_components = rng.NextUint64(4);  // 0-3 components.
  std::vector<ReuseComponent> components;
  double weight_budget = 1.0;
  for (size_t i = 0; i < num_components; ++i) {
    ReuseComponent component;
    component.weight = weight_budget * (0.1 + 0.6 * rng.NextDouble());
    // Working sets log-uniform in [64 KiB, 64 MiB].
    component.working_set_bytes =
        static_cast<uint64_t>(KiB(64) * std::pow(1024.0, rng.NextDouble()));
    weight_budget -= component.weight;
    components.push_back(component);
  }
  const double streaming = weight_budget * rng.NextDouble();
  return ReuseProfile(std::move(components), streaming);
}

TEST(CompiledMrcPropertyTest, MatchesExactSolveOnRandomProfiles) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 40; ++trial) {
    const ReuseProfile profile = RandomProfile(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (const uint64_t capacity : ProbeCapacities(rng)) {
      ExpectClose(profile.MissRatio(capacity, MrcMode::kCompiled),
                  profile.MissRatio(capacity), capacity, "random profile");
    }
  }
}

TEST(CompiledMrcPropertyTest, MatchesExactSolveOnWorkloadSurrogates) {
  Rng rng(0xBEEF);
  std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  registry.push_back(Stream());
  registry.push_back(Memcached());
  registry.push_back(WordCount());
  registry.push_back(Kmeans());
  registry.push_back(PhasedScanCompute());
  for (const WorkloadDescriptor& descriptor : registry) {
    SCOPED_TRACE(descriptor.name);
    for (const uint64_t capacity : ProbeCapacities(rng)) {
      ExpectClose(
          descriptor.reuse_profile.MissRatio(capacity, MrcMode::kCompiled),
          descriptor.reuse_profile.MissRatio(capacity), capacity,
          descriptor.name.c_str());
    }
  }
}

TEST(CompiledMrcPropertyTest, MonotoneNonIncreasingInCapacity) {
  Rng rng(0xD1CE);
  for (int trial = 0; trial < 20; ++trial) {
    const ReuseProfile profile = RandomProfile(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    double previous = profile.MissRatio(0, MrcMode::kCompiled);
    // Fine-grained ramp: 1% capacity steps catch any interpolation wiggle
    // between nodes, not just node-to-node drops.
    for (uint64_t capacity = 1024; capacity <= MiB(96);
         capacity += std::max<uint64_t>(1024, capacity / 100)) {
      const double miss = profile.MissRatio(capacity, MrcMode::kCompiled);
      EXPECT_LE(miss, previous + 1e-12) << "capacity " << capacity;
      previous = miss;
    }
  }
}

TEST(CompiledMrcPropertyTest, EndpointsExact) {
  Rng rng(0xFACADE);
  for (int trial = 0; trial < 20; ++trial) {
    const ReuseProfile profile = RandomProfile(rng);
    // Capacity 0 and far-beyond-the-grid queries take the exact-solve
    // fallback, so they must agree to the last bit.
    EXPECT_EQ(profile.MissRatio(0, MrcMode::kCompiled),
              profile.MissRatio(0));
    const uint64_t huge = GiB(64);
    EXPECT_EQ(profile.MissRatio(huge, MrcMode::kCompiled),
              profile.MissRatio(huge));
  }
}

TEST(CompiledMrcTest, TableIsSharedAcrossProfileCopies) {
  const ReuseProfile original = Sp().reuse_profile;
  const ReuseProfile copy = original;
  // Same table object, not merely equal contents: compilation is memoized
  // per profile content.
  EXPECT_EQ(&original.Compiled(), &copy.Compiled());
}

TEST(CompiledMrcTest, HigherDensityTightensTheTable) {
  const ReuseProfile profile({{0.5, MiB(8)}, {0.3, MiB(1)}}, 0.1);
  CompiledMrcOptions coarse;
  coarse.samples_per_decade = 8;
  CompiledMrcOptions fine;
  fine.samples_per_decade = 96;
  const CompiledMrc coarse_table(profile, coarse);
  const CompiledMrc fine_table(profile, fine);
  EXPECT_GT(fine_table.num_samples(), 4 * coarse_table.num_samples());
  // Worst-case interpolation error must shrink with density.
  double coarse_err = 0.0;
  double fine_err = 0.0;
  for (uint64_t capacity = KiB(256); capacity <= MiB(32);
       capacity += KiB(173)) {
    const double exact = profile.MissRatio(capacity);
    coarse_err =
        std::max(coarse_err, std::abs(coarse_table.Evaluate(capacity) - exact));
    fine_err =
        std::max(fine_err, std::abs(fine_table.Evaluate(capacity) - exact));
  }
  EXPECT_LT(fine_err, coarse_err);
  EXPECT_LE(fine_err, 1e-5);
}

// A profile whose content no surrogate and no other test uses, so the test
// that builds it owns every holder of its table.
ReuseProfile UniqueProfile(double streaming_weight) {
  return ReuseProfile({{0.41, MiB(3) + 4321}, {0.17, KiB(96) + 7}},
                      streaming_weight);
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Every Table 2 surrogate, memcached and `random_count` random mixtures.
std::vector<ReuseProfile> SurrogateAndRandomProfiles(size_t random_count) {
  std::vector<ReuseProfile> profiles;
  for (const WorkloadDescriptor& descriptor : AllTable2Benchmarks()) {
    profiles.push_back(descriptor.reuse_profile);
  }
  profiles.push_back(Memcached().reuse_profile);
  Rng rng(0x5E9);
  for (size_t i = 0; i < random_count; ++i) {
    profiles.push_back(RandomProfile(rng));
  }
  return profiles;
}

TEST(CompiledMrcInternTest, IndependentlyBuiltEqualProfilesShareOneTable) {
  // Two fresh descriptors, as the fleet builds one per LC submission.
  const WorkloadDescriptor first = Memcached();
  const WorkloadDescriptor second = Memcached();
  EXPECT_EQ(&first.reuse_profile.Compiled(),
            &second.reuse_profile.Compiled());
}

TEST(CompiledMrcInternTest, StreamingWeightOneUlpApartGetsItsOwnTable) {
  const ReuseProfile base = UniqueProfile(0.05);
  const ReuseProfile other = UniqueProfile(std::nextafter(0.05, 1.0));
  EXPECT_NE(&base.Compiled(), &other.Compiled());
}

TEST(CompiledMrcInternTest, TableLivesExactlyAsLongAsItsHolders) {
  // Filling a sub-grid memo slot from a different profile marks the table:
  // a profile that shares it reads the mark instead of its own exact value.
  const ReuseProfile marker({{0.9, MiB(1)}}, 0.0);
  constexpr uint64_t kSlot = 17;
  auto holder = std::make_unique<ReuseProfile>(UniqueProfile(0.03));
  const double mark = holder->Compiled().BelowGrid(kSlot, marker);
  ASSERT_NE(Bits(mark), Bits(holder->MissRatio(kSlot)));
  {
    const ReuseProfile sibling = UniqueProfile(0.03);
    EXPECT_EQ(&sibling.Compiled(), &holder->Compiled());
    EXPECT_EQ(Bits(sibling.MissRatio(kSlot, MrcMode::kCompiled)), Bits(mark));
  }
  holder.reset();
  // The last holder is gone, so an equal profile compiles a fresh table.
  const ReuseProfile fresh = UniqueProfile(0.03);
  EXPECT_EQ(Bits(fresh.MissRatio(kSlot, MrcMode::kCompiled)),
            Bits(fresh.MissRatio(kSlot)));
}

TEST(CompiledMrcInternTest, RacingFirstUsesOfEqualProfilesSeeOneTable) {
  constexpr uint32_t kWorkers = 8;
  std::vector<ReuseProfile> profiles;
  for (uint32_t i = 0; i < kWorkers; ++i) {
    profiles.push_back(UniqueProfile(0.07));
  }
  std::vector<const CompiledMrc*> tables(kWorkers, nullptr);
  ParallelFor(ParallelConfig{.num_threads = kWorkers}, kWorkers,
              [&](size_t i) { tables[i] = &profiles[i].Compiled(); });
  for (uint32_t i = 1; i < kWorkers; ++i) {
    EXPECT_EQ(tables[i], tables[0]) << "worker " << i;
  }
}

TEST(CompiledMrcBelowGridTest, MatchesExactSolveBitForBit) {
  for (const ReuseProfile& profile : SurrogateAndRandomProfiles(20)) {
    const uint64_t limit = profile.Compiled().min_capacity_bytes();
    ASSERT_EQ(limit, 64u);
    // Twice: the first pass fills the memo, the second reads it.
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t capacity = 0; capacity < limit; ++capacity) {
        EXPECT_EQ(Bits(profile.MissRatio(capacity, MrcMode::kCompiled)),
                  Bits(profile.MissRatio(capacity)))
            << "pass " << pass << " capacity " << capacity;
      }
    }
  }
}

TEST(CompiledMrcBelowGridTest, RacingFirstTouchesStoreTheExactBits) {
  constexpr uint32_t kWorkers = 8;
  const ReuseProfile profile = UniqueProfile(0.11);
  const uint64_t limit = profile.Compiled().min_capacity_bytes();
  std::vector<uint64_t> expected(limit);
  for (uint64_t capacity = 0; capacity < limit; ++capacity) {
    expected[capacity] = Bits(profile.MissRatio(capacity));
  }
  std::vector<std::vector<uint64_t>> seen(kWorkers,
                                          std::vector<uint64_t>(limit));
  ParallelFor(ParallelConfig{.num_threads = kWorkers}, kWorkers,
              [&](size_t worker) {
                for (uint64_t capacity = 0; capacity < limit; ++capacity) {
                  seen[worker][capacity] =
                      Bits(profile.MissRatio(capacity, MrcMode::kCompiled));
                }
              });
  for (uint32_t worker = 0; worker < kWorkers; ++worker) {
    EXPECT_EQ(seen[worker], expected) << "worker " << worker;
  }
}

// Evaluate with its segment found by std::upper_bound, the lookup the
// bucket table replaced, and the same interpolation expression.
double UpperBoundEvaluate(const CompiledMrc& table, uint64_t capacity) {
  const std::vector<double>& x = table.node_log_capacities();
  const std::vector<double>& y = table.node_miss_ratios();
  const std::vector<double>& slope = table.node_slopes();
  const double lx = std::log(static_cast<double>(capacity));
  size_t i = static_cast<size_t>(std::upper_bound(x.begin(), x.end(), lx) -
                                 x.begin());
  i = std::clamp<size_t>(i, 1, x.size() - 1) - 1;
  const double h = x[i + 1] - x[i];
  const double t = std::clamp((lx - x[i]) / h, 0.0, 1.0);
  const double t2 = t * t;
  const double t3 = t2 * t;
  const double value = (2.0 * t3 - 3.0 * t2 + 1.0) * y[i] +
                       (t3 - 2.0 * t2 + t) * h * slope[i] +
                       (-2.0 * t3 + 3.0 * t2) * y[i + 1] +
                       (t3 - t2) * h * slope[i + 1];
  return std::clamp(value, 0.0, 1.0);
}

TEST(CompiledMrcTest, BucketedLookupMatchesUpperBoundBitForBit) {
  for (const ReuseProfile& profile : SurrogateAndRandomProfiles(50)) {
    const CompiledMrc& table = profile.Compiled();
    std::vector<uint64_t> capacities;
    // Dense log sweep, 0.1% steps, from the grid's bottom to its top.
    for (uint64_t capacity = table.min_capacity_bytes();
         capacity < table.max_capacity_bytes();
         capacity = std::max(capacity + 1, capacity + capacity / 1000)) {
      capacities.push_back(capacity);
    }
    capacities.push_back(table.max_capacity_bytes());
    // Every node and its neighbours: the segment edges.
    for (const double lx : table.node_log_capacities()) {
      const auto node = static_cast<uint64_t>(std::llround(std::exp(lx)));
      for (const uint64_t capacity : {node - 1, node, node + 1}) {
        if (table.Covers(capacity)) {
          capacities.push_back(capacity);
        }
      }
    }
    size_t mismatches = 0;
    for (const uint64_t capacity : capacities) {
      if (Bits(table.Evaluate(capacity)) !=
          Bits(UpperBoundEvaluate(table, capacity))) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "capacity " << capacity << ": bucketed="
                        << table.Evaluate(capacity) << " upper_bound="
                        << UpperBoundEvaluate(table, capacity);
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << capacities.size() << " capacities";
  }
}

TEST(CompiledMrcTest, CoversReportsGridRange)  {
  const ReuseProfile profile({{0.6, MiB(4)}}, 0.2);
  const CompiledMrc& table = profile.Compiled();
  EXPECT_FALSE(table.Covers(0));
  EXPECT_TRUE(table.Covers(table.min_capacity_bytes()));
  EXPECT_TRUE(table.Covers(MiB(22)));
  EXPECT_TRUE(table.Covers(table.max_capacity_bytes()));
  EXPECT_FALSE(table.Covers(table.max_capacity_bytes() + 1));
}

}  // namespace
}  // namespace copart
