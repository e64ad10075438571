#include "opt/bin_count.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/error.hpp"
#include "workload/rng.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

TEST(BinCountTest, EmptyMultiset) {
  const BinCountBounds bounds = optimal_bin_count({}, unit_model());
  EXPECT_EQ(bounds.lower, 0u);
  EXPECT_EQ(bounds.upper, 0u);
  EXPECT_TRUE(bounds.exact());
}

TEST(BinCountTest, EverythingFitsOneBin) {
  const std::vector<double> sizes{0.3, 0.3, 0.3};
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 1u);
}

TEST(BinCountTest, EqualSizesFastPathExact) {
  // 7 items of size 0.3: 3 per bin -> ceil(7/3) = 3.
  const std::vector<double> sizes(7, 0.3);
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 3u);
}

TEST(BinCountTest, EqualSizesWithFpNoise) {
  // 2000 items of 1e-3: exactly 2 bins (1000 per bin with tolerance).
  const std::vector<double> sizes(2000, 1e-3);
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 2u);
}

TEST(BinCountTest, EqualSizeHalfPacksPairs) {
  const std::vector<double> sizes(5, 0.5);
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 3u);
}

TEST(BinCountTest, EqualSizesMatchFitsRuleWithZeroTolerance) {
  // The fp counter-example behind the per_bin_count fix: with tol = 0 and
  // size = nextafter(0.5, 1.0), the quotient 1.0 / size is
  // 1.9999999999999996 but the old 1e-12 fudge factor floored it to 2 —
  // yet 2 * size = 1.0000000000000002 > 1.0, so two such items do NOT
  // share a unit bin under CostModel::fits. The old equal-size fast path
  // certified 2 bins for 4 items as "exact"; every real packing opens 4.
  const CostModel model{1.0, 1.0, 0.0};
  const double size = std::nextafter(0.5, 1.0);
  ASSERT_GT(2.0 * size, 1.0);
  const BinCountBounds bounds =
      optimal_bin_count(std::vector<double>(4, size), model);
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 4u);
}

TEST(BinCountTest, EqualSizesPerBinCountAgreesWithFits) {
  // Property pinning the equal-size fast path to the placement rule: the
  // per-bin count must be exactly the largest m with m * size fitting under
  // CostModel::fits — computed here by the multiplication itself.
  for (const double tol : {0.0, 1e-9}) {
    const CostModel model{1.0, 1.0, tol};
    for (const double size :
         {0.2, 0.1, 1.0 / 3.0, 0.07, 0.125, 0.25, 0.49, 0.9}) {
      std::size_t m = 1;
      while (model.fits(static_cast<double>(m + 1) * size, model.bin_capacity)) {
        ++m;
      }
      const std::size_t n = 3 * m + 1;  // forces ceil(n/m) = 4
      const BinCountBounds bounds =
          optimal_bin_count(std::vector<double>(n, size), model);
      EXPECT_TRUE(bounds.exact()) << "size " << size << " tol " << tol;
      EXPECT_EQ(bounds.upper, 4u) << "size " << size << " tol " << tol;
    }
  }
}

TEST(BinCountTest, GeneralMixSolvedExactly) {
  const std::vector<double> sizes{0.45, 0.4, 0.35, 0.3, 0.25, 0.25};
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 2u);
}

TEST(BinCountTest, SolverDisabledGivesHeuristicBounds) {
  const std::vector<double> sizes{0.45, 0.4, 0.35, 0.3, 0.25, 0.25};
  BinCountOptions options;
  options.use_exact_solver = false;
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model(), options);
  EXPECT_LE(bounds.lower, 2u);
  EXPECT_GE(bounds.upper, 2u);
}

TEST(BinCountTest, RejectsInvalidSizes) {
  EXPECT_THROW((void)optimal_bin_count(std::vector<double>{1.5}, unit_model()),
               PreconditionError);
  EXPECT_THROW((void)optimal_bin_count(std::vector<double>{0.0}, unit_model()),
               PreconditionError);
}

TEST(BinCountOracleTest, MemoHitsOnRepeatedMultiset) {
  BinCountOracle oracle(unit_model());
  const std::vector<double> sorted{0.5, 0.4, 0.3};
  const BinCountBounds first = oracle.count_sorted(sorted);
  const BinCountBounds second = oracle.count_sorted(sorted);
  EXPECT_EQ(first.lower, second.lower);
  EXPECT_EQ(first.upper, second.upper);
  EXPECT_EQ(oracle.hits(), 1u);
  EXPECT_EQ(oracle.misses(), 1u);
  EXPECT_EQ(oracle.memo_size(), 1u);
}

TEST(BinCountOracleTest, DistinguishesDifferentMultisets) {
  BinCountOracle oracle(unit_model());
  (void)oracle.count_sorted(std::vector<double>{0.5, 0.5});
  (void)oracle.count_sorted(std::vector<double>{0.5, 0.5, 0.5});
  EXPECT_EQ(oracle.misses(), 2u);
}

TEST(BinCountOracleTest, AgreesWithDirectComputation) {
  BinCountOracle oracle(unit_model());
  const std::vector<double> sorted{0.9, 0.6, 0.6, 0.2, 0.2, 0.1};
  const BinCountBounds via_oracle = oracle.count_sorted(sorted);
  const BinCountBounds direct = optimal_bin_count(sorted, unit_model());
  EXPECT_EQ(via_oracle.lower, direct.lower);
  EXPECT_EQ(via_oracle.upper, direct.upper);
}

/// The flat optimal_bin_count (the `_sorted` kernels and exact_bin_count)
/// and the RLE entry point (the `_rle` kernels on a reused scratch) are
/// independent implementations that must agree exactly.
void expect_rle_matches_flat(std::vector<double> sizes, const BinCountOptions& options,
                             BinCountScratch& scratch, int round) {
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  const std::vector<SizeRun> runs = rle_from_sorted(sizes);
  const BinCountBounds flat = optimal_bin_count(sizes, unit_model(), options);
  const BinCountBounds rle = optimal_bin_count_rle(runs, unit_model(), options, scratch);
  EXPECT_EQ(flat.lower, rle.lower) << "round " << round;
  EXPECT_EQ(flat.upper, rle.upper) << "round " << round;
}

TEST(BinCountRleTest, MatchesFlatComputationOnRandomMultisets) {
  BinCountScratch scratch;
  Rng rng(17);
  for (int round = 0; round < 30; ++round) {
    std::vector<double> sizes;
    const std::size_t n = 5 + rng.uniform_int(0, 120);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix continuous and duplicated sizes so runs of every length occur.
      sizes.push_back(rng.bernoulli(0.5)
                          ? rng.uniform(0.05, 0.9)
                          : 0.1 * static_cast<double>(rng.uniform_int(1, 9)));
    }
    expect_rle_matches_flat(sizes, {}, scratch, round);
  }
}

TEST(BinCountRleTest, MatchesFlatWithoutExactSolver) {
  // With the solver off, the bounds come straight from the heuristic chain
  // (L2 / FFD / BFD) — this pins the RLE kernels' bit-identity to the flat
  // ones.
  BinCountOptions options;
  options.use_exact_solver = false;
  BinCountScratch scratch;
  Rng rng(23);
  for (int round = 0; round < 30; ++round) {
    std::vector<double> sizes;
    const std::size_t n = 5 + rng.uniform_int(0, 200);
    for (std::size_t i = 0; i < n; ++i) {
      sizes.push_back(rng.bernoulli(0.5)
                          ? rng.uniform(0.02, 0.6)
                          : 0.05 * static_cast<double>(rng.uniform_int(1, 12)));
    }
    expect_rle_matches_flat(sizes, options, scratch, round);
  }
  // Tie-heavy: a small catalog with large counts leaves many bins at
  // bitwise-equal residuals. The RLE BFD keeps its residuals in a sorted
  // vector where the flat BFD walks a std::multiset, so among equal
  // residuals they may pick different bins — never a different value.
  const double catalog[] = {0.6, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05};
  for (int round = 0; round < 30; ++round) {
    std::vector<double> sizes;
    for (const double size : catalog) {
      sizes.insert(sizes.end(), rng.uniform_int(0, 40), size);
    }
    expect_rle_matches_flat(sizes, options, scratch, 30 + round);
  }
}

TEST(BinCountRleTest, RejectsMalformedRuns) {
  // Non-decreasing sizes and zero counts violate the RLE invariant.
  BinCountScratch scratch;
  EXPECT_THROW((void)optimal_bin_count_rle(std::vector<SizeRun>{{0.3, 1}, {0.5, 1}},
                                           unit_model(), {}, scratch),
               PreconditionError);
  EXPECT_THROW((void)optimal_bin_count_rle(std::vector<SizeRun>{{0.3, 0}},
                                           unit_model(), {}, scratch),
               PreconditionError);
}

TEST(BinCountOracleTest, BoundedEvictionKeepsMemoUnderLimit) {
  constexpr std::size_t kLimit = 16;
  BinCountOracle oracle(unit_model(), {}, kLimit);
  for (int i = 1; i <= 200; ++i) {
    const std::vector<double> sorted(static_cast<std::size_t>(i), 0.25);
    (void)oracle.count_sorted(sorted);
    EXPECT_LE(oracle.memo_size(), kLimit);
  }
  EXPECT_GT(oracle.evictions(), 0u);
  // Eviction trims, it does not wipe: the memo keeps a working set.
  EXPECT_GT(oracle.memo_size(), kLimit / 4);
}

TEST(BinCountOracleTest, EvictionKeepsRecentEntriesHot) {
  constexpr std::size_t kLimit = 8;
  BinCountOracle oracle(unit_model(), {}, kLimit);
  for (int i = 1; i <= 100; ++i) {
    const std::vector<double> sorted(static_cast<std::size_t>(i), 0.25);
    (void)oracle.count_sorted(sorted);
  }
  // The most recent key must have survived the FIFO trims.
  const std::uint64_t hits_before = oracle.hits();
  (void)oracle.count_sorted(std::vector<double>(100, 0.25));
  EXPECT_EQ(oracle.hits(), hits_before + 1);
}

TEST(BinCountOracleTest, FifoEvictionCountersPinned) {
  // Pins the exact hit/miss/eviction trajectory of the FIFO-halving memo at
  // limit 4. Stores 1..7 are distinct multisets (k items of 0.25):
  //   stores 1-4: inserts, no eviction              (size 4)
  //   store  5:   at limit -> cutoff drops seq 0,1  (size 3)
  //   store  6:   insert                            (size 4)
  //   store  7:   at limit -> cutoff drops seq 2,3  (size 3)
  // Any change to the eviction arithmetic moves these numbers.
  constexpr std::size_t kLimit = 4;
  BinCountOracle oracle(unit_model(), {}, kLimit);
  for (std::size_t k = 1; k <= 7; ++k) {
    (void)oracle.count_sorted(std::vector<double>(k, 0.25));
  }
  EXPECT_EQ(oracle.misses(), 7u);
  EXPECT_EQ(oracle.hits(), 0u);
  EXPECT_EQ(oracle.evictions(), 4u);
  EXPECT_EQ(oracle.memo_size(), 3u);

  // Survivors are exactly the last three inserts (seq 4, 5, 6)...
  (void)oracle.count_sorted(std::vector<double>(5, 0.25));
  (void)oracle.count_sorted(std::vector<double>(6, 0.25));
  (void)oracle.count_sorted(std::vector<double>(7, 0.25));
  EXPECT_EQ(oracle.hits(), 3u);
  EXPECT_EQ(oracle.misses(), 7u);
  // ...and the evicted oldest key misses and is re-stored.
  (void)oracle.count_sorted(std::vector<double>(1, 0.25));
  EXPECT_EQ(oracle.hits(), 3u);
  EXPECT_EQ(oracle.misses(), 8u);
}

TEST(BinCountOracleTest, EvictedEntriesAreRecomputedCorrectly) {
  constexpr std::size_t kLimit = 4;
  BinCountOracle oracle(unit_model(), {}, kLimit);
  const std::vector<double> probe{0.9, 0.6, 0.6, 0.2};
  const BinCountBounds first = oracle.count_sorted(probe);
  for (int i = 1; i <= 50; ++i) {
    (void)oracle.count_sorted(std::vector<double>(static_cast<std::size_t>(i), 0.3));
  }
  const BinCountBounds again = oracle.count_sorted(probe);
  EXPECT_EQ(again.lower, first.lower);
  EXPECT_EQ(again.upper, first.upper);
  EXPECT_GT(oracle.evictions(), 0u);
}

}  // namespace
}  // namespace dbp
