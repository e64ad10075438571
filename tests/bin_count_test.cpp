#include "opt/bin_count.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/error.hpp"
#include "opt/classical.hpp"
#include "opt/lower_bounds.hpp"
#include "support/flat_bin_count.hpp"
#include "witness_fixtures.hpp"
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

TEST(BinCountTest, PerfectFillsWithRoundingResiduesStayBracketed) {
  // Three exact fills — {0.7, 0.15, 0.15}, {0.65, 0.25, 0.1},
  // {0.55, 0.25, 0.2} — whose rounding residues are within the fit
  // tolerance. Every entry point of the chain must keep 3 in its bounds;
  // a search prune blind to the tolerance certified [4, 4].
  const std::vector<double> sizes{0.7, 0.65, 0.55, 0.25, 0.25, 0.2, 0.15, 0.15, 0.1};
  const std::vector<SizeRun> runs = rle_from_sorted(sizes);
  BinCountScratch scratch;
  BinCountOracle oracle(unit_model());
  for (const BinCountBounds bounds :
       {optimal_bin_count(sizes, unit_model()),
        optimal_bin_count_rle(runs, unit_model(), {}, scratch), oracle.count_rle(runs)}) {
    EXPECT_LE(bounds.lower, 3u);
    EXPECT_GE(bounds.upper, 3u);
  }
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
  const BinCountBounds first = oracle.count_rle(rle_from_sorted(sorted));
  const BinCountBounds second = oracle.count_rle(rle_from_sorted(sorted));
  EXPECT_EQ(first.lower, second.lower);
  EXPECT_EQ(first.upper, second.upper);
  EXPECT_EQ(oracle.hits(), 1u);
  EXPECT_EQ(oracle.misses(), 1u);
  EXPECT_EQ(oracle.memo_size(), 1u);
}

TEST(BinCountOracleTest, DistinguishesDifferentMultisets) {
  BinCountOracle oracle(unit_model());
  (void)oracle.count_rle(rle_from_sorted(std::vector<double>{0.5, 0.5}));
  (void)oracle.count_rle(rle_from_sorted(std::vector<double>{0.5, 0.5, 0.5}));
  EXPECT_EQ(oracle.misses(), 2u);
}

TEST(BinCountOracleTest, AgreesWithDirectComputation) {
  BinCountOracle oracle(unit_model());
  const std::vector<double> sorted{0.9, 0.6, 0.6, 0.2, 0.2, 0.1};
  const BinCountBounds via_oracle = oracle.count_rle(rle_from_sorted(sorted));
  const BinCountBounds direct = optimal_bin_count(sorted, unit_model());
  EXPECT_EQ(via_oracle.lower, direct.lower);
  EXPECT_EQ(via_oracle.upper, direct.upper);
}

/// The flat optimal_bin_count (the `_sorted` kernels and the per-item
/// witness) and the RLE entry point (the `_rle` kernels and the run-count
/// witness on a reused scratch) are independent implementations that must
/// agree exactly.
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

// The chain compares only max(L1, L2) and min(FFD, BFD); each `_rle` kernel
// must also match its flat twin on its own, so a kernel that loses to the
// other one cannot hide behind the min.
TEST(BinCountRleTest, EachKernelMatchesItsFlatTwin) {
  const CostModel model = unit_model();
  BinCountScratch scratch;
  Rng rng(31);
  for (int round = 0; round < 60; ++round) {
    std::vector<double> sizes;
    const std::size_t n = 1 + rng.uniform_int(0, 150);
    for (std::size_t i = 0; i < n; ++i) {
      sizes.push_back(rng.bernoulli(0.5)
                          ? rng.uniform(0.02, 0.9)
                          : 0.05 * static_cast<double>(rng.uniform_int(1, 18)));
    }
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    const std::vector<SizeRun> runs = rle_from_sorted(sizes);
    scratch.arena.reset();
    EXPECT_EQ(first_fit_decreasing_rle(runs, model, scratch.ffd_tree),
              first_fit_decreasing_sorted(sizes, model))
        << "round " << round;
    EXPECT_EQ(best_fit_decreasing_rle(runs, model, scratch.bfd_residuals),
              best_fit_decreasing_sorted(sizes, model))
        << "round " << round;
    EXPECT_EQ(l2_lower_bound_rle(runs, model, scratch.arena),
              l2_lower_bound_sorted(sizes, model))
        << "round " << round;
  }
}

using witness_fixtures::witness_only;

TEST(BinCountRleTest, MatchesFlatWithWitnessOnTieHeavyCatalogs) {
  // Small catalogs with large counts: the flat witness skips equal sizes
  // item by item, the RLE witness tries each run once per depth, and both
  // must count the same search nodes and pack the same bins.
  const CostModel model = unit_model();
  BinCountOptions bounded_search;
  bounded_search.exact.node_budget = 20'000;
  BinCountScratch scratch;
  Rng rng(29);
  const std::vector<std::vector<double>> catalogs = {
      {0.6, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05},
      {0.47, 0.41, 0.31, 0.29, 0.23, 0.17, 0.13, 0.11, 0.07},
      {0.5, 0.34, 0.33, 0.26, 0.25, 0.24, 0.16}};
  int round = 0;
  int gaps = 0;
  for (const std::vector<double>& catalog : catalogs) {
    for (int i = 0; i < 20; ++i, ++round) {
      std::vector<double> sizes;
      for (const double size : catalog) {
        sizes.insert(sizes.end(), rng.uniform_int(0, 30), size);
      }
      if (sizes.empty()) continue;
      std::sort(sizes.begin(), sizes.end(), std::greater<>());
      if (l2_lower_bound_sorted(sizes, model) <
          std::min(first_fit_decreasing_sorted(sizes, model),
                   best_fit_decreasing_sorted(sizes, model))) {
        ++gaps;  // the witness runs on this multiset
      }
      expect_rle_matches_flat(sizes, witness_only(), scratch, round);
      expect_rle_matches_flat(sizes, bounded_search, scratch, round);
    }
  }
  EXPECT_GT(gaps, 10);
}

TEST(BinCountRleTest, MatchesFlatWhereTheWitnessCapBinds) {
  const CostModel model = unit_model();
  BinCountScratch scratch;
  // The first bin's only exact fill is reached at search node `nodes`. The
  // opener 0.625 leaves 0.375. Fillers just above 0.1875 — `distinct`
  // sizes plus one run of `copies` equal ones — each fit alone, one node
  // per size: no two fit together and nothing fits after one. Then q and
  // 0.375 - q fill the bin exactly. Every later bin takes five fillers, so
  // the witness packs 1 + fillers / 5 bins when it reaches the exact fill
  // and one more when the cap stops it first. min(FFD, BFD) is one more
  // still, so `upper` shows which: the fill at node kWitnessNodesPerBin
  // counts, the one a node later does not.
  const double q = 0.1875 + 1.0 / 1024.0;
  for (std::uint64_t nodes = kWitnessNodesPerBin - 1; nodes <= kWitnessNodesPerBin + 1;
       ++nodes) {
    const std::uint64_t distinct = nodes - 3;
    const std::uint64_t copies = 5 - distinct % 5;  // fillers: a multiple of 5
    std::vector<double> sizes{0.625};
    sizes.insert(sizes.end(), copies,
                 q + std::ldexp(static_cast<double>(distinct + 1), -20));
    for (std::uint64_t i = distinct; i >= 1; --i) {
      sizes.push_back(q + std::ldexp(static_cast<double>(i), -20));
    }
    sizes.push_back(q);
    sizes.push_back(0.375 - q);
    const std::size_t reached = 1 + (distinct + copies) / 5;
    const BinCountBounds flat = optimal_bin_count(sizes, model, witness_only());
    EXPECT_EQ(flat.upper, nodes <= kWitnessNodesPerBin ? reached : reached + 1)
        << "exact fill at node " << nodes;
    expect_rle_matches_flat(sizes, witness_only(), scratch, static_cast<int>(nodes));
  }
  // Continuous sizes: no fill lands within the tolerance, so every bin with
  // enough items left ends its search at the cap.
  Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> sizes;
    const std::size_t n = 30 + rng.uniform_int(0, 120);
    for (std::size_t i = 0; i < n; ++i) sizes.push_back(rng.uniform(0.05, 0.5));
    expect_rle_matches_flat(sizes, witness_only(), scratch, 1000 + round);
  }
}

TEST(BinCountWitnessTest, ClosesAGapTheSearchAloneCannot) {
  const CostModel model = unit_model();
  const std::vector<double> sizes = witness_fixtures::closes_at_l2();
  ASSERT_EQ(l2_lower_bound_sorted(sizes, model), 13u);
  ASSERT_EQ(std::min(first_fit_decreasing_sorted(sizes, model),
                     best_fit_decreasing_sorted(sizes, model)),
            14u);
  // Without the witness, the search starts from [L2, min(FFD, BFD)] and
  // aborts at its default budget with both bounds where they started.
  const ExactPackingResult search = exact_bin_count(sizes, model);
  EXPECT_FALSE(search.proven);
  EXPECT_EQ(search.lower, 13u);
  EXPECT_EQ(search.upper, 14u);
  // With it, the chain returns {L2, L2} without searching: the same answer
  // under the default budget and under one the search cannot use.
  BinCountScratch scratch;
  for (const BinCountOptions& options : {BinCountOptions{}, witness_only()}) {
    const BinCountBounds flat = optimal_bin_count(sizes, model, options);
    EXPECT_EQ(flat.lower, 13u);
    EXPECT_EQ(flat.upper, 13u);
    const BinCountBounds rle =
        optimal_bin_count_rle(rle_from_sorted(sizes), model, options, scratch);
    EXPECT_EQ(rle.lower, 13u);
    EXPECT_EQ(rle.upper, 13u);
  }
  // The stage belongs to the exact solver: without it the bounds stay
  // L2 and min(FFD, BFD).
  BinCountOptions heuristics_only;
  heuristics_only.use_exact_solver = false;
  const BinCountBounds heuristic = optimal_bin_count(sizes, model, heuristics_only);
  EXPECT_EQ(heuristic.lower, 13u);
  EXPECT_EQ(heuristic.upper, 14u);
}

TEST(BinCountWitnessTest, GapTheWitnessMissesFallsThroughToTheSearch) {
  const std::vector<double> sizes = witness_fixtures::falls_through();
  const BinCountBounds witness = optimal_bin_count(sizes, unit_model(), witness_only());
  EXPECT_EQ(witness.lower, 11u);
  EXPECT_EQ(witness.upper, 12u);
  const BinCountBounds searched = optimal_bin_count(sizes, unit_model());
  EXPECT_EQ(searched.lower, 11u);
  EXPECT_EQ(searched.upper, 11u);
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
    (void)oracle.count_rle(rle_from_sorted(sorted));
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
    (void)oracle.count_rle(rle_from_sorted(sorted));
  }
  // The most recent key must have survived the FIFO trims.
  const std::uint64_t hits_before = oracle.hits();
  (void)oracle.count_rle(rle_from_sorted(std::vector<double>(100, 0.25)));
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
    (void)oracle.count_rle(rle_from_sorted(std::vector<double>(k, 0.25)));
  }
  EXPECT_EQ(oracle.misses(), 7u);
  EXPECT_EQ(oracle.hits(), 0u);
  EXPECT_EQ(oracle.evictions(), 4u);
  EXPECT_EQ(oracle.memo_size(), 3u);

  // Survivors are exactly the last three inserts (seq 4, 5, 6)...
  (void)oracle.count_rle(rle_from_sorted(std::vector<double>(5, 0.25)));
  (void)oracle.count_rle(rle_from_sorted(std::vector<double>(6, 0.25)));
  (void)oracle.count_rle(rle_from_sorted(std::vector<double>(7, 0.25)));
  EXPECT_EQ(oracle.hits(), 3u);
  EXPECT_EQ(oracle.misses(), 7u);
  // ...and the evicted oldest key misses and is re-stored.
  (void)oracle.count_rle(rle_from_sorted(std::vector<double>(1, 0.25)));
  EXPECT_EQ(oracle.hits(), 3u);
  EXPECT_EQ(oracle.misses(), 8u);
}

TEST(BinCountOracleTest, RunBudgetBoundsStoredKeys) {
  // Continuous-size keys are ~150 runs long. The entry limit alone would let
  // the memo hold 2^18 of them; the run budget evicts long before that.
  constexpr std::size_t kRuns = 150;
  constexpr std::size_t kKeys = 2 * BinCountOracle::kMemoRunBudget / kRuns;
  BinCountOptions options;
  options.use_exact_solver = false;  // the memo is under test, not the search
  BinCountOracle oracle(unit_model(), options);
  std::vector<SizeRun> key(kRuns);
  std::size_t peak_entries = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    for (std::size_t i = 0; i < kRuns; ++i) {
      key[i] = SizeRun{0.5 - 0.0025 * static_cast<double>(i) -
                           1e-9 * static_cast<double>(k),
                       1};
    }
    (void)oracle.count_rle(key);
    ASSERT_LE(oracle.stored_runs(), BinCountOracle::kMemoRunBudget) << "key " << k;
    ASSERT_EQ(oracle.stored_runs(), oracle.memo_size() * kRuns) << "key " << k;
    peak_entries = std::max(peak_entries, oracle.memo_size());
  }
  EXPECT_EQ(oracle.misses(), kKeys);
  EXPECT_GT(oracle.evictions(), 0u);
  EXPECT_LT(peak_entries, BinCountOracle::kMemoLimit);
  // FIFO halving, not a wipe: the newest key survives and hits.
  EXPECT_GT(oracle.memo_size(), BinCountOracle::kMemoRunBudget / kRuns / 4);
  (void)oracle.count_rle(key);
  EXPECT_EQ(oracle.hits(), 1u);
}

TEST(BinCountOracleTest, EvictedEntriesAreRecomputedCorrectly) {
  constexpr std::size_t kLimit = 4;
  BinCountOracle oracle(unit_model(), {}, kLimit);
  const std::vector<double> probe{0.9, 0.6, 0.6, 0.2};
  const BinCountBounds first = oracle.count_rle(rle_from_sorted(probe));
  for (int i = 1; i <= 50; ++i) {
    (void)oracle.count_rle(
        rle_from_sorted(std::vector<double>(static_cast<std::size_t>(i), 0.3)));
  }
  const BinCountBounds again = oracle.count_rle(rle_from_sorted(probe));
  EXPECT_EQ(again.lower, first.lower);
  EXPECT_EQ(again.upper, first.upper);
  EXPECT_GT(oracle.evictions(), 0u);
}

}  // namespace
}  // namespace dbp
