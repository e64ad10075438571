#include "opt/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

#include "core/arena.hpp"
#include "opt/bin_count.hpp"
#include "support/flat_bin_count.hpp"
#include "witness_fixtures.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

/// Brute-force optimum by trying all assignments (tiny n only).
std::size_t brute_force_bins(const std::vector<double>& sizes,
                             const CostModel& model) {
  const std::size_t n = sizes.size();
  std::size_t best = n;
  std::vector<double> levels;
  const auto recurse = [&](auto&& self, std::size_t index) -> void {
    if (levels.size() >= best) return;
    if (index == n) {
      best = std::min(best, levels.size());
      return;
    }
    for (std::size_t b = 0; b < levels.size(); ++b) {
      if (model.fits(sizes[index], model.bin_capacity - levels[b])) {
        levels[b] += sizes[index];
        self(self, index + 1);
        levels[b] -= sizes[index];
      }
    }
    levels.push_back(sizes[index]);
    self(self, index + 1);
    levels.pop_back();
  };
  if (n > 0) recurse(recurse, 0);
  return n == 0 ? 0 : best;
}

TEST(ExactTest, TrivialCases) {
  EXPECT_EQ(exact_bin_count({}, unit_model()).upper, 0u);
  const std::vector<double> one{0.4};
  const ExactPackingResult result = exact_bin_count(one, unit_model());
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.upper, 1u);
}

TEST(ExactTest, BeatsFfdOnKnownHardInstance) {
  // FFD uses 3 bins; optimum is 2: {0.4, 0.35, 0.25} {0.45, 0.3, 0.25}.
  const std::vector<double> sizes{0.45, 0.4, 0.35, 0.3, 0.25, 0.25};
  const std::size_t ffd = first_fit_decreasing(sizes, unit_model());
  const ExactPackingResult result = exact_bin_count(sizes, unit_model());
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.upper, 2u);
  EXPECT_LE(result.upper, ffd);
}

TEST(ExactTest, MatchesBruteForceOnRandomInstances) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> size_dist(0.05, 0.95);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> sizes;
    const std::size_t n = 3 + rng() % 8;  // up to 10 items
    for (std::size_t i = 0; i < n; ++i) sizes.push_back(size_dist(rng));
    const ExactPackingResult result = exact_bin_count(sizes, unit_model());
    ASSERT_TRUE(result.proven);
    EXPECT_EQ(result.upper, brute_force_bins(sizes, unit_model()))
        << "trial " << trial;
    EXPECT_EQ(result.lower, result.upper);
  }
}

TEST(ExactTest, PerfectFillsWithRoundingResiduesPackTight) {
  // Nine decimal sizes summing to 3 that fill three bins exactly:
  // {0.7, 0.15, 0.15}, {0.65, 0.25, 0.1}, {0.55, 0.25, 0.2}. The fills
  // leave rounding residues of either sign, within the fit tolerance. An
  // area prune that counts open bins at their bare residual sees a
  // positive residue as volume no open bin can take, forces one more bin
  // and "proves" 4.
  const std::vector<double> sizes{0.7, 0.65, 0.55, 0.25, 0.25, 0.2, 0.15, 0.15, 0.1};
  ASSERT_EQ(brute_force_bins(sizes, unit_model()), 3u);
  const ExactPackingResult result = exact_bin_count(sizes, unit_model());
  EXPECT_LE(result.lower, 3u);
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.upper, 3u);
}

TEST(ExactTest, MatchesBruteForceOnDecimalCatalog) {
  // Sizes on a 0.05 grid fill bins exactly, and every exact fill leaves a
  // rounding residue: the search and the whole chain must stay sound under
  // CostModel::fits, flat and RLE alike.
  const CostModel model = unit_model();
  std::mt19937_64 rng(1);
  BinCountScratch scratch;
  for (int trial = 0; trial < 8'000; ++trial) {
    std::vector<double> sizes;
    const std::size_t n = 3 + rng() % 8;  // up to 10 items
    for (std::size_t i = 0; i < n; ++i) {
      sizes.push_back(0.05 * static_cast<double>(1 + rng() % 14));  // 0.05..0.70
    }
    const std::size_t optimum = brute_force_bins(sizes, model);
    const ExactPackingResult result = exact_bin_count(sizes, model);
    ASSERT_TRUE(result.proven) << "trial " << trial;
    ASSERT_EQ(result.upper, optimum) << "trial " << trial;
    const BinCountBounds flat = optimal_bin_count(sizes, model);
    ASSERT_LE(flat.lower, optimum) << "trial " << trial;
    ASSERT_GE(flat.upper, optimum) << "trial " << trial;
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    const BinCountBounds rle =
        optimal_bin_count_rle(rle_from_sorted(sizes), model, {}, scratch);
    ASSERT_LE(rle.lower, optimum) << "trial " << trial;
    ASSERT_GE(rle.upper, optimum) << "trial " << trial;
  }
}

TEST(ExactTest, ProvesADenseEpochWithinTheDefaultBudget) {
  // A 20-size epoch snapshot from servebench's opt_dense_epochs stream: L2
  // is 5 while min(FFD, BFD) and the minimum-bin-slack witness are 6. An
  // area prune that counts capacity no remaining item fits as spare never
  // cuts a branch that has already wasted more than the total slack, and
  // the search uses up its budget at [5, 6].
  const std::vector<double> sizes{
      0.46199923905757112,  0.41873479919668632,  0.39713670250615674,
      0.38438132503459133,  0.3815657907357653,   0.33689384113839688,
      0.32237908702751017,  0.30364170478396663,  0.29035731896276656,
      0.27630812393550752,  0.2500218742304362,   0.21647848107790896,
      0.18973939958074082,  0.1893551912523318,   0.1659921904507847,
      0.16471762486288385,  0.070477615768579333, 0.065703133307765227,
      0.061770794976926849, 0.050094778546414663};
  const CostModel model = unit_model();
  ASSERT_EQ(l2_lower_bound_sorted(sizes, model), 5u);
  ASSERT_EQ(std::min(first_fit_decreasing_sorted(sizes, model),
                     best_fit_decreasing_sorted(sizes, model)),
            6u);
  ASSERT_EQ(optimal_bin_count(sizes, model, witness_fixtures::witness_only()).upper,
            6u);
  MonotonicArena arena;
  const ExactPackingResult result =
      exact_bin_count_bounded(sizes, model, 5, 6, ExactPackingOptions{}, arena);
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.lower, 6u);
  EXPECT_EQ(result.upper, 6u);
  EXPECT_LT(result.nodes, ExactPackingOptions{}.node_budget);
}

TEST(ExactTest, WitnessBoundsAreSoundAgainstBruteForce) {
  // The bin-count chain with a 1-node search budget returns the minimum-
  // bin-slack witness's count as its upper bound whenever that beats
  // min(FFD, BFD); no bound may pass the true optimum, flat or RLE, and
  // the full chain must land on it.
  const CostModel model = unit_model();
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> size_dist(0.05, 0.7);
  const BinCountOptions witness_only = witness_fixtures::witness_only();
  BinCountScratch scratch;
  int witness_closed = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<double> sizes;
    const std::size_t n = 3 + rng() % 8;  // up to 10 items
    for (std::size_t i = 0; i < n; ++i) {
      // Alternate continuous and tie-heavy multisets.
      sizes.push_back(trial % 2 == 0 ? size_dist(rng)
                                     : 0.05 * static_cast<double>(1 + rng() % 12));
    }
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    const std::size_t optimum = brute_force_bins(sizes, model);
    const BinCountBounds flat = optimal_bin_count(sizes, model, witness_only);
    const BinCountBounds rle =
        optimal_bin_count_rle(rle_from_sorted(sizes), model, witness_only, scratch);
    EXPECT_LE(flat.lower, optimum) << "trial " << trial;
    EXPECT_GE(flat.upper, optimum) << "trial " << trial;
    EXPECT_EQ(rle.lower, flat.lower) << "trial " << trial;
    EXPECT_EQ(rle.upper, flat.upper) << "trial " << trial;
    const BinCountBounds full = optimal_bin_count(sizes, model);
    EXPECT_TRUE(full.exact()) << "trial " << trial;
    EXPECT_EQ(full.upper, optimum) << "trial " << trial;
    if (flat.upper < std::min(first_fit_decreasing_sorted(sizes, model),
                              best_fit_decreasing_sorted(sizes, model))) {
      ++witness_closed;
    }
  }
  // The stage must actually have run and beaten the heuristics.
  EXPECT_GT(witness_closed, 0);
}

TEST(ExactTest, BudgetAbortKeepsSoundBounds) {
  // A large awkward instance with a tiny node budget: the search aborts but
  // the bounds must still sandwich the FFD solution.
  std::vector<double> sizes;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> size_dist(0.2, 0.5);
  for (int i = 0; i < 40; ++i) sizes.push_back(size_dist(rng));
  ExactPackingOptions options;
  options.node_budget = 10;
  const ExactPackingResult result = exact_bin_count(sizes, unit_model(), options);
  EXPECT_LE(result.lower, result.upper);
  EXPECT_GE(result.lower, l2_lower_bound(sizes, unit_model()));
  EXPECT_LE(result.upper, first_fit_decreasing(sizes, unit_model()));
  // A 10-node budget cannot prove optimality unless bounds met initially.
  if (!result.proven) {
    EXPECT_GT(result.nodes, 10u);
  }
}

TEST(ExactTest, PerfectFitDominanceStillOptimal) {
  // Exact-fill chains exercise the dominance rule.
  const std::vector<double> sizes{0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25};
  const ExactPackingResult result = exact_bin_count(sizes, unit_model());
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.upper, 3u);
}

TEST(ExactTest, AllItemsHuge) {
  const std::vector<double> sizes(7, 0.8);
  const ExactPackingResult result = exact_bin_count(sizes, unit_model());
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.upper, 7u);
}

}  // namespace
}  // namespace dbp
