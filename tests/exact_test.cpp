#include "opt/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

#include "opt/bin_count.hpp"
#include "opt/classical.hpp"
#include "opt/lower_bounds.hpp"
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
