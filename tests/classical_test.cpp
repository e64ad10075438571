// The flat FFD/BFD kernels (support/flat_bin_count.hpp) on hand-checked
// packings: the per-item specification the library's `_rle` kernels replay.
#include <gtest/gtest.h>

#include <vector>

#include "core/error.hpp"
#include "support/flat_bin_count.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

TEST(FfdTest, EmptyInput) {
  EXPECT_EQ(first_fit_decreasing({}, unit_model()), 0u);
  EXPECT_EQ(best_fit_decreasing({}, unit_model()), 0u);
}

TEST(FfdTest, SingleItem) {
  const std::vector<double> sizes{0.7};
  EXPECT_EQ(first_fit_decreasing(sizes, unit_model()), 1u);
}

TEST(FfdTest, PerfectPairs) {
  const std::vector<double> sizes{0.6, 0.4, 0.7, 0.3};
  EXPECT_EQ(first_fit_decreasing(sizes, unit_model()), 2u);
  EXPECT_EQ(best_fit_decreasing(sizes, unit_model()), 2u);
}

TEST(FfdTest, UnsortedInputHandled) {
  const std::vector<double> sizes{0.2, 0.9, 0.3, 0.8, 0.1};
  // Descending: .9 .8 .3 .2 .1 -> bins: [.9 .1], [.8 .2], [.3] = 3.
  EXPECT_EQ(first_fit_decreasing(sizes, unit_model()), 3u);
}

TEST(FfdTest, ClassicFfdExample) {
  // All items slightly above 1/4: three per bin.
  const std::vector<double> sizes(12, 0.26);
  EXPECT_EQ(first_fit_decreasing(sizes, unit_model()), 4u);
}

TEST(FfdTest, ToleranceAllowsExactFills) {
  // 10 x 0.1 has fp sum 1 + ulp; must still be one bin.
  const std::vector<double> sizes(10, 0.1);
  EXPECT_EQ(first_fit_decreasing(sizes, unit_model()), 1u);
  EXPECT_EQ(best_fit_decreasing(sizes, unit_model()), 1u);
}

TEST(FfdTest, CapacityScaling) {
  const CostModel model{2.0, 1.0, 1e-9};
  const std::vector<double> sizes{1.5, 0.5, 1.0, 1.0};
  EXPECT_EQ(first_fit_decreasing(sizes, model), 2u);
}

TEST(FfdTest, RejectsOversizeAndNonPositive) {
  EXPECT_THROW((void)first_fit_decreasing(std::vector<double>{1.2}, unit_model()),
               PreconditionError);
  EXPECT_THROW((void)first_fit_decreasing(std::vector<double>{0.0}, unit_model()),
               PreconditionError);
  EXPECT_THROW((void)best_fit_decreasing(std::vector<double>{-0.1}, unit_model()),
               PreconditionError);
}

TEST(FfdTest, SortedVariantRequiresSortedInput) {
  const std::vector<double> unsorted{0.1, 0.9};
  EXPECT_THROW((void)first_fit_decreasing_sorted(unsorted, unit_model()),
               PreconditionError);
  EXPECT_THROW((void)best_fit_decreasing_sorted(unsorted, unit_model()),
               PreconditionError);
}

TEST(FfdTest, SuboptimalOnKnownInstance) {
  // FFD/BFD pack {.4 .4}{.3 .3 .3}{.3} = 3 bins while the optimum is
  // {.4 .3 .3}{.4 .3 .3} = 2 — the classic decreasing-heuristic gap the
  // exact solver must close (see exact_test).
  const std::vector<double> sizes{0.4, 0.4, 0.3, 0.3, 0.3, 0.3};
  EXPECT_EQ(first_fit_decreasing(sizes, unit_model()), 3u);
  EXPECT_EQ(best_fit_decreasing(sizes, unit_model()), 3u);
}

TEST(FfdTest, ManySmallItems) {
  const std::vector<double> sizes(1000, 0.001);
  EXPECT_EQ(first_fit_decreasing(sizes, unit_model()), 1u);
  const std::vector<double> sizes2(2001, 0.001);
  EXPECT_EQ(first_fit_decreasing(sizes2, unit_model()), 3u);
}

}  // namespace
}  // namespace dbp
