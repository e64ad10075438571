// The flat L1/L2 bounds (support/flat_bin_count.hpp) on hand-checked
// multisets: the per-item specification l2_lower_bound_rle replays.
#include <gtest/gtest.h>

#include <vector>

#include "core/error.hpp"
#include "support/flat_bin_count.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

TEST(L1Test, EmptyIsZero) {
  EXPECT_EQ(l1_lower_bound({}, unit_model()), 0u);
}

TEST(L1Test, CeilOfTotalSize) {
  EXPECT_EQ(l1_lower_bound(std::vector<double>{0.5, 0.5, 0.1}, unit_model()), 2u);
  EXPECT_EQ(l1_lower_bound(std::vector<double>{0.2}, unit_model()), 1u);
  EXPECT_EQ(l1_lower_bound(std::vector<double>{1.0, 1.0}, unit_model()), 2u);
}

TEST(L1Test, ToleratesFloatNoise) {
  // 10 x 0.1 sums to 1 + ulp; L1 must say 1, not 2.
  EXPECT_EQ(l1_lower_bound(std::vector<double>(10, 0.1), unit_model()), 1u);
  EXPECT_EQ(l1_lower_bound(std::vector<double>(30, 0.1), unit_model()), 3u);
}

TEST(L2Test, DominatesL1OnLargeItems) {
  // Three items of 0.6: L1 = ceil(1.8) = 2, but no two fit together: L2 = 3.
  const std::vector<double> sizes{0.6, 0.6, 0.6};
  EXPECT_EQ(l1_lower_bound(sizes, unit_model()), 2u);
  EXPECT_EQ(l2_lower_bound(sizes, unit_model()), 3u);
}

TEST(L2Test, MixedLargeAndSmall) {
  // 0.9-items pair with nothing >= 0.2; alpha = 0.2 separates them.
  const std::vector<double> sizes{0.9, 0.9, 0.2, 0.2, 0.2};
  EXPECT_EQ(l2_lower_bound(sizes, unit_model()), 3u);
}

TEST(L2Test, EqualsL1ForTinyItems) {
  const std::vector<double> sizes(35, 0.1);
  EXPECT_EQ(l2_lower_bound(sizes, unit_model()), 4u);
}

TEST(L2Test, NeverExceedsFfd) {
  // Soundness smoke on assorted size mixes.
  const std::vector<std::vector<double>> cases{
      {0.5, 0.5, 0.5, 0.5},
      {0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1},
      {0.51, 0.51, 0.49, 0.49},
      {0.34, 0.34, 0.34, 0.33, 0.33, 0.33},
      {0.99, 0.01, 0.5},
  };
  for (const auto& sizes : cases) {
    EXPECT_LE(l2_lower_bound(sizes, unit_model()),
              first_fit_decreasing(sizes, unit_model()));
    EXPECT_GE(l2_lower_bound(sizes, unit_model()),
              l1_lower_bound(sizes, unit_model()));
  }
}

TEST(L2Test, HalfPlusEpsilonItems) {
  const std::vector<double> sizes{0.51, 0.51, 0.51, 0.51, 0.51};
  EXPECT_EQ(l2_lower_bound(sizes, unit_model()), 5u);
}

TEST(L2Test, SortedVariantValidatesOrder) {
  const std::vector<double> unsorted{0.1, 0.9};
  EXPECT_THROW((void)l2_lower_bound_sorted(unsorted, unit_model()), PreconditionError);
}

TEST(L2Test, RejectsNonPositiveSizes) {
  EXPECT_THROW((void)l1_lower_bound(std::vector<double>{0.0}, unit_model()),
               PreconditionError);
}

TEST(L2Test, CapacityAware) {
  const CostModel model{10.0, 1.0, 1e-9};
  const std::vector<double> sizes{6.0, 6.0, 6.0};
  EXPECT_EQ(l2_lower_bound(sizes, model), 3u);
}

}  // namespace
}  // namespace dbp
