#include "algo/adaptive_mff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/binary_io.hpp"
#include "core/error.hpp"
#include "core/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/random_instance.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

TEST(AdaptiveMffTest, StartsAtPaperDefaultK8) {
  AdaptiveMffPacker packer(unit_model());
  EXPECT_DOUBLE_EQ(packer.mu_estimate(), 1.0);
  EXPECT_DOUBLE_EQ(packer.threshold(), 1.0 / 8.0);  // mu_hat + 7 = 8
}

TEST(AdaptiveMffTest, EstimateTracksCompletedItems) {
  AdaptiveMffPacker packer(unit_model());
  packer.on_arrival({0, 0.0, 0.3});
  packer.on_arrival({1, 0.0, 0.3});
  EXPECT_DOUBLE_EQ(packer.mu_estimate(), 1.0);  // nothing completed yet
  packer.on_departure(0, 1.0);                   // length 1
  EXPECT_DOUBLE_EQ(packer.mu_estimate(), 1.0);
  packer.on_departure(1, 4.0);  // length 4 -> mu_hat = 4
  EXPECT_DOUBLE_EQ(packer.mu_estimate(), 4.0);
  EXPECT_DOUBLE_EQ(packer.threshold(), 1.0 / 11.0);
}

TEST(AdaptiveMffTest, ClassificationUsesCurrentThreshold) {
  AdaptiveMffPacker packer(unit_model());
  // With threshold 1/8, size 0.1 is "small"; learn mu = 15 -> threshold
  // 1/22, so a later 0.1 item is "large" and must not share the old small
  // pool bin even though it would fit.
  const BinId small_bin = packer.on_arrival({0, 0.0, 0.1});
  packer.on_arrival({1, 0.0, 0.05});  // keeps the small bin open
  packer.on_departure(0, 1.0);        // length 1
  packer.on_arrival({2, 1.0, 0.3});
  packer.on_departure(2, 16.0);  // length 15 -> mu_hat = 15
  ASSERT_GT(packer.mu_estimate(), 8.0);
  const BinId next = packer.on_arrival({3, 16.0, 0.1});
  EXPECT_NE(next, small_bin);  // now classified large: separate pool
}

TEST(AdaptiveMffTest, FactoryAndSimulatorIntegration) {
  RandomInstanceConfig config;
  config.item_count = 500;
  config.duration.max_length = 6.0;
  const Instance instance = generate_random_instance(config, 19);
  const SimulationResult result =
      simulate(instance, "adaptive-mff", unit_model());
  EXPECT_EQ(result.algorithm, "adaptive-mff");
  EXPECT_GT(result.bins_opened, 0u);
  EXPECT_NEAR(result.total_cost, result.total_cost_from_bins,
              1e-9 * result.total_cost);
}

TEST(AdaptiveMffTest, ConvergesTowardKnownMuBehaviour) {
  // After a long prefix, mu_hat equals the true mu, and the classification
  // threshold matches modified-first-fit-known-mu's.
  RandomInstanceConfig config;
  config.item_count = 2000;
  config.duration.min_length = 1.0;
  config.duration.max_length = 5.0;
  const Instance instance = generate_random_instance(config, 23);
  AdaptiveMffPacker packer(unit_model());
  const SimulationResult result = simulate(instance, packer);
  (void)result;
  EXPECT_NEAR(packer.mu_estimate(), 5.0, 0.2);
  EXPECT_NEAR(packer.threshold(), 1.0 / (packer.mu_estimate() + 7.0), 1e-12);
}

TEST(AdaptiveMffTest, CostStaysWithinFfGeneralBound) {
  // No bound is *proven* for the adaptive variant, but it interleaves two
  // First Fit pools, and empirically stays within the FF guarantee.
  RandomInstanceConfig config;
  config.item_count = 800;
  config.duration.max_length = 4.0;
  const Instance instance = generate_random_instance(config, 29);
  const SimulationResult adaptive =
      simulate(instance, "adaptive-mff", unit_model());
  const CostBounds closed = compute_cost_bounds(instance, unit_model());
  EXPECT_LE(adaptive.total_cost,
            (2.0 * 4.0 + 13.0) * std::max(closed.demand_lower, closed.span_lower));
}

TEST(AdaptiveMffTest, UnknownDepartureThrows) {
  AdaptiveMffPacker packer(unit_model());
  EXPECT_THROW(packer.on_departure(5, 1.0), PreconditionError);
}

TEST(AdaptiveMffTest, OverflowingEstimateClassifiesEveryItemLarge) {
  // Finite times whose completed lengths differ by more than the double
  // range give mu_hat = inf and threshold 0: every later item is large, and
  // the packer keeps serving instead of refusing the boundary.
  AdaptiveMffPacker packer(unit_model());
  const BinId small_bin = packer.on_arrival({0, 0.0, 0.01});
  packer.on_arrival({1, 0.0, 0.01});  // keeps the small bin open
  packer.on_departure(0, 1e-300);
  packer.on_arrival({2, 1e-300, 0.5});
  packer.on_departure(2, 1e300);
  ASSERT_EQ(packer.mu_estimate(), kTimeInfinity);
  EXPECT_EQ(packer.threshold(), 0.0);
  const BinId next = packer.on_arrival({3, 1e300, 0.01});
  EXPECT_NE(next, small_bin);  // large now, so not the small bin
  packer.on_departure(1, 1e300);
  packer.on_departure(3, 1e300);
  EXPECT_EQ(packer.bins().open_count(), 0u);
}

TEST(AdaptiveMffTest, RestoreChecksPersistedMuAgainstBoundary) {
  // The snapshot holds mu_hat and, in the size-classed part, the boundary it
  // moved. Restore derives the boundary from mu_hat, so a mu_hat that does
  // not match the persisted boundary, or one below 1, is refused.
  AdaptiveMffPacker packer(unit_model());
  packer.on_arrival({0, 0.0, 0.3});
  packer.on_arrival({1, 0.0, 0.3});
  packer.on_arrival({2, 0.0, 0.05});
  packer.on_departure(0, 1.0);
  packer.on_departure(1, 4.0);  // mu_hat = 4, boundary 1/11
  ByteWriter out;
  packer.save_snapshot(out);
  const std::vector<std::uint8_t> bytes = out.take();

  // The estimator's tail: mu_hat, min and max completed lengths.
  ByteWriter tail;
  tail.f64(4.0);
  tail.f64(1.0);
  tail.f64(4.0);
  const auto at = std::search(bytes.begin(), bytes.end(), tail.data().begin(),
                              tail.data().end());
  ASSERT_NE(at, bytes.end());
  const auto mu_offset = at - bytes.begin();

  {
    AdaptiveMffPacker restored(unit_model());
    ByteReader in(bytes);
    restored.restore_snapshot(in);
    EXPECT_DOUBLE_EQ(restored.mu_estimate(), 4.0);
    EXPECT_DOUBLE_EQ(restored.threshold(), 1.0 / 11.0);
  }
  for (const double mu : {5.0, 0.5}) {
    std::vector<std::uint8_t> tampered = bytes;
    ByteWriter value;
    value.f64(mu);
    std::copy(value.data().begin(), value.data().end(),
              tampered.begin() + mu_offset);
    AdaptiveMffPacker restored(unit_model());
    ByteReader in(tampered);
    EXPECT_THROW(restored.restore_snapshot(in), CorruptionError) << mu;
  }
}

}  // namespace
}  // namespace dbp
