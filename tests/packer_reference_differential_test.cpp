// Differential tests for the flat-index strategy rewrites: the optimized
// "first-fit" (segment-tree threshold descent) and "best-fit" (dense
// position vectors + flat sorted residual index) against the seed's
// reference strategies, kept as test oracles in
// support/reference_strategies.hpp (the seed implementation's decision
// procedure over node-based and hashed indexes). Over chaotic high-churn
// workloads the two must make bit-identical decisions — same assignment,
// same bin count, same exact total cost — and the optimized packers must
// round-trip save_snapshot/restore_snapshot byte-exactly mid-run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "algo/factory.hpp"
#include "algo/packer.hpp"
#include "core/binary_io.hpp"
#include "core/types.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "support/reference_strategies.hpp"
#include "workload/random_instance.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

/// Workload shapes chosen to stress the index structures differently:
/// steady poisson churn, synchronized burst arrivals (many simultaneous
/// opens), and a near-capacity mix where almost nothing shares a bin.
enum class Shape { kPoisson, kBursts, kNearCapacity };

Instance make_instance(Shape shape, std::uint64_t seed, std::size_t items) {
  RandomInstanceConfig config;
  config.item_count = items;
  switch (shape) {
    case Shape::kPoisson:
      config.arrival.rate = 4.0;
      break;
    case Shape::kBursts:
      config.arrival.kind = ArrivalModel::Kind::kBursts;
      config.arrival.burst_size = 16;
      config.arrival.burst_gap = 0.5;
      break;
    case Shape::kNearCapacity:
      config.arrival.rate = 8.0;
      config.size.min_fraction = 0.55;
      config.size.max_fraction = 0.95;
      break;
  }
  return generate_random_instance(config, seed);
}

class PackerReferenceDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::string, Shape, int>> {
 protected:
  [[nodiscard]] std::string optimized_name() const {
    return std::get<0>(GetParam());
  }
  [[nodiscard]] std::unique_ptr<Packer> reference_packer() const {
    return make_reference_packer(optimized_name(), unit_model());
  }
  [[nodiscard]] Instance instance() const {
    return make_instance(std::get<1>(GetParam()),
                         17 * static_cast<std::uint64_t>(std::get<2>(GetParam())) + 1,
                         600);
  }
};

TEST_P(PackerReferenceDifferentialTest, DecisionsAreBitIdentical) {
  const Instance inst = instance();
  const SimulationResult opt = simulate(inst, optimized_name(), unit_model());
  const SimulationResult ref = simulate(inst, *reference_packer());

  EXPECT_EQ(opt.assignment, ref.assignment)
      << optimized_name() << " diverged from " << ref.algorithm;
  EXPECT_EQ(opt.bins_opened, ref.bins_opened);
  EXPECT_EQ(opt.max_open_bins, ref.max_open_bins);
  // Same placements in the same order integrate to the same cost bit for
  // bit — both runs execute the identical FP accounting sequence.
  EXPECT_EQ(opt.total_cost, ref.total_cost);
  ASSERT_EQ(opt.bin_usage.size(), ref.bin_usage.size());
  for (std::size_t b = 0; b < opt.bin_usage.size(); ++b) {
    EXPECT_EQ(opt.bin_usage[b].opened, ref.bin_usage[b].opened) << "bin " << b;
    EXPECT_EQ(opt.bin_usage[b].closed, ref.bin_usage[b].closed) << "bin " << b;
  }
}

TEST_P(PackerReferenceDifferentialTest, MidRunSnapshotRoundTripsByteExactly) {
  const Instance inst = instance();
  const std::vector<Event> events = build_event_sequence(inst);
  const std::span<const Event> all(events);
  const std::span<const Event> prefix = all.first(all.size() / 2);
  const std::span<const Event> suffix = all.subspan(all.size() / 2);

  // Run the optimized packer over the first half and checkpoint it.
  std::unique_ptr<Packer> original = make_packer(optimized_name(), unit_model());
  original->replay(inst, prefix);
  ByteWriter mid;
  original->save_snapshot(mid);

  // Restore into a fresh packer; its immediate re-save must reproduce the
  // checkpoint byte for byte (no state is lost or renormalized).
  std::unique_ptr<Packer> restored = make_packer(optimized_name(), unit_model());
  ByteReader reader(mid.data());
  restored->restore_snapshot(reader);
  ByteWriter resaved;
  restored->save_snapshot(resaved);
  EXPECT_EQ(mid.data(), resaved.data())
      << optimized_name() << ": restore+save changed the snapshot bytes";

  // Both continuations — and the reference strategy's straight run over the
  // whole sequence — must agree on the final bin mechanics exactly.
  original->replay(inst, suffix);
  restored->replay(inst, suffix);
  ByteWriter end_original;
  ByteWriter end_restored;
  original->save_snapshot(end_original);
  restored->save_snapshot(end_restored);
  EXPECT_EQ(end_original.data(), end_restored.data())
      << optimized_name() << ": the restored packer diverged after resuming";

  std::unique_ptr<Packer> reference = reference_packer();
  reference->replay(inst, all);
  EXPECT_EQ(original->bins().total_bins_opened(),
            reference->bins().total_bins_opened());
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<std::string, Shape, int>>& info) {
  std::string id = std::get<0>(info.param);
  for (char& c : id) {
    if (c == '-') c = '_';
  }
  switch (std::get<1>(info.param)) {
    case Shape::kPoisson: id += "_poisson"; break;
    case Shape::kBursts: id += "_bursts"; break;
    case Shape::kNearCapacity: id += "_nearcap"; break;
  }
  id += "_seed" + std::to_string(std::get<2>(info.param));
  return id;
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, PackerReferenceDifferentialTest,
    ::testing::Combine(::testing::Values(std::string("first-fit"),
                                         std::string("best-fit")),
                       ::testing::Values(Shape::kPoisson, Shape::kBursts,
                                         Shape::kNearCapacity),
                       ::testing::Values(1, 2, 3)),
    case_name);

}  // namespace
}  // namespace dbp
