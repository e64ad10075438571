// Differential testing: the optimized packers (segment trees, ordered
// residual indexes, size-classed pools) against straightforward O(n*m)
// reference implementations, item by item, on randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "workload/random_instance.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

/// Textbook reference: bins as a plain map from id to (level, items),
/// linear scans for every decision. With size classes, a bin only takes
/// items of the class it was opened for (Modified First Fit, Section 4.4,
/// and its harmonic and adaptive variants).
class ReferencePacker {
 public:
  enum class Policy { kFirstFit, kBestFit, kWorstFit, kLastFit };

  ReferencePacker(CostModel model, Policy policy)
      : model_(model), policy_(policy) {}

  /// First Fit per class; classes [0, b_0), [b_0, b_1), ..., [b_last, W].
  static ReferencePacker size_classed(CostModel model,
                                      std::vector<double> boundaries) {
    ReferencePacker packer(model, Policy::kFirstFit);
    packer.boundaries_ = std::move(boundaries);
    return packer;
  }

  /// First Fit per class with one boundary at W / (mu_hat + 7) for each
  /// arrival, mu_hat = max / min length over the completed items (1 before
  /// any completes; zero lengths ignored).
  static ReferencePacker adaptive_mff(CostModel model) {
    ReferencePacker packer(model, Policy::kFirstFit);
    packer.adaptive_ = true;
    return packer;
  }

  BinId on_arrival(ItemId id, Time arrival, double size) {
    if (adaptive_) boundaries_ = {model_.bin_capacity / (mu_hat() + 7.0)};
    std::size_t cls = 0;
    for (const double boundary : boundaries_) {
      if (size >= boundary) ++cls;
    }
    arrival_[id] = arrival;
    std::optional<BinId> chosen;
    for (const auto& [bin, state] : bins_) {
      if (state.cls != cls) continue;
      if (!model_.fits(size, model_.bin_capacity - state.level)) continue;
      if (!chosen) {
        chosen = bin;
        continue;
      }
      const double current = bins_.at(*chosen).level;
      switch (policy_) {
        case Policy::kFirstFit:
          break;  // first qualifying id (map is id-ordered)
        case Policy::kBestFit:
          if (state.level > current) chosen = bin;
          break;
        case Policy::kWorstFit:
          if (state.level < current) chosen = bin;
          break;
        case Policy::kLastFit:
          chosen = bin;  // keep the largest qualifying id
          break;
      }
    }
    const BinId bin = chosen.value_or(next_id_);
    if (!chosen) {
      bins_[bin].cls = cls;  // open
      ++next_id_;
    }
    bins_[bin].level += size;
    bins_[bin].items[id] = size;
    return bin;
  }

  void on_departure(ItemId id, Time now) {
    const Time length = now - arrival_.at(id);
    arrival_.erase(id);
    if (length > 0.0) {
      min_length_ = std::min(min_length_, length);
      max_length_ = std::max(max_length_, length);
    }
    for (auto it = bins_.begin(); it != bins_.end(); ++it) {
      auto item = it->second.items.find(id);
      if (item == it->second.items.end()) continue;
      it->second.level -= item->second;
      it->second.items.erase(item);
      if (it->second.items.empty()) bins_.erase(it);
      return;
    }
    FAIL() << "departure of unknown item " << id;
  }

 private:
  struct BinState {
    double level = 0.0;
    std::size_t cls = 0;
    std::map<ItemId, double> items;
  };

  [[nodiscard]] double mu_hat() const {
    return max_length_ > 0.0 ? std::max(1.0, max_length_ / min_length_) : 1.0;
  }

  CostModel model_;
  Policy policy_;
  std::vector<double> boundaries_;  // empty: one class
  bool adaptive_ = false;
  std::map<BinId, BinState> bins_;  // only open bins
  std::map<ItemId, Time> arrival_;  // active items
  Time min_length_ = kTimeInfinity;
  Time max_length_ = 0.0;
  BinId next_id_ = 0;
};

/// The reference for a make_packer name at its default options.
ReferencePacker make_reference(const std::string& name) {
  const CostModel model = unit_model();
  if (name == "modified-first-fit") {
    return ReferencePacker::size_classed(model, {model.bin_capacity / 8.0});
  }
  if (name == "harmonic-first-fit") {
    std::vector<double> boundaries;
    for (int k = 5; k >= 2; --k) boundaries.push_back(model.bin_capacity / k);
    return ReferencePacker::size_classed(model, boundaries);
  }
  if (name == "adaptive-mff") return ReferencePacker::adaptive_mff(model);
  ReferencePacker::Policy policy{};
  if (name == "first-fit") policy = ReferencePacker::Policy::kFirstFit;
  if (name == "best-fit") policy = ReferencePacker::Policy::kBestFit;
  if (name == "worst-fit") policy = ReferencePacker::Policy::kWorstFit;
  if (name == "last-fit") policy = ReferencePacker::Policy::kLastFit;
  return ReferencePacker(model, policy);
}

using Cell = std::tuple<std::string, std::uint64_t>;

class DifferentialTest : public ::testing::TestWithParam<Cell> {};

TEST_P(DifferentialTest, OptimizedMatchesReferenceDecisionForDecision) {
  const auto [name, seed] = GetParam();

  RandomInstanceConfig config;
  config.item_count = 1500;
  config.arrival.rate = 12.0 + static_cast<double>(seed % 3) * 8.0;
  config.duration.max_length = 1.0 + static_cast<double>(seed % 7);
  config.size.min_fraction = 0.01;
  config.size.max_fraction = 0.97;
  const Instance instance = generate_random_instance(config, seed);

  auto optimized = make_packer(name, unit_model());
  ReferencePacker reference = make_reference(name);

  // Drive both through the same event sequence, comparing every placement.
  // Bin ids are comparable because both assign them densely in opening
  // order.
  for (const Event& event : build_event_sequence(instance)) {
    const Item& item = instance.item(event.item);
    if (event.kind == EventKind::kArrival) {
      const BinId fast = optimized->on_arrival(
          ArrivingItem{item.id, item.arrival, item.size});
      const BinId slow = reference.on_arrival(item.id, item.arrival, item.size);
      ASSERT_EQ(fast, slow) << name << " diverged at item " << item.id;
    } else {
      optimized->on_departure(item.id, item.departure);
      reference.on_departure(item.id, item.departure);
    }
  }
  EXPECT_EQ(optimized->bins().open_count(), 0u);
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::get<0>(info.param);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialTest,
    ::testing::Combine(::testing::Values("first-fit", "best-fit", "worst-fit",
                                         "last-fit"),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    cell_name);

INSTANTIATE_TEST_SUITE_P(
    SizeClassed, DifferentialTest,
    ::testing::Combine(::testing::Values("modified-first-fit",
                                         "harmonic-first-fit", "adaptive-mff"),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    cell_name);

}  // namespace
}  // namespace dbp
