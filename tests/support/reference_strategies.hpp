// Reference (pre-arena) First Fit and Best Fit strategies.
//
// These are the original node-based/hashed implementations the optimized
// strategies in algo/strategies.hpp replaced: First Fit with an ordered-map
// position index and predicate-callback tree descent, Best Fit with a
// node-based std::set residual index. They are test oracles, kept verbatim
// outside the library for two jobs:
//   * the same-run benchmark baseline — dbp_bench_report measures
//     "first-fit" against its reference twin in the same process so the
//     speedup ratio is machine-independent (tools/check_bench_guard.py
//     guards it);
//   * the differential oracle — tests/packer_reference_differential_test
//     asserts the optimized strategies make bit-identical decisions.
// make_packer does not know them; make_reference_packer below builds them.
//
// The hooks name bins by slot (algo/fit_strategy.hpp); the reference indexes
// stay keyed by BinId, as in the seed, and a SlotIds map translates at the
// hook boundary.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algo/fit_strategy.hpp"
#include "algo/packer.hpp"
#include "algo/segment_tree.hpp"

namespace dbp {

/// The open bins' slot <-> BinId translation for the reference strategies.
class SlotIds {
 public:
  void add(BinSlot slot, BinId bin);
  [[nodiscard]] BinId bin(BinSlot slot) const;
  [[nodiscard]] BinSlot slot(BinId bin) const;
  void remove(BinSlot slot);

 private:
  std::vector<BinId> bin_of_;  // by slot; kNoBin when free
  std::map<BinId, BinSlot> slot_of_;
};

/// The seed First Fit: segment tree + ordered scan positions, with the
/// position looked up through a hash map on every residual change.
class FirstFitReferenceStrategy final : public FitStrategy {
 public:
  explicit FirstFitReferenceStrategy(const CostModel& model) : model_(model) {}

  [[nodiscard]] std::string name() const override { return "first-fit-reference"; }
  [[nodiscard]] std::optional<BinSlot> select(double size) override;
  [[nodiscard]] bool has_fit(double size) const override {
    return model_.fits(size, residuals_.max_value());
  }
  void on_bin_registered(BinSlot slot, BinId bin, double residual) override;
  void on_residual_changed(BinSlot slot, double residual) override;
  void on_bin_closed(BinSlot slot) override;

 private:
  CostModel model_;
  SlotIds ids_;
  MaxSegmentTree residuals_;                  // position = registration order
  std::vector<BinId> bin_at_;                 // position -> bin
  // DBP_LINT_ALLOW(unordered-container): position lookup by bin id only;
  // never iterated (selection order comes from the segment tree).
  std::unordered_map<BinId, std::size_t> pos_of_;
};

/// The seed Best Fit: node-based ordered (residual, id) set.
class BestFitReferenceStrategy final : public FitStrategy {
 public:
  explicit BestFitReferenceStrategy(const CostModel& model) : model_(model) {}

  [[nodiscard]] std::string name() const override { return "best-fit-reference"; }
  [[nodiscard]] std::optional<BinSlot> select(double size) override;
  [[nodiscard]] bool has_fit(double size) const override {
    return !by_residual_.empty() &&
           !(by_residual_.rbegin()->first < size - model_.fit_tolerance);
  }
  void on_bin_registered(BinSlot slot, BinId bin, double residual) override;
  void on_residual_changed(BinSlot slot, double residual) override;
  void on_bin_closed(BinSlot slot) override;

 private:
  CostModel model_;
  SlotIds ids_;
  std::set<std::pair<double, BinId>> by_residual_;   // (residual, id) ascending
  // DBP_LINT_ALLOW(unordered-container): residual lookup by bin id only;
  // selection order comes from the ordered by_residual_ set.
  std::unordered_map<BinId, double> residual_of_;
};

/// The reference twin of "first-fit" or "best-fit": the reference strategy
/// behind the seed's dynamic dispatch (a plain AnyFitPacker), so the
/// baseline it provides is the seed's, not a hybrid. Its name() is the
/// twin's name with "-reference" appended. Throws PreconditionError for
/// any other name.
[[nodiscard]] std::unique_ptr<Packer> make_reference_packer(const std::string& name,
                                                            const CostModel& model);

}  // namespace dbp
