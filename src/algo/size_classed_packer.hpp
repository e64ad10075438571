// Size-classified packing: partition items into size classes and pack each
// class into its own bin pool with an independent policy.
//
// Modified First Fit (paper Section 4.4) is the two-class case (threshold
// W/k, First Fit in both pools); adaptive MFF (algo/adaptive_mff.hpp) is
// the two-class case whose boundary moves with its mu estimate; the
// Harmonic-style packer (extension) is the K-class case. Bin ids stay
// globally unique because all pools share one BinManager — total cost
// accounting needs no special cases.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/fit_strategy.hpp"
#include "algo/packer.hpp"

namespace dbp {

class SizeClassedPacker : public Packer {
 public:
  using StrategyFactory =
      std::function<std::unique_ptr<FitStrategy>(const CostModel&)>;

  /// `boundaries` are strictly increasing size thresholds in (0, W]; they
  /// induce classes [0, b_0), [b_0, b_1), ..., [b_last, W]. Each class gets
  /// its own strategy from `factory`.
  SizeClassedPacker(CostModel model, std::string name,
                    std::vector<double> boundaries, const StrategyFactory& factory);

  [[nodiscard]] std::string name() const override { return name_; }

  BinId on_arrival(const ArrivingItem& item) override;
  void on_departure(ItemId item, Time now) override;

  /// Asks only the pool of the item's class: a bin of another class that
  /// has room never receives it.
  [[nodiscard]] bool would_open_bin(double size) const override {
    return !strategies_[class_of(size)]->has_fit(size);
  }

  /// Index of the class an item of `size` belongs to.
  [[nodiscard]] std::size_t class_of(double size) const;

  [[nodiscard]] std::size_t class_count() const noexcept {
    return strategies_.size();
  }

  /// The class whose pool owns open bin `bin`. O(open).
  [[nodiscard]] std::size_t class_of_bin(BinId bin) const;

  [[nodiscard]] bool snapshot_supported() const override { return true; }

  /// Forwards the capacity hint to every class strategy and the per-slot
  /// class index. Each pool could in the worst case own every bin, so all
  /// pools get the full hint; after this the event loop is allocation-free
  /// (tests/zero_alloc_test.cpp).
  void reserve_hint(std::size_t items) override;

 protected:
  void save_extra(ByteWriter& out) const override;
  void restore_extra(ByteReader& in) override;

  /// Moves boundary `index` to `value`; the boundaries must stay strictly
  /// increasing in (0, W]. Open bins keep the class they were opened in;
  /// only the classification of later arrivals changes.
  void set_boundary(std::size_t index, double value);

 private:
  std::string name_;
  std::vector<double> boundaries_;
  std::vector<std::unique_ptr<FitStrategy>> strategies_;
  std::vector<std::size_t> bin_class_;  // by BinSlot: the open bin's class
};

/// Modified First Fit (paper Section 4.4): items of size >= W/k are "large",
/// packed by plain First Fit into their own pool; items of size < W/k are
/// "small", packed by First Fit into a second pool. k > 1.
[[nodiscard]] std::unique_ptr<SizeClassedPacker> make_modified_first_fit(
    const CostModel& model, double k = 8.0);

/// Modified First Fit when the max/min interval length ratio mu is known:
/// the paper shows k = mu + 7 minimizes the bound, giving ratio mu + 8.
/// (Semi-online: only the scalar mu is revealed, never departure times.)
[[nodiscard]] std::unique_ptr<SizeClassedPacker> make_modified_first_fit_known_mu(
    const CostModel& model, double mu);

/// Harmonic-style size-classified First Fit (extension, cf. classical
/// Harmonic packing): classes [0, W/K), [W/K, W/(K-1)), ..., [W/2, W].
[[nodiscard]] std::unique_ptr<SizeClassedPacker> make_harmonic_first_fit(
    const CostModel& model, int class_count = 5);

}  // namespace dbp
