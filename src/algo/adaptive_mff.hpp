// Modified First Fit with mu *estimated online* — the practical variant the
// paper itself suggests (Section 4.4: "it is possible to estimate the
// max/min item interval length ratio mu according to the statistics of
// historical playing data").
//
// The packer is Modified First Fit — a two-class SizeClassedPacker with
// First Fit in each class — whose one boundary starts at the mu-unknown
// split W/8. As items depart it updates a running estimate mu_hat = max
// observed length / min observed length over COMPLETED items only (an
// online algorithm may use departures it has already witnessed) and moves
// the boundary to W / (mu_hat + 7). Bins keep the class they were opened
// in; only the classification of new items drifts.
#pragma once

#include <unordered_map>

#include "algo/size_classed_packer.hpp"

namespace dbp {

class AdaptiveMffPacker final : public SizeClassedPacker {
 public:
  explicit AdaptiveMffPacker(CostModel model);

  BinId on_arrival(const ArrivingItem& item) override;
  void on_departure(ItemId item, Time now) override;

  /// Current estimate (1 until at least one item has completed).
  [[nodiscard]] double mu_estimate() const noexcept { return mu_hat_; }

  /// Current size threshold between the small and large classes.
  [[nodiscard]] double threshold() const noexcept {
    return manager_.model().bin_capacity / (mu_hat_ + 7.0);
  }

 protected:
  /// The estimator, then SizeClassedPacker's own extra.
  void save_extra(ByteWriter& out) const override;
  void restore_extra(ByteReader& in) override;

 private:
  // DBP_LINT_ALLOW(unordered-container): arrival lookup by item id only.
  std::unordered_map<ItemId, Time> arrival_of_;
  double mu_hat_ = 1.0;
  Time min_len_seen_ = kTimeInfinity;
  Time max_len_seen_ = 0.0;
};

}  // namespace dbp
