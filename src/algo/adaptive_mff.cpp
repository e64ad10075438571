#include "algo/adaptive_mff.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "algo/strategies.hpp"
#include "core/error.hpp"

namespace dbp {

namespace {

/// The class boundary for `threshold`. An estimate that overflowed to
/// infinity gives threshold 0, under which every item is large; the
/// smallest positive double keeps that classification inside (0, W].
double boundary_for(double threshold) {
  return std::max(threshold, std::numeric_limits<double>::denorm_min());
}

}  // namespace

AdaptiveMffPacker::AdaptiveMffPacker(CostModel model)
    : SizeClassedPacker(model, "adaptive-mff", {model.bin_capacity / 8.0},
                        [](const CostModel& m) {
                          return std::make_unique<FirstFitStrategy>(m);
                        }) {}

BinId AdaptiveMffPacker::on_arrival(const ArrivingItem& item) {
  const BinId bin = SizeClassedPacker::on_arrival(item);
  arrival_of_[item.id] = item.arrival;
  return bin;
}

void AdaptiveMffPacker::on_departure(ItemId item, Time now) {
  auto arrival_it = arrival_of_.find(item);
  DBP_REQUIRE(arrival_it != arrival_of_.end(), "unknown item id");
  const Time length = now - arrival_it->second;
  arrival_of_.erase(arrival_it);
  // Update the completed-interval statistics and hence mu_hat. Zero-length
  // observations (same-timestamp arrive/depart) are ignored: they would
  // make mu_hat infinite while the paper's model has d(r) > a(r).
  if (length > 0.0) {
    min_len_seen_ = std::min(min_len_seen_, length);
    max_len_seen_ = std::max(max_len_seen_, length);
    const double mu_hat = std::max(1.0, max_len_seen_ / min_len_seen_);
    if (mu_hat != mu_hat_) {
      mu_hat_ = mu_hat;
      set_boundary(0, boundary_for(threshold()));
    }
  }
  SizeClassedPacker::on_departure(item, now);
}

void AdaptiveMffPacker::save_extra(ByteWriter& out) const {
  // Persisted in sorted id order so the byte stream is a pure function of
  // the logical state, not of hash iteration order.
  std::vector<std::pair<ItemId, Time>> arrivals(arrival_of_.begin(),
                                                arrival_of_.end());
  std::sort(arrivals.begin(), arrivals.end());
  out.u64(arrivals.size());
  for (const auto& [item, arrival] : arrivals) {
    out.u64(item);
    out.f64(arrival);
  }
  out.f64(mu_hat_);
  out.f64(min_len_seen_);
  out.f64(max_len_seen_);
  SizeClassedPacker::save_extra(out);
}

void AdaptiveMffPacker::restore_extra(ByteReader& in) {
  arrival_of_.clear();
  const std::uint64_t arrival_count = in.u64();
  if (arrival_count != manager_.active_item_count()) {
    throw CorruptionError("adaptive-mff arrival census disagrees with items");
  }
  for (std::uint64_t i = 0; i < arrival_count; ++i) {
    const ItemId item = in.u64();
    const Time arrival = in.f64();
    if (!arrival_of_.emplace(item, arrival).second) {
      throw CorruptionError("adaptive-mff arrival map repeats an item");
    }
  }
  mu_hat_ = in.f64();
  min_len_seen_ = in.f64();
  max_len_seen_ = in.f64();
  if (!(mu_hat_ >= 1.0)) {
    throw CorruptionError("adaptive-mff mu estimate is below 1");
  }
  // The base compares its persisted boundary with this one, which checks
  // the persisted mu_hat.
  set_boundary(0, boundary_for(threshold()));
  SizeClassedPacker::restore_extra(in);
}

}  // namespace dbp
