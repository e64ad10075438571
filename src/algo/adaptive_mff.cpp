#include "algo/adaptive_mff.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace dbp {

AdaptiveMffPacker::AdaptiveMffPacker(CostModel model)
    : Packer(model), small_pool_(model), large_pool_(model) {}

BinId AdaptiveMffPacker::on_arrival(const ArrivingItem& item) {
  DBP_REQUIRE(model().fits(item.size, model().bin_capacity),
              "item larger than the bin capacity");
  const bool large = item.size >= threshold();
  FitStrategy& pool = large ? static_cast<FitStrategy&>(large_pool_)
                            : static_cast<FitStrategy&>(small_pool_);
  const std::size_t candidates = manager_.open_count();
  std::optional<BinId> chosen = pool.select(item.size);
  BinId bin;
  if (chosen) {
    bin = *chosen;
    DBP_AUDIT_CHECK(bin_is_large_.at(bin) == large,
                    "adaptive MFF routed an item to the wrong pool's bin");
#if DBP_AUDIT_ENABLED
    // Pool-local First Fit scan-order monotonicity (both pools are FF).
    manager_.for_each_open_bin([&](BinId open) {
      DBP_AUDIT_CHECK(open >= bin || bin_is_large_.at(open) != large ||
                          !manager_.fits(item.size, open),
                      "adaptive MFF skipped an earlier-opened fitting bin");
    });
#endif
  } else {
    bin = manager_.open_bin(item.arrival);
    bin_is_large_[bin] = large;
    pool.on_bin_registered(bin, manager_.residual(bin));
  }
  manager_.place(item, bin);
  pool.on_residual_changed(bin, manager_.residual(bin));
  arrival_of_[item.id] = item.arrival;
  obs::trace_arrival(item.arrival, item.id, item.size, bin, candidates);
  return bin;
}

void AdaptiveMffPacker::save_extra(ByteWriter& out) const {
  // Maps are persisted in sorted key order so the byte stream is a pure
  // function of the logical state, not of hash iteration order.
  std::vector<std::pair<BinId, bool>> pools(bin_is_large_.begin(),
                                            bin_is_large_.end());
  std::sort(pools.begin(), pools.end());
  out.u64(pools.size());
  for (const auto& [bin, large] : pools) {
    out.u64(bin);
    out.boolean(large);
  }
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
  small_pool_.save_state(out);
  large_pool_.save_state(out);
}

void AdaptiveMffPacker::restore_extra(ByteReader& in) {
  bin_is_large_.clear();
  arrival_of_.clear();
  const std::uint64_t pool_count = in.u64();
  if (pool_count != manager_.open_count()) {
    throw CorruptionError("adaptive-mff pool census disagrees with open bins");
  }
  for (std::uint64_t i = 0; i < pool_count; ++i) {
    const BinId bin = in.u64();
    const bool large = in.boolean();
    if (bin >= manager_.total_bins_opened() || !manager_.is_open(bin) ||
        !bin_is_large_.emplace(bin, large).second) {
      throw CorruptionError("adaptive-mff pool map names an invalid bin");
    }
  }
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
  // Pool registration replay in opening order, routed by the restored map.
  for (const BinId bin : manager_.open_bins()) {
    FitStrategy& pool = bin_is_large_.at(bin)
                            ? static_cast<FitStrategy&>(large_pool_)
                            : static_cast<FitStrategy&>(small_pool_);
    pool.on_bin_registered(bin, manager_.residual(bin));
  }
  small_pool_.load_state(in);
  large_pool_.load_state(in);
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
    mu_hat_ = std::max(1.0, max_len_seen_ / min_len_seen_);
  }

  const DepartureOutcome outcome = manager_.remove(item, now);
  obs::trace_departure(now, item, outcome.bin);
  FitStrategy& pool = bin_is_large_.at(outcome.bin)
                          ? static_cast<FitStrategy&>(large_pool_)
                          : static_cast<FitStrategy&>(small_pool_);
  if (outcome.bin_closed) {
    pool.on_bin_closed(outcome.bin);
    bin_is_large_.erase(outcome.bin);
  } else {
    pool.on_residual_changed(outcome.bin, manager_.residual(outcome.bin));
  }
}

}  // namespace dbp
