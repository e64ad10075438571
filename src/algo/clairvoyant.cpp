#include "algo/clairvoyant.hpp"

#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace dbp {

BinId ClairvoyantPacker::on_arrival(const ArrivingItem& item) {
  (void)item;
  DBP_REQUIRE(false,
              "clairvoyant packer requires departure times; the simulator "
              "must use on_arrival_clairvoyant");
  return 0;  // unreachable
}

bool ClairvoyantPacker::would_open_bin(double size) const {
  bool fits = false;
  manager_.for_each_open_bin(
      [&](BinSlot slot) { fits = fits || manager_.fits(size, slot); });
  return !fits;
}

DurationAwarePacker::DurationAwarePacker(CostModel model, Policy policy)
    : ClairvoyantPacker(model), policy_(policy) {}

std::string DurationAwarePacker::name() const {
  return policy_ == Policy::kAlignDepartures ? "align-departures-fit"
                                             : "min-extension-fit";
}

Time DurationAwarePacker::projected_close(BinId bin) const {
  const std::optional<BinSlot> slot = manager_.slot_of(bin);
  auto it = slot ? departures_.find(*slot) : departures_.end();
  DBP_REQUIRE(it != departures_.end() && !it->second.empty(),
              "projected close of an empty or closed bin");
  return *it->second.rbegin();
}

BinId DurationAwarePacker::on_arrival_clairvoyant(const Item& item) {
  DBP_REQUIRE(model().fits(item.size, model().bin_capacity),
              "item larger than the bin capacity");
  // Any Fit scan over open bins: keep the best-scoring fitting bin —
  // lower score wins, ties go to the lowest bin id via the explicit
  // (score, bin) comparison, so the argmin is independent of the
  // unordered_map's iteration order.
  BinSlot best = kNoSlot;
  BinId best_bin = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& [slot, departures] : departures_) {
    if (!manager_.fits(item.size, slot)) continue;
    const Time close = *departures.rbegin();
    const double score = policy_ == Policy::kAlignDepartures
                             ? std::abs(close - item.departure)
                             : std::max(0.0, item.departure - close);
    const BinId bin = manager_.id_of(slot);
    if (best == kNoSlot || score < best_score ||
        (score == best_score && bin < best_bin)) {
      best = slot;
      best_bin = bin;
      best_score = score;
    }
  }
  if (best == kNoSlot) best = manager_.open_bin(item.arrival);
  manager_.place(ArrivingItem{item.id, item.arrival, item.size}, best);
  departures_[best].insert(item.departure);
  departure_of_[item.id] = item.departure;
  return manager_.id_of(best);
}

void DurationAwarePacker::on_departure(ItemId item, Time now) {
  auto departure_it = departure_of_.find(item);
  DBP_REQUIRE(departure_it != departure_of_.end(), "unknown item id");
  const DepartureOutcome outcome = manager_.remove(item, now);
  auto& departures = departures_.at(outcome.slot);
  departures.erase(departures.find(departure_it->second));
  departure_of_.erase(departure_it);
  if (outcome.bin_closed) {
    DBP_CHECK(departures.empty(), "closed bin still holds departures");
    departures_.erase(outcome.slot);
  }
}

}  // namespace dbp
