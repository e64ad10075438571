#include "algo/size_classed_packer.hpp"

#include <algorithm>
#include <cmath>

#include "algo/strategies.hpp"
#include "core/audit.hpp"
#include "core/strfmt.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace dbp {

SizeClassedPacker::SizeClassedPacker(CostModel model, std::string name,
                                     std::vector<double> boundaries,
                                     const StrategyFactory& factory)
    : Packer(model), name_(std::move(name)), boundaries_(std::move(boundaries)) {
  DBP_REQUIRE(std::is_sorted(boundaries_.begin(), boundaries_.end()) &&
                  std::adjacent_find(boundaries_.begin(), boundaries_.end()) ==
                      boundaries_.end(),
              "class boundaries must be strictly increasing");
  for (double b : boundaries_) {
    DBP_REQUIRE(b > 0.0 && b <= model.bin_capacity,
                "class boundaries must lie in (0, W]");
  }
  strategies_.reserve(boundaries_.size() + 1);
  for (std::size_t i = 0; i <= boundaries_.size(); ++i) {
    strategies_.push_back(factory(model));
    DBP_REQUIRE(strategies_.back() != nullptr, "strategy factory returned null");
  }
}

std::size_t SizeClassedPacker::class_of(double size) const {
  // Number of boundaries <= size: class i covers [b_{i-1}, b_i).
  return static_cast<std::size_t>(
      std::upper_bound(boundaries_.begin(), boundaries_.end(), size) -
      boundaries_.begin());
}

std::size_t SizeClassedPacker::class_of_bin(BinId bin) const {
  const std::optional<BinSlot> slot = manager_.slot_of(bin);
  DBP_REQUIRE(slot.has_value(), "bin is not open");
  return bin_class_[static_cast<std::size_t>(*slot)];
}

BinId SizeClassedPacker::on_arrival(const ArrivingItem& item) {
  DBP_REQUIRE(model().fits(item.size, model().bin_capacity),
              "item larger than the bin capacity");
  const std::size_t cls = class_of(item.size);
  FitStrategy& strategy = *strategies_[cls];
  const std::size_t candidates = manager_.open_count();
  std::optional<BinSlot> chosen = strategy.select(item.size);
  BinSlot slot;
#if DBP_AUDIT_ENABLED
  const auto class_at = [this](BinSlot open) {
    return bin_class_[static_cast<std::size_t>(open)];
  };
#endif
  if (chosen) {
    slot = *chosen;
    DBP_AUDIT_CHECK(class_at(slot) == cls,
                    "size class routed an item to a foreign pool's bin");
#if DBP_AUDIT_ENABLED
    // Per-pool First Fit scan-order monotonicity: within the item's class,
    // no earlier-opened open bin may accommodate it.
    if (dynamic_cast<const FirstFitStrategy*>(&strategy) != nullptr) {
      const BinId chosen_id = manager_.id_of(slot);
      manager_.for_each_open_bin([&](BinSlot open) {
        DBP_AUDIT_CHECK(manager_.id_of(open) >= chosen_id || class_at(open) != cls ||
                            !manager_.fits(item.size, open),
                        "pool First Fit skipped an earlier-opened fitting bin");
      });
    }
#endif
  } else {
#if DBP_AUDIT_ENABLED
    // Opening a new bin is only legal when every open bin of the class is
    // unable to host the item (First Fit pools obey the Any Fit contract).
    if (dynamic_cast<const FirstFitStrategy*>(&strategy) != nullptr) {
      manager_.for_each_open_bin([&](BinSlot open) {
        DBP_AUDIT_CHECK(class_at(open) != cls || !manager_.fits(item.size, open),
                        "pool declined an item although an open bin fits");
      });
    }
#endif
    slot = manager_.open_bin(item.arrival);
    const auto at = static_cast<std::size_t>(slot);
    if (at == bin_class_.size()) bin_class_.push_back(cls);
    bin_class_[at] = cls;
    strategy.on_bin_registered(slot, manager_.id_of(slot), manager_.residual(slot));
  }
  manager_.place(item, slot);
  strategy.on_residual_changed(slot, manager_.residual(slot));
  const BinId bin = manager_.id_of(slot);
  obs::trace_arrival(item.arrival, item.id, item.size, bin, candidates);
  return bin;
}

void SizeClassedPacker::on_departure(ItemId item, Time now) {
  const DepartureOutcome outcome = manager_.remove(item, now);
  obs::trace_departure(now, item, outcome.bin);
  FitStrategy& strategy =
      *strategies_[bin_class_[static_cast<std::size_t>(outcome.slot)]];
  if (outcome.bin_closed) {
    strategy.on_bin_closed(outcome.slot);
  } else {
    strategy.on_residual_changed(outcome.slot, manager_.residual(outcome.slot));
  }
}

void SizeClassedPacker::reserve_hint(std::size_t items) {
  Packer::reserve_hint(items);
  bin_class_.reserve(items);
  for (const auto& strategy : strategies_) strategy->reserve(items);
}

void SizeClassedPacker::set_boundary(std::size_t index, double value) {
  DBP_REQUIRE(index < boundaries_.size(), "unknown class boundary");
  DBP_REQUIRE(value > 0.0 && value <= model().bin_capacity,
              "class boundaries must lie in (0, W]");
  DBP_REQUIRE((index == 0 || boundaries_[index - 1] < value) &&
                  (index + 1 == boundaries_.size() || value < boundaries_[index + 1]),
              "class boundaries must be strictly increasing");
  boundaries_[index] = value;
}

void SizeClassedPacker::save_extra(ByteWriter& out) const {
  out.u64(boundaries_.size());
  for (const double b : boundaries_) out.f64(b);
  // The open bins' classes, in opening order.
  out.u64(manager_.open_count());
  manager_.for_each_open_bin([&](BinSlot slot) {
    out.u64(bin_class_[static_cast<std::size_t>(slot)]);
  });
  for (const auto& strategy : strategies_) strategy->save_state(out);
}

void SizeClassedPacker::restore_extra(ByteReader& in) {
  const std::uint64_t boundary_count = in.u64();
  if (boundary_count != boundaries_.size()) {
    throw CorruptionError("size-class boundary count differs from this packer");
  }
  for (const double b : boundaries_) {
    if (in.f64() != b) {
      throw CorruptionError("size-class boundaries differ from this packer");
    }
  }
  if (in.u64() != manager_.open_count()) {
    throw CorruptionError("size-class bin census disagrees with the manager");
  }
  // Per-pool registration replay in opening order, then each pool's own
  // extra history in class order.
  bin_class_.assign(manager_.slot_count(), 0);
  manager_.for_each_open_bin([&](BinSlot slot) {
    const std::uint64_t cls = in.u64();
    if (cls >= strategies_.size()) {
      throw CorruptionError("size-class map names an unknown class");
    }
    bin_class_[static_cast<std::size_t>(slot)] = static_cast<std::size_t>(cls);
    strategies_[cls]->on_bin_registered(slot, manager_.id_of(slot),
                                        manager_.residual(slot));
  });
  for (const auto& strategy : strategies_) strategy->load_state(in);
}

namespace {

std::unique_ptr<FitStrategy> make_ff_strategy(const CostModel& model) {
  return std::make_unique<FirstFitStrategy>(model);
}

}  // namespace

std::unique_ptr<SizeClassedPacker> make_modified_first_fit(const CostModel& model,
                                                           double k) {
  DBP_REQUIRE(std::isfinite(k) && k > 1.0, "Modified First Fit requires k > 1");
  return std::make_unique<SizeClassedPacker>(
      model, strfmt("modified-first-fit(k=%g)", k),
      std::vector<double>{model.bin_capacity / k}, make_ff_strategy);
}

std::unique_ptr<SizeClassedPacker> make_modified_first_fit_known_mu(
    const CostModel& model, double mu) {
  DBP_REQUIRE(std::isfinite(mu) && mu >= 1.0, "mu must be >= 1");
  const double k = mu + 7.0;  // paper Section 4.4: argmin of max{k, (mu+6)/(1-1/k)}
  return std::make_unique<SizeClassedPacker>(
      model, strfmt("modified-first-fit(mu=%g known)", mu),
      std::vector<double>{model.bin_capacity / k}, make_ff_strategy);
}

std::unique_ptr<SizeClassedPacker> make_harmonic_first_fit(const CostModel& model,
                                                           int class_count) {
  DBP_REQUIRE(class_count >= 2, "harmonic packer needs at least 2 classes");
  std::vector<double> boundaries;
  boundaries.reserve(static_cast<std::size_t>(class_count) - 1);
  for (int i = class_count; i >= 2; --i) {
    boundaries.push_back(model.bin_capacity / static_cast<double>(i));
  }
  return std::make_unique<SizeClassedPacker>(
      model, strfmt("harmonic-first-fit(K=%d)", class_count),
      std::move(boundaries), make_ff_strategy);
}

}  // namespace dbp
