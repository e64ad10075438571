// The Any Fit packing framework (paper Section 3.2): open a new bin only
// when the strategy declines every open bin.
#pragma once

#include <memory>

#include "algo/fit_strategy.hpp"
#include "algo/packer.hpp"
#include "core/audit.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace dbp {

/// Combines the bin mechanics (BinManager) with a pluggable bin-selection
/// policy (FitStrategy) to form a complete online packer.
class AnyFitPacker : public Packer {
 public:
  AnyFitPacker(CostModel model, std::unique_ptr<FitStrategy> strategy);

  [[nodiscard]] std::string name() const override { return strategy_->name(); }

  BinId on_arrival(const ArrivingItem& item) override;
  void on_departure(ItemId item, Time now) override;

  [[nodiscard]] bool would_open_bin(double size) const override {
    return !strategy_->has_fit(size);
  }

  /// Forwards the capacity hint to the manager and the fit strategy.
  void reserve_hint(std::size_t items) override {
    Packer::reserve_hint(items);
    strategy_->reserve(items);
  }

  /// When enabled, every new-bin opening is cross-checked against *all* open
  /// bins (O(m) scan) to prove the Any Fit contract: no open bin could have
  /// accommodated the item. Used by the test suite; off by default.
  void set_paranoid(bool value) noexcept { paranoid_ = value; }

  [[nodiscard]] bool snapshot_supported() const override { return true; }

 protected:
  /// Replays on_bin_registered over the restored open bins in opening order
  /// and then lets the strategy restore any extra history.
  void save_extra(ByteWriter& out) const override;
  void restore_extra(ByteReader& in) override;

  [[nodiscard]] FitStrategy& strategy() noexcept { return *strategy_; }

  /// The one true arrival body. `strategy` is the same object as strategy_;
  /// taking it as a deduced reference lets StaticAnyFitPacker instantiate
  /// this with the concrete (final) strategy type, turning the per-event
  /// policy calls into direct — inlinable — calls, while the dynamic
  /// AnyFitPacker::on_arrival instantiates it with FitStrategy& and keeps
  /// the vtable dispatch. Both routes execute the identical statement
  /// sequence, so decisions and FP results are bit-identical.
  template <typename S>
  BinId arrival_impl(S& strategy, const ArrivingItem& item) {
    DBP_REQUIRE(model().fits(item.size, model().bin_capacity),
                "item larger than the bin capacity");
    const std::size_t candidates = manager_.open_count();
    std::optional<BinSlot> chosen = strategy.select(item.size);
    BinSlot slot;
    if (chosen) {
      slot = *chosen;
      DBP_AUDIT_ONLY(audit_first_fit_choice(strategy, item.size, slot);)
    } else {
      if ((paranoid_ || audit_enabled()) && strategy.any_fit_contract()) {
        manager_.for_each_open_bin([&](BinSlot open) {
          DBP_CHECK(!manager_.fits(item.size, open),
                    "Any Fit contract violated: a fitting bin was declined");
        });
      }
      slot = manager_.open_bin(item.arrival);
      strategy.on_bin_registered(slot, manager_.id_of(slot), manager_.residual(slot));
    }
    manager_.place(item, slot);
    strategy.on_residual_changed(slot, manager_.residual(slot));
    const BinId bin = manager_.id_of(slot);
    obs::trace_arrival(item.arrival, item.id, item.size, bin, candidates);
    return bin;
  }

  /// The one true departure body; see arrival_impl for the dispatch story.
  template <typename S>
  void departure_impl(S& strategy, ItemId item, Time now) {
    const DepartureOutcome outcome = manager_.remove(item, now);
    obs::trace_departure(now, item, outcome.bin);
    if (outcome.bin_closed) {
      strategy.on_bin_closed(outcome.slot);
    } else {
      strategy.on_residual_changed(outcome.slot, manager_.residual(outcome.slot));
    }
  }

 private:
#if DBP_AUDIT_ENABLED
  /// First Fit scan-order monotonicity: when `strategy` is First Fit, the
  /// chosen bin must be the earliest-opened open bin that fits — no open
  /// bin ahead of it in the opening-order walk may accommodate `size`.
  /// Allocation-free, like the event loop it checks.
  void audit_first_fit_choice(const FitStrategy& strategy, double size,
                              BinSlot chosen) const;
#endif

  std::unique_ptr<FitStrategy> strategy_;
  bool paranoid_ = false;
};

/// AnyFitPacker with the concrete strategy type visible to the compiler.
///
/// Behaviorally identical to AnyFitPacker — it routes the same
/// arrival_impl/departure_impl bodies — but because `Strategy` is a final
/// class the 3-4 per-event policy calls (select, on_residual_changed, ...)
/// devirtualize and inline into the event handlers, which is worth ~25% of
/// the First Fit event loop (docs/performance.md). The factory uses this
/// for every built-in strategy; plug-in strategies constructed against the
/// FitStrategy interface keep using AnyFitPacker directly.
template <typename Strategy>
class StaticAnyFitPacker final : public AnyFitPacker {
 public:
  StaticAnyFitPacker(CostModel model, std::unique_ptr<Strategy> strategy)
      : AnyFitPacker(model, std::move(strategy)),
        typed_(static_cast<Strategy*>(&this->strategy())) {}

  BinId on_arrival(const ArrivingItem& item) override {
    return arrival_impl(*typed_, item);
  }

  void on_departure(ItemId item, Time now) override {
    departure_impl(*typed_, item, now);
  }

  /// Same loop as Packer::replay (minus the clairvoyant branch — an Any Fit
  /// packer never is one), with the event handlers inlined: the entire
  /// steady-state loop runs without a single indirect call.
  void replay(const Instance& instance, std::span<const Event> events) override {
    for (const Event& event : events) {
      if (event.kind == EventKind::kArrival) {
        const Item& item = instance.item(event.item);
        arrival_impl(*typed_, ArrivingItem{event.item, event.time, item.size});
      } else {
        departure_impl(*typed_, event.item, event.time);
      }
    }
  }

 private:
  Strategy* typed_;  // same object as the base's strategy_, concrete type
};

}  // namespace dbp
