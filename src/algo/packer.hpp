// The online packer interface driven by the simulator.
#pragma once

#include <span>
#include <string>

#include "algo/bin_manager.hpp"
#include "core/event.hpp"
#include "core/instance.hpp"
#include "core/item.hpp"
#include "core/types.hpp"

namespace dbp {

/// An online dynamic-bin-packing algorithm.
///
/// The simulator calls `on_arrival` with only the information an online
/// algorithm may use (id, size, arrival time — never the departure time) and
/// `on_departure` when an item leaves. Packers are single-use: construct a
/// fresh instance per packing run (construction is cheap; see
/// make_packer in algo/factory.hpp).
class Packer {
 public:
  explicit Packer(CostModel model) : manager_(model) { }
  virtual ~Packer() = default;

  Packer(const Packer&) = delete;
  Packer& operator=(const Packer&) = delete;

  /// Algorithm name for reports ("first-fit", "modified-first-fit(k=8)", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Places the arriving item and returns the chosen bin. Must not consult
  /// anything but the current bin state and the arriving item.
  virtual BinId on_arrival(const ArrivingItem& item) = 0;

  /// Handles the departure of a previously placed item at time `now`.
  virtual void on_departure(ItemId item, Time now) = 0;

  /// True when on_arrival of an item of `size` would open a new bin, by
  /// this packer's own rule: Next Fit asks its current bin, a size-classed
  /// packer its class's pool. That is not the same as "no open bin fits".
  /// Const and allocation-free; the dispatcher's rental gate (fleet cap,
  /// flaky provider) asks it before every placement it may refuse.
  [[nodiscard]] virtual bool would_open_bin(double size) const = 0;

  /// Drives this packer over a prebuilt sorted event sequence — the
  /// steady-state event loop. The default dispatches every event through
  /// the virtual on_arrival/on_departure (clairvoyant-aware); packers whose
  /// handlers are statically known override it so the whole loop runs with
  /// zero indirect calls. Overrides must be behaviorally identical to the
  /// default — replay is a batched driver, never a semantic variation
  /// (sim/simulator.cpp's replay_events is the public entry).
  virtual void replay(const Instance& instance, std::span<const Event> events);

  /// Capacity hint: the run will see at most `items` distinct items (and
  /// thus at most `items` bins). Pre-sizes the bookkeeping so the event
  /// loop runs allocation-free; purely an optimization — correctness never
  /// depends on the hint, and exceeding it only costs amortized growth.
  virtual void reserve_hint(std::size_t items) { manager_.reserve(items, items); }

  /// Read access to all bin state and usage history.
  [[nodiscard]] const BinManager& bins() const noexcept { return manager_; }

  [[nodiscard]] const CostModel& model() const noexcept { return manager_.model(); }

  /// True when this packer can checkpoint and restore its full decision
  /// state bit-exactly. False by default; the clairvoyant baselines stay
  /// unsupported (their pending-departure queues are out of the online
  /// durability scope).
  [[nodiscard]] virtual bool snapshot_supported() const { return false; }

  /// Serializes the complete packer state (bin mechanics + policy state).
  /// Requires snapshot_supported().
  void save_snapshot(ByteWriter& out) const {
    DBP_REQUIRE(snapshot_supported(),
                "this packer does not support snapshots: " + name());
    manager_.save_state(out);
    save_extra(out);
  }

  /// Restores the state written by save_snapshot() into a freshly
  /// constructed packer of the same algorithm and cost model. After this
  /// call the packer continues the interrupted run bit-identically.
  void restore_snapshot(ByteReader& in) {
    DBP_REQUIRE(snapshot_supported(),
                "this packer does not support snapshots: " + name());
    manager_.restore_state(in);
    restore_extra(in);
  }

 protected:
  /// Policy-state halves of the snapshot, layered on the BinManager state.
  virtual void save_extra(ByteWriter& out) const { (void)out; }
  virtual void restore_extra(ByteReader& in) { (void)in; }

  BinManager manager_;
};

}  // namespace dbp
