// Runtime bin bookkeeping shared by all online packers.
//
// Bins are identified by dense BinIds assigned in opening order, so BinId
// order coincides with the temporal opening order the paper's First Fit
// definition refers to. Closed bins are never reopened (paper Section 3.2:
// "when all the items in a bin depart, the bin is closed").
//
// Item bookkeeping is hash-free: ItemIds are dense by construction (the
// Instance assigns them sequentially, and the gaming dispatcher's session
// table hands out the lowest free slot), so per-item state lives in vectors
// indexed by ItemId and each bin's residents form an intrusive doubly-linked
// list through those slots. place/remove are O(1) plus the compensated level
// update — no hashing in the packer event loop. The item slots are the only
// record of the resident items' sizes. The open bins form a second
// intrusive list, in opening order.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/audit.hpp"
#include "core/binary_io.hpp"
#include "core/compensated_sum.hpp"
#include "core/error.hpp"
#include "core/item.hpp"
#include "core/types.hpp"

namespace dbp {

/// One bin's lifetime: [opened, closed). `closed` is kTimeInfinity while the
/// bin is still open.
struct BinUsageRecord {
  BinId id = 0;
  Time opened = 0.0;
  Time closed = kTimeInfinity;

  [[nodiscard]] bool is_closed() const noexcept { return closed != kTimeInfinity; }
  [[nodiscard]] Time usage_length() const noexcept { return closed - opened; }
};

/// Result of removing an item from its bin.
struct DepartureOutcome {
  BinId bin = 0;
  bool bin_closed = false;  ///< the departure emptied (and thus closed) the bin
};

/// Tracks levels, residual capacities, membership and usage periods of all
/// bins opened during one packing run. Purely mechanical: placement *policy*
/// lives in FitStrategy implementations.
class BinManager {
 public:
  explicit BinManager(CostModel model);

  [[nodiscard]] const CostModel& model() const noexcept { return model_; }

  /// Opens a fresh bin at time `t` and returns its id.
  BinId open_bin(Time t);

  /// Places an arriving item into `bin`. Throws PreconditionError when the
  /// item id is kNoItem (the list terminator), the bin is closed, the item
  /// does not fit (beyond tolerance), or the item id is already present.
  /// Defined inline below: place/remove run once per event inside the
  /// devirtualized replay loop, and out-of-line they cost a call (plus a
  /// call to the no-op audit hook) per event.
  void place(const ArrivingItem& item, BinId bin);

  /// Removes a previously placed item at time `t`; closes the bin when it
  /// becomes empty (the close itself is the out-of-line cold path — it
  /// traces and touches usage records). Throws PreconditionError for
  /// unknown item ids. Defined inline below.
  DepartureOutcome remove(ItemId item, Time t);

  /// Total size of items currently in `bin` (0 for closed bins).
  [[nodiscard]] double level(BinId bin) const { return state_of(bin).level.value(); }

  /// W - level(bin); negative-free up to tolerance.
  [[nodiscard]] double residual(BinId bin) const {
    return model_.bin_capacity - state_of(bin).level.value();
  }

  /// True when an item of `size` fits in `bin` now (tolerance-aware).
  [[nodiscard]] bool fits(double size, BinId bin) const {
    const BinState& state = state_of(bin);
    return state.open && model_.fits(size, model_.bin_capacity - state.level.value());
  }

  [[nodiscard]] bool is_open(BinId bin) const { return state_of(bin).open; }
  [[nodiscard]] std::size_t open_count() const noexcept { return open_count_; }
  [[nodiscard]] std::size_t total_bins_opened() const noexcept { return bins_.size(); }
  [[nodiscard]] std::size_t item_count(BinId bin) const;
  [[nodiscard]] std::size_t active_item_count() const noexcept { return active_count_; }

  /// Usage record of one bin (valid for all bins ever opened).
  [[nodiscard]] const BinUsageRecord& usage(BinId bin) const;

  /// Usage records of every bin ever opened, indexed by BinId.
  [[nodiscard]] std::span<const BinUsageRecord> usage_records() const noexcept {
    return usage_;
  }

  /// Ids of all currently open bins, ascending (= opening order).
  [[nodiscard]] std::vector<BinId> open_bins() const;

  /// Calls `visit(bin)` for the same ids in the same order without
  /// allocating, for checks that run on every event. O(open bins).
  template <typename Visit>
  void for_each_open_bin(Visit&& visit) const {
    for (BinId bin = first_open_; bin != kNoBin;
         bin = bins_[static_cast<std::size_t>(bin)].next_open) {
      visit(bin);
    }
  }

  /// Calls `visit(item, size)` for every resident of `bin`, in resident-list
  /// order, without allocating.
  template <typename Visit>
  void for_each_resident(BinId bin, Visit&& visit) const {
    for (ItemId id = state_of(bin).head; id != kNoItem;
         id = items_[static_cast<std::size_t>(id)].next) {
      visit(id, items_[static_cast<std::size_t>(id)].size);
    }
  }

  /// The size of `item` while it is resident; std::nullopt for any other
  /// id, including ids this manager never saw. Never grows the item table.
  [[nodiscard]] std::optional<double> active_size(ItemId item) const noexcept {
    const auto index = static_cast<std::size_t>(item);
    if (index >= items_.size() || !items_[index].active) return std::nullopt;
    return items_[index].size;
  }

  /// The bin an item was assigned to, including items that already departed.
  /// std::nullopt for items this manager never saw.
  [[nodiscard]] std::optional<BinId> assignment_of(ItemId item) const;

  /// Full item -> bin assignment history, dense by ItemId; kNoBin marks
  /// items this manager never saw. A re-dispatched item (same id placed
  /// again after departing) records its latest bin.
  [[nodiscard]] std::vector<BinId> assignment_history() const;

  /// Item ids currently resident in `bin`, ascending.
  [[nodiscard]] std::vector<ItemId> items_in(BinId bin) const;

  /// Pre-sizes the bin and item tables for a run expected to open at most
  /// `bins_hint` bins over at most `items_hint` distinct item ids, so the
  /// event loop's amortized growth never actually reallocates. A hint of 0
  /// leaves the corresponding table untouched; under-estimation is safe.
  void reserve(std::size_t bins_hint, std::size_t items_hint);

  /// Drops all state, keeping the cost model.
  void reset();

  /// Serializes the complete manager state — levels as raw compensated-sum
  /// terms, usage records, the full item table with its intrusive resident
  /// lists — so restore_state() is bit-exact: every subsequent fit decision,
  /// level update and usage record matches an uninterrupted run.
  void save_state(ByteWriter& out) const;

  /// Rebuilds the state written by save_state() over a manager constructed
  /// with the *same* cost model (checked; mismatch throws CorruptionError).
  /// Existing state is discarded. Structural invariants of the decoded state
  /// are re-validated; violations throw CorruptionError.
  void restore_state(ByteReader& in);

  /// Deep structural audit: every open bin's level equals the sum of its
  /// residents (within fit tolerance), levels respect W, the open-bin count
  /// matches a census of open bins, the open-bin list holds each open bin
  /// once in ascending order, intrusive resident lists are doubly linked
  /// consistently, and the active-item count matches the per-bin item
  /// counts. Throws InvariantError on violation. Compiled to a no-op unless
  /// the build defines DBP_AUDIT (core/audit.hpp); place/remove additionally
  /// audit the touched bin on every call in audit builds.
  void audit() const;

 private:
  struct BinState {
    CompensatedSum level;
    std::size_t item_count = 0;
    ItemId head = kNoItem;  ///< first resident of the intrusive item list
    bool open = false;
    BinId prev_open = kNoBin;  ///< open-bin list links (open bins only)
    BinId next_open = kNoBin;
  };

  /// Per-item slot, indexed by ItemId. `bin` persists after departure (the
  /// assignment history); `active` distinguishes residents from alumni.
  struct ItemSlot {
    double size = 0.0;
    BinId bin = kNoBin;
    ItemId next = kNoItem;
    ItemId prev = kNoItem;
    bool active = false;
  };

  const BinState& state_of(BinId bin) const {
    DBP_REQUIRE(bin < bins_.size(), "unknown bin id");
    return bins_[static_cast<std::size_t>(bin)];
  }

  /// Appends the newest bin to the open-bin list; its id is the largest.
  void link_open(BinId bin);

  /// Cold half of remove(): closes a bin whose last resident just departed
  /// (resets the level exactly, unlinks it from the open-bin list, stamps
  /// the usage record, traces).
  void close_emptied_bin(BinId bin, Time t);

  /// Audits one bin's resident list against its cached level/item count
  /// (DBP_AUDIT builds only; no-op otherwise).
  void audit_bin(BinId bin) const;

  CostModel model_;
  std::vector<BinState> bins_;         // by BinId
  std::vector<BinUsageRecord> usage_;  // by BinId
  std::vector<ItemSlot> items_;        // by ItemId (dense)
  BinId first_open_ = kNoBin;  // open-bin list, ascending
  BinId last_open_ = kNoBin;
  std::size_t open_count_ = 0;
  std::size_t active_count_ = 0;
};

// ------------------------------------------------------------------------
// Inline hot paths: place/remove run once per event inside the
// devirtualized replay loops, so their bodies live here. The statement
// sequences are identical to the historical out-of-line definitions —
// inlining changes where the code is emitted, never what it computes.
// ------------------------------------------------------------------------

inline void BinManager::place(const ArrivingItem& item, BinId bin) {
  DBP_REQUIRE(item.id != kNoItem, "item id 2^64-1 is reserved (kNoItem)");
  DBP_REQUIRE(bin < bins_.size(), "unknown bin id");
  BinState& state = bins_[static_cast<std::size_t>(bin)];
  DBP_REQUIRE(state.open, "cannot place into a closed bin");
  DBP_REQUIRE(item.size > 0.0, "item size must be positive");
  DBP_REQUIRE(model_.fits(item.size, model_.bin_capacity - state.level.value()),
              "item does not fit into the chosen bin");
  const auto index = static_cast<std::size_t>(item.id);
  if (index >= items_.size()) {
    items_.resize(index + 1);  // ids are dense; growth is amortized O(1)
  }
  ItemSlot& slot = items_[index];
  DBP_REQUIRE(!slot.active, "item id already active");
  state.level.add(item.size);
  ++state.item_count;
  slot.size = item.size;
  slot.bin = bin;
  slot.active = true;
  // Push onto the bin's resident list.
  slot.prev = kNoItem;
  slot.next = state.head;
  if (state.head != kNoItem) items_[static_cast<std::size_t>(state.head)].prev = item.id;
  state.head = item.id;
  ++active_count_;
#if DBP_AUDIT_ENABLED
  audit_bin(bin);
#endif
}

inline DepartureOutcome BinManager::remove(ItemId item, Time t) {
  const auto index = static_cast<std::size_t>(item);
  DBP_REQUIRE(index < items_.size() && items_[index].active,
              "departure of an item that is not active");
  ItemSlot& slot = items_[index];
  const BinId bin = slot.bin;
  BinState& state = bins_[static_cast<std::size_t>(bin)];
  DBP_CHECK(state.open && state.item_count > 0, "departure from an empty/closed bin");
  state.level.subtract(slot.size);
  --state.item_count;
  // Unlink from the bin's resident list.
  if (slot.prev != kNoItem) {
    items_[static_cast<std::size_t>(slot.prev)].next = slot.next;
  } else {
    state.head = slot.next;
  }
  if (slot.next != kNoItem) {
    items_[static_cast<std::size_t>(slot.next)].prev = slot.prev;
  }
  slot.next = kNoItem;
  slot.prev = kNoItem;
  slot.active = false;  // slot.bin stays: assignment history
  --active_count_;
  DepartureOutcome outcome{bin, false};
  if (state.item_count == 0) {
    close_emptied_bin(bin, t);
    outcome.bin_closed = true;
  }
#if DBP_AUDIT_ENABLED
  audit_bin(bin);
#endif
  return outcome;
}

}  // namespace dbp
