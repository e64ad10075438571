// Runtime bin bookkeeping shared by all online packers.
//
// Bins are identified by dense BinIds assigned in opening order, so BinId
// order coincides with the temporal opening order the paper's First Fit
// definition refers to. Closed bins are never reopened (paper Section 3.2:
// "when all the items in a bin depart, the bin is closed"), so all a closed
// bin leaves behind is its usage record [opened, closed): the one per-bin
// record kept for the run's lifetime.
//
// Everything else about a bin lives in a dense *slot*, taken when the bin
// opens and freed when it closes. An opening bin takes the lowest free slot
// (core/free_slots.hpp), so the slot table holds as many entries as the
// most bins ever open at once, and a restored manager hands out the same
// slots as one that never stopped. The packers and fit strategies index
// their per-bin state by slot too; BinIds stay at the edges: placement
// results, usage records, traces and the assignment history.
//
// Item bookkeeping is hash-free: ItemIds are dense by construction (the
// Instance assigns them sequentially, and the gaming dispatcher's session
// table hands out the lowest free slot), so per-item state lives in vectors
// indexed by ItemId and each bin's residents form an intrusive doubly-linked
// list through those slots. place/remove are O(1) plus the compensated level
// update — no hashing in the packer event loop. The item slots are the only
// record of the resident items' sizes. The open bins form a second
// intrusive list through their slots, in opening order.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/audit.hpp"
#include "core/binary_io.hpp"
#include "core/compensated_sum.hpp"
#include "core/error.hpp"
#include "core/free_slots.hpp"
#include "core/item.hpp"
#include "core/types.hpp"

namespace dbp {

/// An open bin's index in the slot tables: taken when the bin opens, freed
/// when it closes, then free for a later bin. A distinct type, so that a
/// slot and a BinId never convert into each other.
enum class BinSlot : std::uint32_t {};
inline constexpr BinSlot kNoSlot{std::numeric_limits<std::uint32_t>::max()};

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
  BinSlot slot = kNoSlot;   ///< the slot `bin` held (free again once it closed)
  bool bin_closed = false;  ///< the departure emptied (and thus closed) the bin
};

/// Tracks levels, residual capacities, membership and usage periods of all
/// bins opened during one packing run. Purely mechanical: placement *policy*
/// lives in FitStrategy implementations.
///
/// The packers call the slot entry points on every event: open_bin, place,
/// remove, residual(BinSlot), fits(size, BinSlot) and id_of. The BinId entry
/// points serve callers outside the packers and tests; those marked O(open)
/// find the bin's slot by walking the open bins and never run per event.
class BinManager {
 public:
  explicit BinManager(CostModel model);

  [[nodiscard]] const CostModel& model() const noexcept { return model_; }

  /// Opens a fresh bin at time `t` in the lowest free slot and returns the
  /// slot; the bin's id is total_bins_opened() - 1.
  BinSlot open_bin(Time t);

  /// Places an arriving item into the open bin in `slot`. Throws
  /// PreconditionError when the item id is kNoItem (the list terminator),
  /// the slot holds no open bin, the item does not fit (beyond tolerance),
  /// or the item id is already present. Defined inline below: place/remove
  /// run once per event inside the devirtualized replay loop, and out-of-line
  /// they cost a call (plus a call to the no-op audit hook) per event.
  void place(const ArrivingItem& item, BinSlot slot);

  /// Removes a previously placed item at time `t`; closes the bin when it
  /// becomes empty (the close itself is the out-of-line cold path — it
  /// frees the slot, traces and stamps the usage record). Throws
  /// PreconditionError for unknown item ids. Defined inline below.
  DepartureOutcome remove(ItemId item, Time t);

  /// The id of the open bin in `slot`.
  [[nodiscard]] BinId id_of(BinSlot slot) const { return occupied(slot).id; }

  /// Total size of the items in the open bin in `slot`.
  [[nodiscard]] double level(BinSlot slot) const { return occupied(slot).level.value(); }

  /// W - level; negative-free up to tolerance. The hot path checks only
  /// that the slot exists: the packers ask right after a place or remove.
  [[nodiscard]] double residual(BinSlot slot) const {
    DBP_REQUIRE(static_cast<std::size_t>(slot) < bins_.size(), "unknown bin slot");
    return model_.bin_capacity - bins_[static_cast<std::size_t>(slot)].level.value();
  }

  /// True when an item of `size` fits now (tolerance-aware) into the open
  /// bin in `slot`; false for a free slot.
  [[nodiscard]] bool fits(double size, BinSlot slot) const {
    DBP_REQUIRE(static_cast<std::size_t>(slot) < bins_.size(), "unknown bin slot");
    const BinState& state = bins_[static_cast<std::size_t>(slot)];
    return state.id != kNoBin &&
           model_.fits(size, model_.bin_capacity - state.level.value());
  }

  /// The slot of open bin `bin`; std::nullopt once it has closed. O(open).
  [[nodiscard]] std::optional<BinSlot> slot_of(BinId bin) const;

  /// Total size of items currently in `bin` (0 for closed bins). O(open).
  [[nodiscard]] double level(BinId bin) const {
    const std::optional<BinSlot> slot = slot_of(bin);
    return slot ? level(*slot) : 0.0;
  }

  /// W - level(bin). O(open).
  [[nodiscard]] double residual(BinId bin) const {
    return model_.bin_capacity - level(bin);
  }

  /// True when an item of `size` fits in `bin` now (tolerance-aware); false
  /// for closed bins. O(open).
  [[nodiscard]] bool fits(double size, BinId bin) const {
    const std::optional<BinSlot> slot = slot_of(bin);
    return slot && fits(size, *slot);
  }

  /// O(1): a bin is open exactly while its usage record is.
  [[nodiscard]] bool is_open(BinId bin) const { return !usage(bin).is_closed(); }
  [[nodiscard]] std::size_t open_count() const noexcept { return open_count_; }
  [[nodiscard]] std::size_t total_bins_opened() const noexcept { return usage_.size(); }
  /// Residents of `bin` (0 for closed bins). O(open).
  [[nodiscard]] std::size_t item_count(BinId bin) const;
  [[nodiscard]] std::size_t active_item_count() const noexcept { return active_count_; }
  /// Slots handed out since construction or the last restore: the most
  /// bins open at once.
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return free_slots_.slot_count();
  }

  /// Usage record of one bin (valid for all bins ever opened).
  [[nodiscard]] const BinUsageRecord& usage(BinId bin) const;

  /// Usage records of every bin ever opened, indexed by BinId.
  [[nodiscard]] std::span<const BinUsageRecord> usage_records() const noexcept {
    return usage_;
  }

  /// Ids of all currently open bins, ascending (= opening order).
  [[nodiscard]] std::vector<BinId> open_bins() const;

  /// Calls `visit(slot)` for every open bin in opening order without
  /// allocating, for checks that run on every event. O(open bins).
  template <typename Visit>
  void for_each_open_bin(Visit&& visit) const {
    for (BinSlot slot = first_open_; slot != kNoSlot;
         slot = bins_[static_cast<std::size_t>(slot)].next_open) {
      visit(slot);
    }
  }

  /// Calls `visit(item, size)` for every resident of the open bin in
  /// `slot`, in resident-list order, without allocating.
  template <typename Visit>
  void for_each_resident(BinSlot slot, Visit&& visit) const {
    for (ItemId id = occupied(slot).head; id != kNoItem;
         id = items_[static_cast<std::size_t>(id)].next) {
      visit(id, items_[static_cast<std::size_t>(id)].size);
    }
  }

  /// The same for bin `bin`; visits nothing once it has closed. O(open).
  template <typename Visit>
  void for_each_resident(BinId bin, Visit&& visit) const {
    if (const std::optional<BinSlot> slot = slot_of(bin)) {
      for_each_resident(*slot, visit);
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

  /// Item ids currently resident in `bin`, ascending. O(open).
  [[nodiscard]] std::vector<ItemId> items_in(BinId bin) const;

  /// Pre-sizes the bin and item tables for a run expected to open at most
  /// `bins_hint` bins over at most `items_hint` distinct item ids, so the
  /// event loop's amortized growth never actually reallocates. A hint of 0
  /// leaves the corresponding table untouched; under-estimation is safe.
  void reserve(std::size_t bins_hint, std::size_t items_hint);

  /// Drops all state, keeping the cost model.
  void reset();

  /// Serializes the complete manager state: the usage records, the open
  /// bins in opening order with their slots and levels as raw
  /// compensated-sum terms, and the full item table with its intrusive
  /// resident lists. A closed bin costs its usage record alone. restore_state()
  /// is bit-exact: every subsequent fit decision, slot, level update and
  /// usage record matches an uninterrupted run.
  void save_state(ByteWriter& out) const;

  /// Rebuilds the state written by save_state() over a manager constructed
  /// with the *same* cost model (checked; mismatch throws CorruptionError).
  /// Existing state is discarded. Structural invariants of the decoded state
  /// are re-validated; violations throw CorruptionError.
  void restore_state(ByteReader& in);

  /// Deep structural audit: every open bin's level equals the sum of its
  /// residents (within fit tolerance), levels respect W, the open-bin list
  /// holds each occupied slot once in ascending id order, the free-slot
  /// bitmap marks exactly the unoccupied slots, each occupied slot names an
  /// unclosed usage record and every unclosed record an occupied slot,
  /// intrusive resident lists are doubly linked consistently, and the
  /// active-item count matches the per-bin item counts. Throws
  /// InvariantError on violation. Compiled to a no-op unless the build
  /// defines DBP_AUDIT (core/audit.hpp); place/remove additionally audit the
  /// touched slot on every call in audit builds.
  void audit() const;

 private:
  /// One slot of the open-bin table. A free slot holds the default state.
  struct BinState {
    CompensatedSum level;
    std::size_t item_count = 0;
    ItemId head = kNoItem;  ///< first resident of the intrusive item list
    BinId id = kNoBin;      ///< the open bin in this slot; kNoBin: free
    BinSlot prev_open = kNoSlot;  ///< open-bin list links, in opening order
    BinSlot next_open = kNoSlot;
  };

  /// Per-item slot, indexed by ItemId. `bin` persists after departure (the
  /// assignment history); `active` distinguishes residents from alumni, and
  /// `bin_slot` is the bin's slot while the item is active.
  struct ItemSlot {
    double size = 0.0;
    BinId bin = kNoBin;
    ItemId next = kNoItem;
    ItemId prev = kNoItem;
    BinSlot bin_slot = kNoSlot;
    bool active = false;
  };
  static_assert(sizeof(ItemSlot) == 40, "bin_slot must fit in active's padding");

  const BinState& occupied(BinSlot slot) const {
    DBP_REQUIRE(static_cast<std::size_t>(slot) < bins_.size() &&
                    bins_[static_cast<std::size_t>(slot)].id != kNoBin,
                "no open bin in this slot");
    return bins_[static_cast<std::size_t>(slot)];
  }

  /// Appends the newest bin to the open-bin list; its id is the largest.
  void link_open(BinSlot slot);

  /// Cold half of remove(): closes a bin whose last resident just departed
  /// (unlinks it from the open-bin list, frees its slot, stamps the usage
  /// record, traces).
  void close_emptied_bin(BinSlot slot, Time t);

  /// Audits one slot: a free slot holds the default state and is marked
  /// free; an occupied one's resident list matches its cached level and
  /// item count (DBP_AUDIT builds only; no-op otherwise).
  void audit_slot(BinSlot slot) const;

  CostModel model_;
  std::vector<BinState> bins_;         // by BinSlot: open bins only
  FreeSlots free_slots_;               // bins_'s free slots
  std::vector<BinUsageRecord> usage_;  // by BinId: every bin ever opened
  std::vector<ItemSlot> items_;        // by ItemId (dense)
  BinSlot first_open_ = kNoSlot;  // open-bin list, in opening order
  BinSlot last_open_ = kNoSlot;
  std::size_t open_count_ = 0;
  std::size_t active_count_ = 0;
};

// ------------------------------------------------------------------------
// Inline hot paths: place/remove run once per event inside the
// devirtualized replay loops, so their bodies live here. Inlining changes
// where the code is emitted, never what it computes.
// ------------------------------------------------------------------------

inline void BinManager::place(const ArrivingItem& item, BinSlot slot) {
  DBP_REQUIRE(item.id != kNoItem, "item id 2^64-1 is reserved (kNoItem)");
  DBP_REQUIRE(static_cast<std::size_t>(slot) < bins_.size(), "unknown bin slot");
  BinState& state = bins_[static_cast<std::size_t>(slot)];
  DBP_REQUIRE(state.id != kNoBin, "cannot place into a free slot");
  DBP_REQUIRE(item.size > 0.0, "item size must be positive");
  DBP_REQUIRE(model_.fits(item.size, model_.bin_capacity - state.level.value()),
              "item does not fit into the chosen bin");
  const auto index = static_cast<std::size_t>(item.id);
  if (index >= items_.size()) {
    items_.resize(index + 1);  // ids are dense; growth is amortized O(1)
  }
  ItemSlot& entry = items_[index];
  DBP_REQUIRE(!entry.active, "item id already active");
  state.level.add(item.size);
  ++state.item_count;
  entry.size = item.size;
  entry.bin = state.id;
  entry.bin_slot = slot;
  entry.active = true;
  // Push onto the bin's resident list.
  entry.prev = kNoItem;
  entry.next = state.head;
  if (state.head != kNoItem) items_[static_cast<std::size_t>(state.head)].prev = item.id;
  state.head = item.id;
  ++active_count_;
#if DBP_AUDIT_ENABLED
  audit_slot(slot);
#endif
}

inline DepartureOutcome BinManager::remove(ItemId item, Time t) {
  const auto index = static_cast<std::size_t>(item);
  DBP_REQUIRE(index < items_.size() && items_[index].active,
              "departure of an item that is not active");
  ItemSlot& entry = items_[index];
  const BinSlot slot = entry.bin_slot;
  BinState& state = bins_[static_cast<std::size_t>(slot)];
  DBP_CHECK(state.id == entry.bin && state.item_count > 0,
            "departure from an empty or foreign bin");
  state.level.subtract(entry.size);
  --state.item_count;
  // Unlink from the bin's resident list.
  if (entry.prev != kNoItem) {
    items_[static_cast<std::size_t>(entry.prev)].next = entry.next;
  } else {
    state.head = entry.next;
  }
  if (entry.next != kNoItem) {
    items_[static_cast<std::size_t>(entry.next)].prev = entry.prev;
  }
  entry.next = kNoItem;
  entry.prev = kNoItem;
  entry.active = false;  // entry.bin stays: assignment history
  --active_count_;
  DepartureOutcome outcome{entry.bin, slot, false};
  if (state.item_count == 0) {
    close_emptied_bin(slot, t);
    outcome.bin_closed = true;
  }
#if DBP_AUDIT_ENABLED
  audit_slot(slot);
#endif
  return outcome;
}

}  // namespace dbp
