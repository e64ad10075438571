// The dispatcher's session table: each active session's client id, an
// opaque 64-bit value, maps to a dense slot, and the packer sees only the
// slot as its ItemId. The packer's dense item table therefore holds as many
// entries as the most sessions ever active at once, whatever ids the
// clients pick (docs/dispatch_engine.md, "The session table").
//
// Open addressing with linear probing over a power-of-two cell array that
// grows at quarter load and never shrinks. A fixed mixer (the splitmix64
// finalizer) spreads the ids, and the cell index comes from its high bits,
// so ids a HashShardRouter sent to one shard still cover the whole array.
// Deletion shifts the rest of the cluster back instead of leaving
// tombstones, so a lookup ends at the first empty cell. A new session takes
// the lowest free slot: which slot comes next depends only on which slots
// are occupied, so a table restored from its (slot, id) pairs hands out the
// same slots as the uninterrupted run (core/free_slots.hpp).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/audit.hpp"
#include "core/free_slots.hpp"
#include "core/splitmix64.hpp"
#include "core/types.hpp"

namespace dbp {

class BinManager;

class SessionTable {
 public:
  /// Where a probe for one id ended: the id's cell, or the empty cell that
  /// ends its probe sequence, which is where insert() puts it.
  struct Probe {
    std::size_t cell = 0;
    bool found = false;
  };

  SessionTable() : cells_(kMinCells), shift_(64 - std::countr_zero(kMinCells)) {}

  /// One probe sequence for `id`. kNoItem (2^64 - 1) marks empty cells, so
  /// it is never found.
  [[nodiscard]] Probe find(std::uint64_t id) const noexcept {
    if (id == kNoItem) return {};
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t cell = home(id);; cell = (cell + 1) & mask) {
      if (cells_[cell].id == id) return {cell, true};
      if (cells_[cell].id == kNoItem) return {cell, false};
    }
  }

  /// The slot of a probe that found its id.
  [[nodiscard]] ItemId slot(Probe probe) const noexcept {
    return cells_[probe.cell].slot;
  }

  /// Adds `id` at `probe` (from find(id), not found, with no insert or
  /// erase since) and gives it the lowest free slot, which it returns.
  ItemId insert(Probe probe, std::uint64_t id) {
    if (grow_for_one_more()) probe = find(id);
    const auto slot = static_cast<ItemId>(free_slots_.take_lowest());
    if (slot == slot_ids_.size()) slot_ids_.push_back(kNoItem);
    slot_ids_[static_cast<std::size_t>(slot)] = id;
    cells_[probe.cell] = Cell{id, slot};
    ++size_;
    return slot;
  }

  /// Removes the entry a probe found and frees its slot.
  void erase(Probe probe) noexcept {
    const ItemId slot = cells_[probe.cell].slot;
    slot_ids_[static_cast<std::size_t>(slot)] = kNoItem;
    free_slots_.release(static_cast<std::size_t>(slot));
    // Backward shift: move each later entry of the cluster into the hole
    // when the hole lies between its home cell and its cell.
    const std::size_t mask = cells_.size() - 1;
    std::size_t hole = probe.cell;
    for (std::size_t next = (hole + 1) & mask; cells_[next].id != kNoItem;
         next = (next + 1) & mask) {
      const std::size_t displacement = (next - home(cells_[next].id)) & mask;
      if (displacement >= ((next - hole) & mask)) {
        cells_[hole] = cells_[next];
        hole = next;
      }
    }
    cells_[hole].id = kNoItem;
    --size_;
#if DBP_AUDIT_ENABLED
    audit_cluster(probe.cell);
#endif
  }

  /// The session id holding an occupied `slot`.
  [[nodiscard]] std::uint64_t id_of(ItemId slot) const noexcept {
    return slot_ids_[static_cast<std::size_t>(slot)];
  }

  /// Active sessions.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slots handed out since construction or the last restore: the most
  /// sessions held at once.
  [[nodiscard]] std::size_t slot_count() const noexcept { return slot_ids_.size(); }
  /// Cells in the open-addressing array (a power of two).
  [[nodiscard]] std::size_t capacity() const noexcept { return cells_.size(); }

  /// Calls `visit(slot, id)` for every session in ascending slot order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t slot = 0; slot < slot_ids_.size(); ++slot) {
      if (slot_ids_[slot] != kNoItem) visit(static_cast<ItemId>(slot), slot_ids_[slot]);
    }
  }

  /// Puts `id` into the free `slot`, for restoring a saved table in slot
  /// order; `probe` is find(id), not found. Call finish_restore() after the
  /// last entry.
  void restore(Probe probe, std::uint64_t id, ItemId slot);
  /// Frees every unoccupied slot below the highest restored one.
  void finish_restore();

  /// Throws InvariantError unless every cell is reachable from its home,
  /// the cells and the slot array hold the same (id, slot) pairs, the free
  /// bitmap marks exactly the unoccupied slots, and the sessions are
  /// exactly `packer`'s active items, slot for item. O(cells + slots).
  void audit(const BinManager& packer) const;

  /// The check DBP_AUDIT builds run after every event, in O(one probe):
  /// the table holds as many sessions as `packer` holds items, and `id`,
  /// when present, sits in a slot the packer holds and the bitmap does not
  /// mark free. With audit_cluster() after every erase it keeps the table
  /// and the packer agreeing event by event, from the empty table or from
  /// a restore that validated every pair.
  void audit_session(std::uint64_t id, const BinManager& packer) const;

  /// Throws InvariantError unless every entry from `cell` to the end of
  /// its cluster is reachable from its home: what a backward shift that
  /// started at `cell` may have moved.
  void audit_cluster(std::size_t cell) const;

 private:
  static constexpr std::size_t kMinCells = 16;

  struct Cell {
    std::uint64_t id = kNoItem;  ///< kNoItem: empty
    ItemId slot = 0;
  };

  /// The home cell: the top bits of the id's splitmix64 finalizer.
  [[nodiscard]] std::size_t home(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>(splitmix64_mix(id) >> shift_);
  }

  /// Doubles the cell array when one more entry would fill more than a
  /// quarter of it; true when it did, which makes earlier probes stale.
  /// The cells cost 16 bytes each, fewer than eight per session at the
  /// peak; a dispatcher replay read about 9 ns per event more at half load
  /// (docs/performance.md, "The session table").
  bool grow_for_one_more() {
    if (4 * (size_ + 1) <= cells_.size()) return false;
    grow();
    return true;
  }

  /// Doubles the cell array and reinserts every entry.
  void grow();

  std::vector<Cell> cells_;
  int shift_;  ///< 64 - log2(cells_.size())
  std::size_t size_ = 0;
  std::vector<std::uint64_t> slot_ids_;  ///< by slot; kNoItem when free
  FreeSlots free_slots_;
};

}  // namespace dbp
