#include "gaming/session_table.hpp"

#include <utility>

#include "algo/bin_manager.hpp"
#include "core/error.hpp"

namespace dbp {

void SessionTable::grow() {
  const std::vector<Cell> old = std::move(cells_);
  cells_.assign(2 * old.size(), Cell{});
  shift_ = 64 - std::countr_zero(cells_.size());
  for (const Cell& cell : old) {
    if (cell.id != kNoItem) cells_[find(cell.id).cell] = cell;
  }
}

void SessionTable::restore(Probe probe, std::uint64_t id, ItemId slot) {
  if (grow_for_one_more()) probe = find(id);
  free_slots_.take_through(static_cast<std::size_t>(slot));
  slot_ids_.resize(free_slots_.slot_count(), kNoItem);
  slot_ids_[static_cast<std::size_t>(slot)] = id;
  cells_[probe.cell] = Cell{id, slot};
  ++size_;
}

void SessionTable::finish_restore() {
  for (std::size_t slot = 0; slot < slot_ids_.size(); ++slot) {
    if (slot_ids_[slot] == kNoItem) free_slots_.release(slot);
  }
}

void SessionTable::audit(const BinManager& packer) const {
  std::size_t occupied = 0;
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    const Cell& entry = cells_[cell];
    if (entry.id == kNoItem) continue;
    ++occupied;
    const Probe probe = find(entry.id);
    DBP_CHECK(probe.found && probe.cell == cell,
              "session table cell is unreachable from its home cell");
    const auto slot = static_cast<std::size_t>(entry.slot);
    DBP_CHECK(slot < slot_ids_.size() && slot_ids_[slot] == entry.id,
              "session table cell and slot array disagree");
    DBP_CHECK(packer.active_size(entry.slot).has_value(),
              "session slot is not an active item of the packer");
  }
  DBP_CHECK(occupied == size_, "session table size disagrees with its cells");
  DBP_CHECK(size_ == packer.active_item_count(),
            "session table and packer hold different numbers of sessions");
  DBP_CHECK(free_slots_.slot_count() == slot_ids_.size() &&
                free_slots_.marks_exactly_unoccupied(
                    [this](std::size_t slot) { return slot_ids_[slot] != kNoItem; }),
            "free-slot bitmap disagrees with the unoccupied slots");
}

void SessionTable::audit_session(std::uint64_t id, const BinManager& packer) const {
  DBP_CHECK(size_ == packer.active_item_count(),
            "session table and packer hold different numbers of sessions");
  const Probe probe = find(id);
  if (!probe.found) return;
  const auto slot = static_cast<std::size_t>(cells_[probe.cell].slot);
  DBP_CHECK(slot < slot_ids_.size() && slot_ids_[slot] == id,
            "session table cell and slot array disagree");
  DBP_CHECK(!free_slots_.is_free(slot), "an occupied session slot is marked free");
  DBP_CHECK(packer.active_size(cells_[probe.cell].slot).has_value(),
            "session slot is not an active item of the packer");
}

void SessionTable::audit_cluster(std::size_t cell) const {
  const std::size_t mask = cells_.size() - 1;
  for (; cells_[cell].id != kNoItem; cell = (cell + 1) & mask) {
    const Probe probe = find(cells_[cell].id);
    DBP_CHECK(probe.found && probe.cell == cell,
              "session table cell is unreachable from its home cell");
  }
}

}  // namespace dbp
