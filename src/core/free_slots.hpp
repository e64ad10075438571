// The lowest-free-slot allocator behind the dispatcher's session table and
// the bin manager's open-bin table. A slot is a dense index into its
// owner's table; a freed slot is handed out again before any new one, so
// the table holds as many entries as the most ever taken at once, and which
// slot comes next depends only on which slots are taken. An owner restored
// from its (slot, entry) pairs therefore hands out the same slots as the
// run it was saved from. Free slots are a bitmap, scanned from its first
// word.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbp {

class FreeSlots {
 public:
  /// The lowest free slot, now taken; slot_count() when none is free, which
  /// counts one more slot. The owner grows its table to cover it.
  std::size_t take_lowest() {
    for (std::size_t word = 0; word < bits_.size(); ++word) {
      std::uint64_t& bits = bits_[word];
      if (bits == 0) continue;
      const std::size_t slot =
          64 * word + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      return slot;
    }
    return append();
  }

  /// Frees a taken slot.
  void release(std::size_t slot) noexcept {
    bits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }

  [[nodiscard]] bool is_free(std::size_t slot) const noexcept {
    return slot / 64 < bits_.size() && (bits_[slot / 64] >> (slot % 64) & 1U) != 0;
  }

  /// Slots handed out since construction or the last clear(): the most
  /// taken at once.
  [[nodiscard]] std::size_t slot_count() const noexcept { return count_; }

  /// For a restore that names its slots: counts every slot up to `slot` as
  /// handed out and taken. release() the unoccupied ones afterwards.
  void take_through(std::size_t slot) {
    while (count_ <= slot) (void)append();
  }

  /// True when the free bits are exactly the slots below slot_count() for
  /// which `occupied(slot)` is false; the audits of both owners use it.
  template <typename Occupied>
  [[nodiscard]] bool marks_exactly_unoccupied(Occupied&& occupied) const {
    if (bits_.size() != (count_ + 63) / 64) return false;
    for (std::size_t slot = 0; slot < 64 * bits_.size(); ++slot) {
      if (is_free(slot) != (slot < count_ && !occupied(slot))) return false;
    }
    return true;
  }

  void reserve(std::size_t slots) { bits_.reserve((slots + 63) / 64); }

  void clear() noexcept {
    bits_.clear();
    count_ = 0;
  }

 private:
  std::size_t append() {
    const std::size_t slot = count_++;
    if (slot % 64 == 0) bits_.push_back(0);
    return slot;
  }

  std::vector<std::uint64_t> bits_;  ///< bit s: slot s is free
  std::size_t count_ = 0;
};

}  // namespace dbp
