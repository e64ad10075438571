#include "algo/bin_manager.hpp"

#include <algorithm>
#include <cmath>

#include "core/audit.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace dbp {

BinManager::BinManager(CostModel model) : model_(model) { model_.validate(); }

BinSlot BinManager::open_bin(Time t) {
  const BinId id = static_cast<BinId>(usage_.size());
  const std::size_t at = free_slots_.take_lowest();
  DBP_CHECK(at < static_cast<std::size_t>(kNoSlot), "bin slot space exhausted");
  if (at == bins_.size()) bins_.emplace_back();
  const auto slot = static_cast<BinSlot>(at);
  bins_[at].id = id;  // a free slot holds the default state
  usage_.push_back(BinUsageRecord{id, t, kTimeInfinity});
  link_open(slot);
  ++open_count_;
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord record;
    record.time = t;
    record.kind = obs::TraceKind::kBinOpen;
    record.bin = id;
    record.count = open_count_;
    tracer->record(std::move(record));
  }
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("bin_manager.bins_opened").add();
    metrics->gauge("bin_manager.open_bins").set(static_cast<double>(open_count_));
  }
  return slot;
}

void BinManager::link_open(BinSlot slot) {
  bins_[static_cast<std::size_t>(slot)].prev_open = last_open_;
  if (last_open_ != kNoSlot) {
    bins_[static_cast<std::size_t>(last_open_)].next_open = slot;
  } else {
    first_open_ = slot;
  }
  last_open_ = slot;
}

void BinManager::close_emptied_bin(BinSlot slot, Time t) {
  BinState& state = bins_[static_cast<std::size_t>(slot)];
  DBP_CHECK(state.head == kNoItem, "empty bin with a non-empty resident list");
  const BinId id = state.id;
  // Unlink from the open-bin list.
  if (state.prev_open != kNoSlot) {
    bins_[static_cast<std::size_t>(state.prev_open)].next_open = state.next_open;
  } else {
    first_open_ = state.next_open;
  }
  if (state.next_open != kNoSlot) {
    bins_[static_cast<std::size_t>(state.next_open)].prev_open = state.prev_open;
  } else {
    last_open_ = state.prev_open;
  }
  state = BinState{};  // exact zero level: no drift survives a bin closure
  free_slots_.release(static_cast<std::size_t>(slot));
  usage_[static_cast<std::size_t>(id)].closed = t;
  --open_count_;
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord record;
    record.time = t;
    record.kind = obs::TraceKind::kBinClose;
    record.bin = id;
    record.count = open_count_;
    tracer->record(std::move(record));
  }
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("bin_manager.bins_closed").add();
    metrics->gauge("bin_manager.open_bins").set(static_cast<double>(open_count_));
  }
}

std::optional<BinSlot> BinManager::slot_of(BinId bin) const {
  if (!is_open(bin)) return std::nullopt;
  // The open-bin list ascends by id, so the walk stops at or past `bin`.
  for (BinSlot slot = first_open_; slot != kNoSlot;
       slot = bins_[static_cast<std::size_t>(slot)].next_open) {
    const BinId id = bins_[static_cast<std::size_t>(slot)].id;
    if (id == bin) return slot;
    if (id > bin) break;
  }
  DBP_CHECK(false, "an unclosed usage record names no open bin");
  return std::nullopt;
}

std::size_t BinManager::item_count(BinId bin) const {
  const std::optional<BinSlot> slot = slot_of(bin);
  return slot ? occupied(*slot).item_count : 0;
}

const BinUsageRecord& BinManager::usage(BinId bin) const {
  DBP_REQUIRE(bin < usage_.size(), "unknown bin id");
  return usage_[static_cast<std::size_t>(bin)];
}

std::vector<BinId> BinManager::open_bins() const {
  std::vector<BinId> result;
  result.reserve(open_count_);
  for_each_open_bin([&](BinSlot slot) { result.push_back(id_of(slot)); });
  return result;
}

std::optional<BinId> BinManager::assignment_of(ItemId item) const {
  const auto index = static_cast<std::size_t>(item);
  if (index >= items_.size() || items_[index].bin == kNoBin) return std::nullopt;
  return items_[index].bin;
}

std::vector<BinId> BinManager::assignment_history() const {
  std::vector<BinId> history(items_.size(), kNoBin);
  for (std::size_t i = 0; i < items_.size(); ++i) history[i] = items_[i].bin;
  return history;
}

std::vector<ItemId> BinManager::items_in(BinId bin) const {
  std::vector<ItemId> result;
  for_each_resident(bin, [&result](ItemId id, double) { result.push_back(id); });
  std::sort(result.begin(), result.end());
  return result;
}

void BinManager::save_state(ByteWriter& out) const {
  // Cost model fields are written so restore can verify the receiving
  // manager was constructed identically (fit decisions depend on all three).
  out.f64(model_.bin_capacity);
  out.f64(model_.cost_rate);
  out.f64(model_.fit_tolerance);
  // Every bin's usage record; the ids are the record indexes.
  out.u64(usage_.size());
  for (const BinUsageRecord& record : usage_) {
    out.f64(record.opened);
    out.f64(record.closed);
  }
  // The open bins in opening order. Their ids are the unclosed records'.
  out.u64(open_count_);
  for_each_open_bin([&](BinSlot slot) {
    const BinState& state = bins_[static_cast<std::size_t>(slot)];
    out.u32(static_cast<std::uint32_t>(slot));
    out.f64(state.level.raw_sum());
    out.f64(state.level.raw_compensation());
    out.u64(state.item_count);
    out.u64(state.head);
  });
  out.u64(items_.size());
  for (const ItemSlot& entry : items_) {
    out.f64(entry.size);
    out.u64(entry.bin);
    out.u64(entry.next);
    out.u64(entry.prev);
    out.boolean(entry.active);
  }
}

void BinManager::restore_state(ByteReader& in) {
  const double capacity = in.f64();
  const double rate = in.f64();
  const double tolerance = in.f64();
  if (capacity != model_.bin_capacity || rate != model_.cost_rate ||
      tolerance != model_.fit_tolerance) {
    throw CorruptionError("checkpoint cost model differs from this manager's");
  }
  reset();
  const std::uint64_t bin_count = in.u64();
  // No more records than bytes to hold them (16 per record).
  usage_.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(bin_count, in.remaining() / 16)));
  std::vector<BinId> unclosed;  // ascending: the open bins' ids in opening order
  for (std::uint64_t i = 0; i < bin_count; ++i) {
    const BinUsageRecord record{static_cast<BinId>(i), in.f64(), in.f64()};
    if (!record.is_closed()) unclosed.push_back(record.id);
    usage_.push_back(record);
  }
  if (in.u64() != unclosed.size()) {
    throw CorruptionError("open-bin count disagrees with the unclosed usage records");
  }
  std::vector<BinSlot> slot_of_open(unclosed.size());  // parallel to `unclosed`
  for (std::size_t i = 0; i < unclosed.size(); ++i) {
    const std::uint32_t raw_slot = in.u32();
    const double sum = in.f64();
    const double compensation = in.f64();
    const std::uint64_t item_count = in.u64();
    const ItemId head = in.u64();
    const auto slot = static_cast<BinSlot>(raw_slot);
    // A bin that took slot s found slots 0..s-1 held by earlier bins, so a
    // slot never exceeds its bin's id (which bounds the table's growth here).
    if (slot == kNoSlot || raw_slot > unclosed[i]) {
      throw CorruptionError("an open bin's slot exceeds its id");
    }
    if (raw_slot < bins_.size() && bins_[raw_slot].id != kNoBin) {
      throw CorruptionError("two open bins share a slot");
    }
    free_slots_.take_through(raw_slot);
    bins_.resize(free_slots_.slot_count());
    bins_[raw_slot] = BinState{CompensatedSum::from_raw(sum, compensation),
                               static_cast<std::size_t>(item_count), head,
                               unclosed[i], kNoSlot, kNoSlot};
    link_open(slot);
    ++open_count_;
    slot_of_open[i] = slot;
  }
  for (std::size_t slot = 0; slot < bins_.size(); ++slot) {
    if (bins_[slot].id == kNoBin) free_slots_.release(slot);
  }
  const std::uint64_t item_count = in.u64();
  // No more items than bytes to hold them (33 per item).
  items_.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(item_count, in.remaining() / 33)));
  for (std::uint64_t i = 0; i < item_count; ++i) {
    ItemSlot entry;
    entry.size = in.f64();
    entry.bin = in.u64();
    entry.next = in.u64();
    entry.prev = in.u64();
    entry.active = in.boolean();
    if (entry.active) {
      const auto it = std::lower_bound(unclosed.begin(), unclosed.end(), entry.bin);
      if (it == unclosed.end() || *it != entry.bin) {
        throw CorruptionError("active item resides in an unknown or closed bin");
      }
      entry.bin_slot = slot_of_open[static_cast<std::size_t>(it - unclosed.begin())];
      ++active_count_;
    }
    items_.push_back(entry);
  }
  // Census check: the decoded resident lists must agree with the per-bin
  // item counts before any caller trusts the state.
  std::size_t resident_census = 0;
  for_each_open_bin([&](BinSlot slot) {
    const BinState& state = bins_[static_cast<std::size_t>(slot)];
    std::size_t walked = 0;
    for (ItemId id = state.head; id != kNoItem;
         id = items_[static_cast<std::size_t>(id)].next) {
      if (static_cast<std::size_t>(id) >= items_.size() ||
          !items_[static_cast<std::size_t>(id)].active ||
          items_[static_cast<std::size_t>(id)].bin != state.id) {
        throw CorruptionError("resident list is inconsistent with item slots");
      }
      if (++walked > state.item_count) {
        throw CorruptionError("resident list longer than the bin's item count");
      }
    }
    if (walked != state.item_count) {
      throw CorruptionError("resident census disagrees with the item count");
    }
    resident_census += state.item_count;
  });
  if (resident_census != active_count_) {
    throw CorruptionError("active-item count disagrees with per-bin censuses");
  }
  audit();
}

void BinManager::reserve(std::size_t bins_hint, std::size_t items_hint) {
  bins_.reserve(bins_hint);
  free_slots_.reserve(bins_hint);
  usage_.reserve(bins_hint);
  items_.reserve(items_hint);
}

void BinManager::reset() {
  bins_.clear();
  free_slots_.clear();
  usage_.clear();
  items_.clear();
  first_open_ = kNoSlot;
  last_open_ = kNoSlot;
  open_count_ = 0;
  active_count_ = 0;
}

#if DBP_AUDIT_ENABLED

void BinManager::audit_slot(BinSlot slot) const {
  const auto at = static_cast<std::size_t>(slot);
  const BinState& state = bins_[at];
  if (state.id == kNoBin) {
    DBP_AUDIT_CHECK(free_slots_.is_free(at), "a free bin slot is not marked free");
    DBP_AUDIT_CHECK(state.item_count == 0 && state.head == kNoItem &&
                        state.level.value() == 0.0,
                    "a free bin slot retains residents or a non-zero level");
    return;
  }
  DBP_AUDIT_CHECK(!free_slots_.is_free(at), "an occupied bin slot is marked free");
  DBP_AUDIT_CHECK(state.id < usage_.size() &&
                      !usage_[static_cast<std::size_t>(state.id)].is_closed(),
                  "an occupied bin slot names a closed or unknown bin");
  // Walk the intrusive resident list: census, link symmetry, membership,
  // and the level recomputed from scratch.
  double recomputed = 0.0;
  std::size_t census = 0;
  ItemId prev = kNoItem;
  for (ItemId id = state.head; id != kNoItem;
       id = items_[static_cast<std::size_t>(id)].next) {
    DBP_AUDIT_CHECK(static_cast<std::size_t>(id) < items_.size(),
                    "resident list points past the item table");
    const ItemSlot& entry = items_[static_cast<std::size_t>(id)];
    DBP_AUDIT_CHECK(entry.active, "resident list contains an inactive item");
    DBP_AUDIT_CHECK(entry.bin == state.id && entry.bin_slot == slot,
                    "resident list contains a foreign item");
    DBP_AUDIT_CHECK(entry.prev == prev, "resident list prev/next links disagree");
    DBP_AUDIT_CHECK(entry.size > 0.0, "resident item has a non-positive size");
    recomputed += entry.size;
    ++census;
    DBP_AUDIT_CHECK(census <= state.item_count,
                    "resident list is longer than the bin's item count");
    prev = id;
  }
  DBP_AUDIT_CHECK(census == state.item_count,
                  "open-bin resident census disagrees with item count");
  // The cached level is a compensated sum over the placement history while
  // the recomputation folds in list order, so agreement is up to the fit
  // tolerance (itself far below any meaningful size), not bitwise.
  const double tolerance =
      model_.fit_tolerance * static_cast<double>(state.item_count + 1);
  DBP_AUDIT_CHECK(std::abs(recomputed - state.level.value()) <= tolerance,
                  "bin level disagrees with the sum of resident sizes");
  DBP_AUDIT_CHECK(state.level.value() <= model_.bin_capacity + model_.fit_tolerance,
                  "bin level exceeds the bin capacity");
}

void BinManager::audit() const {
  DBP_AUDIT_CHECK(free_slots_.slot_count() == bins_.size() &&
                      free_slots_.marks_exactly_unoccupied([this](std::size_t slot) {
                        return bins_[slot].id != kNoBin;
                      }),
                  "free-slot bitmap disagrees with the unoccupied bin slots");
  std::size_t occupied_census = 0;
  std::size_t resident_census = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    audit_slot(static_cast<BinSlot>(i));
    if (bins_[i].id != kNoBin) {
      ++occupied_census;
      resident_census += bins_[i].item_count;
    }
  }
  DBP_AUDIT_CHECK(occupied_census == open_count_,
                  "open-bin count disagrees with the census of occupied slots");
  // Each occupied slot names an unclosed record (audit_slot), the list
  // below holds each occupied slot once with distinct ids, and there are as
  // many unclosed records as open bins: every unclosed record names an
  // occupied slot.
  std::size_t unclosed = 0;
  for (const BinUsageRecord& record : usage_) {
    if (!record.is_closed()) ++unclosed;
  }
  DBP_AUDIT_CHECK(unclosed == open_count_,
                  "unclosed usage records disagree with the open-bin count");
  // The open-bin list: ids strictly ascending (so no bin twice and no
  // cycle), only occupied slots, back links that match, and one entry per
  // open bin.
  std::size_t listed = 0;
  BinSlot prev = kNoSlot;
  for (BinSlot slot = first_open_; slot != kNoSlot;
       slot = bins_[static_cast<std::size_t>(slot)].next_open) {
    DBP_AUDIT_CHECK(static_cast<std::size_t>(slot) < bins_.size(),
                    "open-bin list points past the slot table");
    const BinState& state = bins_[static_cast<std::size_t>(slot)];
    DBP_AUDIT_CHECK(state.id != kNoBin && state.prev_open == prev,
                    "open-bin list holds a free slot or a wrong back link");
    DBP_AUDIT_CHECK(prev == kNoSlot ||
                        bins_[static_cast<std::size_t>(prev)].id < state.id,
                    "open-bin list is not in opening order");
    prev = slot;
    ++listed;
  }
  DBP_AUDIT_CHECK(prev == last_open_ && listed == open_count_,
                  "open-bin list disagrees with its tail or the open-bin count");
  DBP_AUDIT_CHECK(resident_census == active_count_,
                  "active-item count disagrees with the per-bin item counts");
  std::size_t active_slots = 0;
  for (const ItemSlot& entry : items_) {
    if (entry.active) ++active_slots;
  }
  DBP_AUDIT_CHECK(active_slots == active_count_,
                  "active-item count disagrees with the item-slot census");
}

#else  // !DBP_AUDIT_ENABLED

void BinManager::audit_slot(BinSlot) const {}
void BinManager::audit() const {}

#endif  // DBP_AUDIT_ENABLED

}  // namespace dbp
