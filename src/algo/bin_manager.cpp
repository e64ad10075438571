#include "algo/bin_manager.hpp"

#include <algorithm>
#include <cmath>

#include "core/audit.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace dbp {

BinManager::BinManager(CostModel model) : model_(model) { model_.validate(); }

BinId BinManager::open_bin(Time t) {
  const BinId id = static_cast<BinId>(bins_.size());
  bins_.push_back(BinState{CompensatedSum{}, 0, kNoItem, true});
  usage_.push_back(BinUsageRecord{id, t, kTimeInfinity});
  link_open(id);
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
  return id;
}

void BinManager::link_open(BinId bin) {
  bins_[static_cast<std::size_t>(bin)].prev_open = last_open_;
  if (last_open_ != kNoBin) {
    bins_[static_cast<std::size_t>(last_open_)].next_open = bin;
  } else {
    first_open_ = bin;
  }
  last_open_ = bin;
}

void BinManager::close_emptied_bin(BinId bin, Time t) {
  BinState& state = bins_[static_cast<std::size_t>(bin)];
  DBP_CHECK(state.head == kNoItem, "empty bin with a non-empty resident list");
  state.level.reset();  // exact zero: no drift survives a bin closure
  state.open = false;
  // Unlink from the open-bin list.
  if (state.prev_open != kNoBin) {
    bins_[static_cast<std::size_t>(state.prev_open)].next_open = state.next_open;
  } else {
    first_open_ = state.next_open;
  }
  if (state.next_open != kNoBin) {
    bins_[static_cast<std::size_t>(state.next_open)].prev_open = state.prev_open;
  } else {
    last_open_ = state.prev_open;
  }
  usage_[static_cast<std::size_t>(bin)].closed = t;
  --open_count_;
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord record;
    record.time = t;
    record.kind = obs::TraceKind::kBinClose;
    record.bin = bin;
    record.count = open_count_;
    tracer->record(std::move(record));
  }
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("bin_manager.bins_closed").add();
    metrics->gauge("bin_manager.open_bins").set(static_cast<double>(open_count_));
  }
}

std::size_t BinManager::item_count(BinId bin) const { return state_of(bin).item_count; }

const BinUsageRecord& BinManager::usage(BinId bin) const {
  DBP_REQUIRE(bin < usage_.size(), "unknown bin id");
  return usage_[static_cast<std::size_t>(bin)];
}

std::vector<BinId> BinManager::open_bins() const {
  std::vector<BinId> result;
  result.reserve(open_count_);
  for_each_open_bin([&result](BinId bin) { result.push_back(bin); });
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
  result.reserve(state_of(bin).item_count);
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
  out.u64(bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const BinState& state = bins_[i];
    out.f64(state.level.raw_sum());
    out.f64(state.level.raw_compensation());
    out.u64(state.item_count);
    out.u64(state.head);
    out.boolean(state.open);
    out.f64(usage_[i].opened);
    out.f64(usage_[i].closed);
  }
  out.u64(items_.size());
  for (const ItemSlot& slot : items_) {
    out.f64(slot.size);
    out.u64(slot.bin);
    out.u64(slot.next);
    out.u64(slot.prev);
    out.boolean(slot.active);
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
  bins_.reserve(bin_count);
  usage_.reserve(bin_count);
  for (std::uint64_t i = 0; i < bin_count; ++i) {
    const double sum = in.f64();
    const double compensation = in.f64();
    BinState state{CompensatedSum::from_raw(sum, compensation),
                   static_cast<std::size_t>(in.u64()), in.u64(), in.boolean()};
    BinUsageRecord record{static_cast<BinId>(i), in.f64(), in.f64()};
    if (state.open != !record.is_closed()) {
      throw CorruptionError("bin open flag disagrees with its usage record");
    }
    bins_.push_back(state);
    usage_.push_back(record);
    if (state.open) {
      link_open(static_cast<BinId>(i));
      ++open_count_;
    }
  }
  const std::uint64_t item_count = in.u64();
  items_.reserve(item_count);
  for (std::uint64_t i = 0; i < item_count; ++i) {
    ItemSlot slot;
    slot.size = in.f64();
    slot.bin = in.u64();
    slot.next = in.u64();
    slot.prev = in.u64();
    slot.active = in.boolean();
    if (slot.active) {
      if (slot.bin >= bins_.size() || !bins_[static_cast<std::size_t>(slot.bin)].open) {
        throw CorruptionError("active item resides in an unknown or closed bin");
      }
      ++active_count_;
    }
    items_.push_back(slot);
  }
  // Census check: the decoded resident lists must agree with the per-bin
  // item counts before any caller trusts the state.
  std::size_t resident_census = 0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    const BinState& state = bins_[b];
    std::size_t walked = 0;
    for (ItemId id = state.head; id != kNoItem;
         id = items_[static_cast<std::size_t>(id)].next) {
      if (static_cast<std::size_t>(id) >= items_.size() ||
          !items_[static_cast<std::size_t>(id)].active ||
          items_[static_cast<std::size_t>(id)].bin != static_cast<BinId>(b)) {
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
  }
  if (resident_census != active_count_) {
    throw CorruptionError("active-item count disagrees with per-bin censuses");
  }
  audit();
}

void BinManager::reserve(std::size_t bins_hint, std::size_t items_hint) {
  bins_.reserve(bins_hint);
  usage_.reserve(bins_hint);
  items_.reserve(items_hint);
}

void BinManager::reset() {
  bins_.clear();
  usage_.clear();
  items_.clear();
  first_open_ = kNoBin;
  last_open_ = kNoBin;
  open_count_ = 0;
  active_count_ = 0;
}

#if DBP_AUDIT_ENABLED

void BinManager::audit_bin(BinId bin) const {
  const BinState& state = bins_[static_cast<std::size_t>(bin)];
  const BinUsageRecord& record = usage_[static_cast<std::size_t>(bin)];
  DBP_AUDIT_CHECK(state.open == !record.is_closed(),
                  "bin open flag disagrees with its usage record");
  if (!state.open) {
    DBP_AUDIT_CHECK(state.item_count == 0 && state.head == kNoItem &&
                        state.level.value() == 0.0,
                    "closed bin retains residents or a non-zero level");
    return;
  }
  // Walk the intrusive resident list: census, link symmetry, membership,
  // and the level recomputed from scratch.
  double recomputed = 0.0;
  std::size_t census = 0;
  ItemId prev = kNoItem;
  for (ItemId id = state.head; id != kNoItem;
       id = items_[static_cast<std::size_t>(id)].next) {
    DBP_AUDIT_CHECK(static_cast<std::size_t>(id) < items_.size(),
                    "resident list points past the item table");
    const ItemSlot& slot = items_[static_cast<std::size_t>(id)];
    DBP_AUDIT_CHECK(slot.active, "resident list contains an inactive item");
    DBP_AUDIT_CHECK(slot.bin == bin, "resident list contains a foreign item");
    DBP_AUDIT_CHECK(slot.prev == prev, "resident list prev/next links disagree");
    DBP_AUDIT_CHECK(slot.size > 0.0, "resident item has a non-positive size");
    recomputed += slot.size;
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
  std::size_t open_census = 0;
  std::size_t resident_census = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    audit_bin(static_cast<BinId>(i));
    if (bins_[i].open) {
      ++open_census;
      resident_census += bins_[i].item_count;
    }
  }
  DBP_AUDIT_CHECK(open_census == open_count_,
                  "open-bin count disagrees with the census of open bins");
  // The open-bin list: strictly ascending (so no bin twice and no cycle),
  // only open bins, back links that match, and one entry per open bin.
  std::size_t listed = 0;
  BinId prev = kNoBin;
  for (BinId bin = first_open_; bin != kNoBin;
       bin = bins_[static_cast<std::size_t>(bin)].next_open) {
    DBP_AUDIT_CHECK(bin < bins_.size() && (prev == kNoBin || bin > prev),
                    "open-bin list is not ascending within the bin table");
    const BinState& state = bins_[static_cast<std::size_t>(bin)];
    DBP_AUDIT_CHECK(state.open && state.prev_open == prev,
                    "open-bin list holds a closed bin or a wrong back link");
    prev = bin;
    ++listed;
  }
  DBP_AUDIT_CHECK(prev == last_open_ && listed == open_count_,
                  "open-bin list disagrees with its tail or the open-bin count");
  DBP_AUDIT_CHECK(resident_census == active_count_,
                  "active-item count disagrees with the per-bin item counts");
  std::size_t active_slots = 0;
  for (const ItemSlot& slot : items_) {
    if (slot.active) ++active_slots;
  }
  DBP_AUDIT_CHECK(active_slots == active_count_,
                  "active-item count disagrees with the item-slot census");
}

#else  // !DBP_AUDIT_ENABLED

void BinManager::audit_bin(BinId) const {}
void BinManager::audit() const {}

#endif  // DBP_AUDIT_ENABLED

}  // namespace dbp
