#include "algo/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "core/error.hpp"

namespace dbp {

namespace {

constexpr double kUnregistered = std::numeric_limits<double>::quiet_NaN();

}  // namespace

// ------------------------------------------------------ First and Last Fit
// (hot-path handlers are inline in strategies.hpp)

template <FitSide Side>
void OpeningOrderFitStrategy<Side>::compact() {
  // Re-register the live bins in position order. Relative order — the only
  // thing the leftmost and rightmost descents depend on — is preserved, so
  // every future selection is identical to the uncompacted tree's.
  // A position whose slot has since been closed, or closed and registered
  // again further on, is dead: pos_of_ no longer points at it.
  scratch_.clear();
  for (std::size_t p = 0; p < slot_at_.size(); ++p) {
    const BinSlot slot = slot_at_[p];
    if (pos_of_[static_cast<std::size_t>(slot)] == p) {
      scratch_.emplace_back(residuals_.value_at(p), slot);
    }
  }
  residuals_.clear();
  slot_at_.clear();
  for (const auto& [residual, slot] : scratch_) {
    const std::size_t pos = residuals_.push_back(residual);
    slot_at_.push_back(slot);
    pos_of_[static_cast<std::size_t>(slot)] = pos;
  }
}

template <FitSide Side>
void OpeningOrderFitStrategy<Side>::reserve(std::size_t bins_hint) {
  residuals_.reserve(bins_hint);
  slot_at_.reserve(bins_hint);
  pos_of_.reserve(bins_hint);
  scratch_.reserve(bins_hint);
}

template class OpeningOrderFitStrategy<FitSide::kFirst>;
template class OpeningOrderFitStrategy<FitSide::kLast>;

// ------------------------------------------------------ Best and Worst Fit
// (hot-path handlers are inline in strategies.hpp)

template <FitFill Fill>
void ResidualOrderFitStrategy<Fill>::reserve(std::size_t bins_hint) {
  by_residual_.reserve(bins_hint);
  pos_of_.reserve(bins_hint);
}

template class ResidualOrderFitStrategy<FitFill::kBest>;
template class ResidualOrderFitStrategy<FitFill::kWorst>;

// ----------------------------------------------------------------- NextFit

std::optional<BinSlot> NextFitStrategy::select(double size) {
  if (current_ && model_.fits(size, current_residual_)) return current_;
  // Deliberately retire the current bin: Next Fit never revisits it.
  current_.reset();
  return std::nullopt;
}

void NextFitStrategy::on_bin_registered(BinSlot slot, BinId, double residual) {
  current_ = slot;
  current_residual_ = residual;
}

void NextFitStrategy::on_residual_changed(BinSlot slot, double residual) {
  if (current_ && *current_ == slot) current_residual_ = residual;
}

void NextFitStrategy::on_bin_closed(BinSlot slot) {
  if (current_ && *current_ == slot) current_.reset();
}

void NextFitStrategy::save_state(ByteWriter& out) const {
  out.boolean(current_.has_value());
  out.u32(static_cast<std::uint32_t>(current_.value_or(kNoSlot)));
  out.f64(current_residual_);
}

void NextFitStrategy::load_state(ByteReader& in) {
  const bool has_current = in.boolean();
  const auto slot = static_cast<BinSlot>(in.u32());
  const double residual = in.f64();
  current_ = has_current ? std::optional<BinSlot>(slot) : std::nullopt;
  current_residual_ = residual;
}

// --------------------------------------------------------------- RandomFit

std::optional<BinSlot> RandomFitStrategy::select(double size) {
  // Reservoir-sample uniformly over fitting bins in one pass.
  std::optional<BinSlot> chosen;
  std::size_t seen = 0;
  for (const auto& [slot, residual] : open_) {
    if (!model_.fits(size, residual)) continue;
    ++seen;
    if (std::uniform_int_distribution<std::size_t>(1, seen)(rng_) == 1) {
      chosen = slot;
    }
  }
  return chosen;
}

bool RandomFitStrategy::has_fit(double size) const {
  return std::any_of(open_.begin(), open_.end(), [&](const auto& entry) {
    return model_.fits(size, entry.second);
  });
}

void RandomFitStrategy::on_bin_registered(BinSlot slot, BinId, double residual) {
  const auto at = static_cast<std::size_t>(slot);
  if (at >= pos_of_.size()) pos_of_.resize(at + 1, kNoPos);
  pos_of_[at] = open_.size();
  open_.emplace_back(slot, residual);
}

void RandomFitStrategy::on_residual_changed(BinSlot slot, double residual) {
  const auto at = static_cast<std::size_t>(slot);
  DBP_REQUIRE(at < pos_of_.size() && pos_of_[at] != kNoPos,
              "residual change for unregistered bin");
  open_[pos_of_[at]].second = residual;
}

void RandomFitStrategy::on_bin_closed(BinSlot slot) {
  const auto at = static_cast<std::size_t>(slot);
  DBP_REQUIRE(at < pos_of_.size() && pos_of_[at] != kNoPos,
              "closing an unregistered bin");
  const std::size_t pos = pos_of_[at];
  pos_of_[at] = kNoPos;
  if (pos + 1 != open_.size()) {
    open_[pos] = open_.back();
    pos_of_[static_cast<std::size_t>(open_[pos].first)] = pos;
  }
  open_.pop_back();
}

void RandomFitStrategy::reserve(std::size_t bins_hint) {
  open_.reserve(bins_hint);
  pos_of_.reserve(bins_hint);
}

void RandomFitStrategy::save_state(ByteWriter& out) const {
  std::ostringstream engine;
  engine << rng_;
  out.str(engine.str());
  out.u64(open_.size());
  for (const auto& [slot, residual] : open_) {
    out.u32(static_cast<std::uint32_t>(slot));
    out.f64(residual);
  }
}

void RandomFitStrategy::load_state(ByteReader& in) {
  std::istringstream engine(in.str());
  engine >> rng_;
  if (engine.fail()) throw CorruptionError("malformed random-fit engine state");
  // Replace the registration-replay order with the persisted swap-remove
  // order: select() iterates open_, so the order is part of the trajectory.
  // Each persisted slot must be one the replay registered, and none twice:
  // a slot is unmarked as it is consumed.
  const std::uint64_t count = in.u64();
  if (count != open_.size()) {
    throw CorruptionError("random-fit open-bin census mismatch");
  }
  std::vector<std::pair<BinSlot, double>> restored;
  restored.reserve(open_.size());
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto slot = static_cast<BinSlot>(in.u32());
    const double residual = in.f64();
    const auto at = static_cast<std::size_t>(slot);
    if (at >= pos_of_.size() || pos_of_[at] == kNoPos) {
      throw CorruptionError("random-fit open list names a foreign or repeated bin");
    }
    pos_of_[at] = kNoPos;
    restored.emplace_back(slot, residual);
  }
  open_ = std::move(restored);
  for (std::size_t pos = 0; pos < open_.size(); ++pos) {
    pos_of_[static_cast<std::size_t>(open_[pos].first)] = pos;
  }
}

// ------------------------------------------------------------- MoveToFront

bool MoveToFrontStrategy::registered(BinSlot slot) const noexcept {
  const auto at = static_cast<std::size_t>(slot);
  return at < residual_of_.size() && !std::isnan(residual_of_[at]);
}

void MoveToFrontStrategy::grow_to(BinSlot slot) {
  const auto at = static_cast<std::size_t>(slot);
  if (at >= residual_of_.size()) {
    residual_of_.resize(at + 1, kUnregistered);
    next_.resize(at + 1, kNoSlot);
    prev_.resize(at + 1, kNoSlot);
  }
}

void MoveToFrontStrategy::link_front(BinSlot slot) {
  const auto at = static_cast<std::size_t>(slot);
  prev_[at] = kNoSlot;
  next_[at] = head_;
  if (head_ != kNoSlot) {
    prev_[static_cast<std::size_t>(head_)] = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
  ++list_size_;
}

void MoveToFrontStrategy::link_back(BinSlot slot) {
  const auto at = static_cast<std::size_t>(slot);
  next_[at] = kNoSlot;
  prev_[at] = tail_;
  if (tail_ != kNoSlot) {
    next_[static_cast<std::size_t>(tail_)] = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  ++list_size_;
}

void MoveToFrontStrategy::unlink(BinSlot slot) {
  const auto at = static_cast<std::size_t>(slot);
  const BinSlot p = prev_[at];
  const BinSlot n = next_[at];
  if (p != kNoSlot) {
    next_[static_cast<std::size_t>(p)] = n;
  } else {
    head_ = n;
  }
  if (n != kNoSlot) {
    prev_[static_cast<std::size_t>(n)] = p;
  } else {
    tail_ = p;
  }
  prev_[at] = kNoSlot;
  next_[at] = kNoSlot;
  --list_size_;
}

std::optional<BinSlot> MoveToFrontStrategy::select(double size) {
  for (BinSlot slot = head_; slot != kNoSlot;
       slot = next_[static_cast<std::size_t>(slot)]) {
    if (model_.fits(size, residual_of_[static_cast<std::size_t>(slot)])) {
      // Selection implies placement under the Any Fit packer, so the
      // recency promotion happens here.
      if (slot != head_) {
        unlink(slot);
        link_front(slot);
      }
      return slot;
    }
  }
  return std::nullopt;
}

bool MoveToFrontStrategy::has_fit(double size) const {
  for (BinSlot slot = head_; slot != kNoSlot;
       slot = next_[static_cast<std::size_t>(slot)]) {
    if (model_.fits(size, residual_of_[static_cast<std::size_t>(slot)])) {
      return true;
    }
  }
  return false;
}

void MoveToFrontStrategy::on_bin_registered(BinSlot slot, BinId, double residual) {
  grow_to(slot);
  DBP_CHECK(!registered(slot), "duplicate move-to-front registration");
  residual_of_[static_cast<std::size_t>(slot)] = residual;
  link_front(slot);
}

void MoveToFrontStrategy::on_residual_changed(BinSlot slot, double residual) {
  DBP_REQUIRE(registered(slot), "residual change for unregistered bin");
  residual_of_[static_cast<std::size_t>(slot)] = residual;
}

void MoveToFrontStrategy::on_bin_closed(BinSlot slot) {
  DBP_REQUIRE(registered(slot), "closing an unregistered bin");
  unlink(slot);
  residual_of_[static_cast<std::size_t>(slot)] = kUnregistered;
}

void MoveToFrontStrategy::reserve(std::size_t bins_hint) {
  residual_of_.reserve(bins_hint);
  next_.reserve(bins_hint);
  prev_.reserve(bins_hint);
}

void MoveToFrontStrategy::save_state(ByteWriter& out) const {
  out.u64(list_size_);
  for (BinSlot slot = head_; slot != kNoSlot;
       slot = next_[static_cast<std::size_t>(slot)]) {
    out.u32(static_cast<std::uint32_t>(slot));
  }
}

void MoveToFrontStrategy::load_state(ByteReader& in) {
  const std::uint64_t count = in.u64();
  if (count != list_size_) {
    throw CorruptionError("move-to-front recency census mismatch");
  }
  // The registration replay left the list in opening order; rebuild the
  // persisted recency order over the same bin set. Every registered bin is
  // linked (class invariant), so count == list_size_ == #registered and the
  // per-bin checks below force an exact bijection.
  std::vector<std::uint8_t> seen(residual_of_.size(), 0);
  head_ = kNoSlot;
  tail_ = kNoSlot;
  list_size_ = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto slot = static_cast<BinSlot>(in.u32());
    if (!registered(slot) || seen[static_cast<std::size_t>(slot)] != 0) {
      throw CorruptionError("move-to-front recency list names a foreign bin");
    }
    seen[static_cast<std::size_t>(slot)] = 1;
    link_back(slot);
  }
}

}  // namespace dbp
