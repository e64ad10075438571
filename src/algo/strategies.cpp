#include "algo/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "core/error.hpp"

namespace dbp {

namespace {

constexpr double kUnregistered = std::numeric_limits<double>::quiet_NaN();

inline bool registered_residual(const std::vector<double>& residual_of,
                                BinId bin) noexcept {
  return bin < residual_of.size() &&
         !std::isnan(residual_of[static_cast<std::size_t>(bin)]);
}

}  // namespace

// ------------------------------------------------------ First and Last Fit
// (hot-path handlers are inline in strategies.hpp)

template <FitSide Side>
void OpeningOrderFitStrategy<Side>::compact() {
  // Re-register the live bins in position order. Relative order — the only
  // thing the leftmost and rightmost descents depend on — is preserved, so
  // every future selection is identical to the uncompacted tree's.
  scratch_.clear();
  for (std::size_t p = 0; p < bin_at_.size(); ++p) {
    const BinId bin = bin_at_[p];
    if (pos_of_[static_cast<std::size_t>(bin)] == p) {
      scratch_.emplace_back(residuals_.value_at(p), bin);
    }
  }
  residuals_.clear();
  bin_at_.clear();
  for (const auto& [residual, bin] : scratch_) {
    const std::size_t pos = residuals_.push_back(residual);
    bin_at_.push_back(bin);
    pos_of_[static_cast<std::size_t>(bin)] = pos;
  }
}

template <FitSide Side>
void OpeningOrderFitStrategy<Side>::reserve(std::size_t bins_hint) {
  residuals_.reserve(bins_hint);
  bin_at_.reserve(bins_hint);
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

std::optional<BinId> NextFitStrategy::select(double size) {
  if (current_ && model_.fits(size, current_residual_)) return current_;
  // Deliberately retire the current bin: Next Fit never revisits it.
  current_.reset();
  return std::nullopt;
}

void NextFitStrategy::on_bin_registered(BinId bin, double residual) {
  current_ = bin;
  current_residual_ = residual;
}

void NextFitStrategy::on_residual_changed(BinId bin, double residual) {
  if (current_ && *current_ == bin) current_residual_ = residual;
}

void NextFitStrategy::on_bin_closed(BinId bin) {
  if (current_ && *current_ == bin) current_.reset();
}

void NextFitStrategy::save_state(ByteWriter& out) const {
  out.boolean(current_.has_value());
  out.u64(current_ ? *current_ : kNoBin);
  out.f64(current_residual_);
}

void NextFitStrategy::load_state(ByteReader& in) {
  const bool has_current = in.boolean();
  const BinId bin = in.u64();
  const double residual = in.f64();
  current_ = has_current ? std::optional<BinId>(bin) : std::nullopt;
  current_residual_ = residual;
}

// --------------------------------------------------------------- RandomFit

std::optional<BinId> RandomFitStrategy::select(double size) {
  // Reservoir-sample uniformly over fitting bins in one pass.
  std::optional<BinId> chosen;
  std::size_t seen = 0;
  for (const auto& [bin, residual] : open_) {
    if (!model_.fits(size, residual)) continue;
    ++seen;
    if (std::uniform_int_distribution<std::size_t>(1, seen)(rng_) == 1) {
      chosen = bin;
    }
  }
  return chosen;
}

bool RandomFitStrategy::has_fit(double size) const {
  return std::any_of(open_.begin(), open_.end(), [&](const auto& entry) {
    return model_.fits(size, entry.second);
  });
}

void RandomFitStrategy::on_bin_registered(BinId bin, double residual) {
  if (bin >= pos_of_.size()) {
    pos_of_.resize(static_cast<std::size_t>(bin) + 1, kNoPos);
  }
  pos_of_[static_cast<std::size_t>(bin)] = open_.size();
  open_.emplace_back(bin, residual);
}

void RandomFitStrategy::on_residual_changed(BinId bin, double residual) {
  DBP_REQUIRE(bin < pos_of_.size() && pos_of_[static_cast<std::size_t>(bin)] != kNoPos,
              "residual change for unregistered bin");
  open_[pos_of_[static_cast<std::size_t>(bin)]].second = residual;
}

void RandomFitStrategy::on_bin_closed(BinId bin) {
  DBP_REQUIRE(bin < pos_of_.size() && pos_of_[static_cast<std::size_t>(bin)] != kNoPos,
              "closing an unregistered bin");
  const std::size_t pos = pos_of_[static_cast<std::size_t>(bin)];
  pos_of_[static_cast<std::size_t>(bin)] = kNoPos;
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
  for (const auto& [bin, residual] : open_) {
    out.u64(bin);
    out.f64(residual);
  }
}

void RandomFitStrategy::load_state(ByteReader& in) {
  std::istringstream engine(in.str());
  engine >> rng_;
  if (engine.fail()) throw CorruptionError("malformed random-fit engine state");
  // Replace the registration-replay order with the persisted swap-remove
  // order: select() iterates open_, so the order is part of the trajectory.
  const std::uint64_t count = in.u64();
  if (count != open_.size()) {
    throw CorruptionError("random-fit open-bin census mismatch");
  }
  for (const auto& [bin, residual] : open_) {
    pos_of_[static_cast<std::size_t>(bin)] = kNoPos;
  }
  std::vector<std::pair<BinId, double>> restored;
  restored.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const BinId bin = in.u64();
    const double residual = in.f64();
    if (bin >= pos_of_.size()) {
      pos_of_.resize(static_cast<std::size_t>(bin) + 1, kNoPos);
    }
    if (pos_of_[static_cast<std::size_t>(bin)] != kNoPos) {
      throw CorruptionError("random-fit open list repeats a bin");
    }
    pos_of_[static_cast<std::size_t>(bin)] = restored.size();
    restored.emplace_back(bin, residual);
  }
  open_ = std::move(restored);
}

// ------------------------------------------------------------- MoveToFront

bool MoveToFrontStrategy::registered(BinId bin) const noexcept {
  return registered_residual(residual_of_, bin);
}

void MoveToFrontStrategy::grow_to(BinId bin) {
  if (bin >= residual_of_.size()) {
    const std::size_t count = static_cast<std::size_t>(bin) + 1;
    residual_of_.resize(count, kUnregistered);
    next_.resize(count, kNoBin);
    prev_.resize(count, kNoBin);
  }
}

void MoveToFrontStrategy::link_front(BinId bin) {
  const auto b = static_cast<std::size_t>(bin);
  prev_[b] = kNoBin;
  next_[b] = head_;
  if (head_ != kNoBin) {
    prev_[static_cast<std::size_t>(head_)] = bin;
  } else {
    tail_ = bin;
  }
  head_ = bin;
  ++list_size_;
}

void MoveToFrontStrategy::link_back(BinId bin) {
  const auto b = static_cast<std::size_t>(bin);
  next_[b] = kNoBin;
  prev_[b] = tail_;
  if (tail_ != kNoBin) {
    next_[static_cast<std::size_t>(tail_)] = bin;
  } else {
    head_ = bin;
  }
  tail_ = bin;
  ++list_size_;
}

void MoveToFrontStrategy::unlink(BinId bin) {
  const auto b = static_cast<std::size_t>(bin);
  const BinId p = prev_[b];
  const BinId n = next_[b];
  if (p != kNoBin) {
    next_[static_cast<std::size_t>(p)] = n;
  } else {
    head_ = n;
  }
  if (n != kNoBin) {
    prev_[static_cast<std::size_t>(n)] = p;
  } else {
    tail_ = p;
  }
  prev_[b] = kNoBin;
  next_[b] = kNoBin;
  --list_size_;
}

std::optional<BinId> MoveToFrontStrategy::select(double size) {
  for (BinId bin = head_; bin != kNoBin;
       bin = next_[static_cast<std::size_t>(bin)]) {
    if (model_.fits(size, residual_of_[static_cast<std::size_t>(bin)])) {
      // Selection implies placement under the Any Fit packer, so the
      // recency promotion happens here.
      if (bin != head_) {
        unlink(bin);
        link_front(bin);
      }
      return bin;
    }
  }
  return std::nullopt;
}

bool MoveToFrontStrategy::has_fit(double size) const {
  for (BinId bin = head_; bin != kNoBin;
       bin = next_[static_cast<std::size_t>(bin)]) {
    if (model_.fits(size, residual_of_[static_cast<std::size_t>(bin)])) {
      return true;
    }
  }
  return false;
}

void MoveToFrontStrategy::on_bin_registered(BinId bin, double residual) {
  grow_to(bin);
  DBP_CHECK(!registered(bin), "duplicate move-to-front registration");
  residual_of_[static_cast<std::size_t>(bin)] = residual;
  link_front(bin);
}

void MoveToFrontStrategy::on_residual_changed(BinId bin, double residual) {
  DBP_REQUIRE(registered(bin), "residual change for unregistered bin");
  residual_of_[static_cast<std::size_t>(bin)] = residual;
}

void MoveToFrontStrategy::on_bin_closed(BinId bin) {
  DBP_REQUIRE(registered(bin), "closing an unregistered bin");
  unlink(bin);
  residual_of_[static_cast<std::size_t>(bin)] = kUnregistered;
}

void MoveToFrontStrategy::reserve(std::size_t bins_hint) {
  residual_of_.reserve(bins_hint);
  next_.reserve(bins_hint);
  prev_.reserve(bins_hint);
}

void MoveToFrontStrategy::save_state(ByteWriter& out) const {
  out.u64(list_size_);
  for (BinId bin = head_; bin != kNoBin;
       bin = next_[static_cast<std::size_t>(bin)]) {
    out.u64(bin);
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
  head_ = kNoBin;
  tail_ = kNoBin;
  list_size_ = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const BinId bin = in.u64();
    if (!registered(bin) || seen[static_cast<std::size_t>(bin)] != 0) {
      throw CorruptionError("move-to-front recency list names a foreign bin");
    }
    seen[static_cast<std::size_t>(bin)] = 1;
    link_back(bin);
  }
}

}  // namespace dbp
