// Concrete Any Fit family members.
//
// First Fit and Best Fit are the algorithms analyzed in the paper
// (Sections 4.1-4.3); Worst/Next/Last/Random/Move-to-front Fit are
// well-known Any Fit variants included as empirical baselines (DESIGN.md
// Section 7) — every one of them obeys the Any Fit contract, so Theorem 1's
// lower bound of mu applies to each.
//
// Hot-path memory architecture (docs/performance.md): bins reach a strategy
// by their dense slot, so every per-bin lookup is a vector index over the
// open bins — no hashing, no node-based containers, no state for closed
// bins, and with reserve() called ahead of a run, no heap allocation in the
// steady-state event loop. The pre-arena node-based implementations survive
// as test oracles in tests/support, for the same-run benchmark baseline and
// the differential tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "algo/fit_strategy.hpp"
#include "algo/segment_tree.hpp"

namespace dbp {

/// Which end of the opening order an OpeningOrderFitStrategy serves.
enum class FitSide {
  kFirst,  ///< First Fit: the earliest-opened fitting bin (paper Section 3.2)
  kLast,   ///< Last Fit: the latest-opened fitting bin
};

/// First Fit and Last Fit: the earliest- (or latest-) opened bin that
/// accommodates the item. O(log m) per operation via a max segment tree
/// indexed by registration (= opening) order, with the leftmost (or
/// rightmost) descent; position lookup is a dense slot-indexed vector.
///
/// Positions of closed bins are dead weight: without reuse the tree's depth
/// (and footprint) grows with *total* bins opened, even when only a handful
/// are concurrently open. Whenever the tree fills and at least half its
/// positions are dead, compact() re-registers the live bins in the same
/// relative order — selection depends only on that order, so decisions are
/// unchanged while the tree stays within 4x the peak open-bin count and its
/// hot path stays cache-resident. A closed bin's slot may be registered
/// again, at a new position, before the next compaction; the old position
/// stays dead because its leaf holds -infinity and compact() keeps a
/// position only while pos_of_ still points at it.
template <FitSide Side>
class OpeningOrderFitStrategy final : public FitStrategy {
 public:
  explicit OpeningOrderFitStrategy(const CostModel& model) : model_(model) {}

  [[nodiscard]] std::string name() const override {
    return Side == FitSide::kFirst ? "first-fit" : "last-fit";
  }
  // Hot-path handlers are defined inline at the bottom of this header so the
  // statically-typed packer (StaticAnyFitPacker) can inline them into the
  // event loop.
  [[nodiscard]] std::optional<BinSlot> select(double size) override;
  /// The descent's own root test: some registered bin fits.
  [[nodiscard]] bool has_fit(double size) const override {
    return model_.fits(size, residuals_.max_value());
  }
  void on_bin_registered(BinSlot slot, BinId bin, double residual) override;
  void on_residual_changed(BinSlot slot, double residual) override;
  void on_bin_closed(BinSlot slot) override;
  void reserve(std::size_t bins_hint) override;

 private:
  static constexpr std::size_t kNoPos = std::numeric_limits<std::size_t>::max();

  void compact();

  CostModel model_;
  MaxSegmentTree residuals_;          // position = registration order
  std::vector<BinSlot> slot_at_;      // position -> slot
  std::vector<std::size_t> pos_of_;   // slot -> position (kNoPos = unregistered)
  std::size_t active_ = 0;            // currently registered bins
  std::vector<std::pair<double, BinSlot>> scratch_;  // compaction gather buffer
};

using FirstFitStrategy = OpeningOrderFitStrategy<FitSide::kFirst>;
using LastFitStrategy = OpeningOrderFitStrategy<FitSide::kLast>;

/// Which fitting residual a ResidualOrderFitStrategy picks.
enum class FitFill {
  kBest,   ///< Best Fit: the smallest residual that fits (paper Section 3.2)
  kWorst,  ///< Worst Fit: the largest residual
};

/// Best Fit and Worst Fit: the open bin with the smallest (or largest)
/// residual capacity that accommodates the item; ties broken toward the
/// earliest-opened bin. The index is a flat vector of (residual, id, slot)
/// entries sorted by (residual, id); the slot only locates the entry. Best
/// Fit orders it lexicographically — value-identical to the reference
/// std::set ordering at a fraction of the node churn. Worst Fit orders it by
/// residual ascending, then id descending, so back() is the (max residual,
/// min id) entry.
template <FitFill Fill>
class ResidualOrderFitStrategy final : public FitStrategy {
 public:
  explicit ResidualOrderFitStrategy(const CostModel& model) : model_(model) {}

  [[nodiscard]] std::string name() const override {
    return Fill == FitFill::kBest ? "best-fit" : "worst-fit";
  }
  [[nodiscard]] std::optional<BinSlot> select(double size) override;
  /// select's own test, applied to the largest residual (last in both
  /// orders).
  [[nodiscard]] bool has_fit(double size) const override {
    if (by_residual_.empty()) return false;
    const double largest = by_residual_.back().residual;
    if constexpr (Fill == FitFill::kBest) {
      return !(largest < size - model_.fit_tolerance);
    } else {
      return model_.fits(size, largest);
    }
  }
  void on_bin_registered(BinSlot slot, BinId bin, double residual) override;
  void on_residual_changed(BinSlot slot, double residual) override;
  void on_bin_closed(BinSlot slot) override;
  void reserve(std::size_t bins_hint) override;

 private:
  struct Entry {
    double residual;
    BinId bin;
    BinSlot slot;
  };

  static constexpr std::size_t kNoPos = std::numeric_limits<std::size_t>::max();

  /// The index order: true when `a` sorts strictly before `b`.
  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.residual != b.residual) return a.residual < b.residual;
    return Fill == FitFill::kBest ? a.bin < b.bin : a.bin > b.bin;
  }

  /// Moves the entry at `pos` to the sorted position of `to` by shifting the
  /// entries in between (updating their dense positions as they move) — no
  /// binary search, no node churn; the array contents end up exactly as a
  /// set erase+insert would leave them.
  void relocate(std::size_t pos, Entry to);

  CostModel model_;
  std::vector<Entry> by_residual_;   // sorted by before()
  std::vector<std::size_t> pos_of_;  // slot -> index in by_residual_ (kNoPos)
};

using BestFitStrategy = ResidualOrderFitStrategy<FitFill::kBest>;
using WorstFitStrategy = ResidualOrderFitStrategy<FitFill::kWorst>;

/// Next Fit adapted to dynamic bin packing: only the most recently opened
/// bin is a candidate; once an item fails to fit there, a new bin is opened
/// and the old one never receives items again (it stays open until its items
/// depart). NOTE: Next Fit is *not* an Any Fit algorithm — it may decline
/// even when some older open bin has room.
class NextFitStrategy final : public FitStrategy {
 public:
  explicit NextFitStrategy(const CostModel& model) : model_(model) {}

  [[nodiscard]] std::string name() const override { return "next-fit"; }
  [[nodiscard]] bool any_fit_contract() const override { return false; }
  [[nodiscard]] std::optional<BinSlot> select(double size) override;
  /// Only the current bin is a candidate, however many older bins have room.
  [[nodiscard]] bool has_fit(double size) const override {
    return current_ && model_.fits(size, current_residual_);
  }
  void on_bin_registered(BinSlot slot, BinId bin, double residual) override;
  void on_residual_changed(BinSlot slot, double residual) override;
  void on_bin_closed(BinSlot slot) override;
  // The current bin is real history, not derivable from the open bins: a
  // failed fit retires it even though it stays open in the BinManager.
  void save_state(ByteWriter& out) const override;
  void load_state(ByteReader& in) override;

 private:
  CostModel model_;
  std::optional<BinSlot> current_;
  double current_residual_ = 0.0;
};

/// Random Fit: a uniformly random open bin among those that accommodate the
/// item. O(open bins) per arrival; deterministic under a fixed seed.
class RandomFitStrategy final : public FitStrategy {
 public:
  RandomFitStrategy(const CostModel& model, std::uint64_t seed)
      : model_(model), rng_(seed) {}

  [[nodiscard]] std::string name() const override { return "random-fit"; }
  [[nodiscard]] std::optional<BinSlot> select(double size) override;
  [[nodiscard]] bool has_fit(double size) const override;
  void on_bin_registered(BinSlot slot, BinId bin, double residual) override;
  void on_residual_changed(BinSlot slot, double residual) override;
  void on_bin_closed(BinSlot slot) override;
  void reserve(std::size_t bins_hint) override;
  // Persists the engine *position* and the swap-remove scan order of open_
  // — both consumed by the reservoir sampler, neither derivable from the
  // set of open bins.
  void save_state(ByteWriter& out) const override;
  void load_state(ByteReader& in) override;

 private:
  static constexpr std::size_t kNoPos = std::numeric_limits<std::size_t>::max();

  CostModel model_;
  std::mt19937_64 rng_;
  std::vector<std::pair<BinSlot, double>> open_;  // unordered (slot, residual)
  std::vector<std::size_t> pos_of_;  // slot -> index in open_ (kNoPos = closed)
};

/// Move-To-Front Fit: bins kept in a recency list; the first fitting bin in
/// the list receives the item and moves to the front. A locality-exploiting
/// Any Fit variant. The recency list is intrusive — prev/next links live in
/// dense slot-indexed vectors, so promotion and closure are O(1) with no
/// node allocation.
class MoveToFrontStrategy final : public FitStrategy {
 public:
  explicit MoveToFrontStrategy(const CostModel& model) : model_(model) {}

  [[nodiscard]] std::string name() const override { return "move-to-front-fit"; }
  [[nodiscard]] std::optional<BinSlot> select(double size) override;
  [[nodiscard]] bool has_fit(double size) const override;
  void on_bin_registered(BinSlot slot, BinId bin, double residual) override;
  void on_residual_changed(BinSlot slot, double residual) override;
  void on_bin_closed(BinSlot slot) override;
  void reserve(std::size_t bins_hint) override;
  // Persists the recency order, which encodes the full placement history.
  void save_state(ByteWriter& out) const override;
  void load_state(ByteReader& in) override;

 private:
  void link_front(BinSlot slot);
  void link_back(BinSlot slot);
  void unlink(BinSlot slot);
  void grow_to(BinSlot slot);
  [[nodiscard]] bool registered(BinSlot slot) const noexcept;

  CostModel model_;
  BinSlot head_ = kNoSlot;  // most recently used
  BinSlot tail_ = kNoSlot;  // least recently used
  std::size_t list_size_ = 0;
  std::vector<BinSlot> next_;        // slot -> next (toward tail)
  std::vector<BinSlot> prev_;        // slot -> previous (toward head)
  std::vector<double> residual_of_;  // slot -> residual (NaN = unregistered)
};

// ------------------------------------------------------------------------
// Inline hot-path definitions. These live in the header so that the
// statically-typed packer instantiations (StaticAnyFitPacker<...> in the
// factory) can inline the per-event policy work into the event loop; the
// dynamic FitStrategy interface keeps working unchanged. Cold paths
// (reserve, compaction, persistence, the O(open) strategies) stay in
// strategies.cpp.
// ------------------------------------------------------------------------

// ------------------------------------------------------ First and Last Fit

template <FitSide Side>
inline std::optional<BinSlot> OpeningOrderFitStrategy<Side>::select(double size) {
  // The descent inlines CostModel::fits exactly: size <= residual + tol.
  auto pos = Side == FitSide::kFirst
                 ? residuals_.find_first_fit(size, model_.fit_tolerance)
                 : residuals_.find_last_fit(size, model_.fit_tolerance);
  if (!pos) return std::nullopt;
  return slot_at_[*pos];
}

template <FitSide Side>
inline void OpeningOrderFitStrategy<Side>::on_bin_registered(BinSlot slot, BinId,
                                                             double residual) {
  // Compact instead of growing when at least half the positions are dead:
  // the tree depth then tracks the *peak open* bin count, not the total.
  if (residuals_.size() == residuals_.capacity() &&
      2 * active_ <= residuals_.capacity()) {
    compact();
  }
  const std::size_t pos = residuals_.push_back(residual);
  slot_at_.push_back(slot);
  DBP_CHECK(slot_at_.size() == pos + 1, "opening-order position bookkeeping");
  const auto at = static_cast<std::size_t>(slot);
  if (at >= pos_of_.size()) pos_of_.resize(at + 1, kNoPos);
  DBP_CHECK(pos_of_[at] == kNoPos, "duplicate opening-order registration");
  pos_of_[at] = pos;
  ++active_;
}

template <FitSide Side>
inline void OpeningOrderFitStrategy<Side>::on_residual_changed(BinSlot slot,
                                                               double residual) {
  const auto at = static_cast<std::size_t>(slot);
  DBP_REQUIRE(at < pos_of_.size() && pos_of_[at] != kNoPos,
              "residual change for unregistered bin");
  residuals_.assign(pos_of_[at], residual);
}

template <FitSide Side>
inline void OpeningOrderFitStrategy<Side>::on_bin_closed(BinSlot slot) {
  const auto at = static_cast<std::size_t>(slot);
  DBP_REQUIRE(at < pos_of_.size() && pos_of_[at] != kNoPos,
              "closing an unregistered bin");
  residuals_.deactivate(pos_of_[at]);
  pos_of_[at] = kNoPos;
  --active_;
}

// ------------------------------------------------------ Best and Worst Fit

template <FitFill Fill>
inline std::optional<BinSlot> ResidualOrderFitStrategy<Fill>::select(double size) {
  if constexpr (Fill == FitFill::kWorst) {
    if (by_residual_.empty()) return std::nullopt;
    const Entry& best = by_residual_.back();  // max residual, min id
    if (!model_.fits(size, best.residual)) return std::nullopt;
    return best.slot;
  } else {
    // Smallest residual r with fits(size, r), i.e. r >= size - tolerance —
    // the first entry whose residual is not below the key, exactly what the
    // reference std::set lower_bound over (key, 0) returns (no id sorts
    // below 0). Small indexes scan linearly: the loop branch is predictable
    // where a binary search mispredicts half its probes.
    const double key = size - model_.fit_tolerance;
    const auto* const data = by_residual_.data();
    const std::size_t count = by_residual_.size();
    std::size_t i;
    if (count <= 64) {
      for (i = 0; i < count && data[i].residual < key; ++i) {
      }
    } else {
      const Entry* const first_fit = std::lower_bound(
          data, data + count, key,
          [](const Entry& entry, double k) { return entry.residual < k; });
      i = static_cast<std::size_t>(first_fit - data);
    }
    if (i == count) return std::nullopt;
    DBP_CHECK(model_.fits(size, data[i].residual), "best-fit index out of sync");
    return data[i].slot;
  }
}

template <FitFill Fill>
inline void ResidualOrderFitStrategy<Fill>::relocate(std::size_t pos, Entry to) {
  auto* const data = by_residual_.data();
  const std::size_t count = by_residual_.size();
  while (pos > 0 && before(to, data[pos - 1])) {
    data[pos] = data[pos - 1];
    pos_of_[static_cast<std::size_t>(data[pos].slot)] = pos;
    --pos;
  }
  while (pos + 1 < count && before(data[pos + 1], to)) {
    data[pos] = data[pos + 1];
    pos_of_[static_cast<std::size_t>(data[pos].slot)] = pos;
    ++pos;
  }
  data[pos] = to;
  pos_of_[static_cast<std::size_t>(to.slot)] = pos;
}

template <FitFill Fill>
inline void ResidualOrderFitStrategy<Fill>::on_bin_registered(BinSlot slot, BinId bin,
                                                              double residual) {
  const auto at = static_cast<std::size_t>(slot);
  if (at >= pos_of_.size()) pos_of_.resize(at + 1, kNoPos);
  DBP_CHECK(pos_of_[at] == kNoPos, "duplicate residual-index registration");
  // Append past the end, then let relocate shift it into sorted place.
  const Entry entry{residual, bin, slot};
  by_residual_.push_back(entry);
  pos_of_[at] = by_residual_.size() - 1;
  relocate(by_residual_.size() - 1, entry);
}

template <FitFill Fill>
inline void ResidualOrderFitStrategy<Fill>::on_residual_changed(BinSlot slot,
                                                                double residual) {
  const auto at = static_cast<std::size_t>(slot);
  DBP_REQUIRE(at < pos_of_.size() && pos_of_[at] != kNoPos,
              "residual change for unregistered bin");
  Entry entry = by_residual_[pos_of_[at]];
  entry.residual = residual;
  relocate(pos_of_[at], entry);
}

template <FitFill Fill>
inline void ResidualOrderFitStrategy<Fill>::on_bin_closed(BinSlot slot) {
  const auto at = static_cast<std::size_t>(slot);
  DBP_REQUIRE(at < pos_of_.size() && pos_of_[at] != kNoPos,
              "closing an unregistered bin");
  std::size_t pos = pos_of_[at];
  auto* const data = by_residual_.data();
  const std::size_t count = by_residual_.size();
  for (; pos + 1 < count; ++pos) {
    data[pos] = data[pos + 1];
    pos_of_[static_cast<std::size_t>(data[pos].slot)] = pos;
  }
  by_residual_.pop_back();
  pos_of_[at] = kNoPos;
}

}  // namespace dbp
