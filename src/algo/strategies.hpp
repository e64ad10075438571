// Concrete Any Fit family members.
//
// First Fit and Best Fit are the algorithms analyzed in the paper
// (Sections 4.1-4.3); Worst/Next/Last/Random/Move-to-front Fit are
// well-known Any Fit variants included as empirical baselines (DESIGN.md
// Section 7) — every one of them obeys the Any Fit contract, so Theorem 1's
// lower bound of mu applies to each.
//
// Hot-path memory architecture (docs/performance.md): BinIds are dense by
// construction, so every per-bin lookup is a vector index — no hashing, no
// node-based containers, and with reserve() called ahead of a run, no heap
// allocation in the steady-state event loop. The pre-arena node-based
// implementations survive as test oracles in tests/support, for the
// same-run benchmark baseline and the differential tests.
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
/// indexed by opening order, with the leftmost (or rightmost) descent;
/// position lookup is a dense BinId-indexed vector.
///
/// Positions of closed bins are dead weight: without reuse the tree's depth
/// (and footprint) grows with *total* bins opened, even when only a handful
/// are concurrently open. Whenever the tree fills and at least half its
/// positions are dead, compact() re-registers the live bins in the same
/// relative order — selection depends only on that order, so decisions are
/// unchanged while the tree stays within 4x the peak open-bin count and its
/// hot path stays cache-resident.
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
  [[nodiscard]] std::optional<BinId> select(double size) override;
  /// The descent's own root test: some registered bin fits.
  [[nodiscard]] bool has_fit(double size) const override {
    return model_.fits(size, residuals_.max_value());
  }
  void on_bin_registered(BinId bin, double residual) override;
  void on_residual_changed(BinId bin, double residual) override;
  void on_bin_closed(BinId bin) override;
  void reserve(std::size_t bins_hint) override;

 private:
  static constexpr std::size_t kNoPos = std::numeric_limits<std::size_t>::max();

  void compact();

  CostModel model_;
  MaxSegmentTree residuals_;          // position = registration order
  std::vector<BinId> bin_at_;         // position -> bin
  std::vector<std::size_t> pos_of_;   // bin -> position (kNoPos = unregistered)
  std::size_t active_ = 0;            // currently registered bins
  std::vector<std::pair<double, BinId>> scratch_;  // compaction gather buffer
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
/// earliest-opened bin. The (residual, id) index is a flat sorted vector.
/// Best Fit orders it by std::pair's lexicographic compare — value-identical
/// to the reference std::set ordering at a fraction of the node churn.
/// Worst Fit orders it by residual ascending, then id descending, so back()
/// is the (max residual, min id) entry.
template <FitFill Fill>
class ResidualOrderFitStrategy final : public FitStrategy {
 public:
  explicit ResidualOrderFitStrategy(const CostModel& model) : model_(model) {}

  [[nodiscard]] std::string name() const override {
    return Fill == FitFill::kBest ? "best-fit" : "worst-fit";
  }
  [[nodiscard]] std::optional<BinId> select(double size) override;
  /// select's own test, applied to the largest residual (last in both
  /// orders).
  [[nodiscard]] bool has_fit(double size) const override {
    if (by_residual_.empty()) return false;
    const double largest = by_residual_.back().first;
    if constexpr (Fill == FitFill::kBest) {
      return !(largest < size - model_.fit_tolerance);
    } else {
      return model_.fits(size, largest);
    }
  }
  void on_bin_registered(BinId bin, double residual) override;
  void on_residual_changed(BinId bin, double residual) override;
  void on_bin_closed(BinId bin) override;
  void reserve(std::size_t bins_hint) override;

 private:
  using Entry = std::pair<double, BinId>;

  static constexpr std::size_t kNoPos = std::numeric_limits<std::size_t>::max();

  /// The index order: true when `a` sorts strictly before `b`.
  static bool before(const Entry& a, const Entry& b) noexcept {
    if constexpr (Fill == FitFill::kBest) {
      return a < b;
    } else {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;
    }
  }

  /// Moves the entry at `pos` to the sorted position of `to` by shifting the
  /// entries in between (updating their dense positions as they move) — no
  /// binary search, no node churn; the array contents end up exactly as a
  /// set erase+insert would leave them.
  void relocate(std::size_t pos, Entry to);

  CostModel model_;
  std::vector<Entry> by_residual_;   // sorted by before()
  std::vector<std::size_t> pos_of_;  // bin -> index in by_residual_ (kNoPos)
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
  [[nodiscard]] std::optional<BinId> select(double size) override;
  /// Only the current bin is a candidate, however many older bins have room.
  [[nodiscard]] bool has_fit(double size) const override {
    return current_ && model_.fits(size, current_residual_);
  }
  void on_bin_registered(BinId bin, double residual) override;
  void on_residual_changed(BinId bin, double residual) override;
  void on_bin_closed(BinId bin) override;
  // The current bin is real history, not derivable from the open bins: a
  // failed fit retires it even though it stays open in the BinManager.
  void save_state(ByteWriter& out) const override;
  void load_state(ByteReader& in) override;

 private:
  CostModel model_;
  std::optional<BinId> current_;
  double current_residual_ = 0.0;
};

/// Random Fit: a uniformly random open bin among those that accommodate the
/// item. O(open bins) per arrival; deterministic under a fixed seed.
class RandomFitStrategy final : public FitStrategy {
 public:
  RandomFitStrategy(const CostModel& model, std::uint64_t seed)
      : model_(model), rng_(seed) {}

  [[nodiscard]] std::string name() const override { return "random-fit"; }
  [[nodiscard]] std::optional<BinId> select(double size) override;
  [[nodiscard]] bool has_fit(double size) const override;
  void on_bin_registered(BinId bin, double residual) override;
  void on_residual_changed(BinId bin, double residual) override;
  void on_bin_closed(BinId bin) override;
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
  std::vector<std::pair<BinId, double>> open_;  // unordered (bin, residual)
  std::vector<std::size_t> pos_of_;  // bin -> index in open_ (kNoPos = closed)
};

/// Move-To-Front Fit: bins kept in a recency list; the first fitting bin in
/// the list receives the item and moves to the front. A locality-exploiting
/// Any Fit variant. The recency list is intrusive — prev/next links live in
/// dense BinId-indexed vectors, so promotion and closure are O(1) with no
/// node allocation.
class MoveToFrontStrategy final : public FitStrategy {
 public:
  explicit MoveToFrontStrategy(const CostModel& model) : model_(model) {}

  [[nodiscard]] std::string name() const override { return "move-to-front-fit"; }
  [[nodiscard]] std::optional<BinId> select(double size) override;
  [[nodiscard]] bool has_fit(double size) const override;
  void on_bin_registered(BinId bin, double residual) override;
  void on_residual_changed(BinId bin, double residual) override;
  void on_bin_closed(BinId bin) override;
  void reserve(std::size_t bins_hint) override;
  // Persists the recency order, which encodes the full placement history.
  void save_state(ByteWriter& out) const override;
  void load_state(ByteReader& in) override;

 private:
  void link_front(BinId bin);
  void link_back(BinId bin);
  void unlink(BinId bin);
  void grow_to(BinId bin);
  [[nodiscard]] bool registered(BinId bin) const noexcept;

  CostModel model_;
  BinId head_ = kNoBin;  // most recently used
  BinId tail_ = kNoBin;  // least recently used
  std::size_t list_size_ = 0;
  std::vector<BinId> next_;          // bin -> next (toward tail)
  std::vector<BinId> prev_;          // bin -> previous (toward head)
  std::vector<double> residual_of_;  // bin -> residual (NaN = unregistered)
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
inline std::optional<BinId> OpeningOrderFitStrategy<Side>::select(double size) {
  // The descent inlines CostModel::fits exactly: size <= residual + tol.
  auto pos = Side == FitSide::kFirst
                 ? residuals_.find_first_fit(size, model_.fit_tolerance)
                 : residuals_.find_last_fit(size, model_.fit_tolerance);
  if (!pos) return std::nullopt;
  return bin_at_[*pos];
}

template <FitSide Side>
inline void OpeningOrderFitStrategy<Side>::on_bin_registered(BinId bin,
                                                             double residual) {
  // Compact instead of growing when at least half the positions are dead:
  // the tree depth then tracks the *peak open* bin count, not the total.
  if (residuals_.size() == residuals_.capacity() &&
      2 * active_ <= residuals_.capacity()) {
    compact();
  }
  const std::size_t pos = residuals_.push_back(residual);
  bin_at_.push_back(bin);
  DBP_CHECK(bin_at_.size() == pos + 1, "opening-order position bookkeeping");
  if (bin >= pos_of_.size()) {
    pos_of_.resize(static_cast<std::size_t>(bin) + 1, kNoPos);
  }
  pos_of_[static_cast<std::size_t>(bin)] = pos;
  ++active_;
}

template <FitSide Side>
inline void OpeningOrderFitStrategy<Side>::on_residual_changed(BinId bin,
                                                               double residual) {
  DBP_REQUIRE(bin < pos_of_.size() && pos_of_[static_cast<std::size_t>(bin)] != kNoPos,
              "residual change for unregistered bin");
  residuals_.assign(pos_of_[static_cast<std::size_t>(bin)], residual);
}

template <FitSide Side>
inline void OpeningOrderFitStrategy<Side>::on_bin_closed(BinId bin) {
  DBP_REQUIRE(bin < pos_of_.size() && pos_of_[static_cast<std::size_t>(bin)] != kNoPos,
              "closing an unregistered bin");
  residuals_.deactivate(pos_of_[static_cast<std::size_t>(bin)]);
  pos_of_[static_cast<std::size_t>(bin)] = kNoPos;
  --active_;
}

// ------------------------------------------------------ Best and Worst Fit

template <FitFill Fill>
inline std::optional<BinId> ResidualOrderFitStrategy<Fill>::select(double size) {
  if constexpr (Fill == FitFill::kWorst) {
    if (by_residual_.empty()) return std::nullopt;
    const Entry& best = by_residual_.back();  // max residual, min id
    if (!model_.fits(size, best.first)) return std::nullopt;
    return best.second;
  } else {
    // Smallest residual r with fits(size, r), i.e. r >= size - tolerance —
    // the first entry not below the key, exactly what the reference
    // std::set lower_bound returns (std::pair's lexicographic operator<
    // over the same (residual, id) keys). Small indexes scan linearly: the
    // loop branch is predictable where a binary search mispredicts half its
    // probes.
    const Entry key{size - model_.fit_tolerance, 0};
    const auto* const data = by_residual_.data();
    const std::size_t count = by_residual_.size();
    std::size_t i;
    if (count <= 64) {
      for (i = 0; i < count && data[i] < key; ++i) {
      }
    } else {
      i = static_cast<std::size_t>(
          std::lower_bound(data, data + count, key) - data);
    }
    if (i == count) return std::nullopt;
    DBP_CHECK(model_.fits(size, data[i].first), "best-fit index out of sync");
    return data[i].second;
  }
}

template <FitFill Fill>
inline void ResidualOrderFitStrategy<Fill>::relocate(std::size_t pos, Entry to) {
  auto* const data = by_residual_.data();
  const std::size_t count = by_residual_.size();
  while (pos > 0 && before(to, data[pos - 1])) {
    data[pos] = data[pos - 1];
    pos_of_[static_cast<std::size_t>(data[pos].second)] = pos;
    --pos;
  }
  while (pos + 1 < count && before(data[pos + 1], to)) {
    data[pos] = data[pos + 1];
    pos_of_[static_cast<std::size_t>(data[pos].second)] = pos;
    ++pos;
  }
  data[pos] = to;
  pos_of_[static_cast<std::size_t>(to.second)] = pos;
}

template <FitFill Fill>
inline void ResidualOrderFitStrategy<Fill>::on_bin_registered(BinId bin,
                                                              double residual) {
  if (bin >= pos_of_.size()) {
    pos_of_.resize(static_cast<std::size_t>(bin) + 1, kNoPos);
  }
  DBP_CHECK(pos_of_[static_cast<std::size_t>(bin)] == kNoPos,
            "duplicate residual-index registration");
  // Append past the end, then let relocate shift it into sorted place.
  const Entry entry{residual, bin};
  by_residual_.push_back(entry);
  pos_of_[static_cast<std::size_t>(bin)] = by_residual_.size() - 1;
  relocate(by_residual_.size() - 1, entry);
}

template <FitFill Fill>
inline void ResidualOrderFitStrategy<Fill>::on_residual_changed(BinId bin,
                                                                double residual) {
  DBP_REQUIRE(bin < pos_of_.size() && pos_of_[static_cast<std::size_t>(bin)] != kNoPos,
              "residual change for unregistered bin");
  relocate(pos_of_[static_cast<std::size_t>(bin)], {residual, bin});
}

template <FitFill Fill>
inline void ResidualOrderFitStrategy<Fill>::on_bin_closed(BinId bin) {
  DBP_REQUIRE(bin < pos_of_.size() && pos_of_[static_cast<std::size_t>(bin)] != kNoPos,
              "closing an unregistered bin");
  std::size_t pos = pos_of_[static_cast<std::size_t>(bin)];
  auto* const data = by_residual_.data();
  const std::size_t count = by_residual_.size();
  for (; pos + 1 < count; ++pos) {
    data[pos] = data[pos + 1];
    pos_of_[static_cast<std::size_t>(data[pos].second)] = pos;
  }
  by_residual_.pop_back();
  pos_of_[static_cast<std::size_t>(bin)] = kNoPos;
}

}  // namespace dbp
