#include "opt/bin_count.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/arena.hpp"
#include "core/audit.hpp"
#include "core/compensated_sum.hpp"
#include "core/error.hpp"
#include "opt/classical.hpp"
#include "opt/lower_bounds.hpp"

namespace dbp {

namespace {

/// Largest m such that m items of size `size` fit one bin under the same
/// tolerance rule CostModel::fits applies per placement: m * size <= W + tol.
///
/// The quotient floor(capacity / size) is only a seed — division rounding
/// can land it one off in either direction, and the old ad-hoc fudge factor
/// (floor(capacity / size * (1 + 1e-12))) could *admit* an m with
/// m * size > W + tol. Concretely, with W = 1, tol = 0, and
/// size = nextafter(0.5, 1.0): the quotient is 1.9999999999999996, the
/// 1e-12 fudge pushes it past 2, yet 2 * size = 1.0000000000000002 > 1 —
/// two such items do not share a bin under fits(), so FFD opens one bin
/// per item while the "exact" equal-size fast path certified half that,
/// an invalid lower bound (tests/bin_count_test.cpp pins this case). The
/// corrective loops below re-anchor the seed to the multiplication the
/// feasibility rule really performs; they run at most one step in practice
/// (division is correctly rounded, so the seed is off by at most one).
std::size_t per_bin_count(double size, const CostModel& model) {
  const double capacity = model.bin_capacity + model.fit_tolerance;
  auto m = static_cast<std::size_t>(std::floor(capacity / size));
  while (m > 1 && static_cast<double>(m) * size > capacity) --m;
  while (static_cast<double>(m + 1) * size <= capacity) ++m;
  return std::max<std::size_t>(m, 1);
}

/// The minimum-bin-slack witness over runs (Gupta & Ho 1999, in the variant
/// where the largest remaining item opens each bin). Bins are built one at a
/// time: after the opener, a depth-first search over the remaining runs,
/// largest first, looks for the fill that leaves the least slack. One node
/// is one tentative addition of an item to the bin; a run is tried once per
/// depth, since equal sizes are interchangeable. A bin's search stops after
/// kWitnessNodesPerBin nodes or at a fill within the fit tolerance, and the
/// best fill found is committed. Residuals are W minus the sizes in
/// placement order, the arithmetic FFD and the exact search use.
///
/// The flat test oracle's witness (tests/support/flat_bin_count.cpp)
/// implements the same node definition item by item and shares no code with
/// this class; the two return the same count on every multiset. Working
/// arrays live in the scratch, so a warm scratch packs without allocating.
class RunSlackWitness {
 public:
  RunSlackWitness(std::span<const SizeRun> runs, const CostModel& model,
                  BinCountScratch& scratch)
      : runs_(runs),
        model_(model),
        left_(scratch.witness_left),
        live_(scratch.witness_live),
        path_(scratch.witness_path),
        best_path_(scratch.witness_best) {
    DBP_AUDIT_ONLY(placed_ = scratch.arena.allocate_array<std::uint64_t>(runs.size());
                   std::fill(placed_.begin(), placed_.end(), 0);)
  }

  /// Packs every item and returns the bins used, or `upper` as soon as the
  /// packing cannot use fewer than `upper` bins.
  std::size_t pack(std::size_t upper) {
    left_.clear();
    for (const SizeRun& run : runs_) left_.push_back(run.count);
    live_.clear();
    for (std::size_t j = 0; j < runs_.size(); ++j) {
      live_.push_back(static_cast<std::uint32_t>(j));
    }
    std::size_t bins = 0;
    while (!live_.empty()) {
      if (bins + 1 >= upper) return upper;
      const std::uint32_t opener = live_.front();
      --left_[opener];
      best_ = model_.bin_capacity - runs_[opener].size;
      best_path_.clear();
      nodes_ = 0;
      done_ = false;
      if (best_ > model_.fit_tolerance) extend(0, best_);
      for (const std::uint32_t j : best_path_) --left_[j];
      ++bins;
#if DBP_AUDIT_ENABLED
      double residual = model_.bin_capacity;
      for (std::size_t k = 0; k <= best_path_.size(); ++k) {
        const std::uint32_t j = k == 0 ? opener : best_path_[k - 1];
        DBP_AUDIT_CHECK(model_.fits(runs_[j].size, residual),
                        "minimum-bin-slack witness overfilled a bin");
        residual -= runs_[j].size;
        ++placed_[j];
        DBP_AUDIT_CHECK(placed_[j] <= runs_[j].count,
                        "minimum-bin-slack witness placed an item twice");
      }
#endif
      std::erase_if(live_, [this](std::uint32_t j) { return left_[j] == 0; });
    }
#if DBP_AUDIT_ENABLED
    for (std::size_t j = 0; j < runs_.size(); ++j) {
      DBP_AUDIT_CHECK(placed_[j] == runs_[j].count,
                      "minimum-bin-slack witness left an item unpacked");
    }
#endif
    return bins;
  }

 private:
  /// One depth of the current bin's search: tries each live run from
  /// position `from` on that still has an item and fits `residual`.
  void extend(std::size_t from, double residual) {
    // Live runs keep decreasing sizes, so the runs too large for `residual`
    // are a prefix of the remaining list.
    const auto fitting = std::partition_point(
        live_.begin() + static_cast<std::ptrdiff_t>(from), live_.end(),
        [&](std::uint32_t j) { return !model_.fits(runs_[j].size, residual); });
    for (auto at = static_cast<std::size_t>(fitting - live_.begin()); at < live_.size();
         ++at) {
      const std::uint32_t j = live_[at];
      if (left_[j] == 0) continue;
      if (nodes_ == kWitnessNodesPerBin) {
        done_ = true;
        return;
      }
      ++nodes_;
      --left_[j];
      path_.push_back(j);
      const double child = residual - runs_[j].size;
      if (child < best_) {
        best_ = child;
        best_path_.assign(path_.begin(), path_.end());
      }
      if (best_ <= model_.fit_tolerance) {
        done_ = true;
      } else {
        extend(at, child);
      }
      path_.pop_back();
      ++left_[j];
      if (done_) return;
    }
  }

  std::span<const SizeRun> runs_;
  const CostModel& model_;
  std::vector<std::uint64_t>& left_;        // items of each run not yet placed
  std::vector<std::uint32_t>& live_;        // runs with items left, by size
  std::vector<std::uint32_t>& path_;        // the fill being tried (sans opener)
  std::vector<std::uint32_t>& best_path_;   // the least-slack fill found
  double best_ = 0.0;                       // residual of best_path_
  std::uint64_t nodes_ = 0;
  bool done_ = false;
  DBP_AUDIT_ONLY(std::span<std::uint64_t> placed_;)  // items placed per run
};

/// optimal_bin_count_rle without the input validation, shared with the
/// oracle's miss path. Every step replays the flat chain's floating-point
/// sequence (the `_rle` kernels are bit-identical by construction, the two
/// witnesses share one node definition, and the exact solver runs on an
/// expansion), so compute_rle(compress(S)) equals what the flat test
/// oracle's chain returns on S.
BinCountBounds compute_rle(std::span<const SizeRun> runs, const CostModel& model,
                           const BinCountOptions& options, BinCountScratch& scratch) {
  const std::uint64_t n = rle_item_count(runs);
  if (n == 0) return {0, 0};

  // Same per-item compensated total the flat path accumulates.
  CompensatedSum sum;
  for (const SizeRun& run : runs) {
    for (std::uint64_t i = 0; i < run.count; ++i) sum.add(run.size);
  }
  if (const auto closed = closed_form_bin_count(n, sum.value(), runs.front().size,
                                                runs.back().size, model)) {
    return *closed;
  }

  scratch.arena.reset();
  const std::size_t lower = l2_lower_bound_rle(runs, model, scratch.arena);
  std::size_t upper =
      std::min(first_fit_decreasing_rle(runs, model, scratch.ffd_tree),
               best_fit_decreasing_rle(runs, model, scratch.bfd_residuals));
  DBP_CHECK(lower <= upper, "L2 exceeds the FFD/BFD bin count");
  if (lower == upper || !options.use_exact_solver) return {lower, upper};

  upper = RunSlackWitness(runs, model, scratch).pack(upper);
  DBP_CHECK(lower <= upper, "L2 exceeds the witness bin count");
  if (lower == upper) return {lower, upper};

  // Arena-backed expansion (runs are strictly decreasing, so the expanded
  // multiset is born sorted), then the search-only solver entry, started
  // from the bounds just computed — the same pair the flat chain passes.
  const std::span<double> expanded =
      scratch.arena.allocate_array<double>(static_cast<std::size_t>(n));
  std::size_t at = 0;
  for (const SizeRun& run : runs) {
    for (std::uint64_t i = 0; i < run.count; ++i) expanded[at++] = run.size;
  }
  const ExactPackingResult exact = exact_bin_count_bounded(
      expanded, model, lower, upper, options.exact, scratch.arena);
  return {std::max(lower, exact.lower), std::min(upper, exact.upper)};
}

}  // namespace

std::optional<BinCountBounds> closed_form_bin_count(std::uint64_t n, double total,
                                                    double largest, double smallest,
                                                    const CostModel& model) {
  if (model.fits(total, model.bin_capacity)) return BinCountBounds{1, 1};
  if (largest - smallest <= kEqualSizeRelTolerance * largest) {
    const std::size_t m = per_bin_count(largest, model);
    const auto bins = static_cast<std::size_t>((n + m - 1) / m);
    return BinCountBounds{bins, bins};
  }
  return std::nullopt;
}

BinCountBounds optimal_bin_count_rle(std::span<const SizeRun> runs,
                                     const CostModel& model,
                                     const BinCountOptions& options,
                                     BinCountScratch& scratch) {
  model.validate();
  rle_validate(runs, model);
  return compute_rle(runs, model, options, scratch);
}

BinCountOracle::BinCountOracle(CostModel model, BinCountOptions options,
                               std::size_t memo_limit)
    : model_(model), options_(options), memo_limit_(std::max<std::size_t>(memo_limit, 2)) {
  model_.validate();
}

BinCountBounds BinCountOracle::count_rle(std::span<const SizeRun> runs) {
  if (const auto it = memo_.find(runs); it != memo_.end()) {
    ++hits_;
    return it->second.bounds;
  }
  ++misses_;
  const BinCountBounds bounds = compute_rle(runs, model_, options_, scratch_);
  if (runs.size() > kMemoRunBudget) return bounds;
  while (memo_.size() >= memo_limit_ || stored_runs_ + runs.size() > kMemoRunBudget) {
    // Bounded FIFO eviction: drop the older half (by insertion sequence) so
    // the amortized cost per insert stays O(1) and recent snapshots — the
    // ones cyclic workloads are about to revisit — survive. Evictions only
    // ever remove the oldest entries, so the stored sequence numbers are
    // the contiguous range ending at next_seq_.
    const std::uint64_t cutoff = next_seq_ - memo_.size() / 2;
    evictions_ += std::erase_if(memo_, [this, cutoff](const auto& entry) {
      if (entry.second.seq >= cutoff) return false;
      stored_runs_ -= entry.first.size();
      return true;
    });
  }
  memo_.emplace(std::vector<SizeRun>(runs.begin(), runs.end()),
                MemoEntry{bounds, next_seq_++});
  stored_runs_ += runs.size();
  return bounds;
}

}  // namespace dbp
