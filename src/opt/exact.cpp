#include "opt/exact.hpp"

#include <algorithm>
#include <cmath>

#include "core/arena.hpp"
#include "core/error.hpp"

namespace dbp {

namespace {

/// The branch-and-bound search body. Storage for the suffix sums (n + 1
/// doubles) and the open-bin residual stack (upper + 1 doubles) comes from
/// the caller's arena, so the search itself never allocates.
///
/// The area prune compares the volume still to place with the open bins'
/// usable spare, kept as one running value along the search path: an open
/// bin counts `residual + fit_tolerance` (what CostModel::fits lets it
/// still take) while the smallest item — the search's last — fits it, and
/// 0 once nothing can. Each placement and each new bin updates it in O(1);
/// every branch restores the value it saved, so backtracking is exact.
class Search {
 public:
  Search(std::span<const double> sorted_desc, const CostModel& model,
         const ExactPackingOptions& options, std::span<double> suffix_sum,
         std::span<double> residual_stack)
      : sizes_(sorted_desc),
        capacity_(model.bin_capacity + model.fit_tolerance),  // for area bounds
        real_capacity_(model.bin_capacity),  // fresh-bin residual, as BinManager
        tolerance_(model.fit_tolerance),
        smallest_(sorted_desc.empty() ? 0.0 : sorted_desc.back()),
        options_(options),
        residuals_(residual_stack),
        suffix_sum_(suffix_sum) {
    suffix_sum_[sizes_.size()] = 0.0;
    for (std::size_t i = sizes_.size(); i-- > 0;) {
      suffix_sum_[i] = suffix_sum_[i + 1] + sizes_[i];
    }
  }

  ExactPackingResult run(std::size_t lower, std::size_t upper) {
    best_ = upper;
    lower_ = lower;
    aborted_ = false;
    if (lower_ < best_) branch(0);
    ExactPackingResult result;
    result.upper = best_;
    result.nodes = nodes_;
    result.proven = !aborted_;
    // An exhaustive search proves best_ optimal; an aborted one only keeps
    // the initial lower bound.
    result.lower = result.proven ? best_ : std::min(lower_, best_);
    return result;
  }

 private:
  void branch(std::size_t index) {
    if (aborted_) return;
    if (++nodes_ > options_.node_budget) {
      aborted_ = true;
      return;
    }
    if (index == sizes_.size()) {
      best_ = std::min(best_, open_);
      return;
    }
    // Area prune: open bins + bins forced by volume that cannot go into the
    // open bins' usable spare.
    const double spare = spare_;
    const double overflow = suffix_sum_[index] - spare;
    std::size_t forced = 0;
    if (overflow > 0.0) {
      forced = static_cast<std::size_t>(std::ceil(overflow / capacity_ * (1.0 - 1e-12)));
    }
    if (open_ + forced >= best_) return;

    const double size = sizes_[index];
    // Try each open bin with a distinct residual (equal residuals are
    // interchangeable — placing into either yields isomorphic subtrees).
    double last_residual = -1.0;
    for (std::size_t b = 0; b < open_; ++b) {
      const double residual = residuals_[b];
      if (size > residual + tolerance_) continue;
      if (residual == last_residual) continue;
      last_residual = residual;
      residuals_[b] = residual - size;
      spare_ = spare - usable(residual) + usable(residual - size);
      branch(index + 1);
      residuals_[b] = residual;
      spare_ = spare;
      if (aborted_) return;
      // Perfect fit dominance: if the item exactly fills a bin, no other
      // placement can do better.
      if (std::abs(residual - size) <= tolerance_) return;
    }
    // Try a new bin (only useful if we may still beat best_). The stack
    // never outgrows its `upper + 1` storage: the guard keeps open_ < best_
    // <= the initial upper after every push.
    if (open_ + 1 + (forced > 0 ? forced - 1 : 0) < best_) {
      residuals_[open_++] = real_capacity_ - size;
      spare_ = spare + usable(real_capacity_ - size);
      branch(index + 1);
      --open_;
      spare_ = spare;
    }
  }

  /// What an open bin at `residual` can still take of the remaining items.
  [[nodiscard]] double usable(double residual) const {
    return smallest_ <= residual + tolerance_ ? residual + tolerance_ : 0.0;
  }

  std::span<const double> sizes_;
  double capacity_;
  double real_capacity_;
  double tolerance_;
  double smallest_;                // sizes_.back(): a bin it cannot fit is dead
  ExactPackingOptions options_;
  std::span<double> residuals_;    // open-bin stack; live prefix is [0, open_)
  std::span<double> suffix_sum_;
  double spare_ = 0.0;             // usable(residual) summed over the open bins
  std::size_t open_ = 0;
  std::size_t best_ = 0;
  std::size_t lower_ = 0;
  std::uint64_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

ExactPackingResult exact_bin_count_bounded(std::span<const double> sorted_desc,
                                           const CostModel& model, std::size_t lower,
                                           std::size_t upper,
                                           const ExactPackingOptions& options,
                                           MonotonicArena& scratch) {
  model.validate();
  DBP_REQUIRE(std::is_sorted(sorted_desc.rbegin(), sorted_desc.rend()),
              "sizes must be non-increasing");
  DBP_CHECK(lower <= upper, "lower bound exceeds heuristic upper bound");
  if (lower == upper) {
    return ExactPackingResult{lower, upper, true, 0};
  }
  Search search(sorted_desc, model, options,
                scratch.allocate_array<double>(sorted_desc.size() + 1),
                scratch.allocate_array<double>(upper + 1));
  const ExactPackingResult result = search.run(lower, upper);
  DBP_CHECK(result.lower <= result.upper, "exact search produced crossed bounds");
  return result;
}

}  // namespace dbp
