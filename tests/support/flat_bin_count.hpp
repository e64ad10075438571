// The flat bin-count chain: the per-item specification the library's
// run-length-encoded chain (opt/bin_count.hpp) is differentially tested
// against. A test oracle, kept out of the library.
//
// Every function here works on a flat size list, item by item: the `_sorted`
// FFD/BFD/L2 kernels replayed bit for bit by the library's `_rle` kernels
// (opt/classical.hpp, opt/lower_bounds.hpp), the minimum-bin-slack witness
// in its per-item form, and the chain that strings them together. The
// library shares only what both chains must compute alike: the closed-form
// fast paths (closed_form_bin_count), the bounds' rounding rule
// (guarded_ceil) and the branch-and-bound search (exact_bin_count_bounded).
#pragma once

#include <span>

#include "core/types.hpp"
#include "opt/bin_count.hpp"
#include "opt/exact.hpp"

namespace dbp {

/// Number of bins First Fit Decreasing uses to pack `sizes` into bins of
/// capacity model.bin_capacity (tolerance-aware). O(n log n).
[[nodiscard]] std::size_t first_fit_decreasing(std::span<const double> sizes,
                                               const CostModel& model);

/// Number of bins Best Fit Decreasing uses. O(n log n).
[[nodiscard]] std::size_t best_fit_decreasing(std::span<const double> sizes,
                                              const CostModel& model);

/// Pre-sorted variants (sizes must be non-increasing): FFD over a segment
/// tree of residuals, BFD over a std::multiset of residuals.
[[nodiscard]] std::size_t first_fit_decreasing_sorted(std::span<const double> sorted_desc,
                                                      const CostModel& model);
[[nodiscard]] std::size_t best_fit_decreasing_sorted(std::span<const double> sorted_desc,
                                                     const CostModel& model);

/// L1 (continuous/area bound): ceil(sum sizes / W'), W' = W + fit_tolerance.
/// 0 for the empty set.
[[nodiscard]] std::size_t l1_lower_bound(std::span<const double> sizes,
                                         const CostModel& model);

/// L2 (Martello-Toth), maximized over every candidate threshold; dominates
/// L1. O(n log n).
[[nodiscard]] std::size_t l2_lower_bound(std::span<const double> sizes,
                                         const CostModel& model);

/// Pre-sorted variant (non-increasing sizes).
[[nodiscard]] std::size_t l2_lower_bound_sorted(std::span<const double> sorted_desc,
                                                const CostModel& model);

/// Sorts a copy, computes L2 and min(FFD, BFD) as above and, when they
/// differ, runs the library's search from them (exact_bin_count_bounded) —
/// the same search the bin-count chain starts from those bounds.
[[nodiscard]] ExactPackingResult exact_bin_count(std::span<const double> sizes,
                                                 const CostModel& model,
                                                 const ExactPackingOptions& options = {});

/// The bin-count chain on a sorted copy: the closed-form fast paths, then
/// L2 against min(FFD, BFD), the per-item minimum-bin-slack witness and
/// exact_bin_count_bounded. optimal_bin_count_rle must return the same
/// bounds on the compressed multiset.
[[nodiscard]] BinCountBounds optimal_bin_count(std::span<const double> sizes,
                                               const CostModel& model,
                                               const BinCountOptions& options = {});

}  // namespace dbp
