// Classical (static) bin packing heuristics.
//
// OPT(R, t) — the paper's per-time-point optimum (Section 3.2) — is a
// classical bin packing problem over the multiset of active item sizes.
// FFD/BFD provide upper bounds; opt/lower_bounds.hpp provides lower bounds;
// opt/exact.hpp closes the gap when affordable.
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "opt/rle.hpp"

namespace dbp {

/// Number of bins First Fit Decreasing uses to pack `sizes` into bins of
/// capacity model.bin_capacity (tolerance-aware). O(n log n).
[[nodiscard]] std::size_t first_fit_decreasing(std::span<const double> sizes,
                                               const CostModel& model);

/// Number of bins Best Fit Decreasing uses. O(n log n).
[[nodiscard]] std::size_t best_fit_decreasing(std::span<const double> sizes,
                                              const CostModel& model);

/// Pre-sorted variants (sizes must be non-increasing); used on hot paths
/// where the caller maintains sorted order.
[[nodiscard]] std::size_t first_fit_decreasing_sorted(std::span<const double> sorted_desc,
                                                      const CostModel& model);
[[nodiscard]] std::size_t best_fit_decreasing_sorted(std::span<const double> sorted_desc,
                                                     const CostModel& model);

class MaxSegmentTree;

/// Run-length-encoded variants (strictly decreasing run sizes) for callers
/// that evaluate many multisets in a row — the bin-count oracle and the
/// OPT_total evaluate phase, both through opt/scratch.hpp. Bit-identical to
/// the `_sorted` variants on the expanded multiset, and the residual
/// structures are clear()ed and reused instead of rebuilt, so steady-state
/// calls touch no heap.
///
/// FFD: equal consecutive items land in the same bin, so a whole run is
/// placed with one tree search per target bin while the per-item residual
/// subtractions are replayed unchanged — O(d log b + placements) for d runs
/// instead of O(n log b) for n items. Reuses the caller's segment tree
/// (clear() keeps its storage).
[[nodiscard]] std::size_t first_fit_decreasing_rle(std::span<const SizeRun> runs,
                                                   const CostModel& model,
                                                   MaxSegmentTree& scratch_tree);

/// BFD on a flat ascending-sorted residual vector, where
/// best_fit_decreasing_sorted walks a std::multiset. Value-equivalent by
/// construction: lower_bound on a sorted double vector selects the same
/// residual *value* the multiset's lower_bound does, and erase/insert keep
/// the same sorted value sequence (ties are interchangeable — only values
/// are ever read), so the per-item subtraction sequence and the bin count
/// match the multiset walk exactly.
[[nodiscard]] std::size_t best_fit_decreasing_rle(std::span<const SizeRun> runs,
                                                  const CostModel& model,
                                                  std::vector<double>& scratch_residuals);

}  // namespace dbp
