// Classical (static) bin packing heuristics.
//
// OPT(R, t) — the paper's per-time-point optimum (Section 3.2) — is a
// classical bin packing problem over the multiset of active item sizes.
// FFD/BFD provide upper bounds; opt/lower_bounds.hpp provides lower bounds;
// opt/exact.hpp closes the gap when affordable. The flat per-item kernels
// these replay bit for bit are test oracles (tests/support/flat_bin_count.hpp).
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "opt/rle.hpp"

namespace dbp {

class MaxSegmentTree;

/// Run-length-encoded FFD and BFD (strictly decreasing run sizes) for
/// callers that evaluate many multisets in a row — the bin-count oracle and
/// the OPT_total evaluate phase, both through opt/scratch.hpp. Bit-identical
/// to the flat per-item kernels on the expanded multiset, and the residual
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

/// BFD on a flat ascending-sorted residual vector, where the flat per-item
/// kernel walks a std::multiset. Value-equivalent by
/// construction: lower_bound on a sorted double vector selects the same
/// residual *value* the multiset's lower_bound does, and erase/insert keep
/// the same sorted value sequence (ties are interchangeable — only values
/// are ever read), so the per-item subtraction sequence and the bin count
/// match the multiset walk exactly.
[[nodiscard]] std::size_t best_fit_decreasing_rle(std::span<const SizeRun> runs,
                                                  const CostModel& model,
                                                  std::vector<double>& scratch_residuals);

}  // namespace dbp
