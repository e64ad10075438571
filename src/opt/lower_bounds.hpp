// Lower bounds on the optimal bin count of a static packing instance.
//
// Soundness under floating-point: the packing feasibility test everywhere in
// this library is `sum of sizes <= W + fit_tolerance`, so all bounds here
// are computed against the *effective* capacity W' = W + fit_tolerance (plus
// a relative ceil guard). A bound that is valid for W' is valid for every
// packing the BinManager would accept.
#pragma once

#include <span>

#include "core/types.hpp"
#include "opt/rle.hpp"

namespace dbp {

/// L1 (continuous/area bound): ceil(sum sizes / W'). 0 for the empty set.
[[nodiscard]] std::size_t l1_lower_bound(std::span<const double> sizes,
                                         const CostModel& model);

/// L2 (Martello-Toth): partitions items around a threshold alpha and counts
/// bins that large items force open; maximized over all candidate alphas.
/// Dominates L1. O(n log n).
[[nodiscard]] std::size_t l2_lower_bound(std::span<const double> sizes,
                                         const CostModel& model);

/// Pre-sorted variant (non-increasing sizes).
[[nodiscard]] std::size_t l2_lower_bound_sorted(std::span<const double> sorted_desc,
                                                const CostModel& model);

class MonotonicArena;

/// Run-length-encoded variant (strictly decreasing run sizes). Bit-identical
/// to l2_lower_bound_sorted on the expanded multiset: every index the flat
/// algorithm touches (threshold partitions, candidate alphas) is a run
/// boundary, so only boundary prefix sums are materialized — O(d log d)
/// bookkeeping for d runs on top of the O(n) compensated summation. The
/// boundary arrays come out of `scratch`, so a caller that resets the arena
/// between snapshots (see opt/scratch.hpp) pays zero allocations in steady
/// state.
[[nodiscard]] std::size_t l2_lower_bound_rle(std::span<const SizeRun> runs,
                                             const CostModel& model,
                                             MonotonicArena& scratch);

}  // namespace dbp
