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

/// ceil(x) robust to x being a hair above an integer due to rounding
/// (x * (1 - 1e-12) is rounded up); 0 for x <= 0. The rounding rule of every
/// L1/L2 bound, shared with the flat test oracle.
[[nodiscard]] std::size_t guarded_ceil(double x);

class MonotonicArena;

/// L2 (Martello-Toth) over runs (strictly decreasing run sizes): partitions
/// items around a threshold alpha and counts bins that large items force
/// open, maximized over all candidate alphas; never below L1, the area
/// bound ceil(sum sizes / W'). Bit-identical to the flat per-item L2 (a
/// test oracle in tests/support) on the expanded multiset: every index
/// the flat algorithm touches (threshold partitions, candidate alphas) is a
/// run boundary, so only boundary prefix sums are materialized — O(d log d)
/// bookkeeping for d runs on top of the O(n) compensated summation. The
/// boundary arrays come out of `scratch`, so a caller that resets the arena
/// between snapshots (see opt/scratch.hpp) pays zero allocations in steady
/// state.
[[nodiscard]] std::size_t l2_lower_bound_rle(std::span<const SizeRun> runs,
                                             const CostModel& model,
                                             MonotonicArena& scratch);

}  // namespace dbp
