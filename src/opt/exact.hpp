// Exact bin packing by budgeted branch-and-bound.
#pragma once

#include <cstdint>
#include <span>

#include "core/types.hpp"

namespace dbp {

/// Outcome of a branch-and-bound search.
struct ExactPackingResult {
  std::size_t lower = 0;   ///< proven lower bound on the optimum
  std::size_t upper = 0;   ///< bin count of the best packing found
  bool proven = false;     ///< lower == upper and the search was exhaustive
  std::uint64_t nodes = 0; ///< nodes expanded
};

struct ExactPackingOptions {
  /// Abort the search (returning the best bounds so far) after this many
  /// nodes. The default solves typical |active| <= 64 mixed instances.
  std::uint64_t node_budget = 200'000;
};

class MonotonicArena;

/// Branch-and-bound over items in non-increasing size order, for callers
/// that already hold valid bounds: each item is tried in every open bin
/// with a distinct residual (symmetry breaking) and in a fresh bin; subtrees
/// are pruned with the area bound, which counts an open bin's spare as
/// residual + fit_tolerance while the smallest item still fits it and as 0
/// once none can. Sound under the library-wide tolerance-based feasibility
/// (see opt/lower_bounds.hpp).
///
/// `sorted_desc` must be non-increasing, `lower` must be a lower bound on
/// the optimum (l2_lower_bound_rle in the library), and `upper` is the best
/// upper bound the caller holds: the bin count of a packing it has found
/// (min(FFD, BFD), or a minimum-bin-slack witness that beats them; see
/// opt/bin_count.hpp). The search looks only for packings with fewer than
/// `upper` bins, so exhausting it proves `upper` optimal; a smaller `upper`
/// searches a subset of the tree, so bounds only tighten. Every working
/// array comes out of `scratch`, so a caller that resets the arena between
/// snapshots (opt/scratch.hpp) runs the solver without heap allocations.
[[nodiscard]] ExactPackingResult exact_bin_count_bounded(
    std::span<const double> sorted_desc, const CostModel& model, std::size_t lower,
    std::size_t upper, const ExactPackingOptions& options, MonotonicArena& scratch);

}  // namespace dbp
