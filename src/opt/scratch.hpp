// Reusable scratch for the bin-count computation.
//
// The OPT_total evaluate phase calls optimal_bin_count_rle once per distinct
// snapshot — routinely ~10k times per estimate — and the streaming engine's
// oracle once per epoch. Each call's working set (an FFD segment tree, a BFD
// residual index, L2 prefix arrays, the minimum-bin-slack witness's run
// counts and fill stacks, the exact solver's expansion and branch stack) is
// small, and a BinCountScratch owns all of it once per worker (or per
// oracle): containers are clear()ed between snapshots (capacity
// retained) and transient arrays come out of a monotonic arena that is
// reset() per call, so after the first few snapshots the computation
// performs zero heap allocations (core/arena.hpp documents the discipline;
// the arena counters are the regression-test hook).
//
// Not thread-safe — one scratch per worker. Reuse changes where buffers
// live, never the computation: results are bit-identical to a fresh scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/segment_tree.hpp"
#include "core/arena.hpp"

namespace dbp {

struct BinCountScratch {
  /// Transient per-call arrays (L2 prefix sums, exact-solver expansion and
  /// branch stack). reset() before every heuristic chain.
  MonotonicArena arena;

  /// FFD residual tree; clear()ed per call, physical storage retained.
  MaxSegmentTree ffd_tree;

  /// BFD residual index: a flat ascending-sorted vector standing in for the
  /// flat path's std::multiset<double> (opt/classical.hpp documents the
  /// value-equivalence). clear()ed per call, capacity retained.
  std::vector<double> bfd_residuals;

  /// Minimum-bin-slack witness (opt/bin_count.cpp): items of each run not
  /// yet packed, the runs that still hold items, and the fill being tried
  /// and the best fill found for the bin under construction, as stacks of
  /// run indices. clear()ed/assign()ed per call, capacity retained.
  std::vector<std::uint64_t> witness_left;
  std::vector<std::uint32_t> witness_live;
  std::vector<std::uint32_t> witness_path;
  std::vector<std::uint32_t> witness_best;
};

}  // namespace dbp
