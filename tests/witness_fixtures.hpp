// Pinned multisets for the minimum-bin-slack witness stage of the bin-count
// chain (opt/bin_count.cpp), shared by the bin-count and zero-allocation
// tests. Unit bins, fit tolerance 1e-9, sizes in non-increasing order.
#pragma once

#include <vector>

#include "opt/bin_count.hpp"

namespace dbp::witness_fixtures {

/// Options under which branch-and-bound closes nothing (it aborts on its
/// second node), so `upper` reads min(FFD, BFD, witness): the witness's own
/// bin count, whenever it beats the heuristics.
inline BinCountOptions witness_only() {
  BinCountOptions options;
  options.exact.node_budget = 1;
  return options;
}

/// 52 items: L2 = 13, min(FFD, BFD) = 14. Branch-and-bound from those
/// bounds uses up its default 200k-node budget without moving either one;
/// the witness packs 13 bins, which closes the gap at L2.
inline std::vector<double> closes_at_l2() {
  return {0.482, 0.477, 0.469, 0.444, 0.442, 0.438, 0.429, 0.418, 0.404, 0.396,
          0.396, 0.379, 0.362, 0.350, 0.344, 0.322, 0.311, 0.307, 0.302, 0.289,
          0.287, 0.285, 0.281, 0.279, 0.279, 0.255, 0.239, 0.221, 0.211, 0.207,
          0.206, 0.190, 0.172, 0.155, 0.147, 0.147, 0.145, 0.143, 0.138, 0.135,
          0.129, 0.109, 0.105, 0.105, 0.089, 0.088, 0.079, 0.078, 0.077, 0.075,
          0.075, 0.073};
}

/// 35 items: L2 = 11, min(FFD, BFD) = 12. The witness also needs 12 bins,
/// so the gap falls through to branch-and-bound, which finds 11.
inline std::vector<double> falls_through() {
  return {0.498, 0.485, 0.468, 0.458, 0.448, 0.439, 0.423, 0.422, 0.421,
          0.398, 0.396, 0.372, 0.367, 0.358, 0.357, 0.350, 0.348, 0.345,
          0.341, 0.337, 0.319, 0.317, 0.301, 0.269, 0.237, 0.227, 0.176,
          0.175, 0.170, 0.161, 0.152, 0.151, 0.092, 0.060, 0.057};
}

}  // namespace dbp::witness_fixtures
