// The bin-count oracle: certified [lower, upper] bounds (exact whenever
// affordable) on the optimal number of bins for a static size multiset.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"
#include "opt/exact.hpp"
#include "opt/rle.hpp"
#include "opt/scratch.hpp"

namespace dbp {

/// Certified bounds on the optimal bin count.
struct BinCountBounds {
  std::size_t lower = 0;
  std::size_t upper = 0;
  [[nodiscard]] bool exact() const noexcept { return lower == upper; }
};

struct BinCountOptions {
  /// Forwarded to the exact solver when heuristic bounds do not meet.
  ExactPackingOptions exact{};
  /// Disable the exact solver entirely (bounds then come from L2 and
  /// FFD/BFD only) — used by large sweeps where speed matters more.
  bool use_exact_solver = true;
  /// Sizes whose relative spread is below this are treated as equal,
  /// enabling the exact equal-size fast path.
  double equal_size_rel_tolerance = 1e-12;
};

/// Computes bounds for the given multiset. Fast paths (exact, O(n)):
/// empty, everything-fits-one-bin, all-equal sizes. General path:
/// max(L1, L2) lower, min(FFD, BFD) upper, branch-and-bound to close.
///
/// The flat algorithm on a sorted copy (l2_lower_bound_sorted, the
/// `_sorted` FFD/BFD, exact_bin_count) — the specification the RLE entry
/// point below is differentially tested against, and what
/// estimate_opt_total_reference evaluates snapshots with.
[[nodiscard]] BinCountBounds optimal_bin_count(std::span<const double> sizes,
                                               const CostModel& model,
                                               const BinCountOptions& options = {});

/// Run-length-encoded entry point (strictly decreasing run sizes), used by
/// every production caller. Bit-identical to optimal_bin_count on the
/// expanded multiset: the heuristic chain runs on the compressed form via
/// the `_rle` kernels (which replay the flat floating-point sequence
/// exactly) and the exact solver, when needed, runs on an expansion. Every
/// working structure (L2 prefix arrays, FFD tree, BFD residual index,
/// exact-solver expansion and stack) is reused from `scratch` — see
/// opt/scratch.hpp — so evaluating many snapshots with one scratch is
/// allocation-free in steady state.
[[nodiscard]] BinCountBounds optimal_bin_count_rle(std::span<const SizeRun> runs,
                                                   const CostModel& model,
                                                   const BinCountOptions& options,
                                                   BinCountScratch& scratch);

/// Memoizing wrapper around optimal_bin_count_rle, keyed on the exact
/// run-length-encoded multiset and computing misses on its own scratch. The
/// streaming engine counts the merged fleet at every epoch; cyclic workloads
/// revisit the same multiset many times. Not thread-safe.
class BinCountOracle {
 public:
  /// Evictions trim the memo back under `memo_limit` entries (FIFO halves)
  /// instead of wiping it wholesale.
  static constexpr std::size_t kMemoLimit = 1 << 18;

  explicit BinCountOracle(CostModel model, BinCountOptions options = {},
                          std::size_t memo_limit = kMemoLimit);

  /// `sorted_desc` must be non-increasing. Compresses to runs, then counts.
  [[nodiscard]] BinCountBounds count_sorted(std::span<const double> sorted_desc);

  /// Memoized bounds for a compressed multiset. The probe is transparent —
  /// arena-backed snapshot spans pass through without a key copy — and only
  /// a miss copies the key into the memo, evicting the oldest half first
  /// when `memo_limit` is reached (FIFO by insertion; bounded, never a
  /// wholesale wipe).
  [[nodiscard]] BinCountBounds count_rle(std::span<const SizeRun> runs);

  [[nodiscard]] std::size_t memo_size() const noexcept { return memo_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// Total entries evicted over the oracle's lifetime.
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct MemoEntry {
    BinCountBounds bounds{};
    std::uint64_t seq = 0;  ///< insertion sequence number, for FIFO eviction
  };

  CostModel model_;
  BinCountOptions options_;
  std::size_t memo_limit_;
  BinCountScratch scratch_;
  // DBP_LINT_ALLOW(unordered-container): memo lookups by exact RLE key;
  // eviction keeps every entry with seq >= cutoff, so the surviving set is
  // determined by insertion sequence, not by iteration order.
  std::unordered_map<std::vector<SizeRun>, MemoEntry, SizeRunVectorHash,
                     SizeRunKeyEqual>
      memo_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace dbp
