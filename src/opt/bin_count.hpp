// The bin-count oracle: certified [lower, upper] bounds (exact whenever
// affordable) on the optimal number of bins for a static size multiset.
#pragma once

#include <cstdint>
#include <optional>
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

/// Search nodes the minimum-bin-slack witness may spend on each bin it
/// builds (one node = one tentative addition of an item). A constant of the
/// algorithm, not an option: larger caps fill early bins more tightly and
/// strand the large items (docs/opt_certification.md).
inline constexpr std::uint64_t kWitnessNodesPerBin = 200;

/// Sizes whose relative spread is at most this are treated as equal, which
/// takes the exact equal-size fast path.
inline constexpr double kEqualSizeRelTolerance = 1e-12;

struct BinCountOptions {
  /// Forwarded to the exact solver when heuristic bounds do not meet.
  ExactPackingOptions exact{};
  /// Disable the exact solver entirely (bounds then come from L2 and
  /// FFD/BFD only) — used by large sweeps where speed matters more.
  bool use_exact_solver = true;
};

/// The exact fast paths every bin count takes before any heuristic runs:
/// {1, 1} when all n > 0 items fit one bin (`total`, their per-item
/// compensated sum, fits W), and ceil(n / m) bins when all sizes are equal
/// within kEqualSizeRelTolerance (`largest` and `smallest` bracket them; m
/// is the most items of size `largest` one bin takes under CostModel::fits).
/// std::nullopt when neither applies.
[[nodiscard]] std::optional<BinCountBounds> closed_form_bin_count(
    std::uint64_t n, double total, double largest, double smallest,
    const CostModel& model);

/// Computes bounds for a run-length-encoded multiset (strictly decreasing
/// run sizes); every production caller counts this way. Fast paths (exact,
/// O(n)): empty, everything-fits-one-bin, all-equal sizes. General path:
/// max(L1, L2) lower, min(FFD, BFD) upper through the `_rle` kernels; when
/// they differ and the exact solver is enabled, a minimum-bin-slack packing
/// (at most kWitnessNodesPerBin search nodes per bin) may lower the upper
/// bound, and branch-and-bound, on an expansion, closes what remains.
///
/// Bit-identical to the flat chain on the expanded multiset — the per-item
/// specification kept as a test oracle in tests/support/flat_bin_count.hpp:
/// the `_rle` kernels replay the flat floating-point sequence exactly and
/// the witness searches run counts under the flat witness's node
/// definition. Every working structure (L2 prefix arrays, FFD tree, BFD
/// residual index, witness counts and stacks, exact-solver expansion and
/// stack) is reused from `scratch` — see opt/scratch.hpp — so evaluating
/// many snapshots with one scratch is allocation-free in steady state.
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
  /// Second eviction trigger: the runs stored across all keys (16 bytes
  /// each). Continuous-size keys run to ~150 runs, so the entry limit alone
  /// would let the memo grow to ~650 MB; this caps the keys at 16 MiB.
  static constexpr std::size_t kMemoRunBudget = std::size_t{1} << 20;

  explicit BinCountOracle(CostModel model, BinCountOptions options = {},
                          std::size_t memo_limit = kMemoLimit);

  /// Memoized bounds for a compressed multiset. The probe is transparent —
  /// arena-backed snapshot spans pass through without a key copy — and only
  /// a miss copies the key into the memo, evicting the oldest half first
  /// when `memo_limit` entries or kMemoRunBudget stored runs would be
  /// exceeded (FIFO by insertion; bounded, never a wholesale wipe). A key
  /// longer than the whole run budget is computed but not stored.
  [[nodiscard]] BinCountBounds count_rle(std::span<const SizeRun> runs);

  [[nodiscard]] std::size_t memo_size() const noexcept { return memo_.size(); }
  /// Runs stored across all memo keys; never exceeds kMemoRunBudget.
  [[nodiscard]] std::size_t stored_runs() const noexcept { return stored_runs_; }
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
  std::size_t stored_runs_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace dbp
