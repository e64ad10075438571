// Run-length-encoded size multisets.
//
// The OPT_total estimator evaluates the multiset of *active item sizes* at
// every event boundary. Cloud workloads draw sizes from a small catalog of
// flavors, so the multiset compresses to (distinct size, count) runs: oracle
// keys, snapshot copies and hashing all shrink from O(active items) to
// O(distinct sizes). Every consumer of SizeRun spans in this library is
// bit-identical to the same computation on the expanded flat multiset — the
// run-aware code paths replicate the flat code's floating-point operation
// sequence exactly (see opt/classical.hpp, opt/lower_bounds.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"

namespace dbp {

/// One run of a compressed multiset: `count` items of identical `size`.
/// Runs are kept in strictly decreasing size order (sizes bitwise distinct).
struct SizeRun {
  double size = 0.0;
  std::uint64_t count = 0;

  friend bool operator==(const SizeRun&, const SizeRun&) = default;
};

/// Total item count of a run sequence.
[[nodiscard]] inline std::uint64_t rle_item_count(
    std::span<const SizeRun> runs) noexcept {
  std::uint64_t total = 0;
  for (const SizeRun& run : runs) total += run.count;
  return total;
}

/// Compresses a non-increasing flat multiset into runs (bitwise-equal sizes
/// merge). Throws PreconditionError when `sorted_desc` is not sorted.
[[nodiscard]] inline std::vector<SizeRun> rle_from_sorted(
    std::span<const double> sorted_desc) {
  std::vector<SizeRun> runs;
  for (double size : sorted_desc) {
    DBP_REQUIRE(runs.empty() || size <= runs.back().size,
                "sizes must be non-increasing");
    if (!runs.empty() && runs.back().size == size) {
      ++runs.back().count;
    } else {
      runs.push_back(SizeRun{size, 1});
    }
  }
  return runs;
}

/// Throws PreconditionError unless runs are well-formed for `model`:
/// positive counts, sizes in (0, bin capacity], strictly decreasing.
inline void rle_validate(std::span<const SizeRun> runs, const CostModel& model) {
  double previous = std::numeric_limits<double>::infinity();
  for (const SizeRun& run : runs) {
    DBP_REQUIRE(run.count > 0, "run count must be positive");
    DBP_REQUIRE(run.size > 0.0 && model.fits(run.size, model.bin_capacity),
                "size must be in (0, bin capacity]");
    DBP_REQUIRE(run.size < previous, "runs must have strictly decreasing sizes");
    previous = run.size;
  }
}

/// FNV-1a over the raw (size bits, count) representation; the key is the
/// exact compressed multiset. Shared by the bin-count oracle memo and the
/// OPT_total snapshot-deduplication map. Transparent: arena-backed spans
/// hash identically to owning vectors, so they can probe a vector-keyed
/// memo (heterogeneous lookup) without materializing a key copy.
struct SizeRunVectorHash {
  using is_transparent = void;

  std::size_t operator()(std::span<const SizeRun> runs) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t bits) {
      for (int shift = 0; shift < 64; shift += 8) {
        h ^= (bits >> shift) & 0xFF;
        h *= 1099511628211ULL;
      }
    };
    for (const SizeRun& run : runs) {
      std::uint64_t bits;
      std::memcpy(&bits, &run.size, sizeof(bits));
      mix(bits);
      mix(run.count);
    }
    return static_cast<std::size_t>(h);
  }

  std::size_t operator()(const std::vector<SizeRun>& runs) const noexcept {
    return (*this)(std::span<const SizeRun>(runs));
  }
};

/// Transparent equality over run contents, pairing with SizeRunVectorHash
/// for heterogeneous span-vs-vector memo lookups.
struct SizeRunKeyEqual {
  using is_transparent = void;

  bool operator()(std::span<const SizeRun> a, std::span<const SizeRun> b) const noexcept {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
};

}  // namespace dbp
