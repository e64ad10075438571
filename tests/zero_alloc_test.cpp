// Zero-steady-state-allocation regression tests (hot-path memory
// architecture): counting global operator new/delete overrides pin that
//
//   1. the packer event loop — replay_events() after reserve_hint() — runs
//      without touching the heap for every devirtualized strategy, and
//   2. the OPT bin-count kernel with a warm BinCountScratch re-evaluates
//      snapshots allocation-free (the arena/tree/residual buffers are
//      reused, not reallocated).
//
// The overrides live at global scope in this translation unit, so they
// replace the program-wide allocation functions for this test binary only.
// Counters are always-on atomics; tests measure deltas around the region
// under test, so allocations made by gtest or the fixtures outside that
// region never pollute a measurement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "algo/packer.hpp"
#include "core/types.hpp"
#include "opt/bin_count.hpp"
#include "opt/rle.hpp"
#include "opt/scratch.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "workload/random_instance.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void* counted_allocate_aligned(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* ptr = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return ptr;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

Instance churn_instance(std::uint64_t seed, std::size_t items) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 4.0;  // dense arrivals -> many simultaneously open bins
  return generate_random_instance(config, seed);
}

// ---- packer event loop ---------------------------------------------------

/// Every strategy whose replay loop is devirtualized (StaticAnyFitPacker)
/// plus the parameterized MFF/harmonic family. reserve_hint() pre-sizes the
/// BinManager and the strategy indexes; after that the whole replay must be
/// allocation-free.
class ZeroAllocReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZeroAllocReplayTest, ReplayAfterReserveHintDoesNotAllocate) {
  const std::string name = GetParam();
  const Instance instance = churn_instance(/*seed=*/1234, /*items=*/2000);
  const std::vector<Event> events = build_event_sequence(instance);

  std::unique_ptr<Packer> packer = make_packer(name, unit_model());
  packer->reserve_hint(instance.size());

  const std::uint64_t before = allocation_count();
  replay_events(instance, events, *packer);
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << name << ": the steady-state event loop allocated "
      << (after - before) << " time(s); reserve_hint() should have pre-sized "
      << "every growth path (strategy indexes, BinManager, usage records)";
  // Sanity: the run actually did the work.
  EXPECT_GT(packer->bins().total_bins_opened(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ZeroAllocReplayTest,
    ::testing::Values("first-fit", "best-fit", "worst-fit", "next-fit",
                      "last-fit", "move-to-front-fit", "random-fit",
                      "modified-first-fit", "harmonic-first-fit"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& c : id) {
        if (c == '-') c = '_';
      }
      return id;
    });

// ---- OPT bin-count scratch ----------------------------------------------

/// Descending RLE snapshot drawn from a random instance: realistic spread
/// of distinct sizes, large counts.
std::vector<SizeRun> sample_runs(std::uint64_t seed, std::size_t items) {
  const Instance instance = churn_instance(seed, items);
  std::vector<double> sizes;
  sizes.reserve(instance.size());
  for (const Item& item : instance.items()) sizes.push_back(item.size);
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  return rle_from_sorted(sizes);
}

TEST(ZeroAllocScratchTest, WarmBinCountScratchDoesNotAllocate) {
  const CostModel model = unit_model();
  BinCountOptions options;
  BinCountScratch scratch;

  // Several snapshots of different shapes, evaluated round-robin the way
  // the OPT_total evaluate phase reuses one scratch per worker across many
  // pending snapshots.
  std::vector<std::vector<SizeRun>> snapshots;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    snapshots.push_back(sample_runs(seed, 400 * static_cast<std::size_t>(seed)));
  }

  // Warm-up pass: the arena grows its chunks, the FFD tree and BFD residual
  // index reach their high-water capacity.
  std::vector<BinCountBounds> expected;
  for (const auto& runs : snapshots) {
    expected.push_back(optimal_bin_count_rle(runs, model, options, scratch));
  }
  const std::size_t warm_chunks = scratch.arena.chunk_count();

  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      const BinCountBounds bounds =
          optimal_bin_count_rle(snapshots[i], model, options, scratch);
      ASSERT_EQ(bounds.lower, expected[i].lower);
      ASSERT_EQ(bounds.upper, expected[i].upper);
    }
  }
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "warm BinCountScratch allocated " << (after - before)
      << " time(s) across re-evaluations; arena/tree/residual buffers "
      << "should be reused";
  EXPECT_EQ(scratch.arena.chunk_count(), warm_chunks)
      << "the arena grew after warm-up; reset() should retain capacity";
}

TEST(ZeroAllocScratchTest, ScratchMatchesAllocatingPathBitIdentically) {
  // The allocating path is the flat optimal_bin_count on the expanded
  // multiset — the independent implementation the scratch path must match.
  const CostModel model = unit_model();
  BinCountOptions options;
  BinCountScratch scratch;
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const std::vector<SizeRun> runs = sample_runs(seed, 300);
    std::vector<double> sizes;
    for (const SizeRun& run : runs) sizes.insert(sizes.end(), run.count, run.size);
    const BinCountBounds plain = optimal_bin_count(sizes, model, options);
    const BinCountBounds reused =
        optimal_bin_count_rle(runs, model, options, scratch);
    EXPECT_EQ(plain.lower, reused.lower) << "seed " << seed;
    EXPECT_EQ(plain.upper, reused.upper) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dbp
