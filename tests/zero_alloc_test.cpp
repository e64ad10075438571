// Zero-steady-state-allocation regression tests (hot-path memory
// architecture): counting global operator new/delete overrides pin that
//
//   1. the packer event loop — replay_events() after reserve_hint() — runs
//      without touching the heap for every devirtualized strategy, and
//   2. the OPT bin-count kernel with a warm BinCountScratch re-evaluates
//      snapshots allocation-free (the arena/tree/residual/witness buffers
//      are reused, not reallocated), and
//   3. a live WireServer serves binary submit frames allocation-free once
//      its connection is open and its engine's fleet is warm: frames are
//      decoded in place from the connection's receive buffer, and
//   4. a warm GameServerDispatcher serves session starts and ends and
//      writes its epoch snapshot allocation-free: the packer's item slots
//      are its only session table, and
//   5. a warm sharded engine applies its queues and cuts memo-hit epochs
//      allocation-free, and a line-JSON connection decodes submit lines in
//      place as a binary one decodes frames.
//
// The overrides live at global scope in this translation unit, so they
// replace the program-wide allocation functions for this test binary only.
// Counters are always-on atomics; tests measure deltas around the region
// under test, so allocations made by gtest or the fixtures outside that
// region never pollute a measurement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "algo/factory.hpp"
#include "algo/packer.hpp"
#include "core/types.hpp"
#include "durability/journal.hpp"
#include "engine/engine.hpp"
#include "gaming/dispatcher.hpp"
#include "net/wire_client.hpp"
#include "net/wire_protocol.hpp"
#include "net/wire_server.hpp"
#include "opt/bin_count.hpp"
#include "opt/rle.hpp"
#include "opt/scratch.hpp"
#include "serving_thread.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "support/flat_bin_count.hpp"
#include "witness_fixtures.hpp"
#include "workload/random_instance.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Counted malloc; null on failure. Every operator new form below comes
/// through here or counted_malloc_aligned, and every operator delete form
/// releases with free, so allocation and release always pair.
void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_malloc_aligned(std::size_t size, std::size_t alignment) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

void* counted_allocate(std::size_t size) {
  if (void* ptr = counted_malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* counted_allocate_aligned(std::size_t size, std::size_t alignment) {
  if (void* ptr = counted_malloc_aligned(size, alignment)) return ptr;
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
// The nothrow forms: the standard library asks for temporary buffers this
// way (std::inplace_merge, std::stable_sort), and releases them through the
// matching nothrow or plain delete.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return counted_malloc_aligned(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return counted_malloc_aligned(size, static_cast<std::size_t>(alignment));
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
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
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
  // One gap the minimum-bin-slack witness closes at L2 and one it falls
  // short on, which goes on to branch-and-bound. A 1-node search budget
  // shows which is which: only the witness can close a gap under it.
  for (const bool closes : {true, false}) {
    std::vector<SizeRun> runs = rle_from_sorted(
        closes ? witness_fixtures::closes_at_l2() : witness_fixtures::falls_through());
    BinCountScratch probe;
    ASSERT_EQ(optimal_bin_count_rle(runs, model, witness_fixtures::witness_only(), probe)
                  .exact(),
              closes);
    snapshots.push_back(std::move(runs));
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

// ---- serving dispatcher -------------------------------------------------

/// Session id bases: dense ids, and ids past 2^40. The dispatcher's session
/// table hands the packer the same slots for both.
constexpr std::uint64_t kIdBases[] = {0, std::uint64_t{1} << 40};

TEST(ZeroAllocDispatcherTest, WarmDispatcherServesSessionsWithoutAllocating) {
  constexpr std::uint64_t kChurnIds = 64;
  constexpr std::uint64_t kPairs = 20000;
  for (const std::uint64_t base : kIdBases) {
    SCOPED_TRACE("id base " + std::to_string(base));
    FaultPolicy policy;
    policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
    GameServerDispatcher dispatcher(ServerSpec{1.0, 6.0}, "first-fit", {},
                                    policy);
    // Session `base` holds server 0 for the whole run, and every churn
    // session fits beside it, so no pair needs a new server.
    ASSERT_EQ(dispatcher.start_session(base, 0.5, 0.0), BinId{0});
    Time t = 0.0;
    for (std::uint64_t id = 1; id <= kChurnIds; ++id) {  // warm the id range
      ASSERT_EQ(dispatcher.start_session(base + id, 0.25, t), BinId{0});
      dispatcher.end_session(base + id, t += 1.0);
    }
    std::vector<double> sizes(2);

    const std::uint64_t before = allocation_count();
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      const std::uint64_t id = base + 1 + i % kChurnIds;
      (void)dispatcher.start_session(id, 0.25, t);
      if (i % 64 == 0) dispatcher.active_sizes_desc(sizes);
      dispatcher.end_session(id, t += 1.0);
    }
    const std::uint64_t after = allocation_count();

    EXPECT_EQ(after - before, 0u)
        << kPairs << " warm start/end pairs allocated " << (after - before)
        << " time(s)";
    EXPECT_EQ(sizes, (std::vector<double>{0.5, 0.25}));
    EXPECT_EQ(dispatcher.servers_ever_rented(), 1u);
    EXPECT_EQ(dispatcher.active_sessions(), 1u);
    EXPECT_EQ(dispatcher.sessions().slot_count(), 2u);
    EXPECT_EQ(dispatcher.fault_stats().total_dropped_events(), 0u);
  }
}

// ---- sharded engine ------------------------------------------------------

/// A 2-shard engine in which each shard holds one half-GPU session for the
/// whole run, with churn session ids base+1..base+kChurnIds warmed on their
/// shards. Churn sessions of 0.25 fit beside either holder, so churn never
/// rents a server, and every epoch between churn pairs snapshots the same
/// two holders.
class WarmEngine {
 public:
  static constexpr std::uint64_t kChurnIds = 64;

  explicit WarmEngine(std::uint64_t id_base = 0)
      : eng_(config()), id_base_(id_base) {
    const engine::HashShardRouter router;
    for (std::uint64_t id = id_base_ + kChurnIds + 1; holders_ < 2; ++id) {
      if (router.shard_for(id, 2) == holders_) {
        eng_.submit(engine::start_event(id, 0.5, 0.0));
        ++holders_;
      }
    }
    churn(kChurnIds);
    eng_.advance_epoch(t_);  // a memo miss, stored
  }

  /// Submits `pairs` start/end pairs over the churn ids, one minute apart.
  void churn(std::uint64_t pairs) {
    for (std::uint64_t i = 0; i < pairs; ++i) {
      const std::uint64_t id = id_base_ + 1 + i % kChurnIds;
      eng_.submit(engine::start_event(id, 0.25, t_));
      eng_.submit(engine::end_event(id, t_ += 1.0));
    }
  }

  engine::ShardedDispatchEngine& engine() { return eng_; }
  [[nodiscard]] Time now() const { return t_; }

 private:
  static engine::EngineConfig config() {
    engine::EngineConfig config;
    config.shard_count = 2;
    config.spec = ServerSpec{1.0, 6.0};
    return config;
  }

  engine::ShardedDispatchEngine eng_;
  std::uint64_t id_base_;
  std::size_t holders_ = 0;
  Time t_ = 0.0;
};

TEST(ZeroAllocEngineTest, SmallBacklogDrainsRunInlineWithoutAllocating) {
  for (const std::uint64_t base : kIdBases) {
    SCOPED_TRACE("id base " + std::to_string(base));
    WarmEngine warm(base);
    engine::ShardedDispatchEngine& eng = warm.engine();
    warm.churn(WarmEngine::kChurnIds);
    eng.drain();

    constexpr int kDrains = 200;
    const std::uint64_t before = allocation_count();
    for (int d = 0; d < kDrains; ++d) {
      warm.churn(WarmEngine::kChurnIds);  // a 128-event backlog per drain
      eng.drain();
    }
    const std::uint64_t after = allocation_count();

    EXPECT_EQ(after - before, 0u)
        << kDrains << " small-backlog drains allocated " << (after - before)
        << " time(s)";
    EXPECT_EQ(eng.active_sessions(), 2u);
    EXPECT_EQ(eng.active_servers(), 2u);
    EXPECT_EQ(eng.merged_fault_stats().total_dropped_events(), 0u);
  }
}

TEST(ZeroAllocEngineTest, MemoHitEpochDoesNotAllocate) {
  WarmEngine warm;
  engine::ShardedDispatchEngine& eng = warm.engine();
  warm.churn(WarmEngine::kChurnIds);
  eng.advance_epoch(warm.now());  // the first hit
  const std::uint64_t hits = eng.oracle_hits();
  const std::uint64_t misses = eng.oracle_misses();

  constexpr int kEpochs = 200;
  const std::uint64_t before = allocation_count();
  for (int e = 0; e < kEpochs; ++e) {
    warm.churn(8);
    eng.advance_epoch(warm.now());
  }
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << kEpochs << " memo-hit epochs allocated " << (after - before)
      << " time(s)";
  EXPECT_EQ(eng.oracle_hits(), hits + kEpochs);
  EXPECT_EQ(eng.oracle_misses(), misses);
  EXPECT_EQ(eng.merged_snapshot_rle(), (std::vector<SizeRun>{{0.5, 2}}));
}

// ---- journal appends ------------------------------------------------------

/// Strict write-ahead logging appends and flushes every event. Once the
/// buffer has held one record, an append encodes in place and a flush
/// writes and clears it, so neither allocates.
TEST(ZeroAllocJournalTest, AppendAndFlushAfterTheFirstDoNotAllocate) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dbp_zero_alloc_test.journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "journal.dbpj").string();
  constexpr std::uint64_t kPairs = 64;
  {
    durability::JournalWriter writer(path, 7);
    durability::JournalEvent event{0, durability::JournalEventKind::kStartSession,
                                   0.0, 1, 0.25};
    writer.append(event);
    writer.flush();
    const std::uint64_t before = allocation_count();
    for (std::uint64_t i = 1; i <= kPairs; ++i) {
      event.seq = i;
      event.kind = i % 2 == 1 ? durability::JournalEventKind::kEndSession
                              : durability::JournalEventKind::kStartSession;
      event.time = static_cast<Time>(i);
      writer.append(event);
      writer.flush();
    }
    const std::uint64_t after = allocation_count();
    EXPECT_EQ(after - before, 0u)
        << kPairs << " append-and-flush pairs allocated " << (after - before)
        << " time(s)";
  }
  EXPECT_EQ(durability::scan_journal(path).events.size(), kPairs + 1);
  std::filesystem::remove_all(dir);
}

// ---- wire server read path --------------------------------------------

/// Request `i` of a churn beside a holder session: churn session
/// 1 + (i / 2) % kChurnIds starts (even i) or ends (odd i), and pair i / 2
/// runs from minute i / 2 to minute i / 2 + 1. Starts and ends alternate,
/// so both kinds are covered.
net::WireRequest churn_request(std::uint64_t i) {
  const std::uint64_t pair = i / 2;
  const std::uint64_t id = 1 + pair % WarmEngine::kChurnIds;
  net::WireRequest request;
  request.verb = net::WireVerb::kSubmit;
  request.event = i % 2 == 0
                      ? engine::start_event(id, 0.25, static_cast<double>(pair))
                      : engine::end_event(id, static_cast<double>(pair + 1));
  return request;
}

/// Serves `requests` churn submits over one connection in `framing` and
/// returns how many allocations the server made while decoding, queueing
/// and applying them. The engine's fleet is warm first, as WarmEngine's
/// is: a half-GPU holder session and one round of churn are applied before
/// the server starts, so applying a full queue inside the measured window
/// reuses every table. A warm query opens the connection.
std::uint64_t allocations_serving(net::WireClient::Framing framing,
                                  std::uint64_t requests) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "dbp_zero_alloc_test.wire")
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  engine::ShardedDispatchEngine eng(engine::EngineConfig{});
  constexpr std::uint64_t kHolder = WarmEngine::kChurnIds + 1;
  constexpr std::uint64_t kWarm = 2 * WarmEngine::kChurnIds;
  eng.submit(engine::start_event(kHolder, 0.5, 0.0));
  for (std::uint64_t i = 0; i < kWarm; ++i) eng.submit(churn_request(i).event);
  eng.drain();

  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = kWarm; i < kWarm + requests; ++i) {
    if (framing == net::WireClient::Framing::kBinary) {
      const std::vector<std::uint8_t> frame =
          net::encode_request_frame(churn_request(i));
      stream.insert(stream.end(), frame.begin(), frame.end());
    } else {
      const std::string line = net::encode_json_request(churn_request(i)) + "\n";
      stream.insert(stream.end(), line.begin(), line.end());
    }
  }

  net::WireServerConfig server_config;
  server_config.socket_path = dir + "/wire.sock";
  net::WireServer server(eng, server_config);
  server.start();
  net::ServingThread serving(server);

  net::WireClient client(server_config.socket_path, framing);
  // The warm query opens the connection and its receive buffer.
  EXPECT_EQ(client.query(0.0).error, net::WireError::kNone);

  const std::uint64_t before = allocation_count();
  client.send_raw(stream);
  for (int round = 0; round < 2000 && server.stats().events_submitted < requests;
       ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(server.stats().events_submitted, requests);
  EXPECT_EQ(server.stats().frames_rejected, 0u);
  serving.stop();
  EXPECT_EQ(eng.events_applied(), 1 + kWarm + requests);
  EXPECT_EQ(eng.active_sessions(), 1u);
  EXPECT_EQ(eng.active_servers(), 1u);
  EXPECT_EQ(eng.merged_fault_stats().total_dropped_events(), 0u);
  std::filesystem::remove_all(dir);
  return after - before;
}

// More requests than one shard queue holds, so the measured window applies
// a full queue.
constexpr std::uint64_t kWireRequests =
    2 * engine::ShardedDispatchEngine::kShardQueueCap;

TEST(ZeroAllocWireTest, BinarySubmitFramesAreServedWithoutAllocating) {
  const std::uint64_t allocations =
      allocations_serving(net::WireClient::Framing::kBinary, kWireRequests);
  EXPECT_EQ(allocations, 0u) << "serving " << kWireRequests
                             << " submit frames allocated " << allocations
                             << " time(s)";
}

TEST(ZeroAllocWireTest, JsonSubmitLinesAreServedWithoutAllocating) {
  const std::uint64_t allocations =
      allocations_serving(net::WireClient::Framing::kJson, kWireRequests);
  EXPECT_EQ(allocations, 0u) << "serving " << kWireRequests
                             << " submit lines allocated " << allocations
                             << " time(s)";
}

}  // namespace
}  // namespace dbp
