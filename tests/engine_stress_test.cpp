// Concurrency stress for the engine's MPSC ring and submit/pump paths.
// Runs under `ctest -L stress` and the TSan CI leg (`-L 'stress|audit|chaos'`),
// where the Vyukov ring's acquire/release protocol and the pump-mutex
// handoff get checked for data races.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/mpsc_ring.hpp"
#include "exec/worker_budget.hpp"

namespace dbp::engine {
namespace {

TEST(EngineStressTest, MultiProducerRingPreservesPerProducerFifo) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  BoundedMpscRing<std::uint64_t> ring(1024);

  std::atomic<bool> done{false};
  std::vector<std::uint64_t> last_seen(kProducers, 0);
  std::uint64_t popped = 0;
  std::thread consumer([&] {
    std::uint64_t value = 0;
    while (!done.load(std::memory_order_acquire) || !ring.empty()) {
      if (!ring.try_pop(value)) {
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t producer = value >> 32;
      const std::uint64_t seq = value & 0xFFFFFFFFULL;
      ASSERT_LT(producer, kProducers);
      // Per-producer FIFO: sequence numbers arrive strictly increasing.
      ASSERT_EQ(seq, last_seen[producer] + 1);
      last_seen[producer] = seq;
      ++popped;
    }
  });

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 1; i <= kPerProducer; ++i) {
        while (!ring.try_push((p << 32) | i)) std::this_thread::yield();
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(popped, kProducers * kPerProducer);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last_seen[p], kPerProducer);
  }
}

TEST(EngineStressTest, RingOccupancyIsExactWhenQuiescentAndBoundedUnderRaces) {
  BoundedMpscRing<std::uint64_t> ring(8);
  EXPECT_EQ(ring.size_approx(), 0u);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    EXPECT_EQ(ring.size_approx(), i);
  }
  EXPECT_FALSE(ring.try_push(9));
  EXPECT_EQ(ring.size_approx(), 8u);
  std::uint64_t value = 0;
  ASSERT_TRUE(ring.try_pop(value));
  EXPECT_EQ(ring.size_approx(), 7u);

  // Under racing producers and a consumer the read stays in [0, capacity].
  constexpr std::uint64_t kPerProducer = 20000;
  std::atomic<bool> done{false};
  std::uint64_t popped = 0;
  std::thread consumer([&] {
    std::uint64_t out = 0;
    while (!done.load(std::memory_order_acquire) || !ring.empty()) {
      ASSERT_LE(ring.size_approx(), ring.capacity());
      if (ring.try_pop(out)) ++popped;
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&ring] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!ring.try_push(i)) std::this_thread::yield();
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(popped, 7 + 2 * kPerProducer);
  EXPECT_EQ(ring.size_approx(), 0u);
}

TEST(EngineStressTest, ConcurrentSubmittersWithSelfPumpingBackpressure) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  EngineConfig config;
  config.shard_count = 4;
  config.ring_capacity = 64;  // small rings force submit() to self-pump
  config.spec = ServerSpec{1.0, 6.0};
  ShardedDispatchEngine eng(config);

  // Phase 1: every producer starts its own disjoint id range, all at t=0,
  // racing submit() against the self-pumping drains of other producers.
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&eng, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        eng.submit(start_event(p * kPerProducer + i, 0.125, 0.0));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  eng.drain();
  EXPECT_EQ(eng.active_sessions(), kProducers * kPerProducer);
  EXPECT_EQ(eng.merged_fault_stats().total_dropped_events(), 0u);

  // Phase 2: end everything at t=1, same contention pattern.
  producers.clear();
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&eng, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        eng.submit(end_event(p * kPerProducer + i, 1.0));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  eng.advance_epoch(1.0);
  EXPECT_EQ(eng.active_sessions(), 0u);
  EXPECT_EQ(eng.active_servers(), 0u);
  EXPECT_EQ(eng.events_applied(), 2 * kProducers * kPerProducer);
  EXPECT_EQ(eng.merged_fault_stats().total_dropped_events(), 0u);
  // Every server closed at t=1: the bill is frozen from here on.
  EXPECT_EQ(eng.rental_cost_dollars(1.0), eng.rental_cost_dollars(100.0));
}

/// Full default rings hold a backlog at the fan-out cutoff, so each
/// self-pump forks workers while the other producers keep submitting.
TEST(EngineStressTest, ConcurrentSubmittersFanOutFullRingDrains) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 12000;
  exec::WorkerBudget::set(4);
  EngineConfig config;
  config.shard_count = 4;
  config.spec = ServerSpec{1.0, 6.0};
  static_assert(EngineConfig{}.ring_capacity >=
                ShardedDispatchEngine::kMinParallelDrainEvents);
  ShardedDispatchEngine eng(config);

  // Starts at t=0, then (after a join, so no shard sees time go back) ends
  // at t=1.
  for (const bool start : {true, false}) {
    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&eng, p, start] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          const std::uint64_t id = p * kPerProducer + i;
          eng.submit(start ? start_event(id, 0.125, 0.0) : end_event(id, 1.0));
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
  }
  eng.advance_epoch(1.0);
  exec::WorkerBudget::set(0);
  EXPECT_EQ(eng.events_applied(), 2 * kProducers * kPerProducer);
  EXPECT_EQ(eng.active_sessions(), 0u);
  EXPECT_EQ(eng.merged_fault_stats().total_dropped_events(), 0u);
}

TEST(EngineStressTest, SubmitBackoffScheduleIsBoundedExponential) {
  using std::chrono::microseconds;
  // Pure-yield spin window.
  static_assert(ShardedDispatchEngine::submit_backoff(1) == microseconds{0});
  static_assert(ShardedDispatchEngine::submit_backoff(
                    ShardedDispatchEngine::kSpinYieldRounds) == microseconds{0});
  // Exponential growth, doubling from 1us...
  static_assert(ShardedDispatchEngine::submit_backoff(
                    ShardedDispatchEngine::kSpinYieldRounds + 1) ==
                microseconds{1});
  static_assert(ShardedDispatchEngine::submit_backoff(
                    ShardedDispatchEngine::kSpinYieldRounds + 2) ==
                microseconds{2});
  static_assert(ShardedDispatchEngine::submit_backoff(
                    ShardedDispatchEngine::kSpinYieldRounds + 4) ==
                microseconds{8});
  // ...up to the hard cap, where it stays.
  constexpr microseconds kCap{1u << ShardedDispatchEngine::kMaxBackoffShift};
  static_assert(ShardedDispatchEngine::submit_backoff(
                    ShardedDispatchEngine::kSpinYieldRounds + 1 +
                    ShardedDispatchEngine::kMaxBackoffShift) == kCap);
  static_assert(ShardedDispatchEngine::submit_backoff(1'000'000) == kCap);
  SUCCEED();  // the assertions above are compile-time
}

TEST(EngineStressTest, ProducerBacksOffDuringSlowEpochInsteadOfSpinning) {
  // The regression: submit() spin-yielded while its shard's ring was full
  // and another thread held the pump for a long advance_epoch — a producer
  // burned a core for the whole epoch. hold_pump_for_test() is that slow
  // epoch idealized (and deterministic on any core count): with a full
  // 2-slot ring and the pump held, the producer MUST fall through the
  // 64-round yield window into the bounded backoff sleep. Release the pump
  // and every event still lands — backoff is timing-only.
  EngineConfig config;
  config.shard_count = 1;
  config.ring_capacity = 2;
  config.spec = ServerSpec{1.0, 6.0};
  ShardedDispatchEngine eng(config);

  std::unique_lock<std::mutex> slow_epoch = eng.hold_pump_for_test();

  constexpr std::uint64_t kEvents = 8;  // > ring capacity: the third blocks
  std::thread producer([&] {
    for (std::uint64_t id = 0; id < kEvents; ++id) {
      eng.submit(start_event(id, 0.1, 0.0));
    }
  });

  // The producer cannot make progress while the pump is held, so it must
  // reach the backoff path; bound the wait generously for slow CI.
  for (int spins = 0; eng.submit_backoffs() == 0 && spins < 5000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(eng.submit_backoffs(), 0u)
      << "producer never backed off under a held pump (spin regression)";

  slow_epoch.unlock();
  producer.join();
  eng.drain();
  EXPECT_EQ(eng.events_applied(), kEvents);
  EXPECT_EQ(eng.active_sessions(), kEvents);
  EXPECT_EQ(eng.merged_fault_stats().total_dropped_events(), 0u);
}

}  // namespace
}  // namespace dbp::engine
