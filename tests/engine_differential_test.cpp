// Cross-shard / cross-budget determinism differential (ISSUE 8 tentpole).
//
// One fixed event stream goes through the sharded engine under every
// combination of worker budgets {1, 2, 8} x shard counts {1, 4, 16}.
// Pinned guarantees:
//   * For a fixed shard count, EVERYTHING observable is bit-identical
//     across worker budgets: aggregate and per-shard bills, OPT bounds,
//     merged RLE snapshots, fault statistics, exported traces.
//   * Across shard counts, the partition-invariant quantities re-merge
//     bit-identically: active-session counts, the merged RLE size
//     multiset, and the streaming OPT_total bounds (the bounds depend only
//     on the merged multiset per segment, never on the partition).
//   * Each shard is bit-identical to a standalone GameServerDispatcher fed
//     that shard's subsequence, and the aggregate bill is the shard-order
//     sum of those standalone bills.
// The aggregate *bill* is intentionally NOT compared across shard counts:
// First Fit on a union is not the sum of First Fit on partitions
// (docs/dispatch_engine.md "What sharding changes").
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "exec/worker_budget.hpp"
#include "obs/obs.hpp"
#include "sim/event.hpp"
#include "thread_start_failure.hpp"
#include "workload/cloud_gaming.hpp"

namespace dbp::engine {
namespace {

ServerSpec spec() { return ServerSpec{1.0, 6.0}; }

/// The epoch (0-based batch index) at which mid-stream state is captured.
constexpr std::size_t kCaptureBatch = 50;

struct RunResult {
  double bill = 0.0;
  std::vector<double> shard_bills;
  StreamingOptBounds opt{};
  DispatcherFaultStats stats{};
  std::vector<SizeRun> mid_rle;
  std::size_t mid_active = 0;
  std::size_t final_active = 0;
  std::uint64_t events_applied = 0;
  std::string trace;
};

Instance workload() {
  CloudGamingConfig config;
  config.horizon_hours = 2.0;
  config.peak_arrivals_per_minute = 1.5;
  return generate_cloud_gaming_trace(config, 42).instance;
}

/// Cuts an epoch at each time boundary once at least `min_batch_events`
/// were submitted since the last one (1: at every boundary), and captures
/// mid-stream state at epoch `capture_batch`.
RunResult run(const Instance& instance, std::size_t shards, int budget,
              std::size_t min_batch_events = 1,
              std::size_t capture_batch = kCaptureBatch) {
  exec::WorkerBudget::set(budget);
  obs::RunTracer tracer;
  const obs::ObsScope scope(&tracer, nullptr);

  EngineConfig config;
  config.shard_count = shards;
  config.spec = spec();
  ShardedDispatchEngine eng(config);

  const std::vector<Event> events = build_event_sequence(instance);
  RunResult result;
  std::size_t batch = 0;
  std::size_t since_epoch = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    if (event.kind == EventKind::kArrival) {
      eng.submit(start_event(event.item, instance.item(event.item).size,
                             event.time));
    } else {
      eng.submit(end_event(event.item, event.time));
    }
    ++since_epoch;
    if (i + 1 == events.size() ||
        (events[i + 1].time != event.time && since_epoch >= min_batch_events)) {
      eng.advance_epoch(event.time);
      since_epoch = 0;
      if (batch == capture_batch) {
        result.mid_rle = eng.merged_snapshot_rle();
        result.mid_active = eng.active_sessions();
      }
      ++batch;
    }
  }

  const Time horizon = events.back().time;
  result.bill = eng.rental_cost_dollars(horizon);
  for (std::size_t s = 0; s < shards; ++s) {
    result.shard_bills.push_back(
        eng.shard_dispatcher(s).rental_cost_dollars(horizon));
  }
  result.opt = eng.opt_bounds();
  result.stats = eng.merged_fault_stats();
  result.final_active = eng.active_sessions();
  result.events_applied = eng.events_applied();
  std::ostringstream jsonl;
  tracer.export_jsonl(jsonl, /*include_timings=*/false);
  result.trace = jsonl.str();
  exec::WorkerBudget::set(0);
  return result;
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.bill, b.bill);
  EXPECT_EQ(a.shard_bills, b.shard_bills);
  EXPECT_EQ(a.opt.lower_dollars, b.opt.lower_dollars);
  EXPECT_EQ(a.opt.upper_dollars, b.opt.upper_dollars);
  EXPECT_EQ(a.opt.segments, b.opt.segments);
  EXPECT_EQ(a.opt.exact_segments, b.opt.exact_segments);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.mid_rle, b.mid_rle);
  EXPECT_EQ(a.mid_active, b.mid_active);
  EXPECT_EQ(a.final_active, b.final_active);
  EXPECT_EQ(a.events_applied, b.events_applied);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(EngineDifferentialTest, BitIdenticalAcrossWorkerBudgets) {
  const Instance instance = workload();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const RunResult budget1 = run(instance, shards, 1);
    const RunResult budget2 = run(instance, shards, 2);
    const RunResult budget8 = run(instance, shards, 8);
    expect_bitwise_equal(budget1, budget2);
    expect_bitwise_equal(budget1, budget8);
  }
}

/// Epochs far enough apart that every drain's backlog reaches
/// kMinParallelDrainEvents, so budgets 2 and 8 fan out to threads while
/// budget 1 drains inline.
TEST(EngineDifferentialTest, BitIdenticalAcrossWorkerBudgetsAtFanOutBacklogs) {
  CloudGamingConfig config;
  config.peak_arrivals_per_minute = 10.0;  // ~9k sessions over the day
  const Instance instance = generate_cloud_gaming_trace(config, 42).instance;
  constexpr std::size_t kBatch = ShardedDispatchEngine::kMinParallelDrainEvents;
  ASSERT_GE(2 * instance.size(), 3 * kBatch);  // several fan-out epochs
  for (const std::size_t shards : {std::size_t{4}, std::size_t{16}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const RunResult budget1 = run(instance, shards, 1, kBatch, 1);
    const RunResult budget2 = run(instance, shards, 2, kBatch, 1);
    const RunResult budget8 = run(instance, shards, 8, kBatch, 1);
    EXPECT_FALSE(budget1.mid_rle.empty());
    EXPECT_EQ(budget1.events_applied, 2 * instance.size());
    expect_bitwise_equal(budget1, budget2);
    expect_bitwise_equal(budget1, budget8);
  }
}

/// The drain decision: threads only when the budget, the shard count and
/// the queued backlog all allow more than the calling thread.
TEST(EngineDifferentialTest, DrainFansOutOnlyForLargeBacklogs) {
  constexpr std::size_t kCutoff = ShardedDispatchEngine::kMinParallelDrainEvents;
  const auto workers = [](std::size_t backlog, std::size_t shards, int budget) {
    return ShardedDispatchEngine::drain_workers(backlog, shards, budget);
  };
  // Below the cutoff the caller drains alone, whatever the budget.
  EXPECT_EQ(workers(0, 16, 8), 1u);
  EXPECT_EQ(workers(186, 2, 4), 1u);  // a typical mixed_json_openloop drain
  EXPECT_EQ(workers(kCutoff - 1, 4, 4), 1u);
  // At and above it, one thread per shard up to the budget.
  EXPECT_EQ(workers(kCutoff, 4, 4), 4u);
  EXPECT_EQ(workers(kCutoff, 2, 8), 2u);
  EXPECT_EQ(workers(kCutoff, 16, 8), 8u);
  EXPECT_EQ(workers(100 * kCutoff, 4, 2), 2u);
  // One shard, or a budget of one (or an unset, non-positive one), never
  // fans out.
  EXPECT_EQ(workers(100 * kCutoff, 1, 8), 1u);
  EXPECT_EQ(workers(100 * kCutoff, 4, 1), 1u);
  EXPECT_EQ(workers(100 * kCutoff, 4, 0), 1u);
  EXPECT_EQ(workers(100 * kCutoff, 4, -3), 1u);
  // One default ring is exactly the cutoff: a full-ring self-pump fans out.
  EXPECT_EQ(EngineConfig{}.ring_capacity, kCutoff);
}

TEST(EngineDifferentialTest, PartitionInvariantsRemergeAcrossShardCounts) {
  const Instance instance = workload();
  const RunResult one = run(instance, 1, 2);
  const RunResult four = run(instance, 4, 2);
  const RunResult sixteen = run(instance, 16, 2);

  // The merged multiset and its integral are partition-invariant,
  // bit for bit.
  EXPECT_EQ(one.mid_rle, four.mid_rle);
  EXPECT_EQ(one.mid_rle, sixteen.mid_rle);
  EXPECT_FALSE(one.mid_rle.empty());  // the capture batch saw live sessions
  EXPECT_EQ(one.mid_active, four.mid_active);
  EXPECT_EQ(one.mid_active, sixteen.mid_active);
  EXPECT_EQ(one.opt.lower_dollars, four.opt.lower_dollars);
  EXPECT_EQ(one.opt.lower_dollars, sixteen.opt.lower_dollars);
  EXPECT_EQ(one.opt.upper_dollars, four.opt.upper_dollars);
  EXPECT_EQ(one.opt.upper_dollars, sixteen.opt.upper_dollars);
  EXPECT_EQ(one.events_applied, four.events_applied);
  EXPECT_EQ(one.events_applied, sixteen.events_applied);
  EXPECT_EQ(one.stats, four.stats);
  EXPECT_EQ(one.stats, sixteen.stats);

  // Every configuration's bill sits inside its own certified OPT bounds'
  // sanity envelope: bill >= lower bound (no engine can beat OPT).
  for (const RunResult* r : {&one, &four, &sixteen}) {
    EXPECT_GE(r->bill, r->opt.lower_dollars * (1.0 - 1e-9));
  }
}

TEST(EngineDifferentialTest, ShardsMatchStandaloneDispatchers) {
  const Instance instance = workload();
  constexpr std::size_t kShards = 4;
  const RunResult sharded = run(instance, kShards, 8);

  // Rebuild each shard's subsequence with the same router and replay it
  // through a standalone dispatcher.
  const HashShardRouter router;
  FaultPolicy drop;
  drop.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  const std::vector<Event> events = build_event_sequence(instance);
  double aggregate = 0.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    GameServerDispatcher standalone(spec(), "first-fit", {}, drop);
    for (const Event& event : events) {
      if (router.shard_for(event.item, kShards) != s) continue;
      if (event.kind == EventKind::kArrival) {
        (void)standalone.start_session(event.item,
                                       instance.item(event.item).size,
                                       event.time);
      } else {
        standalone.end_session(event.item, event.time);
      }
    }
    const double bill = standalone.rental_cost_dollars(events.back().time);
    EXPECT_EQ(sharded.shard_bills[s], bill) << "shard " << s;
    aggregate += bill;
  }
  // The aggregate bill is exactly the shard-order sum of standalone bills.
  EXPECT_EQ(sharded.bill, aggregate);
}

// ---- spawn failure -------------------------------------------------------

constexpr std::uint64_t kRoundSessions = 3000;

/// One round: sessions 1..kRoundSessions start from `t0`, then all end.
/// False when a ring was full (no self-pump may run before the test's
/// drain).
bool submit_round(ShardedDispatchEngine& eng, Time t0) {
  for (std::uint64_t id = 1; id <= kRoundSessions; ++id) {
    const double size = 0.05 + 0.45 * static_cast<double>(id * 7919 % 1000) / 1000.0;
    if (!eng.try_submit(start_event(id, size, t0 + 0.01 * static_cast<double>(id)))) {
      return false;
    }
  }
  for (std::uint64_t id = 1; id <= kRoundSessions; ++id) {
    if (!eng.try_submit(end_event(id, t0 + 100.0 + 0.01 * static_cast<double>(id)))) {
      return false;
    }
  }
  return true;
}

/// Runs in the death-test child: drains a 4-shard backlog above the
/// fan-out cutoff under budget 4 while RLIMIT_AS leaves no room for a
/// thread stack. 0 when the drain applied what a budget-1 run applies,
/// with the same bill and fault statistics.
int drain_without_thread_stacks() {
  EngineConfig config;
  config.shard_count = 4;
  config.spec = spec();
  ShardedDispatchEngine reference(config);
  ShardedDispatchEngine eng(config);
  // Round 1 drains inline in both engines and sizes their tables, so the
  // drain under the limit needs little memory beyond thread stacks.
  exec::WorkerBudget::set(1);
  for (ShardedDispatchEngine* e : {&reference, &eng}) {
    if (!submit_round(*e, 0.0) || (e->drain(), !submit_round(*e, 1000.0))) return 3;
  }
  reference.drain();

  if (!thread_start_failure::leave_no_room_for_thread_stacks()) return 4;
  exec::WorkerBudget::set(4);
  static_assert(2 * kRoundSessions >= ShardedDispatchEngine::kMinParallelDrainEvents);
  eng.drain();
  if (!thread_start_failure::thread_start_fails()) return 5;

  const Time horizon = 2000.0;
  const bool same = eng.events_applied() == reference.events_applied() &&
                    eng.events_applied() == 4 * kRoundSessions &&
                    eng.rental_cost_dollars(horizon) ==
                        reference.rental_cost_dollars(horizon) &&
                    eng.merged_fault_stats() == reference.merged_fault_stats();
  return same ? 0 : 1;
}

/// A drain that cannot start its workers falls back to the calling thread
/// and serves the same result.
TEST(EngineSpawnFailureDeathTest, DrainsInlineWhenNoThreadCanStart) {
  if (thread_start_failure::kSanitizedBuild) {
    GTEST_SKIP() << "sanitizer runtimes map more address space than the "
                    "limit leaves";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::_Exit(drain_without_thread_stacks()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace dbp::engine
