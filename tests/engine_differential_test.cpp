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
//   * For a fixed shard count, nothing depends on when a shard applies its
//     queue: draining after every submit and letting queues fill to their
//     cap between sparse epochs give bit-identical results.
//   * Each shard is bit-identical to a standalone GameServerDispatcher fed
//     that shard's subsequence, and the aggregate bill is the shard-order
//     sum of those standalone bills.
// The aggregate *bill* is intentionally NOT compared across shard counts:
// First Fit on a union is not the sum of First Fit on partitions
// (docs/dispatch_engine.md "What sharding changes").
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "exec/worker_budget.hpp"
#include "obs/obs.hpp"
#include "sim/event.hpp"
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

/// Cuts an epoch at every time boundary and captures mid-stream state at
/// epoch kCaptureBatch.
RunResult run(const Instance& instance, std::size_t shards, int budget) {
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
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    if (event.kind == EventKind::kArrival) {
      eng.submit(start_event(event.item, instance.item(event.item).size,
                             event.time));
    } else {
      eng.submit(end_event(event.item, event.time));
    }
    if (i + 1 == events.size() || events[i + 1].time != event.time) {
      eng.advance_epoch(event.time);
      if (batch == kCaptureBatch) {
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

/// A stream long enough that every shard's queue fills more than once
/// between epochs: sessions of three sizes, eight alive at a time, so each
/// epoch's bin count is quick to prove. With `drain_each` the engine
/// applies every event as soon as it is submitted; without, events wait in
/// the queues until a queue is full or an epoch comes.
RunResult run_backlog(bool drain_each, std::uint64_t* applied_at_first_epoch) {
  constexpr std::size_t kShards = 2;
  constexpr std::uint64_t kSessions = 3 * ShardedDispatchEngine::kShardQueueCap;
  constexpr std::uint64_t kAlive = 8;
  constexpr std::uint64_t kEpochEvery = 10000;  // events, > 2 caps
  constexpr double kSizes[] = {0.2, 0.3, 0.45};
  obs::RunTracer tracer;
  const obs::ObsScope scope(&tracer, nullptr);

  EngineConfig config;
  config.shard_count = kShards;
  config.spec = spec();
  ShardedDispatchEngine eng(config);

  RunResult result;
  std::uint64_t submitted = 0;
  bool captured = false;
  const auto submit = [&](const SessionEvent& event) {
    eng.submit(event);
    if (drain_each) eng.drain();
    if (++submitted % kEpochEvery != 0) return;
    if (!captured) *applied_at_first_epoch = eng.events_applied();
    eng.advance_epoch(event.time_minutes);
    if (!captured) {
      result.mid_rle = eng.merged_snapshot_rle();
      result.mid_active = eng.active_sessions();
      captured = true;
    }
  };
  for (std::uint64_t id = 0; id < kSessions; ++id) {
    const Time now = static_cast<Time>(id);
    if (id >= kAlive) submit(end_event(id - kAlive, now));
    submit(start_event(id, kSizes[id % 3], now));
  }
  const Time horizon = static_cast<Time>(kSessions);
  for (std::uint64_t id = kSessions - kAlive; id < kSessions; ++id) {
    submit(end_event(id, horizon));
  }
  eng.advance_epoch(horizon);

  result.bill = eng.rental_cost_dollars(horizon);
  for (std::size_t s = 0; s < kShards; ++s) {
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
  return result;
}

TEST(EngineDifferentialTest, BitIdenticalWhetherQueuesApplyAtOnceOrWhenFull) {
  std::uint64_t eager_applied = 0;
  std::uint64_t lazy_applied = 0;
  const RunResult eager = run_backlog(/*drain_each=*/true, &eager_applied);
  const RunResult lazy = run_backlog(/*drain_each=*/false, &lazy_applied);
  expect_bitwise_equal(eager, lazy);
  // Both paths ran: the eager run had applied everything before its first
  // epoch, while the lazy one had applied only full queues and still held
  // the rest.
  constexpr std::uint64_t kFirstEpochEvents = 10000;
  EXPECT_EQ(eager_applied, kFirstEpochEvents);
  EXPECT_GE(lazy_applied, ShardedDispatchEngine::kShardQueueCap);
  EXPECT_LT(lazy_applied, kFirstEpochEvents);
  EXPECT_FALSE(eager.mid_rle.empty());
  EXPECT_EQ(eager.stats, DispatcherFaultStats{});
  EXPECT_EQ(eager.final_active, 0u);
  EXPECT_EQ(eager.events_applied, 2 * 3 * ShardedDispatchEngine::kShardQueueCap);
  EXPECT_GT(eager.opt.segments, 0u);
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

}  // namespace
}  // namespace dbp::engine
