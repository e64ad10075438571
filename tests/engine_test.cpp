#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "core/error.hpp"
#include "engine/router.hpp"
#include "obs/obs.hpp"
#include "opt/opt_total.hpp"
#include "sim/event.hpp"
#include "workload/cloud_gaming.hpp"

namespace dbp::engine {
namespace {

ServerSpec spec() { return ServerSpec{1.0, 6.0}; }  // $6/h = $0.1/min

EngineConfig config(std::size_t shards) {
  EngineConfig cfg;
  cfg.shard_count = shards;
  cfg.spec = spec();
  return cfg;
}

/// Streams an instance's full event sequence through the engine, calling
/// advance_epoch after each batch of simultaneous events so the streaming
/// OPT bounds integrate every inter-event segment exactly.
void stream_instance(ShardedDispatchEngine& eng, const Instance& instance) {
  const std::vector<Event> events = build_event_sequence(instance);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    const Item& item = instance.item(event.item);
    if (event.kind == EventKind::kArrival) {
      eng.submit(start_event(event.item, item.size, event.time));
    } else {
      eng.submit(end_event(event.item, event.time));
    }
    if (i + 1 == events.size() || events[i + 1].time != event.time) {
      eng.advance_epoch(event.time);
    }
  }
}

TEST(RouterTest, HashRouterIsStableAndInRange) {
  const HashShardRouter router;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const std::size_t shard = router.shard_for(key, 16);
    EXPECT_LT(shard, 16u);
    EXPECT_EQ(shard, router.shard_for(key, 16));  // pure
  }
  // Everything maps to shard 0 with one shard.
  EXPECT_EQ(router.shard_for(12345, 1), 0u);
}

TEST(RouterTest, RegionRouterPinsRegions) {
  const RegionShardRouter router({"ap", "eu-west", "us-east"});
  const std::uint64_t ap = router.route_key_for("ap");
  const std::uint64_t eu = router.route_key_for("eu-west");
  EXPECT_NE(ap, eu);
  // Full isolation when shards >= regions: distinct shards per region.
  EXPECT_NE(router.shard_for(ap, 3), router.shard_for(eu, 3));
  EXPECT_THROW((void)router.route_key_for("mars"), PreconditionError);
  EXPECT_THROW((void)router.shard_for(17, 3), PreconditionError);
}

TEST(EngineConfigTest, Validation) {
  EXPECT_NO_THROW(config(4).validate());
  EngineConfig bad = config(0);
  EXPECT_THROW(bad.validate(), PreconditionError);
  // Shards place each session when it arrives: the clairvoyant baselines,
  // which refuse every online arrival, cannot serve them.
  for (const std::string& name : clairvoyant_algorithm_names()) {
    bad = config(1);
    bad.algorithm = name;
    EXPECT_THROW(bad.validate(), PreconditionError) << name;
  }
  bad = config(1);
  bad.fault_policy.on_anomaly = FaultPolicy::AnomalyAction::kThrow;
  EXPECT_THROW(bad.validate(), PreconditionError);
  EXPECT_THROW((ShardedDispatchEngine{bad}), PreconditionError);
}

TEST(EngineConfigTest, ClairvoyantRefusalNamesTheAlgorithm) {
  const std::vector<std::string>& clairvoyant = clairvoyant_algorithm_names();
  ASSERT_FALSE(clairvoyant.empty());
  // dbp_serve prints this reason when it refuses to start.
  for (const std::string& name : clairvoyant) {
    EngineConfig bad = config(1);
    bad.algorithm = name;
    try {
      bad.validate();
      ADD_FAILURE() << "'" << name << "' was accepted";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find("'" + name + "'"),
                std::string::npos)
          << error.what();
    }
  }
  // Only those: every online algorithm still configures an engine.
  for (const std::string& name : all_algorithm_names()) {
    if (std::find(clairvoyant.begin(), clairvoyant.end(), name) !=
        clairvoyant.end()) {
      continue;
    }
    EngineConfig online = config(2);
    online.algorithm = name;
    EXPECT_NO_THROW(online.validate()) << name;
  }
}

TEST(EngineTest, SingleShardMatchesPlainDispatcher) {
  CloudGamingConfig workload;
  workload.horizon_hours = 2.0;
  workload.peak_arrivals_per_minute = 1.0;
  const CloudGamingTrace trace = generate_cloud_gaming_trace(workload, 11);

  ShardedDispatchEngine eng(config(1));
  FaultPolicy drop;
  drop.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  GameServerDispatcher plain(spec(), "first-fit", {}, drop);

  const std::vector<Event> events = build_event_sequence(trace.instance);
  for (const Event& event : events) {
    const Item& item = trace.instance.item(event.item);
    if (event.kind == EventKind::kArrival) {
      eng.submit(start_event(event.item, item.size, event.time));
      (void)plain.start_session(event.item, item.size, event.time);
    } else {
      eng.submit(end_event(event.item, event.time));
      plain.end_session(event.item, event.time);
    }
  }
  eng.drain();

  const Time horizon = events.back().time;
  EXPECT_EQ(eng.active_sessions(), plain.active_sessions());
  EXPECT_EQ(eng.active_servers(), plain.active_servers());
  EXPECT_EQ(eng.events_applied(), events.size());
  // Bit-identical, not just close: the shard replays the same FIFO.
  EXPECT_EQ(eng.rental_cost_dollars(horizon), plain.rental_cost_dollars(horizon));
  EXPECT_EQ(eng.merged_fault_stats(), plain.fault_stats());
}

TEST(EngineTest, StreamingOptBoundsMatchBatchEstimator) {
  CloudGamingConfig workload;
  workload.horizon_hours = 2.0;
  workload.peak_arrivals_per_minute = 1.0;
  const CloudGamingTrace trace = generate_cloud_gaming_trace(workload, 23);

  // The trace twice, the second copy starting 30 minutes after the first
  // one's last departure: the idle-fleet gap between them must count as
  // no segment on either side.
  Instance instance = trace.instance;
  const TimeInterval first = trace.instance.packing_period();
  const Time shift = first.end + 30.0 - first.begin;
  for (const Item& item : trace.instance.items()) {
    instance.add(item.arrival + shift, item.departure + shift, item.size);
  }

  ShardedDispatchEngine eng(config(4));
  stream_instance(eng, instance);
  const StreamingOptBounds streaming = eng.opt_bounds();

  const OptTotalResult batch = estimate_opt_total(instance, spec().to_cost_model());
  // One integrator, one segment rule, the same segments in the same order:
  // bit-identical, not merely close.
  EXPECT_EQ(streaming.lower_dollars, batch.lower_cost);
  EXPECT_EQ(streaming.upper_dollars, batch.upper_cost);
  EXPECT_EQ(streaming.segments, batch.segments);
  EXPECT_EQ(streaming.exact_segments, batch.exact_segments);
  EXPECT_GT(streaming.segments, 0u);
  EXPECT_LE(streaming.lower_dollars,
            streaming.upper_dollars + 1e-12 * streaming.upper_dollars);
}

TEST(EngineTest, AnomalousEventsAreDroppedAndCounted) {
  ShardedDispatchEngine eng(config(2));
  eng.submit(start_event(1, 0.5, 0.0));
  eng.submit(start_event(1, 0.5, 1.0));  // duplicate
  eng.submit(end_event(99, 2.0));        // unknown
  eng.submit(start_event(2, 7.0, 3.0));  // invalid size
  eng.drain();
  const DispatcherFaultStats stats = eng.merged_fault_stats();
  EXPECT_EQ(stats.duplicate_starts, 1u);
  EXPECT_EQ(stats.unknown_ends, 1u);
  EXPECT_EQ(stats.invalid_sizes, 1u);
  EXPECT_EQ(eng.active_sessions(), 1u);
}

TEST(EngineTest, FullShardQueueIsAppliedBeforeTheNextSubmitToIt) {
  constexpr std::size_t kCap = ShardedDispatchEngine::kShardQueueCap;
  ShardedDispatchEngine eng(config(2));
  const HashShardRouter router;
  // Session ids on each of the two shards, in increasing order.
  std::vector<std::uint64_t> ids[2];
  for (std::uint64_t id = 0; ids[0].size() <= kCap || ids[1].empty(); ++id) {
    ids[router.shard_for(id, 2)].push_back(id);
  }
  eng.submit(start_event(ids[1][0], 0.01, 0.0));
  for (std::size_t i = 0; i < kCap; ++i) {
    eng.submit(start_event(ids[0][i], 0.01, static_cast<Time>(i)));
  }
  EXPECT_EQ(eng.events_applied(), 0u);  // both queues hold their events
  // The (cap+1)-th submit to shard 0 applies its full queue first, and
  // only that shard's.
  eng.submit(start_event(ids[0][kCap], 0.01, static_cast<Time>(kCap)));
  EXPECT_EQ(eng.events_applied(), kCap);
  EXPECT_EQ(eng.shard_dispatcher(0).active_sessions(), kCap);
  EXPECT_EQ(eng.shard_dispatcher(1).active_sessions(), 0u);
  eng.drain();
  EXPECT_EQ(eng.events_applied(), kCap + 2);
  EXPECT_EQ(eng.active_sessions(), kCap + 2);
}

TEST(EngineTest, FullQueueIsAppliedAgainEveryCapSubmits) {
  constexpr std::size_t kCap = ShardedDispatchEngine::kShardQueueCap;
  ShardedDispatchEngine eng(config(1));
  // Applying a full queue empties it, so the next apply comes a whole cap
  // of submits later, never sooner.
  for (std::uint64_t id = 0; id < 3 * kCap; ++id) {
    eng.submit(start_event(id, 0.01, static_cast<Time>(id)));
    ASSERT_EQ(eng.events_applied(), id / kCap * kCap) << "after submit " << id;
  }
  EXPECT_EQ(eng.submit_backoffs(), 0u);  // submit() never waits
  eng.drain();
  EXPECT_EQ(eng.events_applied(), 3 * kCap);
  EXPECT_EQ(eng.active_sessions(), 3 * kCap);
  EXPECT_EQ(eng.merged_fault_stats(), DispatcherFaultStats{});
}

TEST(EngineTest, QueueKeepsSubmissionOrderAcrossAFullQueue) {
  constexpr std::size_t kCap = ShardedDispatchEngine::kShardQueueCap;
  ShardedDispatchEngine eng(config(1));
  FaultPolicy drop;
  drop.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  GameServerDispatcher plain(spec(), "first-fit", {}, drop);
  const auto submit_both = [&](const SessionEvent& event) {
    eng.submit(event);
    if (event.kind == SessionEvent::Kind::kStart) {
      (void)plain.start_session(event.session_id, event.gpu_fraction,
                                event.time_minutes);
    } else {
      plain.end_session(event.session_id, event.time_minutes);
    }
  };
  // A holder session, then short sessions that each end right after they
  // start. The holder shifts the pairs by one, so a start is the event
  // that fills the queue and its end is the submit that applies it. An end
  // applied before its start would count an unknown end.
  constexpr std::uint64_t kHolder = 1'000'000;
  constexpr std::uint64_t kPairs = kCap + 7;
  submit_both(start_event(kHolder, 0.5, 0.0));
  for (std::uint64_t id = 0; id < kPairs; ++id) {
    const Time t = static_cast<Time>(id);
    submit_both(start_event(id, 0.25 + 0.125 * static_cast<double>(id % 3), t));
    submit_both(end_event(id, t + 0.5));
  }
  EXPECT_EQ(eng.events_applied(), 2 * kCap);
  eng.drain();

  const Time horizon = static_cast<Time>(kPairs);
  EXPECT_EQ(eng.events_applied(), 1 + 2 * kPairs);
  EXPECT_EQ(eng.merged_fault_stats(), DispatcherFaultStats{});
  EXPECT_EQ(eng.active_sessions(), 1u);
  EXPECT_EQ(eng.active_servers(), plain.active_servers());
  EXPECT_EQ(eng.rental_cost_dollars(horizon), plain.rental_cost_dollars(horizon));
}

// The default memo keeps the last two epochs' multisets: an epoch that
// returns to the one before last hits, and one that returns to an older
// multiset misses.
TEST(EngineTest, DefaultOracleMemoKeepsTheLastTwoMultisets) {
  ShardedDispatchEngine revisit(config(1));
  revisit.submit(start_event(1, 0.5, 1.0));
  revisit.advance_epoch(1.0);  // A = {0.5}
  revisit.submit(start_event(2, 0.25, 2.0));
  revisit.advance_epoch(2.0);  // B = {0.5, 0.25}
  revisit.submit(end_event(2, 3.0));
  revisit.advance_epoch(3.0);  // A again
  EXPECT_EQ(revisit.oracle_hits(), 1u);
  EXPECT_EQ(revisit.oracle_misses(), 2u);

  ShardedDispatchEngine older(config(1));
  older.submit(start_event(1, 0.5, 1.0));
  older.advance_epoch(1.0);  // A
  older.submit(start_event(2, 0.25, 2.0));
  older.advance_epoch(2.0);  // B
  older.submit(end_event(2, 3.0));
  older.submit(start_event(3, 0.125, 3.0));
  older.advance_epoch(3.0);  // C = {0.5, 0.125}
  older.submit(end_event(3, 4.0));
  older.advance_epoch(4.0);  // A, evicted by C
  EXPECT_EQ(older.oracle_hits(), 0u);
  EXPECT_EQ(older.oracle_misses(), 4u);
  EXPECT_EQ(older.merged_snapshot_rle(), (std::vector<SizeRun>{{0.5, 1}}));
}

TEST(EngineTest, RefusedEpochLeavesQueuedEventsUnapplied) {
  ShardedDispatchEngine eng(config(2));
  eng.advance_epoch(5.0);
  eng.submit(start_event(1, 0.5, 6.0));
  eng.submit(start_event(2, 0.5, 7.0));
  // A regressing epoch is refused before anything is applied.
  EXPECT_THROW(eng.advance_epoch(4.0), PreconditionError);
  EXPECT_EQ(eng.events_applied(), 0u);
  EXPECT_EQ(eng.active_sessions(), 0u);
  EXPECT_TRUE(eng.merged_snapshot_rle().empty());
  EXPECT_EQ(eng.opt_bounds().segments, 0u);
  // The next valid epoch applies both and snapshots them.
  eng.advance_epoch(8.0);
  EXPECT_EQ(eng.events_applied(), 2u);
  EXPECT_EQ(eng.merged_snapshot_rle(), (std::vector<SizeRun>{{0.5, 2}}));
}

TEST(EngineTest, EpochEmitsShardAttributedTraceRecords) {
  obs::RunTracer tracer;
  const obs::ObsScope scope(&tracer, nullptr);
  ShardedDispatchEngine eng(config(3));
  eng.submit(start_event(1, 0.5, 0.0));
  eng.submit(start_event(2, 0.5, 0.0));
  eng.advance_epoch(0.0);
  eng.advance_epoch(10.0);

  const std::vector<obs::TraceRecord> records = tracer.snapshot();
  std::size_t marks = 0;
  std::size_t snapshots = 0;
  for (const obs::TraceRecord& record : records) {
    if (record.kind == obs::TraceKind::kEpochMark) {
      ++marks;
      EXPECT_EQ(record.shard, obs::kNoShard);
    } else if (record.kind == obs::TraceKind::kShardSnapshot) {
      EXPECT_LT(record.shard, 3u);  // every snapshot names its shard
      ++snapshots;
    }
  }
  EXPECT_EQ(marks, 2u);
  EXPECT_EQ(snapshots, 6u);  // 3 shards x 2 epochs
  // The second epoch mark reports both applied events.
  // (Application itself never traces: only epoch records exist.)
  EXPECT_EQ(records.size(), marks + snapshots);

  std::ostringstream jsonl;
  tracer.export_jsonl(jsonl, /*include_timings=*/false);
  EXPECT_NE(jsonl.str().find("\"shard\": 2"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"kind\": \"epoch_mark\""), std::string::npos);
}

TEST(EngineTest, ZeroLengthEpochSegmentsAreFree) {
  // The wire front-end's epoch timer produces coincident epoch ticks under
  // load: a zero-length segment must contribute exactly 0 dollars and must
  // not inflate segments/exact_segments.
  ShardedDispatchEngine eng(config(2));
  ShardedDispatchEngine ref(config(2));
  for (ShardedDispatchEngine* e : {&eng, &ref}) {
    e->submit(start_event(1, 0.3, 0.0));
    e->submit(start_event(2, 0.6, 0.0));
    e->submit(start_event(3, 0.2, 0.0));
    e->advance_epoch(0.0);
  }

  eng.advance_epoch(5.0);
  const StreamingOptBounds at5 = eng.opt_bounds();
  EXPECT_EQ(at5.segments, 1u);
  // Coincident ticks: bit-identical bounds, no extra segments.
  eng.advance_epoch(5.0);
  eng.advance_epoch(5.0);
  const StreamingOptBounds still5 = eng.opt_bounds();
  EXPECT_EQ(still5.lower_dollars, at5.lower_dollars);
  EXPECT_EQ(still5.upper_dollars, at5.upper_dollars);
  EXPECT_EQ(still5.segments, at5.segments);
  EXPECT_EQ(still5.exact_segments, at5.exact_segments);

  // A run with coincident ticks stays bit-identical to one without.
  ref.advance_epoch(5.0);
  for (ShardedDispatchEngine* e : {&eng, &ref}) {
    e->submit(end_event(2, 8.0));
    e->advance_epoch(12.0);
  }
  const StreamingOptBounds a = eng.opt_bounds();
  const StreamingOptBounds b = ref.opt_bounds();
  EXPECT_EQ(a.lower_dollars, b.lower_dollars);
  EXPECT_EQ(a.upper_dollars, b.upper_dollars);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.exact_segments, b.exact_segments);
  EXPECT_EQ(eng.rental_cost_dollars(12.0), ref.rental_cost_dollars(12.0));
}

TEST(EngineTest, EventClockEpochCutsAtTheLatestAppliedEvent) {
  // advance_epoch_to_event_clock() must equal advance_epoch(t) at the time
  // of the latest event its own drain applied: never earlier than the last
  // epoch, and blind to dropped events.
  ShardedDispatchEngine eng(config(2));
  ShardedDispatchEngine ref(config(2));
  const auto step = [&](Time expected) {
    EXPECT_EQ(eng.advance_epoch_to_event_clock(), expected);
    ref.advance_epoch(expected);
    const StreamingOptBounds a = eng.opt_bounds();
    const StreamingOptBounds b = ref.opt_bounds();
    EXPECT_EQ(a.lower_dollars, b.lower_dollars);
    EXPECT_EQ(a.upper_dollars, b.upper_dollars);
    EXPECT_EQ(a.segments, b.segments);
    EXPECT_EQ(a.exact_segments, b.exact_segments);
    EXPECT_EQ(eng.merged_snapshot_rle(), ref.merged_snapshot_rle());
  };
  const auto submit_both = [&](const SessionEvent& event) {
    eng.submit(event);
    ref.submit(event);
  };

  step(0.0);  // no events yet: the initial epoch time
  submit_both(start_event(1, 0.5, 1.0));
  submit_both(start_event(2, 0.25, 2.0));
  submit_both(start_event(3, 0.75, 4.0));
  step(4.0);
  EXPECT_EQ(eng.merged_snapshot_rle().size(), 3u);
  submit_both(end_event(1, 10.0));
  step(10.0);
  EXPECT_GT(eng.opt_bounds().segments, 0u);
  step(10.0);  // nothing new: a zero-length segment
  submit_both(end_event(99, 50.0));  // unknown session: dropped
  step(10.0);
  EXPECT_EQ(eng.merged_fault_stats().unknown_ends, 1u);
  eng.advance_epoch(20.0);
  ref.advance_epoch(20.0);
  submit_both(end_event(2, 15.0));  // applied, but behind the last epoch
  step(20.0);
  EXPECT_EQ(eng.active_sessions(), 1u);
}

TEST(EngineTest, EpochTimesMustBeMonotone) {
  constexpr Time kNaN = std::numeric_limits<Time>::quiet_NaN();
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  ShardedDispatchEngine eng(config(1));
  // Non-finite times are refused even as the first epoch, and a refusal
  // leaves the engine accepting the next finite one.
  EXPECT_THROW(eng.advance_epoch(kNaN), PreconditionError);
  EXPECT_THROW(eng.advance_epoch(kInf), PreconditionError);
  eng.advance_epoch(5.0);
  EXPECT_THROW(eng.advance_epoch(4.0), PreconditionError);
  EXPECT_THROW(eng.advance_epoch(kNaN), PreconditionError);
  EXPECT_THROW(eng.advance_epoch(kInf), PreconditionError);
  EXPECT_NO_THROW(eng.advance_epoch(5.0));  // equal is fine (empty segment)
  EXPECT_NO_THROW(eng.advance_epoch(6.0));
}

TEST(EngineTest, RegionRoutingIsolatesFleets) {
  auto router = std::make_unique<RegionShardRouter>(
      std::vector<std::string>{"ap", "eu"});
  const std::uint64_t ap = router->route_key_for("ap");
  const std::uint64_t eu = router->route_key_for("eu");
  ShardedDispatchEngine eng(config(2), std::move(router));

  SessionEvent a = start_event(1, 0.4, 0.0);
  a.route_key = ap;
  SessionEvent b = start_event(2, 0.4, 0.0);
  b.route_key = eu;
  eng.submit(a);
  eng.submit(b);
  eng.drain();
  // Region isolation: 0.4 + 0.4 would share one server in a single fleet;
  // pinned to separate shards they rent one server each.
  EXPECT_EQ(eng.active_servers(), 2u);
  EXPECT_EQ(eng.shard_dispatcher(eng.router().shard_for(ap, 2)).active_sessions(), 1u);
  EXPECT_EQ(eng.shard_dispatcher(eng.router().shard_for(eu, 2)).active_sessions(), 1u);

  SessionEvent a_end = end_event(1, 30.0);
  a_end.route_key = ap;
  SessionEvent b_end = end_event(2, 60.0);
  b_end.route_key = eu;
  eng.submit(a_end);
  eng.submit(b_end);
  eng.drain();
  EXPECT_EQ(eng.active_servers(), 0u);
  // Bill: 30 + 60 server-minutes at $6/hour = $9.
  EXPECT_DOUBLE_EQ(eng.rental_cost_dollars(60.0), 9.0);
}

TEST(EngineTest, RegionRoutingSharesWithinARegion) {
  auto router = std::make_unique<RegionShardRouter>(
      std::vector<std::string>{"ap", "eu"});
  const std::uint64_t eu = router->route_key_for("eu");
  ShardedDispatchEngine eng(config(2), std::move(router));

  SessionEvent a = start_event(1, 0.4, 0.0);
  a.route_key = eu;
  SessionEvent b = start_event(2, 0.4, 1.0);
  b.route_key = eu;
  eng.submit(a);
  eng.submit(b);
  eng.drain();
  EXPECT_EQ(eng.active_servers(), 1u);
}

TEST(EngineTest, RegionRoutingAdmitsPerShard) {
  // Admission is per shard: an id active in one region is not refused in
  // another, where it is a separate session.
  auto router = std::make_unique<RegionShardRouter>(
      std::vector<std::string>{"ap", "eu"});
  const std::uint64_t ap = router->route_key_for("ap");
  const std::uint64_t eu = router->route_key_for("eu");
  ShardedDispatchEngine eng(config(2), std::move(router));

  SessionEvent a = start_event(1, 0.4, 0.0);
  a.route_key = ap;
  SessionEvent b = start_event(1, 0.4, 0.0);
  b.route_key = eu;
  eng.submit(a);
  eng.submit(b);
  eng.drain();
  EXPECT_EQ(eng.active_sessions(), 2u);
  EXPECT_EQ(eng.merged_fault_stats().duplicate_starts, 0u);
}

}  // namespace
}  // namespace dbp::engine
