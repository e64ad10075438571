#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/arena.hpp"
#include "core/error.hpp"
#include "exec/fork_join.hpp"
#include "exec/worker_budget.hpp"
#include "obs/obs.hpp"

namespace dbp::engine {

void EngineConfig::validate() const {
  DBP_REQUIRE(shard_count >= 1 && shard_count <= 4096,
              "shard count must be in [1, 4096]");
  DBP_REQUIRE(ring_capacity >= 2 && (ring_capacity & (ring_capacity - 1)) == 0,
              "ring capacity must be a power of two >= 2");
  DBP_REQUIRE(!algorithm.empty(), "engine needs a packing algorithm name");
  spec.to_cost_model().validate();
  fault_policy.validate();
  DBP_REQUIRE(fault_policy.on_anomaly == FaultPolicy::AnomalyAction::kDropAndCount,
              "engine shards must use AnomalyAction::kDropAndCount — a "
              "DispatchError thrown on a shard worker cannot unwind into the "
              "producer that submitted the event");
}

struct ShardedDispatchEngine::Shard {
  explicit Shard(const EngineConfig& config)
      : ring(config.ring_capacity),
        dispatcher(config.spec, config.algorithm, config.packer_options,
                   config.fault_policy) {}

  BoundedMpscRing<SessionEvent> ring;
  GameServerDispatcher dispatcher;
  /// Per-shard scratch for epoch snapshots; reset every epoch, so the
  /// steady state allocates nothing (core/arena.hpp).
  MonotonicArena scratch;
  /// Last epoch's RLE snapshot (strictly decreasing sizes).
  std::vector<SizeRun> snapshot;
  std::uint64_t applied = 0;
};

ShardedDispatchEngine::ShardedDispatchEngine(EngineConfig config,
                                             std::unique_ptr<ShardRouter> router)
    : config_(std::move(config)),
      router_(router ? std::move(router) : std::make_unique<HashShardRouter>()),
      oracle_(config_.spec.to_cost_model(), config_.bin_count,
              config_.oracle_memo_limit),
      integral_(config_.spec.to_cost_model().cost_rate) {
  config_.validate();
  shards_.reserve(config_.shard_count);
  merge_cursor_.resize(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_));
  }
}

ShardedDispatchEngine::~ShardedDispatchEngine() = default;

bool ShardedDispatchEngine::try_submit(const SessionEvent& event) {
  const std::size_t shard = router_->shard_for(event.route_key, shards_.size());
  DBP_REQUIRE(shard < shards_.size(), "router returned an out-of-range shard");
  return shards_[shard]->ring.try_push(event);
}

void ShardedDispatchEngine::submit(const SessionEvent& event) {
  std::uint32_t failed_rounds = 0;
  while (!try_submit(event)) {
    // The shard's ring is full: become the pump if nobody else is, so
    // backpressure drains the backlog instead of deadlocking producers.
    if (const std::unique_lock<std::mutex> pump(pump_mutex_, std::try_to_lock);
        pump.owns_lock()) {
      pump_locked();
      failed_rounds = 0;
      continue;
    }
    // Another thread holds the pump — possibly a long advance_epoch. Yield
    // for a bounded number of rounds, then back off exponentially (capped)
    // so a producer stalls cheaply instead of burning a core until the
    // epoch finishes. Timing-only: the event still lands in its shard's
    // ring in this producer's program order.
    const std::chrono::microseconds delay = submit_backoff(++failed_rounds);
    if (delay == std::chrono::microseconds{0}) {
      std::this_thread::yield();
    } else {
      submit_backoffs_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(delay);
    }
  }
}

void ShardedDispatchEngine::drain() {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  pump_locked();
}

void ShardedDispatchEngine::drain_shard(Shard& shard) {
  SessionEvent event;
  while (shard.ring.try_pop(event)) {
    switch (event.kind) {
      case SessionEvent::Kind::kStart:
        (void)shard.dispatcher.start_session(event.session_id,
                                             event.gpu_fraction,
                                             event.time_minutes);
        break;
      case SessionEvent::Kind::kEnd:
        shard.dispatcher.end_session(event.session_id, event.time_minutes);
        break;
    }
    ++shard.applied;
  }
}

void ShardedDispatchEngine::pump_locked() {
  std::size_t backlog = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    backlog += shard->ring.size_approx();
  }
  // A producer racing this read can move the choice, never a result.
  const std::size_t workers = drain_workers(backlog, shards_.size(),
                                            exec::WorkerBudget::effective());
  // One block of contiguous shards per worker, block 0 on the calling
  // thread (exec::fork_join). Each worker owns its shards exclusively for
  // this pump, so per-shard application stays FIFO and the partition never
  // affects results — only which thread runs them. Observability is
  // suppressed on every draining thread, so the exported trace is
  // byte-identical across budgets.
  exec::fork_join(workers, [&](std::size_t w) {
    const obs::ObsScope quiet(nullptr, nullptr);
    const std::size_t end = (w + 1) * shards_.size() / workers;
    for (std::size_t s = w * shards_.size() / workers; s < end; ++s) {
      drain_shard(*shards_[s]);
    }
  });
}

void ShardedDispatchEngine::snapshot_shards_locked() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    shard.scratch.reset();
    const std::size_t active = shard.dispatcher.active_sessions();
    const std::span<double> sizes = shard.scratch.allocate_array<double>(active);
    shard.dispatcher.active_sizes_desc(sizes);
    // rle_from_sorted, but into the shard's reused vector.
    shard.snapshot.clear();
    for (const double size : sizes) {
      if (!shard.snapshot.empty() && shard.snapshot.back().size == size) {
        ++shard.snapshot.back().count;
      } else {
        shard.snapshot.push_back(SizeRun{size, 1});
      }
    }
  }
}

void ShardedDispatchEngine::merge_snapshots_locked() {
  // K-way merge of the per-shard runs in decreasing size order; bitwise-
  // equal sizes sum their counts. Shard order never matters (addition of
  // uint64 counts is associative), so the merged multiset is partition-
  // invariant: the same active sessions yield the same runs for any shard
  // count — the property the cross-shard differential test pins.
  merged_runs_.clear();
  std::vector<std::size_t>& next = merge_cursor_;
  std::fill(next.begin(), next.end(), 0);
  for (;;) {
    bool any = false;
    double best = 0.0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<SizeRun>& runs = shards_[s]->snapshot;
      if (next[s] >= runs.size()) continue;
      const double size = runs[next[s]].size;
      if (!any || size > best) {
        best = size;
        any = true;
      }
    }
    if (!any) break;
    std::uint64_t count = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<SizeRun>& runs = shards_[s]->snapshot;
      if (next[s] < runs.size() && runs[next[s]].size == best) {
        count += runs[next[s]].count;
        ++next[s];
      }
    }
    merged_runs_.push_back(SizeRun{best, count});
  }
}

void ShardedDispatchEngine::advance_epoch(Time now_minutes) {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  DBP_REQUIRE(std::isfinite(now_minutes), "epoch time must be finite");
  DBP_REQUIRE(epochs_ == 0 || now_minutes >= last_epoch_time_,
              "epoch times must be non-decreasing");
  pump_locked();
  cut_epoch_locked(now_minutes);
}

Time ShardedDispatchEngine::advance_epoch_to_event_clock() {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  pump_locked();
  // Chosen after the drain and with no drain before the snapshot: the
  // snapshot then holds every applied event, and none stamped later.
  Time now_minutes = last_epoch_time_;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    now_minutes = std::max(now_minutes, shard->dispatcher.last_event_time());
  }
  cut_epoch_locked(now_minutes);
  return now_minutes;
}

void ShardedDispatchEngine::cut_epoch_locked(Time now_minutes) {
  // 1. Close the segment [last_epoch, now): the active multiset over that
  // segment is the one captured at the *previous* epoch (events queued
  // since then carry timestamps >= the epoch they follow). The integral
  // reads only that snapshot's bounds, so it does not matter that the
  // caller drained the rings first. The integrator drops zero-length
  // segments (the wire epoch timer produces coincident ticks under load —
  // EngineTest.ZeroLengthEpochSegmentsAreFree) and empty-fleet ones,
  // including the stretch before the first epoch, exactly as
  // estimate_opt_total does.
  integral_.add(last_bounds_, now_minutes - last_epoch_time_);
  // 2. Snapshot what the caller's drain applied, and merge.
  snapshot_shards_locked();
  merge_snapshots_locked();
  last_bounds_ = oracle_.count_rle(merged_runs_);
  last_epoch_time_ = now_minutes;
  ++epochs_;
  // 3. Deterministic observability, emitted from the caller thread only —
  // worker threads never record, so traces are byte-identical across
  // worker budgets.
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord mark;
    mark.time = now_minutes;
    mark.kind = obs::TraceKind::kEpochMark;
    mark.count = events_applied_locked();
    tracer->record(std::move(mark));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      obs::TraceRecord snap;
      snap.time = now_minutes;
      snap.kind = obs::TraceKind::kShardSnapshot;
      snap.shard = s;
      snap.count = shards_[s]->dispatcher.active_sessions();
      tracer->record(std::move(snap));
    }
  }
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("engine.epochs").add();
  }
}

StreamingOptBounds ShardedDispatchEngine::opt_bounds() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  StreamingOptBounds bounds;
  bounds.lower_dollars = integral_.lower_cost();
  bounds.upper_dollars = integral_.upper_cost();
  bounds.segments = integral_.segments();
  bounds.exact_segments = integral_.exact_segments();
  return bounds;
}

double ShardedDispatchEngine::rental_cost_dollars(Time now_minutes) const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  double dollars = 0.0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    dollars += shard->dispatcher.rental_cost_dollars(now_minutes);
  }
  return dollars;
}

std::size_t ShardedDispatchEngine::active_sessions() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->dispatcher.active_sessions();
  }
  return total;
}

std::size_t ShardedDispatchEngine::active_servers() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->dispatcher.active_servers();
  }
  return total;
}

std::uint64_t ShardedDispatchEngine::events_applied() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  return events_applied_locked();
}

std::uint64_t ShardedDispatchEngine::events_applied_locked() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) total += shard->applied;
  return total;
}

DispatcherFaultStats ShardedDispatchEngine::merged_fault_stats() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  DispatcherFaultStats merged;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const DispatcherFaultStats& stats = shard->dispatcher.fault_stats();
    merged.duplicate_starts += stats.duplicate_starts;
    merged.unknown_ends += stats.unknown_ends;
    merged.unknown_servers += stats.unknown_servers;
    merged.time_order_violations += stats.time_order_violations;
    merged.invalid_sizes += stats.invalid_sizes;
    merged.invalid_session_ids += stats.invalid_session_ids;
    merged.rental_attempts_failed += stats.rental_attempts_failed;
    merged.sessions_rejected_rental += stats.sessions_rejected_rental;
    merged.sessions_rejected_cap += stats.sessions_rejected_cap;
    merged.sessions_shed += stats.sessions_shed;
    merged.sessions_redispatched += stats.sessions_redispatched;
    merged.sessions_lost_on_crash += stats.sessions_lost_on_crash;
    merged.servers_crashed += stats.servers_crashed;
    merged.backoff_minutes += stats.backoff_minutes;
  }
  return merged;
}

const GameServerDispatcher& ShardedDispatchEngine::shard_dispatcher(
    std::size_t shard) const {
  DBP_REQUIRE(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->dispatcher;
}

std::uint64_t ShardedDispatchEngine::oracle_hits() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  return oracle_.hits();
}

std::uint64_t ShardedDispatchEngine::oracle_misses() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  return oracle_.misses();
}

}  // namespace dbp::engine
