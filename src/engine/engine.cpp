#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>

#include "core/arena.hpp"
#include "core/error.hpp"
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
    if (pump_mutex_.try_lock()) {
      pump_locked();
      pump_mutex_.unlock();
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
  const int effective = exec::WorkerBudget::effective();
  const std::size_t workers = std::min(
      shards_.size(), static_cast<std::size_t>(std::max(1, effective)));
  if (workers <= 1) {
    // Inline: the caller thread applies every shard's FIFO in shard order.
    // Observability is suppressed exactly as on worker threads, so the
    // exported trace is byte-identical across budgets.
    const exec::WorkerLease lease;
    const obs::ObsScope quiet(nullptr, nullptr);
    for (const std::unique_ptr<Shard>& shard : shards_) drain_shard(*shard);
    return;
  }
  // Fork-join over contiguous shard blocks. Each worker owns its shards
  // exclusively for this pump, so per-shard application stays FIFO and the
  // partition never affects results — only which thread runs them.
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * shards_.size() / workers;
    const std::size_t end = (w + 1) * shards_.size() / workers;
    threads.emplace_back([this, begin, end, &first_error, &error_mutex] {
      const exec::WorkerLease lease;
      const obs::ObsScope quiet(nullptr, nullptr);
      try {
        for (std::size_t s = begin; s < end; ++s) drain_shard(*shards_[s]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
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
  std::vector<std::size_t> next(shards_.size(), 0);
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
  // 1. Close the segment [last_epoch, now): the active multiset over that
  // segment is the one captured at the *previous* epoch (events queued
  // since then carry timestamps >= the epoch they follow). The integrator
  // drops zero-length segments (the wire timer thread produces coincident
  // ticks under load — EngineTest.ZeroLengthEpochSegmentsAreFree) and
  // empty-fleet ones, including the stretch before the first epoch, exactly
  // as estimate_opt_total does.
  integral_.add(last_bounds_, now_minutes - last_epoch_time_);
  // 2. Apply everything queued, then snapshot and merge.
  pump_locked();
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
