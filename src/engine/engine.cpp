#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>

#include "algo/factory.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace dbp::engine {

void EngineConfig::validate() const {
  DBP_REQUIRE(shard_count >= 1 && shard_count <= 4096,
              "shard count must be in [1, 4096]");
  DBP_REQUIRE(!algorithm.empty(), "engine needs a packing algorithm name");
  const std::vector<std::string>& clairvoyant = clairvoyant_algorithm_names();
  DBP_REQUIRE(std::find(clairvoyant.begin(), clairvoyant.end(), algorithm) ==
                  clairvoyant.end(),
              "engine shards place each session when it arrives, so the "
              "clairvoyant algorithm '" + algorithm + "' cannot serve them");
  spec.to_cost_model().validate();
  fault_policy.validate();
  DBP_REQUIRE(fault_policy.on_anomaly == FaultPolicy::AnomalyAction::kDropAndCount,
              "engine shards must use AnomalyAction::kDropAndCount — an "
              "event is applied after its submit() returned, so a "
              "DispatchError would have no submitter to unwind into");
}

struct ShardedDispatchEngine::Shard {
  explicit Shard(const EngineConfig& config)
      : dispatcher(config.spec, config.algorithm, config.packer_options,
                   config.fault_policy) {
    queue.reserve(kShardQueueCap);
  }

  /// Submitted events not applied yet, in submission order.
  std::vector<SessionEvent> queue;
  GameServerDispatcher dispatcher;
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
    shards_.emplace_back(config_);
  }
}

ShardedDispatchEngine::~ShardedDispatchEngine() = default;

void ShardedDispatchEngine::submit(const SessionEvent& event) {
  const std::size_t index = router_->shard_for(event.route_key, shards_.size());
  DBP_REQUIRE(index < shards_.size(), "router returned an out-of-range shard");
  Shard& shard = shards_[index];
  if (shard.queue.size() == kShardQueueCap) apply_queue(shard);
  shard.queue.push_back(event);
}

void ShardedDispatchEngine::drain() {
  for (Shard& shard : shards_) apply_queue(shard);
}

void ShardedDispatchEngine::apply_queue(Shard& shard) {
  if (shard.queue.empty()) return;
  // Application never traces: the exported trace holds only the engine's
  // epoch records, whenever the queues happen to be applied.
  const obs::ObsScope quiet(nullptr, nullptr);
  // An event leaves the queue once it is taken, so an exception out of a
  // dispatcher (a defect: shards count the events they refuse) never gets
  // an event applied twice.
  std::size_t taken = 0;
  try {
    while (taken < shard.queue.size()) {
      const SessionEvent& event = shard.queue[taken++];
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
  } catch (...) {
    shard.queue.erase(shard.queue.begin(),
                      shard.queue.begin() + static_cast<std::ptrdiff_t>(taken));
    throw;
  }
  shard.queue.clear();
}

void ShardedDispatchEngine::snapshot_merged() {
  // Every shard's active sizes in one buffer, sorted once, then run-length
  // encoded with bitwise-equal sizes merged, as rle_from_sorted does. The
  // sizes are positive and finite, so their sorted order, and with it the
  // runs, does not depend on how they are split across shards: the merged
  // multiset is partition-invariant — the property the cross-shard
  // differential test pins. The buffers keep their capacity across epochs.
  sizes_.resize(active_sessions());
  std::size_t offset = 0;
  for (const Shard& shard : shards_) {
    const std::size_t active = shard.dispatcher.active_sessions();
    shard.dispatcher.active_sizes(std::span(sizes_).subspan(offset, active));
    offset += active;
  }
  std::sort(sizes_.begin(), sizes_.end(), std::greater<>());
  merged_runs_.clear();
  for (const double size : sizes_) {
    if (!merged_runs_.empty() && merged_runs_.back().size == size) {
      ++merged_runs_.back().count;
    } else {
      merged_runs_.push_back(SizeRun{size, 1});
    }
  }
}

void ShardedDispatchEngine::advance_epoch(Time now_minutes) {
  DBP_REQUIRE(std::isfinite(now_minutes), "epoch time must be finite");
  DBP_REQUIRE(epochs_ == 0 || now_minutes >= last_epoch_time_,
              "epoch times must be non-decreasing");
  drain();
  cut_epoch(now_minutes);
}

Time ShardedDispatchEngine::advance_epoch_to_event_clock() {
  drain();
  // Chosen after the drain and with no drain before the snapshot: the
  // snapshot then holds every applied event, and none stamped later.
  Time now_minutes = last_epoch_time_;
  for (const Shard& shard : shards_) {
    now_minutes = std::max(now_minutes, shard.dispatcher.last_event_time());
  }
  cut_epoch(now_minutes);
  return now_minutes;
}

void ShardedDispatchEngine::cut_epoch(Time now_minutes) {
  // 1. Close the segment [last_epoch, now): the active multiset over that
  // segment is the one captured at the *previous* epoch (events queued
  // since then carry timestamps >= the epoch they follow). The integral
  // reads only that snapshot's bounds, so it does not matter that the
  // caller drained the queues first. The integrator drops zero-length
  // segments (the wire epoch timer produces coincident ticks under load —
  // EngineTest.ZeroLengthEpochSegmentsAreFree) and empty-fleet ones,
  // including the stretch before the first epoch, exactly as
  // estimate_opt_total does.
  integral_.add(last_bounds_, now_minutes - last_epoch_time_);
  // 2. Snapshot what the caller's drain applied.
  snapshot_merged();
  last_bounds_ = oracle_.count_rle(merged_runs_);
  last_epoch_time_ = now_minutes;
  ++epochs_;
  // 3. Observability: the engine's only trace records, in shard order.
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord mark;
    mark.time = now_minutes;
    mark.kind = obs::TraceKind::kEpochMark;
    mark.count = events_applied();
    tracer->record(std::move(mark));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      obs::TraceRecord snap;
      snap.time = now_minutes;
      snap.kind = obs::TraceKind::kShardSnapshot;
      snap.shard = s;
      snap.count = shards_[s].dispatcher.active_sessions();
      tracer->record(std::move(snap));
    }
  }
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("engine.epochs").add();
  }
}

StreamingOptBounds ShardedDispatchEngine::opt_bounds() const {
  StreamingOptBounds bounds;
  bounds.lower_dollars = integral_.lower_cost();
  bounds.upper_dollars = integral_.upper_cost();
  bounds.segments = integral_.segments();
  bounds.exact_segments = integral_.exact_segments();
  return bounds;
}

double ShardedDispatchEngine::rental_cost_dollars(Time now_minutes) const {
  double dollars = 0.0;
  for (const Shard& shard : shards_) {
    dollars += shard.dispatcher.rental_cost_dollars(now_minutes);
  }
  return dollars;
}

std::size_t ShardedDispatchEngine::active_sessions() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.dispatcher.active_sessions();
  return total;
}

std::size_t ShardedDispatchEngine::active_servers() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.dispatcher.active_servers();
  return total;
}

std::uint64_t ShardedDispatchEngine::events_applied() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.applied;
  return total;
}

DispatcherFaultStats ShardedDispatchEngine::merged_fault_stats() const {
  DispatcherFaultStats merged;
  for (const Shard& shard : shards_) {
    const DispatcherFaultStats& stats = shard.dispatcher.fault_stats();
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
  return shards_[shard].dispatcher;
}

std::size_t ShardedDispatchEngine::shard_count() const noexcept {
  return shards_.size();
}

std::uint64_t ShardedDispatchEngine::oracle_hits() const {
  return oracle_.hits();
}

std::uint64_t ShardedDispatchEngine::oracle_misses() const {
  return oracle_.misses();
}

}  // namespace dbp::engine
