// Sharded streaming dispatch engine (ROADMAP item 1).
//
// Promotes the batch-simulated GameServerDispatcher to a long-running
// service core: N shards, each owning a full dispatcher (BinManager +
// packer) and a plain queue of the session start/end events it has not
// applied yet. A ShardRouter (engine/router.hpp) pins each session to one
// shard, so a shard applies its sessions' events in submission order and
// its packing run is an ordinary sequential dispatcher run.
//
// One thread drives the engine. It is not thread-safe: callers serialize
// their calls (the wire server makes every call from run(), and drains
// before run() returns), and every call does its work on the calling
// thread.
//
// Determinism contract (tests/engine_differential_test.cpp): for a fixed
// shard count and router, every observable result — per-shard packing
// state, aggregate bill, fault statistics, OPT_total bounds, exported
// traces — is bit-identical under any worker budget, which the engine
// never reads: shards apply their queues in FIFO order, in shard order,
// and all cross-shard reductions run in shard order. Across different
// shard counts the *merged* quantities that are partition-invariant
// (active sessions, merged RLE multiset, OPT_total bounds) are
// bit-identical too; the aggregate bill is not, because First Fit on a
// union is not the sum of First Fit on partitions
// (docs/dispatch_engine.md).
//
// Epoch batching: advance_epoch(t) closes the segment [prev_epoch, t) by
// feeding the previous merged snapshot's certified bin-count bounds
// (opt/bin_count.hpp, memoized per engine) to the OptTotalIntegrator
// estimate_opt_total also sums with (opt/opt_total.hpp), then applies all
// queued events and snapshots the merged RLE size multiset of every shard's
// active sessions.
// With an epoch at every event boundary the streaming bounds equal
// estimate_opt_total's bit for bit; sparser epochs trade fidelity for
// throughput, exactly like a metrics scrape cadence.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/router.hpp"
#include "gaming/dispatcher.hpp"
#include "opt/bin_count.hpp"
#include "opt/opt_total.hpp"

namespace dbp::engine {

/// One dispatch event as submitted by a producer. POD — shard queues copy it.
struct SessionEvent {
  enum class Kind : std::uint8_t { kStart, kEnd };

  std::uint64_t session_id = 0;
  double gpu_fraction = 0.0;  ///< ignored for kEnd
  Time time_minutes = 0.0;
  Kind kind = Kind::kStart;
  /// Routing key; must be identical for a session's start and end. 0 is a
  /// valid key. Producers using the default constructor-free helpers below
  /// get route_key = session_id.
  std::uint64_t route_key = 0;
};

[[nodiscard]] inline SessionEvent start_event(std::uint64_t session_id,
                                              double gpu_fraction,
                                              Time time_minutes) {
  return SessionEvent{session_id, gpu_fraction, time_minutes,
                      SessionEvent::Kind::kStart, session_id};
}

[[nodiscard]] inline SessionEvent end_event(std::uint64_t session_id,
                                            Time time_minutes) {
  return SessionEvent{session_id, 0.0, time_minutes, SessionEvent::Kind::kEnd,
                      session_id};
}

struct EngineConfig {
  std::size_t shard_count = 1;
  /// An online algorithm; validate() refuses the clairvoyant baselines
  /// (clairvoyant_algorithm_names()), which need each session's departure
  /// when it arrives.
  std::string algorithm = "first-fit";
  ServerSpec spec{};
  PackerOptions packer_options{};
  /// Shard dispatchers must run kDropAndCount: an event is applied at a
  /// later drain, epoch or full queue, after its submit() has returned, so a
  /// DispatchError would have no submitter to unwind into, and strict mode
  /// is rejected by validate(). Rejected events surface through
  /// fault_stats() exactly like the batch dispatcher's drop mode.
  FaultPolicy fault_policy = [] {
    FaultPolicy policy;
    policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
    return policy;
  }();
  /// Bin-count options for the epoch OPT_total bounds.
  BinCountOptions bin_count{};
  /// Memo entries for the epoch bin counts. Two, the oracle's floor: a
  /// served stream's epochs rarely repeat a multiset beyond the last two
  /// (an idle timer tick, an A/B alternation), and a larger memo only grows
  /// for the life of the server.
  std::size_t oracle_memo_limit = 2;

  /// Throws PreconditionError unless the configuration is usable.
  void validate() const;
};

/// Streaming OPT_total bounds accumulated by advance_epoch, in dollars.
struct StreamingOptBounds {
  double lower_dollars = 0.0;
  double upper_dollars = 0.0;
  /// Epoch segments integrated (positive length, non-empty fleet — the
  /// OptTotalIntegrator rule) and how many had exact (lower == upper) bin
  /// counts.
  std::size_t segments = 0;
  std::size_t exact_segments = 0;
};

class ShardedDispatchEngine {
 public:
  /// `router` defaults to HashShardRouter. The router must outlive nothing —
  /// the engine owns it.
  explicit ShardedDispatchEngine(EngineConfig config,
                                 std::unique_ptr<ShardRouter> router = nullptr);
  ~ShardedDispatchEngine();

  ShardedDispatchEngine(const ShardedDispatchEngine&) = delete;
  ShardedDispatchEngine& operator=(const ShardedDispatchEngine&) = delete;

  /// Events a shard queues before submit() applies them, and the capacity
  /// each queue reserves (memory that is touched only as the queue fills).
  static constexpr std::size_t kShardQueueCap = 4096;

  /// Routes the event to its shard and queues it. When that shard's queue
  /// already holds kShardQueueCap events, submit() applies them first.
  void submit(const SessionEvent& event);

  /// Always 0: submit() never waits. Kept because servebench's replay
  /// reports it as `engine.submit_backoffs`.
  [[nodiscard]] std::uint64_t submit_backoffs() const noexcept { return 0; }

  /// Applies every queued event, shard by shard in shard order, on the
  /// calling thread. Observability is suppressed during application, so
  /// traces hold only the engine's own epoch records.
  void drain();

  /// Closes the epoch segment [previous epoch, now_minutes): drains all
  /// queues, integrates the previous merged snapshot's bin-count bounds over
  /// the segment, then sorts every shard's active sizes into a fresh merged
  /// RLE snapshot. Emits one kEpochMark plus one kShardSnapshot trace
  /// record per shard when a tracer is in scope.
  /// Epoch times must be finite and non-decreasing; PreconditionError
  /// otherwise, leaving the engine unchanged.
  void advance_epoch(Time now_minutes);

  /// advance_epoch at the engine's own event clock: drains all queues once,
  /// then cuts the epoch at max(last epoch time, latest event time any
  /// shard dispatcher accepted) and snapshots exactly what that drain
  /// applied. No event stamped after the epoch can land inside it, which
  /// an epoch time chosen before the drain cannot promise. Returns the
  /// epoch time. The wire server's timer ticks with this.
  Time advance_epoch_to_event_clock();

  [[nodiscard]] StreamingOptBounds opt_bounds() const;

  /// Aggregate rental bill: shard-order sum of per-shard bills. Drained
  /// events only — call drain()/advance_epoch() first for a full view.
  [[nodiscard]] double rental_cost_dollars(Time now_minutes) const;

  [[nodiscard]] std::size_t active_sessions() const;
  [[nodiscard]] std::size_t active_servers() const;
  [[nodiscard]] std::uint64_t events_applied() const;
  /// Field-wise sum of per-shard fault statistics, in shard order.
  [[nodiscard]] DispatcherFaultStats merged_fault_stats() const;

  /// The merged active-size multiset of the last advance_epoch (RLE,
  /// strictly decreasing sizes). Partition-invariant: bit-identical for any
  /// shard count over the same event stream.
  [[nodiscard]] const std::vector<SizeRun>& merged_snapshot_rle() const noexcept {
    return merged_runs_;
  }

  [[nodiscard]] std::size_t shard_count() const noexcept;
  /// Read access to one shard's dispatcher (drained state).
  [[nodiscard]] const GameServerDispatcher& shard_dispatcher(std::size_t shard) const;
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ShardRouter& router() const noexcept { return *router_; }

  /// Oracle memo traffic across all epochs (hits grow on cyclic workloads).
  [[nodiscard]] std::uint64_t oracle_hits() const;
  [[nodiscard]] std::uint64_t oracle_misses() const;

 private:
  struct Shard;

  /// Applies the shard's queued events in FIFO order and empties its queue.
  static void apply_queue(Shard& shard);
  /// advance_epoch after the drain: integrate, snapshot, trace.
  void cut_epoch(Time now_minutes);
  /// Sorts every shard's active sizes into sizes_ and encodes them as
  /// merged_runs_.
  void snapshot_merged();

  EngineConfig config_;
  std::unique_ptr<ShardRouter> router_;
  std::vector<Shard> shards_;

  // Epoch state. Before the first epoch the fleet is empty, so
  // last_bounds_ starts at {0, 0}.
  BinCountOracle oracle_;
  OptTotalIntegrator integral_;
  /// Every shard's active sizes at the last epoch, non-increasing; kept so
  /// an epoch allocates nothing once it has grown.
  std::vector<double> sizes_;
  std::vector<SizeRun> merged_runs_;
  BinCountBounds last_bounds_{};
  Time last_epoch_time_ = 0.0;
  std::uint64_t epochs_ = 0;
};

}  // namespace dbp::engine
