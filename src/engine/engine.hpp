// Sharded streaming dispatch engine (ROADMAP item 1).
//
// Promotes the batch-simulated GameServerDispatcher to a long-running
// service core: N shards, each owning a full dispatcher (BinManager +
// packer + per-shard MonotonicArena scratch), drain session start/end
// events from bounded MPSC rings filled by any number of producer threads.
// A ShardRouter (engine/router.hpp) pins each session to one shard, so
// per-shard event order is the submission order of that session's producer
// and the shard's packing run is an ordinary sequential dispatcher run.
//
// Determinism contract (tests/engine_differential_test.cpp): for a fixed
// shard count and router, every observable result — per-shard packing
// state, aggregate bill, fault statistics, OPT_total bounds, exported
// traces — is bit-identical under any worker budget, because worker
// threads only decide *which thread* applies a shard's FIFO, never the
// order within it, and all cross-shard reductions run on the caller thread
// in shard order. Across different shard counts the *merged* quantities
// that are partition-invariant (active sessions, merged RLE multiset,
// OPT_total bounds) are bit-identical too; the aggregate bill is not,
// because First Fit on a union is not the sum of First Fit on partitions
// (docs/dispatch_engine.md).
//
// Epoch batching: advance_epoch(t) closes the segment [prev_epoch, t) by
// feeding the previous merged snapshot's certified bin-count bounds
// (opt/bin_count.hpp, memoized per engine) to the OptTotalIntegrator
// estimate_opt_total also sums with (opt/opt_total.hpp), then applies all
// queued events and takes fresh per-shard RLE size-multiset snapshots.
// With an epoch at every event boundary the streaming bounds equal
// estimate_opt_total's bit for bit; sparser epochs trade fidelity for
// throughput, exactly like a metrics scrape cadence.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/mpsc_ring.hpp"
#include "engine/router.hpp"
#include "gaming/dispatcher.hpp"
#include "opt/bin_count.hpp"
#include "opt/opt_total.hpp"

namespace dbp::engine {

/// One dispatch event as submitted by a producer. POD — ring cells copy it.
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
  /// Per-shard ring capacity; power of two >= 2. A full ring backpressures
  /// submit() into self-pumping.
  std::size_t ring_capacity = std::size_t{1} << 12;
  std::string algorithm = "first-fit";
  ServerSpec spec{};
  PackerOptions packer_options{};
  /// Shard dispatchers must run kDropAndCount: a DispatchError raised on a
  /// worker thread cannot unwind into the submitting producer, so strict
  /// mode is rejected by validate(). Rejected events surface through
  /// fault_stats() exactly like the batch dispatcher's drop mode.
  FaultPolicy fault_policy = [] {
    FaultPolicy policy;
    policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
    return policy;
  }();
  /// Bin-count options for the epoch OPT_total bounds.
  BinCountOptions bin_count{};
  std::size_t oracle_memo_limit = BinCountOracle::kMemoLimit;

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

  /// Non-blocking enqueue; false when the owning shard's ring is full.
  /// Thread-safe (any number of producers).
  bool try_submit(const SessionEvent& event);

  /// Enqueue with backpressure: when the shard's ring is full the calling
  /// thread tries to become the pump (draining *all* shards) and retries.
  /// While another thread holds the pump (e.g. a long advance_epoch) the
  /// producer yields for kSpinYieldRounds rounds, then sleeps with bounded
  /// exponential backoff (submit_backoff below) instead of burning a core
  /// for the whole epoch. Thread-safe; timing-only — per-producer FIFO
  /// order and all results are unaffected by the backoff.
  void submit(const SessionEvent& event);

  /// Backoff schedule for submit() retry round `failed_rounds` (1-based,
  /// reset whenever the producer makes progress): zero (pure yield) through
  /// round kSpinYieldRounds, then sleeps doubling from 1us up to the
  /// 1us << kMaxBackoffShift cap. Pure so the stress suite can pin the
  /// schedule exactly.
  static constexpr std::uint32_t kSpinYieldRounds = 64;
  static constexpr std::uint32_t kMaxBackoffShift = 8;  // 256us cap

  [[nodiscard]] static constexpr std::chrono::microseconds submit_backoff(
      std::uint32_t failed_rounds) noexcept {
    if (failed_rounds <= kSpinYieldRounds) return std::chrono::microseconds{0};
    const std::uint32_t shift =
        std::min(failed_rounds - kSpinYieldRounds - 1, kMaxBackoffShift);
    return std::chrono::microseconds{std::uint32_t{1} << shift};
  }

  /// Times submit() entered a backoff sleep (not yields). Monotonic;
  /// nonzero proves producers stopped spinning under a held pump.
  [[nodiscard]] std::uint64_t submit_backoffs() const noexcept {
    return submit_backoffs_.load(std::memory_order_relaxed);
  }

  /// Test hook: acquires the pump lock and returns it, freezing pumping,
  /// epochs and queries until the lock is released — an arbitrarily slow
  /// epoch, idealized. Producers facing a full ring meanwhile take the
  /// submit_backoff() path. Not part of the serving API.
  [[nodiscard]] std::unique_lock<std::mutex> hold_pump_for_test() const {
    return std::unique_lock<std::mutex>(pump_mutex_);
  }

  /// Applies every queued event. Shards drain in parallel up to
  /// exec::WorkerBudget::effective() workers; results are bit-identical
  /// under any budget. Caller-thread observability is suppressed during
  /// application so traces stay byte-identical across budgets.
  void drain();

  /// Closes the epoch segment [previous epoch, now_minutes): integrates the
  /// previous merged snapshot's bin-count bounds over the segment, then
  /// drains all rings and takes fresh per-shard RLE snapshots (merged on
  /// the caller thread in shard order). Emits one kEpochMark plus one
  /// kShardSnapshot trace record per shard when a tracer is in scope.
  /// Epoch times must be finite and non-decreasing; PreconditionError
  /// otherwise, leaving the engine unchanged.
  void advance_epoch(Time now_minutes);

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

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Read access to one shard's dispatcher (drained state).
  [[nodiscard]] const GameServerDispatcher& shard_dispatcher(std::size_t shard) const;
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ShardRouter& router() const noexcept { return *router_; }

  /// Oracle memo traffic across all epochs (hits grow on cyclic workloads).
  [[nodiscard]] std::uint64_t oracle_hits() const;
  [[nodiscard]] std::uint64_t oracle_misses() const;

 private:
  struct Shard;

  void pump_locked();
  void drain_shard(Shard& shard);
  void snapshot_shards_locked();
  void merge_snapshots_locked();
  [[nodiscard]] std::uint64_t events_applied_locked() const;

  EngineConfig config_;
  std::unique_ptr<ShardRouter> router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Serializes pumping, epochs and queries; producers only touch rings.
  mutable std::mutex pump_mutex_;
  std::atomic<std::uint64_t> submit_backoffs_{0};

  // Epoch state (guarded by pump_mutex_). Before the first epoch the fleet
  // is empty, so last_bounds_ starts at {0, 0}.
  BinCountOracle oracle_;
  OptTotalIntegrator integral_;
  std::vector<SizeRun> merged_runs_;
  BinCountBounds last_bounds_{};
  Time last_epoch_time_ = 0.0;
  std::uint64_t epochs_ = 0;
};

}  // namespace dbp::engine
