// Bounded lock-free multi-producer ring for shard event submission.
//
// The classic Vyukov bounded MPMC queue: one atomic sequence number per
// cell arbitrates producers (CAS on the tail) and publishes completed
// writes to the consumer (release store of sequence = tail + 1). The engine
// uses it MPSC — any number of submitting threads, one pumping thread per
// shard at a time (the pump mutex enforces the single consumer) — but the
// implementation is safe for concurrent consumers too, so the stress tests
// can hammer it harder than the engine ever does.
//
// Bounded on purpose: a full ring applies backpressure to producers
// (ShardedDispatchEngine::submit self-pumps), so an overload can never
// grow an unbounded queue. Capacity must be a power of two — the sequence
// arithmetic uses `& (capacity - 1)` indexing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>

#include "core/error.hpp"

namespace dbp::engine {

template <typename T>
class BoundedMpscRing {
 public:
  explicit BoundedMpscRing(std::size_t capacity)
      : capacity_(capacity), mask_(capacity - 1) {
    DBP_REQUIRE(capacity >= 2 && (capacity & (capacity - 1)) == 0,
                "ring capacity must be a power of two >= 2");
    cells_ = std::make_unique<Cell[]>(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  BoundedMpscRing(const BoundedMpscRing&) = delete;
  BoundedMpscRing& operator=(const BoundedMpscRing&) = delete;

  /// Attempts to enqueue; returns false when the ring is full. Safe to call
  /// from any number of threads concurrently.
  bool try_push(const T& value) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      const std::ptrdiff_t diff =
          static_cast<std::ptrdiff_t>(seq) - static_cast<std::ptrdiff_t>(pos);
      if (diff == 0) {
        // The cell is free for this ticket; claim it.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = value;
          cell.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
        // Lost the race; `pos` was reloaded by compare_exchange — retry.
      } else if (diff < 0) {
        return false;  // full: the consumer has not freed this cell yet
      } else {
        pos = tail_.load(std::memory_order_relaxed);  // another producer won
      }
    }
  }

  /// Attempts to dequeue into `out`; returns false when the ring is empty.
  bool try_pop(T& out) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      const std::ptrdiff_t diff = static_cast<std::ptrdiff_t>(seq) -
                                  static_cast<std::ptrdiff_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          out = cell.value;
          // Free the cell for the producer one lap ahead.
          cell.sequence.store(pos + capacity_, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // empty: no completed write at the head
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Approximate — exact only when producers and consumer are quiescent.
  [[nodiscard]] bool empty() const noexcept { return size_approx() == 0; }

  /// Approximate occupancy: claimed tickets minus consumed ones, in
  /// [0, capacity]. Exact only when producers and consumer are quiescent;
  /// a claimed cell still being written counts as occupied.
  [[nodiscard]] std::size_t size_approx() const noexcept {
    // The head is read first and the tail only grows, so tail >= head; pops
    // and pushes between the two reads can take the difference past the
    // capacity, hence the clamp.
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return std::min(tail - head, capacity_);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// Destructive-interference distance; a fixed 64 keeps the layout (and
  /// the -Winterference-size noise) independent of compiler tuning.
  static constexpr std::size_t kCacheLine = 64;

  struct Cell {
    std::atomic<std::size_t> sequence;
    T value;
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // producers
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // consumer
};

}  // namespace dbp::engine
