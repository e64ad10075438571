// Named runtime metrics: monotonic counters, gauges, and wall-clock timers.
//
// A MetricsRegistry is the passive half of the observability layer (the
// active, per-event half is RunTracer): instrumentation sites look up a
// metric once and bump it with relaxed atomics, so a registry can be shared
// across threads without serializing the hot path. When no registry is
// installed (obs::metrics() == nullptr, the default) instrumentation costs
// one thread-local load and a branch — see obs/obs.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace dbp::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregate of every duration recorded against one timer.
struct TimerStats {
  double total_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t count = 0;

  [[nodiscard]] double mean_ms() const noexcept {
    return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
  }
};

/// Wall-clock duration accumulator (min/max/total/count). Recording takes a
/// per-timer mutex: timers wrap multi-microsecond scopes, never per-item
/// work, so the lock is invisible next to the timed region.
class Timer {
 public:
  void record_ms(double ms) noexcept;
  [[nodiscard]] TimerStats stats() const;

 private:
  mutable std::mutex mutex_;
  TimerStats stats_{};
};

/// Thread-safe name -> metric registry. Metric objects are allocated in
/// deques, so references returned by counter()/gauge()/timer() stay valid
/// for the registry's lifetime and can be cached by instrumentation sites.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Timer& timer(std::string_view name);

  /// Point-in-time values of a metric by name (nullopt when never touched).
  [[nodiscard]] std::optional<std::uint64_t> counter_value(std::string_view name) const;
  [[nodiscard]] std::optional<double> gauge_value(std::string_view name) const;
  [[nodiscard]] std::optional<TimerStats> timer_stats(std::string_view name) const;

  /// Human-readable dump, one metric per line, sorted by name (the CLI
  /// tools' --metrics report). With include_timings=false, timer lines
  /// carry only the (deterministic) invocation count and omit the measured
  /// milliseconds, so two identical runs produce byte-identical dumps.
  void write_text(std::ostream& out, bool include_timings = true) const;

 private:
  mutable std::mutex mutex_;
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Timer> timer_storage_;
  std::map<std::string, Counter*, std::less<>> counters_;
  std::map<std::string, Gauge*, std::less<>> gauges_;
  std::map<std::string, Timer*, std::less<>> timers_;
};

}  // namespace dbp::obs
