// Observability context: how instrumented code finds the active tracer
// and metrics registry.
//
// The context is a thread-local pair of non-owning pointers, installed by
// an RAII ObsScope. Instrumentation sites ask obs::tracer() / obs::metrics()
// and do nothing when the answer is null — with no scope installed (the
// default) an instrumented call site costs one thread-local load and one
// predictable branch, so observability is effectively free when off.
//
// The context is thread-local on purpose: parallel workers (e.g. phase 2 of
// estimate_opt_total) never inherit the caller's scope, so traces contain
// only the deterministic, sequentially-emitted records and stay
// byte-identical across worker counts (docs/observability.md).
#pragma once

#include "obs/metrics_registry.hpp"
#include "obs/run_tracer.hpp"

namespace dbp::obs {

struct ObsContext {
  RunTracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

namespace detail {
/// The active context of this thread. Do not touch directly — install an
/// ObsScope instead. constinit: the variable is constant-initialized, so
/// other translation units read it directly instead of through a TLS init
/// wrapper (whose pointer UBSan reports as a null member access).
extern constinit thread_local ObsContext g_context;
}  // namespace detail

/// The tracer of the current thread's scope, or null (tracing off).
[[nodiscard]] inline RunTracer* tracer() noexcept {
  return detail::g_context.tracer;
}

/// The metrics registry of the current thread's scope, or null.
[[nodiscard]] inline MetricsRegistry* metrics() noexcept {
  return detail::g_context.metrics;
}

/// Installs `tracer`/`metrics` as this thread's observability context for
/// the scope's lifetime; restores the previous context on destruction
/// (scopes nest). Pass null for either half to leave it disabled.
class ObsScope {
 public:
  ObsScope(RunTracer* tracer, MetricsRegistry* metrics) noexcept
      : saved_(detail::g_context) {
    detail::g_context = ObsContext{tracer, metrics};
  }
  ~ObsScope() { detail::g_context = saved_; }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  ObsContext saved_;
};

/// Result-neutral phase stopwatch for instrumented code outside src/obs.
///
/// begin()/elapsed_ms() are defined out of line in obs.cpp so the clock
/// read never compiles into the caller's translation unit: dbp_symcheck's
/// `wall-clock` object policy (docs/static_analysis.md) verifies that no
/// object outside src/obs references a clock symbol, which keeps timing —
/// and therefore any timing-dependent behaviour — structurally impossible
/// in the packing/OPT layers. Inactive (no tracer and no metrics installed
/// on this thread at construction) means zero clock reads.
class PhaseStopwatch {
 public:
  PhaseStopwatch() noexcept
      : active_(tracer() != nullptr || metrics() != nullptr) {}

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Starts (or restarts) the stopwatch. No-op when inactive.
  void begin() noexcept;

  /// Milliseconds since the last begin(); 0.0 when inactive.
  [[nodiscard]] double elapsed_ms() const noexcept;

 private:
  bool active_;
  double start_ms_ = 0.0;  ///< steady-clock timestamp, milliseconds
};

/// Shared emitters for the packer event loop (AnyFit, size-classed MFF,
/// adaptive MFF): one arrival/departure record per event plus throughput
/// counters. No-ops when the corresponding half of the context is off.
/// `candidates` is the number of open bins the fit strategy chose from at
/// selection time (before any new bin was opened for the item).
inline void trace_arrival(Time t, ItemId item, double size, BinId bin,
                          std::uint64_t candidates) {
  if (RunTracer* tr = tracer()) {
    TraceRecord record;
    record.time = t;
    record.kind = TraceKind::kArrival;
    record.item = item;
    record.bin = bin;
    record.size = size;
    record.count = candidates;
    tr->record(std::move(record));
  }
  if (MetricsRegistry* m = metrics()) m->counter("packer.arrivals").add();
}

inline void trace_departure(Time t, ItemId item, BinId bin) {
  if (RunTracer* tr = tracer()) {
    TraceRecord record;
    record.time = t;
    record.kind = TraceKind::kDeparture;
    record.item = item;
    record.bin = bin;
    tr->record(std::move(record));
  }
  if (MetricsRegistry* m = metrics()) m->counter("packer.departures").add();
}

}  // namespace dbp::obs
