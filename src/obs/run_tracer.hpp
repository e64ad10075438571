// Structured per-event run tracing into a bounded in-memory ring buffer.
//
// A RunTracer records one TraceRecord per observable decision — arrivals
// with the chosen bin and candidate count, departures, bin openings and
// closings, fault injections, oracle hits/misses, estimator phases,
// dispatcher rejections — and exports them as JSONL (one JSON object per
// line, schema "dbp-trace/1", documented in docs/observability.md).
//
// Tracing is strictly read-only with respect to the traced computation: a
// traced run and an untraced run produce byte-identical results
// (tests/trace_neutrality_test.cpp enforces this). The buffer is a ring:
// once `capacity` records are held the oldest are dropped and counted, so
// a runaway trace can never exhaust memory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace dbp::obs {

/// What a trace record describes. Names are stable — they are the JSONL
/// "kind" strings the validator checks against.
enum class TraceKind : std::uint8_t {
  kRunBegin,        ///< simulate()/simulate_faulted() entered
  kRunEnd,          ///< run finished; count = bins opened
  kArrival,         ///< item placed; bin = chosen, count = candidate open bins
  kDeparture,       ///< item left; bin = the bin it departed from
  kBinOpen,         ///< BinManager opened a fresh bin
  kBinClose,        ///< last resident departed; the bin closed
  kFaultCrash,      ///< injected crash landed; bin = victim, count = live items
  kFaultAnomaly,    ///< injected anomaly; label = detected category
  kRedispatch,      ///< crash orphans re-dispatched; count = sessions
  kOptPhase,        ///< estimator phase finished; label = phase, ms = duration
  kDispatchReject,  ///< dispatcher rejected an event; label = error kind
  kSessionShed,     ///< degraded mode shed a session
  kServerFail,      ///< dispatcher fail_server; bin = server, count = orphans
  kEpochMark,       ///< engine epoch boundary; count = events applied so far
  kShardSnapshot,   ///< per-shard RLE snapshot; count = active sessions
};

/// Stable JSONL name of a kind ("arrival", "bin_open", ...).
[[nodiscard]] const char* to_string(TraceKind kind) noexcept;

/// The current thread's shard attribution (ObsContext::shard, defined in
/// obs.hpp/obs.cpp); kNoShard outside an engine shard scope. Declared here
/// so RunTracer::record can stamp it without a header cycle.
[[nodiscard]] std::uint64_t current_shard() noexcept;

/// "no value" sentinel for TraceRecord::count.
inline constexpr std::uint64_t kNoCount = std::numeric_limits<std::uint64_t>::max();

/// "no shard" sentinel for TraceRecord::shard / ObsContext::shard.
inline constexpr std::uint64_t kNoShard = std::numeric_limits<std::uint64_t>::max();

/// One structured trace entry. Fields without a meaning for the record's
/// kind keep their sentinel defaults and are omitted from the JSONL line.
struct TraceRecord {
  std::uint64_t seq = 0;  ///< assigned by the tracer, strictly increasing
  Time time = 0.0;
  TraceKind kind = TraceKind::kArrival;
  ItemId item = kNoItem;
  BinId bin = kNoBin;
  double size = -1.0;             ///< item size / GPU fraction; < 0 = absent
  std::uint64_t count = kNoCount;  ///< kind-specific count (see TraceKind)
  double ms = -1.0;               ///< timing payload (kOptPhase); < 0 = absent
  std::uint64_t shard = kNoShard;  ///< engine shard attribution; see obs.hpp
  std::string label;              ///< kind-specific detail; empty = absent
};

class RunTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 18;  // ~256k records

  explicit RunTracer(std::size_t capacity = kDefaultCapacity);

  /// Appends a record (thread-safe); assigns its sequence number. The
  /// oldest record is dropped once the ring is full.
  void record(TraceRecord record);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  /// Records evicted by the ring so far.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Records ever submitted (= size() + dropped()).
  [[nodiscard]] std::uint64_t total_recorded() const;

  /// Buffer contents in sequence order (oldest surviving record first).
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  /// Writes one "trace_meta" header line followed by one JSON object per
  /// record. `include_timings` = false omits the "ms" field, making traces
  /// byte-comparable across runs whose only difference is wall-clock noise
  /// (the determinism tests diff traces this way).
  void export_jsonl(std::ostream& out, bool include_timings = true) const;

  /// Drops all records (capacity and sequence numbering are kept).
  void clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceRecord> ring_;  // ring_[ (first_ + i) % capacity_ ]
  std::size_t first_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace dbp::obs
