// Deterministic fault vocabulary for chaos experiments: seeded, reproducible
// schedules of bin crashes and event-stream anomalies, and the one admission
// check that refuses anomalous events (docs/fault_model.md).
//
// A FaultPlan is algorithm-independent: crash *targets* are selection
// policies ("the fullest open bin") resolved against the packer's live bin
// state at injection time, so one plan is comparable across algorithms.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.hpp"

namespace dbp {

/// Which open bin a crash fault takes down, resolved at injection time.
/// Ties (equal levels) break toward the lowest BinId so selection is
/// deterministic for every policy.
enum class CrashTarget : std::uint8_t {
  kFullest,   ///< highest level — the adversarial choice (most re-dispatch)
  kEmptiest,  ///< lowest level among open bins
  kOldest,    ///< lowest BinId (earliest opened)
  kNewest,    ///< highest BinId (latest opened; hits MFF's fresh dedications)
  kRandom,    ///< uniform over open bins, drawn from the plan's seeded stream
};

[[nodiscard]] const char* to_string(CrashTarget target) noexcept;

/// A server/bin crash at `time`: the victim's cost accrual stops and its
/// live items are re-injected as fresh arrivals (re-dispatch, no migration).
struct CrashFault {
  Time time = 0.0;
  CrashTarget target = CrashTarget::kFullest;

  friend bool operator==(const CrashFault&, const CrashFault&) = default;
};

/// Event-stream anomalies: malformed events injected into the feed. A
/// correct consumer must reject every one of them without corrupting state.
enum class AnomalyKind : std::uint8_t {
  kDuplicateStart = 0,     ///< arrival of an already-active session id
  kUnknownSessionEnd = 1,  ///< departure of an id that was never started
  kOutOfOrderTimestamp = 2,///< event timestamped before the stream's clock
  kNaNSize = 3,            ///< arrival with a NaN size
  kNegativeSize = 4,       ///< arrival with a negative size
};

inline constexpr std::size_t kAnomalyKindCount = 5;

[[nodiscard]] const char* to_string(AnomalyKind kind) noexcept;

struct AnomalyFault {
  Time time = 0.0;
  AnomalyKind kind = AnomalyKind::kDuplicateStart;

  friend bool operator==(const AnomalyFault&, const AnomalyFault&) = default;
};

/// A reproducible fault schedule. Identical (plan, instance, algorithm)
/// triples replay bit-identically; `seed` drives every in-plan random
/// choice (kRandom victims, anomaly payloads).
///
/// Ordering contract: a fault at time t fires after *every* instance event
/// with time <= t (departures and arrivals at t included), so a crash
/// scheduled at an arrival's timestamp sees the just-placed item. Anomalies
/// fire before crashes scheduled at the same instant; within one kind,
/// vector order is preserved.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<CrashFault> crashes;      ///< non-decreasing in time
  std::vector<AnomalyFault> anomalies;  ///< non-decreasing in time

  [[nodiscard]] bool empty() const noexcept {
    return crashes.empty() && anomalies.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return crashes.size() + anomalies.size();
  }

  /// Throws PreconditionError unless times are finite and non-decreasing.
  void validate() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Why an event or a session was refused. GameServerDispatcher and
/// simulate_faulted share this vocabulary; trace labels and the
/// dispatcher.rejected.* metric names are its to_string() strings.
enum class DispatchErrorKind : std::uint8_t {
  kDuplicateStart,     ///< start_session with an already-active session id
  kUnknownSession,     ///< end_session with an id that was never started
  kTimeOrderViolation, ///< event timestamped before an earlier event
  kInvalidSize,        ///< NaN / non-positive / over-capacity GPU fraction
  kUnknownServer,      ///< fail_server on an id that is not an active server
  kRentalFailed,       ///< every rental attempt failed (provider outage)
  kFleetCapExceeded,   ///< fleet cap hit and shedding could not make room
  kInvalidSessionId,   ///< start with kNoItem (2^64 - 1), the packer's sentinel
};

[[nodiscard]] const char* to_string(DispatchErrorKind kind) noexcept;

// The admission check: the first rule an event breaks, in the order clock,
// size, id, membership, or std::nullopt to admit it. `clock` is the time of
// the last accepted event; `active` says whether the event's id is resident.

/// The clock rule (fail_server's too): `t` is finite and not before `clock`.
[[nodiscard]] inline bool breaks_clock(Time clock, Time t) noexcept {
  return !std::isfinite(t) || t < clock;
}

/// A start needs a finite positive size that fits an empty bin of `model`
/// and an id that is neither kNoItem nor active.
[[nodiscard]] inline std::optional<DispatchErrorKind> check_start(
    Time clock, ItemId id, double size, Time t, const CostModel& model,
    bool active) noexcept {
  if (breaks_clock(clock, t)) return DispatchErrorKind::kTimeOrderViolation;
  if (!std::isfinite(size) || size <= 0.0 || !model.fits(size, model.bin_capacity)) {
    return DispatchErrorKind::kInvalidSize;
  }
  if (id == kNoItem) return DispatchErrorKind::kInvalidSessionId;
  if (active) return DispatchErrorKind::kDuplicateStart;
  return std::nullopt;
}

/// An end needs an active id.
[[nodiscard]] inline std::optional<DispatchErrorKind> check_end(
    Time clock, Time t, bool active) noexcept {
  if (breaks_clock(clock, t)) return DispatchErrorKind::kTimeOrderViolation;
  if (!active) return DispatchErrorKind::kUnknownSession;
  return std::nullopt;
}

}  // namespace dbp
