// Failure handling for the cloud-gaming dispatcher: typed rejection of
// anomalous events, bounded rental retry with exponential backoff, and
// degraded-mode load shedding under a fleet cap (docs/fault_model.md).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "core/binary_io.hpp"
#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/types.hpp"

namespace dbp {

/// Typed dispatcher rejection. Derives from PreconditionError so existing
/// callers that catch the library's precondition failures keep working,
/// while new callers can switch on kind() instead of parsing messages.
class DispatchError : public PreconditionError {
 public:
  DispatchError(DispatchErrorKind kind, const std::string& what)
      : PreconditionError(what), kind_(kind) {}

  [[nodiscard]] DispatchErrorKind kind() const noexcept { return kind_; }

 private:
  DispatchErrorKind kind_;
};

/// Sentinel returned by start_session when the event was dropped under
/// FaultPolicy::AnomalyAction::kDropAndCount (never a real server id).
inline constexpr BinId kNoServer = std::numeric_limits<BinId>::max();

/// How the dispatcher reacts to anomalies and infrastructure failures.
/// The default policy reproduces the strict historical behavior: throw on
/// every anomaly, never fail a rental, no fleet cap.
struct FaultPolicy {
  enum class AnomalyAction : std::uint8_t {
    kThrow,         ///< raise DispatchError (strict mode)
    kDropAndCount,  ///< swallow the event, bump the per-category counter
  };

  AnomalyAction on_anomaly = AnomalyAction::kThrow;

  /// Simulated probability that one rental attempt fails (provider-side
  /// error). Drawn from a stream seeded by `seed`, so runs are reproducible.
  double rental_failure_rate = 0.0;
  /// Retries after the first failed attempt; the session is rejected with
  /// kRentalFailed once 1 + max_rental_retries attempts have failed.
  int max_rental_retries = 3;
  /// Backoff before retry i (0-based) is backoff_base_minutes * 2^i; the
  /// total wait is recorded in DispatcherFaultStats::backoff_minutes.
  double backoff_base_minutes = 0.5;

  /// Degraded mode: when > 0, renting beyond this many concurrently-active
  /// servers is forbidden. An arrival that needs a new server with the cap
  /// hit sheds strictly smaller active sessions (lowest GPU fraction
  /// first) until it fits or is rejected with kFleetCapExceeded. 0 = no cap.
  std::size_t max_fleet_servers = 0;

  std::uint64_t seed = 0x51ED2706C2BA7A6DULL;

  /// Throws PreconditionError unless the policy is usable.
  void validate() const;
};

/// The policy's encoding in GameServerDispatcher::save_state: its six fields
/// in declaration order.
void write_fault_policy(ByteWriter& out, const FaultPolicy& policy);

/// Reads write_fault_policy() bytes; throws CorruptionError on an unknown
/// anomaly action or an implausible retry count.
[[nodiscard]] FaultPolicy read_fault_policy(ByteReader& in);

/// Per-category counters of everything the fault policy absorbed. Counters
/// advance in both kThrow and kDropAndCount modes (a thrown anomaly is
/// still an observed anomaly).
struct DispatcherFaultStats {
  std::uint64_t duplicate_starts = 0;
  std::uint64_t unknown_ends = 0;
  std::uint64_t unknown_servers = 0;
  std::uint64_t time_order_violations = 0;
  std::uint64_t invalid_sizes = 0;
  /// Starts refused because their id is kNoItem (2^64 - 1).
  std::uint64_t invalid_session_ids = 0;
  /// Individual rental attempts that failed (includes retried ones).
  std::uint64_t rental_attempts_failed = 0;
  /// Sessions rejected after the retry budget was exhausted.
  std::uint64_t sessions_rejected_rental = 0;
  /// Sessions rejected because shedding could not make room under the cap.
  std::uint64_t sessions_rejected_cap = 0;
  /// Sessions forcibly ended by degraded-mode shedding.
  std::uint64_t sessions_shed = 0;
  /// Orphans successfully re-dispatched after fail_server.
  std::uint64_t sessions_redispatched = 0;
  /// Orphans lost because re-dispatch was itself rejected.
  std::uint64_t sessions_lost_on_crash = 0;
  std::uint64_t servers_crashed = 0;
  /// Total simulated exponential-backoff wait across all rentals.
  double backoff_minutes = 0.0;

  [[nodiscard]] std::uint64_t total_dropped_events() const noexcept {
    return duplicate_starts + unknown_ends + time_order_violations +
           invalid_sizes + invalid_session_ids;
  }

  /// Exact field equality, including the accumulated backoff_minutes double
  /// bit-for-bit — the recovery differential asserts a restored dispatcher's
  /// stats equal an uninterrupted run's.
  friend bool operator==(const DispatcherFaultStats&,
                         const DispatcherFaultStats&) = default;
};

}  // namespace dbp
