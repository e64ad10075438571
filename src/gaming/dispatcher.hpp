// The cloud-gaming request dispatcher: the application the paper's
// MinTotal DBP model was built for (Section 1).
//
// Game servers are rented virtual machines billed per unit of running time
// (the bins, cost rate = hourly price); play sessions are the items (size =
// the game's GPU fraction); dispatch decisions are online and sessions
// never migrate.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "algo/packer.hpp"
#include "analysis/ratio.hpp"
#include "core/types.hpp"
#include "gaming/fault_policy.hpp"
#include "gaming/session_table.hpp"
#include "workload/cloud_gaming.hpp"
#include "workload/rng.hpp"

namespace dbp {

/// The rented server type. All servers are identical, mirroring the paper's
/// uniform-bin assumption.
struct ServerSpec {
  double gpu_capacity = 1.0;     ///< bin capacity W (1.0 = one full GPU)
  double price_per_hour = 1.0;   ///< rental price (cost rate C), $/hour

  [[nodiscard]] CostModel to_cost_model() const;
};

/// Where an active session runs and what it needs.
struct ActiveSession {
  BinId server = 0;
  double gpu_fraction = 0.0;
};

/// A session degraded mode sheds to make room under the fleet cap.
struct ShedVictim {
  std::uint64_t session = 0;
  ItemId slot = 0;
  double size = 0.0;
};

/// Online dispatcher facade: feed it session starts/ends in time order and
/// it maintains the rented server fleet via the chosen packing algorithm.
///
/// Session ids are opaque 64-bit client values. The dispatcher's
/// SessionTable maps each active id to a dense slot, and the packer sees
/// only slots, so memory follows the active sessions, not the largest id.
/// Client ids stay at the edges: the admission check, shedding's and crash
/// re-dispatch's id order, the dispatcher's trace records and save_state.
///
/// Anomalous events (duplicate starts, unknown ends, time travel, invalid
/// sizes, the reserved id 2^64-1) are rejected up front by the admission
/// check in core/fault.hpp with a typed DispatchError — before any packing
/// state changes — or counted and dropped, per the FaultPolicy.
class GameServerDispatcher {
 public:
  /// `algorithm` is any algo/factory.hpp name; "first-fit" and
  /// "modified-first-fit" are the theoretically safe choices (Theorems 4-5;
  /// Best Fit is provably unbounded, Theorem 2).
  GameServerDispatcher(ServerSpec spec, const std::string& algorithm,
                       const PackerOptions& options = {},
                       const FaultPolicy& policy = {});

  /// Dispatches a session needing `gpu_fraction` of a server at time
  /// `now_minutes`; returns the server id (a fresh id when a new server is
  /// rented). Times must be non-decreasing across calls. Under
  /// AnomalyAction::kDropAndCount a rejected event returns kNoServer
  /// instead of throwing.
  BinId start_session(std::uint64_t session_id, double gpu_fraction,
                      Time now_minutes);

  /// Ends a session; its server is released (and returned to the provider)
  /// when its last session ends.
  void end_session(std::uint64_t session_id, Time now_minutes);

  /// Simulates a crash of `server` at `now_minutes`: the server's rental
  /// ends immediately and its orphaned sessions are re-dispatched as fresh
  /// arrivals (no migration — they may land on newly rented servers).
  /// Returns the number of sessions successfully re-dispatched; orphans
  /// whose re-dispatch is rejected (cap/rental failure) are dropped and
  /// counted in fault_stats().sessions_lost_on_crash.
  std::size_t fail_server(BinId server, Time now_minutes);

  [[nodiscard]] std::size_t active_servers() const;
  [[nodiscard]] std::size_t servers_ever_rented() const;
  [[nodiscard]] std::size_t active_sessions() const;

  /// The server and GPU fraction of an active session; std::nullopt for
  /// any other id. A departed session's server is not remembered.
  [[nodiscard]] std::optional<ActiveSession> find_session(
      std::uint64_t session_id) const;

  /// The session table (id -> slot) the packer's items are indexed by.
  [[nodiscard]] const SessionTable& sessions() const noexcept { return sessions_; }

  /// The dispatcher's event clock: the time of the last accepted event
  /// (-inf before any event). Read-only probes may use earlier times.
  [[nodiscard]] Time last_event_time() const noexcept { return last_event_time_; }

  /// Writes the active sessions' GPU fractions into `out` unsorted: bin by
  /// bin in opening order, each bin's residents in the packer's order.
  /// `out.size()` must equal active_sessions(). engine::ShardedDispatchEngine
  /// collects every shard's sizes into one buffer and sorts it once to build
  /// its RLE size-multiset snapshot (opt/rle.hpp).
  void active_sizes(std::span<double> out) const;

  /// active_sizes() sorted non-increasing: the order of save_state()'s RLE
  /// cross-check.
  void active_sizes_desc(std::span<double> out) const;

  /// Total rental bill accrued by time `now_minutes` (includes the open
  /// tails of still-running servers). Probing earlier than the event clock
  /// is legal: rentals are clipped to (-inf, now_minutes], so a server that
  /// opened after the probe contributes exactly zero dollars — never a
  /// negative tail — and closed rentals bill only the part before the probe.
  [[nodiscard]] double rental_cost_dollars(Time now_minutes) const;

  [[nodiscard]] const std::string& algorithm() const noexcept { return algorithm_; }
  [[nodiscard]] const ServerSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const FaultPolicy& fault_policy() const noexcept { return policy_; }
  [[nodiscard]] const DispatcherFaultStats& fault_stats() const noexcept {
    return stats_;
  }

  /// Read access to the underlying packer's bin state (servers = bins).
  /// Its item ids are session slots, not session ids (sessions()).
  [[nodiscard]] const BinManager& bins() const noexcept { return packer_->bins(); }

  /// True when the configured algorithm's packer can checkpoint bit-exactly.
  [[nodiscard]] bool snapshot_supported() const {
    return packer_->snapshot_supported();
  }

  /// Serializes the complete dispatcher state, self-describing: the
  /// algorithm name, the server spec, the packer options and the fault
  /// policy, then the packer snapshot (whose active items are the sessions'
  /// slots), an RLE size-multiset cross-check of the active sessions, fault
  /// statistics (including the retry/backoff accumulators), the rental RNG
  /// *position*, the event clock, and last the session table as (slot, id)
  /// pairs in slot order. Requires snapshot_supported().
  void save_state(ByteWriter& out) const;

  /// Builds the dispatcher that save_state() bytes name and restores its
  /// state; it continues the interrupted run bit-identically. Throws
  /// CorruptionError for bytes that name a dispatcher that cannot be built
  /// (an algorithm make_packer refuses or that cannot snapshot, a spec or
  /// options the constructor refuses, a policy FaultPolicy::validate()
  /// refuses) and for inconsistent state, including a session table that
  /// repeats an id, holds 2^64-1, or does not name exactly the packer's
  /// active slots. Leaves `in` after the state; the caller checks the end.
  [[nodiscard]] static GameServerDispatcher from_state(ByteReader& in);

 private:
  /// Refusal: bumps `counter`, then throws DispatchError (kThrow) or
  /// returns (kDropAndCount).
  void reject(DispatchErrorKind kind, std::uint64_t& counter,
              const std::string& message);
  /// True when placing a session of `gpu_fraction` needs a rental that the
  /// policy could refuse: a fleet cap or a flaky provider is configured and
  /// the packer would open a server for it (Packer::would_open_bin).
  [[nodiscard]] bool needs_rental(double gpu_fraction) const;
  /// The rental gate shared by start_session and fail_server re-dispatch,
  /// run when needs_rental(): sheds for a capped fleet, retries a flaky
  /// provider, and returns false after rejecting the session.
  bool admit_rental(std::uint64_t session_id, double gpu_fraction,
                    Time now_minutes);
  /// Hands an admitted session's slot to the packer; returns its server.
  BinId place(ItemId slot, double gpu_fraction, Time now_minutes);
  /// True when `packer` would rent a server for `gpu_fraction` while the
  /// fleet is at its cap.
  [[nodiscard]] bool cap_blocks(const Packer& packer, double gpu_fraction) const;
  /// The sessions to shed, in order, so that the packer needs no new server
  /// for `gpu_fraction` or the fleet drops below the cap: active sessions
  /// strictly smaller than `gpu_fraction`, lowest first, ties to the lowest
  /// session id. Found by a trial run on a copy of the packer (its
  /// snapshot); empty when shedding cannot make room. The dispatcher's
  /// state does not change.
  [[nodiscard]] std::vector<ShedVictim> trial_shed(double gpu_fraction,
                                                   Time now_minutes) const;
  /// Degraded mode: sheds the sessions trial_shed names, if any.
  void shed_for(double gpu_fraction, Time now_minutes);

  ServerSpec spec_;
  std::string algorithm_;
  PackerOptions options_;
  FaultPolicy policy_;
  DispatcherFaultStats stats_;
  /// Active session id -> slot; the packer's items are the slots.
  SessionTable sessions_;
  std::unique_ptr<Packer> packer_;
  Rng rental_rng_;
  Time last_event_time_ = -kTimeInfinity;
};

/// Offline comparison over a full trace: every algorithm's rental bill next
/// to the certified minimum-possible bill.
struct DispatchReport {
  std::string algorithm;
  double total_dollars = 0.0;
  double server_hours = 0.0;
  std::size_t servers_rented = 0;
  std::int64_t peak_servers = 0;
  /// GPU-hours demanded / GPU-hours rented: fleet utilization in (0, 1].
  double utilization = 0.0;
  /// total bill / optimal-bill interval.
  RatioBounds overspend{};
};

struct DispatchComparison {
  std::vector<DispatchReport> reports;
  double optimal_dollars_lower = 0.0;
  double optimal_dollars_upper = 0.0;
  InstanceMetrics metrics{};
};

[[nodiscard]] DispatchComparison compare_dispatch_algorithms(
    const CloudGamingTrace& trace, const std::vector<std::string>& algorithms,
    const ServerSpec& spec);

}  // namespace dbp
