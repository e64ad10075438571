#include "gaming/fault_policy.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "core/error.hpp"
#include "gaming/dispatcher.hpp"
#include "obs/obs.hpp"
#include "workload/rng.hpp"

namespace dbp {
namespace {

ServerSpec basic_spec() { return ServerSpec{1.0, 6.0}; }  // $6/hour

FaultPolicy drop_policy() {
  FaultPolicy policy;
  policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  return policy;
}

/// Runs `call`, asserts it throws DispatchError of the expected kind and
/// that the message contains `needle` (e.g. the offending session id).
template <typename Call>
void expect_dispatch_error(Call&& call, DispatchErrorKind kind,
                           const std::string& needle) {
  try {
    call();
    FAIL() << "expected DispatchError " << to_string(kind);
  } catch (const DispatchError& error) {
    EXPECT_EQ(error.kind(), kind) << error.what();
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "message '" << error.what() << "' lacks '" << needle << "'";
  }
}

TEST(FaultPolicyTest, ValidateRejectsBadParameters) {
  FaultPolicy rate;
  rate.rental_failure_rate = 1.5;
  EXPECT_THROW(rate.validate(), PreconditionError);
  FaultPolicy retries;
  retries.max_rental_retries = -1;
  EXPECT_THROW(retries.validate(), PreconditionError);
  FaultPolicy backoff;
  backoff.backoff_base_minutes = -0.5;
  EXPECT_THROW(backoff.validate(), PreconditionError);
  EXPECT_NO_THROW(FaultPolicy{}.validate());
}

// Satellite (b): duplicate starts and unknown ends raise typed errors that
// name the offending session id.
TEST(DispatchErrorTest, DuplicateStartCarriesKindAndId) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(7042, 0.5, 0.0);
  expect_dispatch_error(
      [&] { dispatcher.start_session(7042, 0.5, 1.0); },
      DispatchErrorKind::kDuplicateStart, "7042");
  // The rejection must not have corrupted state.
  EXPECT_EQ(dispatcher.active_sessions(), 1u);
  EXPECT_EQ(dispatcher.fault_stats().duplicate_starts, 1u);
}

TEST(DispatchErrorTest, UnknownEndCarriesKindAndId) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.5, 0.0);
  expect_dispatch_error([&] { dispatcher.end_session(9931, 1.0); },
                        DispatchErrorKind::kUnknownSession, "9931");
  EXPECT_EQ(dispatcher.fault_stats().unknown_ends, 1u);
}

// Satellite (b): the non-decreasing-time contract is enforced on every
// entry point, and remains a PreconditionError for legacy catch sites.
TEST(DispatchErrorTest, TimeOrderViolationsAreTyped) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.5, 10.0);
  expect_dispatch_error([&] { dispatcher.start_session(2, 0.5, 5.0); },
                        DispatchErrorKind::kTimeOrderViolation, "2");
  expect_dispatch_error([&] { dispatcher.end_session(1, 5.0); },
                        DispatchErrorKind::kTimeOrderViolation, "1");
  expect_dispatch_error([&] { dispatcher.fail_server(BinId{0}, 5.0); },
                        DispatchErrorKind::kTimeOrderViolation, "5");
  EXPECT_EQ(dispatcher.fault_stats().time_order_violations, 3u);
  // DispatchError IS-A PreconditionError (legacy compatibility).
  EXPECT_THROW(dispatcher.end_session(1, 5.0), PreconditionError);
}

TEST(DispatchErrorTest, InvalidSizesAreTyped) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_dispatch_error([&] { dispatcher.start_session(1, nan, 0.0); },
                        DispatchErrorKind::kInvalidSize, "1");
  expect_dispatch_error([&] { dispatcher.start_session(2, -0.5, 0.0); },
                        DispatchErrorKind::kInvalidSize, "2");
  expect_dispatch_error([&] { dispatcher.start_session(3, 0.0, 0.0); },
                        DispatchErrorKind::kInvalidSize, "3");
  expect_dispatch_error([&] { dispatcher.start_session(4, 1.5, 0.0); },
                        DispatchErrorKind::kInvalidSize, "4");
  EXPECT_EQ(dispatcher.fault_stats().invalid_sizes, 4u);
}

// The session id 2^64 - 1 is kNoItem, the packer's list terminator: placing
// it would wrap the packer's item table to zero slots and write past its
// end, so the admission check refuses it before the packer sees it.
TEST(DispatchErrorTest, ReservedSessionIdIsTyped) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(5, 0.5, 0.0);
  expect_dispatch_error([&] { dispatcher.start_session(kNoItem, 0.5, 1.0); },
                        DispatchErrorKind::kInvalidSessionId,
                        "18446744073709551615");
  EXPECT_EQ(dispatcher.fault_stats().invalid_session_ids, 1u);
  EXPECT_EQ(dispatcher.fault_stats().total_dropped_events(), 1u);
  EXPECT_STREQ(to_string(DispatchErrorKind::kInvalidSessionId), "invalid-session-id");
  EXPECT_EQ(dispatcher.active_sessions(), 1u);
  dispatcher.end_session(5, 2.0);
  EXPECT_EQ(dispatcher.active_sessions(), 0u);
}

TEST(FaultPolicyTest, ReservedSessionIdIsDroppedAndCounted) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit", {}, drop_policy());
  const BinId server = dispatcher.start_session(5, 0.5, 0.0);
  EXPECT_EQ(dispatcher.start_session(kNoItem, 0.5, 1.0), kNoServer);
  const DispatcherFaultStats& stats = dispatcher.fault_stats();
  EXPECT_EQ(stats.invalid_session_ids, 1u);
  EXPECT_EQ(stats.total_dropped_events(), 1u);
  // Nothing changed: one session on one server, and the clock stays at t=0.
  EXPECT_EQ(dispatcher.active_sessions(), 1u);
  EXPECT_EQ(dispatcher.active_servers(), 1u);
  EXPECT_EQ(dispatcher.servers_ever_rented(), 1u);
  EXPECT_EQ(dispatcher.last_event_time(), 0.0);
  ASSERT_TRUE(dispatcher.find_session(5).has_value());
  EXPECT_EQ(dispatcher.find_session(5)->gpu_fraction, 0.5);
  EXPECT_EQ(dispatcher.find_session(5)->server, server);
  EXPECT_FALSE(dispatcher.find_session(kNoItem).has_value());
  // The later end of session 5 is served and closes its server at t=2.
  dispatcher.end_session(5, 2.0);
  EXPECT_EQ(dispatcher.active_sessions(), 0u);
  EXPECT_EQ(dispatcher.bins().usage(server).closed, 2.0);
}

TEST(FaultPolicyTest, DropAndCountReturnsSentinelInsteadOfThrowing) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit", {}, drop_policy());
  const BinId server = dispatcher.start_session(1, 0.5, 0.0);
  EXPECT_NE(server, kNoServer);
  EXPECT_EQ(dispatcher.start_session(1, 0.5, 1.0), kNoServer);  // duplicate
  EXPECT_EQ(dispatcher.start_session(2, -1.0, 2.0), kNoServer); // bad size
  // Dropped events never advance the clock, so the reference time for the
  // violation below is still t=0.
  EXPECT_EQ(dispatcher.start_session(3, 0.5, -1.0), kNoServer); // time travel
  EXPECT_NO_THROW(dispatcher.end_session(777, 3.0));            // unknown id
  const DispatcherFaultStats& stats = dispatcher.fault_stats();
  EXPECT_EQ(stats.duplicate_starts, 1u);
  EXPECT_EQ(stats.invalid_sizes, 1u);
  EXPECT_EQ(stats.time_order_violations, 1u);
  EXPECT_EQ(stats.unknown_ends, 1u);
  EXPECT_EQ(stats.total_dropped_events(), 4u);
  // The dispatcher keeps working after the dropped garbage.
  EXPECT_EQ(dispatcher.active_sessions(), 1u);
  EXPECT_NE(dispatcher.start_session(4, 0.5, 4.0), kNoServer);
  EXPECT_EQ(dispatcher.active_sessions(), 2u);
}

TEST(FaultPolicyTest, FailServerRedispatchesOrphans) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  const BinId server = dispatcher.start_session(1, 0.4, 0.0);
  EXPECT_EQ(dispatcher.start_session(2, 0.4, 1.0), server);
  const std::size_t redispatched = dispatcher.fail_server(server, 30.0);
  EXPECT_EQ(redispatched, 2u);
  // Both sessions survived the crash on a freshly rented server.
  EXPECT_EQ(dispatcher.active_sessions(), 2u);
  EXPECT_EQ(dispatcher.active_servers(), 1u);
  EXPECT_EQ(dispatcher.servers_ever_rented(), 2u);
  const DispatcherFaultStats& stats = dispatcher.fault_stats();
  EXPECT_EQ(stats.servers_crashed, 1u);
  EXPECT_EQ(stats.sessions_redispatched, 2u);
  EXPECT_EQ(stats.sessions_lost_on_crash, 0u);
  dispatcher.end_session(1, 60.0);
  dispatcher.end_session(2, 60.0);
  // Bill: crashed server [0, 30) + replacement [30, 60) = 1 hour = $6.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(60.0), 6.0);
}

TEST(FaultPolicyTest, FailServerRejectsUnknownServer) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.4, 0.0);
  expect_dispatch_error([&] { dispatcher.fail_server(BinId{42}, 1.0); },
                        DispatchErrorKind::kUnknownServer, "42");
  EXPECT_EQ(dispatcher.fault_stats().unknown_servers, 1u);
  // A crashed server is no longer active: failing it again is unknown.
  const BinId server = BinId{0};
  dispatcher.fail_server(server, 2.0);
  expect_dispatch_error([&] { dispatcher.fail_server(server, 3.0); },
                        DispatchErrorKind::kUnknownServer, "0");
}

TEST(FaultPolicyTest, FleetCapShedsSmallerSessions) {
  FaultPolicy policy = drop_policy();
  policy.max_fleet_servers = 1;
  GameServerDispatcher dispatcher(basic_spec(), "first-fit", {}, policy);
  dispatcher.start_session(1, 0.3, 0.0);
  dispatcher.start_session(2, 0.3, 1.0);
  EXPECT_EQ(dispatcher.active_servers(), 1u);
  // 0.9 fits nowhere; renting a second server is forbidden by the cap, so
  // both smaller sessions are shed to make room.
  EXPECT_NE(dispatcher.start_session(3, 0.9, 2.0), kNoServer);
  EXPECT_EQ(dispatcher.active_sessions(), 1u);
  EXPECT_EQ(dispatcher.active_servers(), 1u);
  EXPECT_EQ(dispatcher.fault_stats().sessions_shed, 2u);
  // Now a small arrival cannot shed the bigger resident: rejected.
  EXPECT_EQ(dispatcher.start_session(4, 0.5, 3.0), kNoServer);
  EXPECT_EQ(dispatcher.fault_stats().sessions_rejected_cap, 1u);
  EXPECT_EQ(dispatcher.active_sessions(), 1u);
}

TEST(FaultPolicyTest, FleetCapShedsNothingWhenSheddingCannotMakeRoom) {
  FaultPolicy policy = drop_policy();
  policy.max_fleet_servers = 1;
  for (const char* algorithm :
       {"first-fit", "best-fit", "worst-fit", "last-fit", "next-fit"}) {
    SCOPED_TRACE(algorithm);
    GameServerDispatcher dispatcher(basic_spec(), algorithm, {}, policy);
    dispatcher.start_session(1, 0.6, 0.0);
    dispatcher.start_session(2, 0.1, 1.0);
    dispatcher.start_session(3, 0.1, 2.0);
    ASSERT_EQ(dispatcher.active_servers(), 1u);
    // Without both 0.1 sessions the server still holds 0.6, so 0.5 cannot
    // join it: the start is refused and nobody is shed for it.
    EXPECT_EQ(dispatcher.start_session(4, 0.5, 3.0), kNoServer);
    EXPECT_EQ(dispatcher.fault_stats().sessions_shed, 0u);
    EXPECT_EQ(dispatcher.fault_stats().sessions_rejected_cap, 1u);
    EXPECT_EQ(dispatcher.active_sessions(), 3u);
    for (std::uint64_t id = 1; id <= 3; ++id) {
      EXPECT_TRUE(dispatcher.find_session(id).has_value()) << "session " << id;
    }
  }
}

TEST(FaultPolicyTest, FleetCapShedsEverySessionItTakesToMakeRoom) {
  FaultPolicy policy = drop_policy();
  policy.max_fleet_servers = 1;
  GameServerDispatcher dispatcher(basic_spec(), "first-fit", {}, policy);
  dispatcher.start_session(1, 0.6, 0.0);
  dispatcher.start_session(2, 0.2, 1.0);
  dispatcher.start_session(3, 0.1, 2.0);
  // Shedding 0.1 leaves 0.8 in use; shedding 0.2 as well makes room.
  EXPECT_EQ(dispatcher.start_session(4, 0.3, 3.0), BinId{0});
  EXPECT_EQ(dispatcher.fault_stats().sessions_shed, 2u);
  EXPECT_EQ(dispatcher.fault_stats().sessions_rejected_cap, 0u);
  EXPECT_FALSE(dispatcher.find_session(2).has_value());
  EXPECT_FALSE(dispatcher.find_session(3).has_value());
  EXPECT_TRUE(dispatcher.find_session(1).has_value());
  EXPECT_TRUE(dispatcher.find_session(4).has_value());
}

TEST(FaultPolicyTest, FleetCapShedsLowestFirstTiesToTheLowestId) {
  FaultPolicy policy = drop_policy();
  policy.max_fleet_servers = 1;
  GameServerDispatcher dispatcher(basic_spec(), "first-fit", {}, policy);
  obs::RunTracer tracer;
  const obs::ObsScope scope(&tracer, nullptr);
  dispatcher.start_session(1, 0.5, 0.0);
  dispatcher.start_session(4, 0.1, 1.0);
  dispatcher.start_session(3, 0.1, 2.0);
  dispatcher.start_session(2, 0.2, 3.0);
  // 0.15 needs one 0.1 gone: of the two, session 3 goes, although 4
  // started first.
  EXPECT_EQ(dispatcher.start_session(5, 0.15, 4.0), BinId{0});
  EXPECT_FALSE(dispatcher.find_session(3).has_value());
  EXPECT_TRUE(dispatcher.find_session(4).has_value());
  // 0.28 needs 0.25 freed: 0.1 (session 4), then 0.15 (session 5); the
  // 0.2 of session 2 stays.
  EXPECT_EQ(dispatcher.start_session(6, 0.28, 5.0), BinId{0});
  EXPECT_EQ(dispatcher.fault_stats().sessions_shed, 3u);
  EXPECT_EQ(dispatcher.fault_stats().sessions_rejected_cap, 0u);
  for (const std::uint64_t id : {1, 2, 6}) {
    EXPECT_TRUE(dispatcher.find_session(id).has_value()) << "session " << id;
  }
  EXPECT_EQ(dispatcher.active_sessions(), 3u);

  // Each victim is traced once, in the order it was shed, with its size.
  std::vector<std::uint64_t> shed_ids;
  std::vector<double> shed_sizes;
  for (const obs::TraceRecord& record : tracer.snapshot()) {
    if (record.kind != obs::TraceKind::kSessionShed) continue;
    shed_ids.push_back(record.item);
    shed_sizes.push_back(record.size);
  }
  EXPECT_EQ(shed_ids, (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(shed_sizes, (std::vector<double>{0.1, 0.1, 0.15}));
}

/// Every registered packer; known_mu lets the semi-online MFF build.
PackerOptions every_packer_options() {
  PackerOptions options;
  options.known_mu = 4.0;
  return options;
}

/// Packers that rent a server while another open server has room: Next Fit
/// (only its current bin is a candidate) and the size-classed packers (only
/// the session's own class pool is).
const std::set<std::string>& own_rule_packers() {
  static const std::set<std::string> names{
      "next-fit", "modified-first-fit", "modified-first-fit-known-mu",
      "adaptive-mff", "harmonic-first-fit"};
  return names;
}

/// Starts of 0.5, 0.6, 0.45 and 0.05 at t = 0..3: First Fit needs two
/// servers, while Next Fit and the size-classed packers each want a third
/// (Harmonic a fourth) although server 0 has room for the last two.
constexpr double kFourStarts[] = {0.5, 0.6, 0.45, 0.05};

TEST(FaultPolicyTest, FleetCapBindsEveryPacker) {
  FaultPolicy policy = drop_policy();
  policy.max_fleet_servers = 2;
  for (const std::string& algorithm : all_algorithm_names()) {
    SCOPED_TRACE(algorithm);
    GameServerDispatcher dispatcher(basic_spec(), algorithm,
                                    every_packer_options(), policy);
    for (std::uint64_t id = 0; id < 4; ++id) {
      dispatcher.start_session(id, kFourStarts[id], static_cast<Time>(id));
      EXPECT_LE(dispatcher.active_servers(), 2u) << "after start " << id;
    }
    const DispatcherFaultStats& stats = dispatcher.fault_stats();
    if (own_rule_packers().count(algorithm) != 0) {
      EXPECT_GT(stats.sessions_rejected_cap + stats.sessions_shed, 0u);
    }
    if (algorithm == "first-fit") {
      EXPECT_EQ(dispatcher.active_servers(), 2u);
      EXPECT_EQ(dispatcher.active_sessions(), 4u);
      EXPECT_EQ(stats.sessions_rejected_cap + stats.sessions_shed, 0u);
    }
  }
}

TEST(FaultPolicyTest, FleetCapHoldsAfterEveryEventForEveryPacker) {
  for (const std::string& algorithm : all_algorithm_names()) {
    for (std::size_t cap = 2; cap <= 4; ++cap) {
      SCOPED_TRACE(algorithm + " cap=" + std::to_string(cap));
      FaultPolicy policy = drop_policy();
      policy.max_fleet_servers = cap;
      GameServerDispatcher dispatcher(basic_spec(), algorithm,
                                      every_packer_options(), policy);
      Rng rng(1000 + cap);
      std::vector<std::uint64_t> started;
      for (std::uint64_t id = 0; id < 600; ++id) {
        const Time now = static_cast<Time>(id);
        if (!started.empty() && rng.bernoulli(0.4)) {
          const std::size_t pick = rng.uniform_int(0, started.size() - 1);
          // A shed or rejected session's end is an unknown end: dropped.
          dispatcher.end_session(started[pick], now);
          started[pick] = started.back();
          started.pop_back();
        } else if (id % 50 == 49 && dispatcher.active_servers() > 0) {
          dispatcher.fail_server(dispatcher.bins().open_bins().front(), now);
        } else {
          dispatcher.start_session(id, rng.uniform(0.02, 0.7), now);
          started.push_back(id);
        }
        ASSERT_LE(dispatcher.active_servers(), cap) << "after event " << id;
      }
    }
  }
}

TEST(FaultPolicyTest, NoAdmissionShedsAndIsThenRefusedForTheCap) {
  // Each admission's records end in the arrival's placement or in its
  // refusal. A shed must be followed by a placement: shedding that cannot
  // make room sheds nothing. Crash re-dispatch admits orphans through the
  // same gate.
  std::uint64_t sheds = 0;
  std::uint64_t refusals = 0;
  for (const std::string& algorithm : all_algorithm_names()) {
    for (std::size_t cap = 1; cap <= 3; ++cap) {
      SCOPED_TRACE(algorithm + " cap=" + std::to_string(cap));
      FaultPolicy policy = drop_policy();
      policy.max_fleet_servers = cap;
      GameServerDispatcher dispatcher(basic_spec(), algorithm,
                                      every_packer_options(), policy);
      if (!dispatcher.snapshot_supported()) continue;
      obs::RunTracer tracer;
      const obs::ObsScope scope(&tracer, nullptr);
      Rng rng(2000 + cap);
      std::vector<std::uint64_t> started;
      for (std::uint64_t id = 0; id < 400; ++id) {
        const Time now = static_cast<Time>(id);
        if (!started.empty() && rng.bernoulli(0.35)) {
          const std::size_t pick = rng.uniform_int(0, started.size() - 1);
          dispatcher.end_session(started[pick], now);
          started[pick] = started.back();
          started.pop_back();
        } else if (id % 40 == 39 && dispatcher.active_servers() > 0) {
          dispatcher.fail_server(dispatcher.bins().open_bins().front(), now);
        } else {
          dispatcher.start_session(id, rng.uniform(0.02, 0.7), now);
          started.push_back(id);
        }
      }
      bool shedding = false;
      for (const obs::TraceRecord& record : tracer.snapshot()) {
        if (record.kind == obs::TraceKind::kSessionShed) {
          shedding = true;
        } else if (record.kind == obs::TraceKind::kArrival) {
          shedding = false;
        } else if (record.kind == obs::TraceKind::kDispatchReject &&
                   record.label == to_string(DispatchErrorKind::kFleetCapExceeded)) {
          EXPECT_FALSE(shedding) << "shed, then refused at t=" << record.time;
          shedding = false;
        }
      }
      ASSERT_EQ(tracer.dropped(), 0u);
      sheds += dispatcher.fault_stats().sessions_shed;
      refusals += dispatcher.fault_stats().sessions_rejected_cap;
    }
  }
  // Both outcomes occur: the streams exercise the gate.
  EXPECT_GT(sheds, 0u);
  EXPECT_GT(refusals, 0u);
}

TEST(FaultPolicyTest, RentalDrawsGateEveryPackersRentals) {
  // Find a provider seed whose first two rentals succeed and whose next two
  // fail (one attempt each), using First Fit sessions that each need a
  // server of their own.
  FaultPolicy policy = drop_policy();
  policy.rental_failure_rate = 0.5;
  policy.max_rental_retries = 0;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 256 && !found; ++seed) {
    policy.seed = seed;
    GameServerDispatcher probe(basic_spec(), "first-fit", {}, policy);
    std::vector<bool> placed;
    for (std::uint64_t id = 0; id < 4; ++id) {
      placed.push_back(probe.start_session(id, 0.9, static_cast<Time>(id)) !=
                       kNoServer);
    }
    found = placed == std::vector<bool>{true, true, false, false};
  }
  ASSERT_TRUE(found) << "no seed in [0, 256) gives two rentals, then two failures";
  for (const std::string& algorithm : all_algorithm_names()) {
    SCOPED_TRACE(algorithm);
    GameServerDispatcher dispatcher(basic_spec(), algorithm,
                                    every_packer_options(), policy);
    for (std::uint64_t id = 0; id < 4; ++id) {
      dispatcher.start_session(id, kFourStarts[id], static_cast<Time>(id));
      // Every rental past the second draws a failure, so none may happen.
      EXPECT_LE(dispatcher.servers_ever_rented(), 2u) << "after start " << id;
    }
    const DispatcherFaultStats& stats = dispatcher.fault_stats();
    if (own_rule_packers().count(algorithm) != 0) {
      EXPECT_GT(stats.sessions_rejected_rental, 0u);
    } else if (algorithm == "first-fit") {
      EXPECT_EQ(stats.sessions_rejected_rental, 0u);
      EXPECT_EQ(dispatcher.active_sessions(), 4u);
    }
  }
}

TEST(FaultPolicyTest, FleetCapUnsetNeverSheds) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  for (std::uint64_t id = 0; id < 8; ++id) {
    dispatcher.start_session(id, 0.9, static_cast<Time>(id));
  }
  EXPECT_EQ(dispatcher.active_servers(), 8u);
  EXPECT_EQ(dispatcher.fault_stats().sessions_shed, 0u);
}

TEST(FaultPolicyTest, RentalRetryExhaustionRejectsSession) {
  FaultPolicy policy = drop_policy();
  policy.rental_failure_rate = 1.0;  // provider hard down
  policy.max_rental_retries = 2;
  policy.backoff_base_minutes = 0.5;
  GameServerDispatcher dispatcher(basic_spec(), "first-fit", {}, policy);
  EXPECT_EQ(dispatcher.start_session(1, 0.5, 0.0), kNoServer);
  const DispatcherFaultStats& stats = dispatcher.fault_stats();
  EXPECT_EQ(stats.rental_attempts_failed, 3u);  // 1 try + 2 retries
  EXPECT_EQ(stats.sessions_rejected_rental, 1u);
  // Backoff before each retry: 0.5 * 2^0 + 0.5 * 2^1 = 1.5 minutes.
  EXPECT_DOUBLE_EQ(stats.backoff_minutes, 1.5);
  EXPECT_EQ(dispatcher.active_sessions(), 0u);
  EXPECT_EQ(dispatcher.active_servers(), 0u);
}

TEST(FaultPolicyTest, RentalFailuresOnlyAffectNewRentals) {
  // A session that fits an already-rented server never touches the flaky
  // provider, so it cannot be rejected.
  FaultPolicy policy = drop_policy();
  policy.rental_failure_rate = 1.0;
  policy.max_rental_retries = 0;
  GameServerDispatcher reliable(basic_spec(), "first-fit");
  const BinId server = reliable.start_session(1, 0.5, 0.0);
  EXPECT_NE(server, kNoServer);

  GameServerDispatcher flaky(basic_spec(), "first-fit", {}, policy);
  EXPECT_EQ(flaky.start_session(1, 0.5, 0.0), kNoServer);
  // No server was ever rented, so there is nothing to share.
  EXPECT_EQ(flaky.servers_ever_rented(), 0u);
}

TEST(FaultPolicyTest, RentalFailuresAreSeedDeterministic) {
  FaultPolicy policy = drop_policy();
  policy.rental_failure_rate = 0.5;
  policy.max_rental_retries = 0;
  policy.seed = 321;
  const auto run = [&policy] {
    GameServerDispatcher dispatcher(basic_spec(), "first-fit", {}, policy);
    std::vector<bool> rejected;
    for (std::uint64_t id = 0; id < 32; ++id) {
      rejected.push_back(dispatcher.start_session(id, 0.9,
                                                  static_cast<Time>(id)) ==
                         kNoServer);
    }
    return rejected;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultPolicyTest, CrashLossesAreCountedNotThrown) {
  // When the replacement rental fails during re-dispatch, fail_server must
  // absorb the rejection (even in throw mode) and count the orphan as lost.
  // The rental stream is seed-deterministic, so scan for a seed where the
  // initial rental succeeds but the post-crash one fails.
  FaultPolicy policy;  // kThrow mode
  policy.rental_failure_rate = 0.5;
  policy.max_rental_retries = 0;
  bool exercised = false;
  for (std::uint64_t seed = 0; seed < 64 && !exercised; ++seed) {
    policy.seed = seed;
    GameServerDispatcher dispatcher(basic_spec(), "first-fit", {}, policy);
    try {
      dispatcher.start_session(1, 0.6, 0.0);
    } catch (const DispatchError&) {
      continue;  // setup rental failed under this seed; try the next
    }
    std::size_t redispatched = 0;
    EXPECT_NO_THROW(redispatched = dispatcher.fail_server(BinId{0}, 1.0));
    if (redispatched == 0) {
      EXPECT_EQ(dispatcher.fault_stats().sessions_lost_on_crash, 1u);
      EXPECT_EQ(dispatcher.active_sessions(), 0u);
      // The throw policy is restored after the crash recovery.
      EXPECT_THROW(dispatcher.end_session(1, 2.0), DispatchError);
      exercised = true;
    }
  }
  EXPECT_TRUE(exercised) << "no seed in [0, 64) produced a lost orphan";
}

}  // namespace
}  // namespace dbp
