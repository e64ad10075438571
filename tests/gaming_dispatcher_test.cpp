#include "gaming/dispatcher.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace dbp {
namespace {

ServerSpec basic_spec() { return ServerSpec{1.0, 6.0}; }  // $6/hour

TEST(ServerSpecTest, CostModelConversion) {
  const CostModel model = basic_spec().to_cost_model();
  EXPECT_DOUBLE_EQ(model.bin_capacity, 1.0);
  EXPECT_DOUBLE_EQ(model.cost_rate, 0.1);  // $6/hour = $0.1/minute
}

TEST(GameServerDispatcherTest, RentsAndReleasesServers) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  const BinId server_a = dispatcher.start_session(1, 0.5, 0.0);
  const BinId server_b = dispatcher.start_session(2, 0.75, 5.0);
  EXPECT_NE(server_a, server_b);
  EXPECT_EQ(dispatcher.active_servers(), 2u);
  EXPECT_EQ(dispatcher.active_sessions(), 2u);
  dispatcher.end_session(1, 30.0);
  EXPECT_EQ(dispatcher.active_servers(), 1u);
  dispatcher.end_session(2, 65.0);
  EXPECT_EQ(dispatcher.active_servers(), 0u);
  EXPECT_EQ(dispatcher.servers_ever_rented(), 2u);
  // Bill: server A [0, 30) + server B [5, 65) = 90 minutes = 1.5 hours = $9.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(65.0), 9.0);
}

TEST(GameServerDispatcherTest, SharesServersLikeFirstFit) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  const BinId a = dispatcher.start_session(1, 0.5, 0.0);
  const BinId b = dispatcher.start_session(2, 0.5, 1.0);
  EXPECT_EQ(a, b);  // second session shares the first server
  EXPECT_EQ(dispatcher.active_servers(), 1u);
}

TEST(GameServerDispatcherTest, OpenServersBilledToNow) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.5, 0.0);
  // 60 running minutes = 1 hour = $6, session still active.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(60.0), 6.0);
}

TEST(GameServerDispatcherTest, EnforcesTimeOrder) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.5, 10.0);
  EXPECT_THROW(dispatcher.start_session(2, 0.5, 5.0), PreconditionError);
  EXPECT_THROW(dispatcher.end_session(1, 5.0), PreconditionError);
}

TEST(GameServerDispatcherTest, RejectsInvalidSpec) {
  EXPECT_THROW(GameServerDispatcher(ServerSpec{0.0, 1.0}, "first-fit"),
               PreconditionError);
  EXPECT_THROW(GameServerDispatcher(ServerSpec{1.0, 0.0}, "first-fit"),
               PreconditionError);
  EXPECT_THROW(GameServerDispatcher(basic_spec(), "no-such-algorithm"),
               PreconditionError);
}

TEST(DispatchComparisonTest, ComparesAlgorithmsOnTrace) {
  CloudGamingConfig config;
  config.horizon_hours = 8.0;
  config.peak_arrivals_per_minute = 1.0;
  const CloudGamingTrace trace = generate_cloud_gaming_trace(config, 77);
  const DispatchComparison comparison = compare_dispatch_algorithms(
      trace, {"first-fit", "best-fit", "next-fit"}, basic_spec());
  ASSERT_EQ(comparison.reports.size(), 3u);
  EXPECT_GT(comparison.optimal_dollars_lower, 0.0);
  for (const DispatchReport& report : comparison.reports) {
    EXPECT_GE(report.total_dollars, comparison.optimal_dollars_lower - 1e-9);
    EXPECT_GT(report.utilization, 0.0);
    EXPECT_LE(report.utilization, 1.0 + 1e-9);
    EXPECT_GE(report.overspend.lower, 1.0 - 1e-9);
    EXPECT_GT(report.peak_servers, 0);
    EXPECT_DOUBLE_EQ(report.server_hours * basic_spec().price_per_hour,
                     report.total_dollars);
  }
}

// Pinned counter-example (PR 8 satellite): rental_cost_dollars probed with
// `now` earlier than a server's open time must clamp that rental at zero
// dollars, never accrue a negative tail.
TEST(GameServerDispatcherTest, ProbeBeforeOpenBillsZeroNotNegative) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.5, 10.0);
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(0.0), 0.0);
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(10.0), 0.0);
  // Forward probes accrue normally from the open time.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(70.0), 6.0);  // 60 min @ $0.1
}

// Regression: a *closed* rental probed mid-life used to bill its full
// length regardless of the probe time; the bill is "accrued by now", so it
// must truncate at the probe (and clamp at zero before the open).
TEST(GameServerDispatcherTest, ClosedRentalTruncatesAtProbeTime) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.9, 0.0);   // server A [0, 30)
  dispatcher.start_session(2, 0.9, 20.0);  // server B [20, 40)
  dispatcher.end_session(1, 30.0);
  dispatcher.end_session(2, 40.0);
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(0.0), 0.0);
  // Probe at 10: A contributes 10 minutes, B nothing yet.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(10.0), 1.0);
  // Probe at 25: A 25 minutes, B 5 minutes.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(25.0), 3.0);
  // Probe past both closes: the full 30 + 20 = 50 minutes.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(100.0), 5.0);
}

TEST(GameServerDispatcherTest, ActiveSizesDescIsSortedAndComplete) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.25, 0.0);
  dispatcher.start_session(2, 0.5, 1.0);
  dispatcher.start_session(3, 0.25, 2.0);
  std::vector<double> sizes(dispatcher.active_sessions());
  dispatcher.active_sizes_desc(sizes);
  EXPECT_EQ(sizes, (std::vector<double>{0.5, 0.25, 0.25}));
  EXPECT_THROW(dispatcher.active_sizes_desc(std::span<double>{}),
               PreconditionError);
}

TEST(DispatchComparisonTest, BestFitOverspendsOnAdversarialPattern) {
  // Miniature sanity check of the paper's message: with heavy churn, FF's
  // bill never exceeds (2*mu+13) times the optimum (Theorem 5).
  CloudGamingConfig config;
  config.horizon_hours = 12.0;
  config.peak_arrivals_per_minute = 1.5;
  const CloudGamingTrace trace = generate_cloud_gaming_trace(config, 3);
  const DispatchComparison comparison =
      compare_dispatch_algorithms(trace, {"first-fit"}, basic_spec());
  const double mu = comparison.metrics.mu;
  EXPECT_LE(comparison.reports[0].overspend.upper, 2.0 * mu + 13.0);
}

}  // namespace
}  // namespace dbp
