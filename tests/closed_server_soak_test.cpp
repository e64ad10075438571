// Soak test for closed servers: a dispatcher that serves ten times the
// events rents about ten times the servers, yet its bin tables stay at the
// most servers open at once, its session table at the most sessions active
// at once, and its checkpoint grows by a closed server's usage record, not
// by its bin state. Both runs use servebench's arrival shape (Poisson rate
// 50, lengths up to 6, sizes in [0.05, 0.5]), once with dyadic sizes and
// once with uniform ones, for every algorithm that can checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "core/binary_io.hpp"
#include "gaming/dispatcher.hpp"
#include "sim/event.hpp"
#include "workload/random_instance.hpp"

namespace dbp {
namespace {

constexpr std::size_t kShortEvents = 10000;
constexpr std::size_t kLongEvents = 10 * kShortEvents;

struct SoakRun {
  std::size_t rented = 0;
  std::size_t peak_servers = 0;
  std::size_t peak_sessions = 0;
  std::size_t state_bytes = 0;
};

Instance servebench_shaped(bool dyadic) {
  RandomInstanceConfig config;
  config.item_count = kLongEvents;  // more than either run serves
  config.arrival.rate = 50.0;
  config.duration.max_length = 6.0;
  config.size.min_fraction = 0.05;
  config.size.max_fraction = 0.5;
  if (dyadic) config.size.kind = SizeModel::Kind::kDyadic;
  return generate_random_instance(config, 7);
}

/// Serves the first `events` events of `instance` and checks the table
/// bounds after each one.
SoakRun serve(const std::string& algorithm, const Instance& instance,
              std::size_t events) {
  PackerOptions options;
  options.known_mu = 6.0;
  GameServerDispatcher dispatcher(ServerSpec{1.0, 6.0}, algorithm, options,
                                  FaultPolicy{});
  SoakRun run;
  const std::vector<Event> sequence = build_event_sequence(instance);
  for (std::size_t i = 0; i < events; ++i) {
    const Event& event = sequence[i];
    if (event.kind == EventKind::kArrival) {
      (void)dispatcher.start_session(event.item, instance.item(event.item).size,
                                     event.time);
    } else {
      dispatcher.end_session(event.item, event.time);
    }
    run.peak_servers = std::max(run.peak_servers, dispatcher.active_servers());
    run.peak_sessions = std::max(run.peak_sessions, dispatcher.active_sessions());
  }
  EXPECT_EQ(dispatcher.bins().slot_count(), run.peak_servers);
  const SessionTable& sessions = dispatcher.sessions();
  EXPECT_EQ(sessions.slot_count(), run.peak_sessions);
  EXPECT_GE(sessions.capacity(), 4 * run.peak_sessions);
  EXPECT_LE(sessions.capacity(), std::max<std::size_t>(16, 8 * run.peak_sessions));
  EXPECT_EQ(dispatcher.bins().assignment_history().size(), run.peak_sessions);
  run.rented = dispatcher.servers_ever_rented();
  ByteWriter state;
  dispatcher.save_state(state);
  run.state_bytes = state.size();
  return run;
}

class ClosedServerSoakTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ClosedServerSoakTest, MemoryFollowsTheOpenFleet) {
  for (const bool dyadic : {true, false}) {
    SCOPED_TRACE(dyadic ? "dyadic sizes" : "uniform sizes");
    const Instance instance = servebench_shaped(dyadic);
    const SoakRun once = serve(GetParam(), instance, kShortEvents);
    const SoakRun tenfold = serve(GetParam(), instance, kLongEvents);
    // Enough servers that a checkpoint keeping 49 bytes or more per rented
    // server would overrun the bound below by more than its slack.
    ASSERT_GT(tenfold.rented, once.rented + 300);
    // A closed server's usage record is 16 bytes in the checkpoint; the
    // rest of the state follows the open fleet and the active sessions,
    // whose peaks the two runs share up to a few.
    constexpr std::size_t kSlack = 4096;
    EXPECT_LE(tenfold.state_bytes,
              once.state_bytes + 24 * (tenfold.rented - once.rented) + kSlack)
        << "rented " << once.rented << " -> " << tenfold.rented << ", bytes "
        << once.state_bytes << " -> " << tenfold.state_bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryOnlineAlgorithm, ClosedServerSoakTest,
    ::testing::ValuesIn(all_algorithm_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& c : id) {
        if (c == '-') c = '_';
      }
      return id;
    });

}  // namespace
}  // namespace dbp
