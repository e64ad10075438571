// Wire-vs-direct differential (ISSUE 10 acceptance): the same event stream
// fed through the Unix-socket front-end — in both framings — must leave
// the engine bit-identical to direct submit()/advance_epoch() calls:
// streaming OPT bounds, bill, fault statistics, session counts, and the
// exported trace (timings suppressed) all compare exactly.
//
// Workloads mirror tools/dbp_client --workload (uniform / dyadic sizes /
// bursty arrivals), and each stream gets a deterministic tail of anomalous
// events (duplicate start, unknown end, invalid size, time-order
// violation) so the drop-and-count fault path crosses the wire too — the
// wire layer must pass semantically invalid events through untouched for
// the dispatcher to count, never filter them itself.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"
#include "obs/obs.hpp"
#include "serving_thread.hpp"
#include "sim/event.hpp"
#include "workload/random_instance.hpp"

namespace dbp::net {
namespace {

constexpr std::size_t kEventsPerWorkload = 400;
/// Epoch cadence in events over the sorted base stream.
constexpr std::size_t kEpochEvery = 64;

struct RunResult {
  engine::StreamingOptBounds opt{};
  double bill = 0.0;
  DispatcherFaultStats faults{};
  std::size_t active_sessions = 0;
  std::size_t active_servers = 0;
  std::uint64_t events_applied = 0;
  std::string trace;
};

engine::EngineConfig engine_config() {
  engine::EngineConfig config;
  config.shard_count = 2;
  config.spec = ServerSpec{1.0, 6.0};
  return config;
}

/// Same generator mapping as tools/dbp_client make_stream.
std::vector<engine::SessionEvent> base_stream(const std::string& workload) {
  RandomInstanceConfig config;
  config.item_count = kEventsPerWorkload / 2;
  config.arrival.rate = 50.0;
  config.duration.max_length = 6.0;
  config.size.min_fraction = 0.05;
  config.size.max_fraction = 0.5;
  if (workload == "dyadic") {
    config.size.kind = SizeModel::Kind::kDyadic;
  } else if (workload == "bursts") {
    config.arrival.kind = ArrivalModel::Kind::kBursts;
    config.arrival.burst_size = 16;
    config.arrival.burst_gap = 0.5;
  }
  const Instance instance = generate_random_instance(config, 17);
  std::vector<engine::SessionEvent> stream;
  stream.reserve(2 * instance.size());
  for (const Event& event : build_event_sequence(instance)) {
    if (event.kind == EventKind::kArrival) {
      stream.push_back(engine::start_event(
          event.item, instance.item(event.item).size, event.time));
    } else {
      stream.push_back(engine::end_event(event.item, event.time));
    }
  }
  return stream;
}

/// Appends one event of every anomaly class the dispatcher drops and
/// counts. The tail is identical for both runs, so the fault statistics
/// must merge identically.
std::vector<engine::SessionEvent> with_fault_tail(
    std::vector<engine::SessionEvent> stream) {
  const double last = stream.empty() ? 0.0 : stream.back().time_minutes;
  stream.push_back(engine::start_event(900001, 0.3, last));
  stream.push_back(engine::start_event(900001, 0.3, last));  // duplicate start
  stream.push_back(engine::end_event(900002, last));         // unknown end
  stream.push_back(engine::start_event(900003, -0.25, last));  // invalid size
  stream.push_back(engine::start_event(900004, 0.2, 0.0));  // time regression
  return stream;
}

double final_epoch_time(const std::vector<engine::SessionEvent>& stream) {
  double horizon = 0.0;
  for (const engine::SessionEvent& event : stream) {
    horizon = std::max(horizon, event.time_minutes);
  }
  return horizon;
}

RunResult collect(engine::ShardedDispatchEngine& eng, double horizon,
                  const obs::RunTracer& tracer) {
  RunResult result;
  result.opt = eng.opt_bounds();
  result.bill = eng.rental_cost_dollars(horizon);
  result.faults = eng.merged_fault_stats();
  result.active_sessions = eng.active_sessions();
  result.active_servers = eng.active_servers();
  result.events_applied = eng.events_applied();
  std::ostringstream jsonl;
  tracer.export_jsonl(jsonl, /*include_timings=*/false);
  result.trace = jsonl.str();
  return result;
}

/// The reference: single-threaded direct submission with the same epoch
/// schedule the wire run uses.
RunResult run_direct(const std::vector<engine::SessionEvent>& stream,
                     std::size_t base_size) {
  obs::RunTracer tracer;
  obs::MetricsRegistry metrics;
  obs::ObsScope scope(&tracer, &metrics);
  engine::ShardedDispatchEngine eng(engine_config());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    eng.submit(stream[i]);
    if (i < base_size && (i + 1) % kEpochEvery == 0) {
      eng.advance_epoch(stream[i].time_minutes);
    }
  }
  const double horizon = final_epoch_time(stream);
  eng.advance_epoch(horizon);
  eng.drain();  // mirror the wire run's query-time drain (a no-op here)
  return collect(eng, horizon, tracer);
}

RunResult run_wire(const std::vector<engine::SessionEvent>& stream,
                   std::size_t base_size, WireClient::Framing framing,
                   const std::string& socket_path) {
  obs::RunTracer tracer;
  obs::MetricsRegistry metrics;
  engine::ShardedDispatchEngine eng(engine_config());
  WireServerConfig config;
  config.socket_path = socket_path;
  WireServer server(eng, config, &tracer, &metrics);
  server.start();
  ServingThread serving(server);
  const double horizon = final_epoch_time(stream);
  {
    WireClient client(socket_path, framing);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      client.submit(stream[i]);
      if (i < base_size && (i + 1) % kEpochEvery == 0) {
        client.epoch(stream[i].time_minutes);
      }
    }
    client.epoch(horizon);
    const WireResponse answer = client.query(horizon);
    EXPECT_EQ(answer.error, WireError::kNone) << answer.detail;
    EXPECT_TRUE(client.async_errors().empty());
  }
  serving.stop();
  EXPECT_EQ(server.stats().events_submitted, stream.size());
  return collect(eng, horizon, tracer);
}

void expect_bit_identical(const RunResult& direct, const RunResult& wire) {
  EXPECT_EQ(direct.opt.lower_dollars, wire.opt.lower_dollars);
  EXPECT_EQ(direct.opt.upper_dollars, wire.opt.upper_dollars);
  EXPECT_EQ(direct.opt.segments, wire.opt.segments);
  EXPECT_EQ(direct.opt.exact_segments, wire.opt.exact_segments);
  EXPECT_EQ(direct.bill, wire.bill);
  EXPECT_EQ(direct.faults, wire.faults);
  EXPECT_EQ(direct.active_sessions, wire.active_sessions);
  EXPECT_EQ(direct.active_servers, wire.active_servers);
  EXPECT_EQ(direct.events_applied, wire.events_applied);
  EXPECT_EQ(direct.trace, wire.trace);
}

class NetDifferentialTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("dbp_net_differential_test.") + GetParam()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(NetDifferentialTest, WireFedRunIsBitIdenticalToDirectSubmission) {
  const std::vector<engine::SessionEvent> base = base_stream(GetParam());
  const std::size_t base_size = base.size();
  const std::vector<engine::SessionEvent> stream = with_fault_tail(base);

  const RunResult direct = run_direct(stream, base_size);
  // The injected tail must actually exercise every anomaly counter — a
  // wire layer that silently filtered invalid events would zero these.
  EXPECT_GE(direct.faults.duplicate_starts, 1u);
  EXPECT_GE(direct.faults.unknown_ends, 1u);
  EXPECT_GE(direct.faults.invalid_sizes, 1u);
  EXPECT_GE(direct.faults.time_order_violations, 1u);
  EXPECT_GT(direct.opt.segments, 0u);
  EXPECT_GT(direct.bill, 0.0);
  EXPECT_FALSE(direct.trace.empty());

  const RunResult binary = run_wire(stream, base_size,
                                    WireClient::Framing::kBinary,
                                    dir_ + "/binary.sock");
  expect_bit_identical(direct, binary);

  const RunResult json = run_wire(stream, base_size,
                                  WireClient::Framing::kJson,
                                  dir_ + "/json.sock");
  expect_bit_identical(direct, json);
}

INSTANTIATE_TEST_SUITE_P(Workloads, NetDifferentialTest,
                         ::testing::Values("uniform", "dyadic", "bursts"));

}  // namespace
}  // namespace dbp::net
