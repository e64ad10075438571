// WireServer lifecycle and fault-containment tests: real AF_UNIX sockets
// in a per-test temp directory, both framings, the malformed-frame
// containment contract (a fatal frame closes only its own connection),
// the receive buffer's framing (any split of a stream across writes serves
// it identically), how run() ends (the shutdown verb, a stop requested
// from another thread or before it starts) and what it applies before it
// returns, the epoch timer, and the one serving thread: many connections
// share it, and a client that reads no answers stalls nobody else. run()
// serves on a ServingThread while the test thread is the client.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "engine/engine.hpp"
#include "net/fd_io.hpp"
#include "net/wire_client.hpp"
#include "net/wire_protocol.hpp"
#include "net/wire_server.hpp"
#include "obs/metrics_registry.hpp"
#include "serving_thread.hpp"

namespace dbp::net {
namespace {

class WireServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("dbp_net_server_test.") + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string socket_path() const { return dir_ + "/wire.sock"; }

  [[nodiscard]] static engine::EngineConfig engine_config() {
    engine::EngineConfig config;
    config.shard_count = 2;
    config.spec = ServerSpec{1.0, 6.0};
    return config;
  }

  [[nodiscard]] WireServerConfig server_config(
      std::uint64_t epoch_cadence_ms = 0) const {
    WireServerConfig config;
    config.socket_path = socket_path();
    config.epoch_cadence_ms = epoch_cadence_ms;
    return config;
  }

  /// Bounded wait for an asynchronous server-side condition; fails the
  /// test instead of hanging when the condition never comes true.
  template <typename Predicate>
  static void wait_for(Predicate&& predicate) {
    for (int round = 0; round < 2000; ++round) {
      if (predicate()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "condition not reached within the bounded wait";
  }

  std::string dir_;
};

/// The requests in one framing's encoding, concatenated.
std::vector<std::uint8_t> encode_stream(WireClient::Framing framing,
                                        const std::vector<WireRequest>& requests) {
  std::vector<std::uint8_t> bytes;
  for (const WireRequest& request : requests) {
    if (framing == WireClient::Framing::kBinary) {
      const std::vector<std::uint8_t> frame = encode_request_frame(request);
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    } else {
      const std::string line = encode_json_request(request) + "\n";
      bytes.insert(bytes.end(), line.begin(), line.end());
    }
  }
  return bytes;
}

std::vector<std::uint8_t> as_bytes(const std::string& text) {
  return {text.begin(), text.end()};
}

WireRequest submit_request(const engine::SessionEvent& event) {
  WireRequest request;
  request.verb = WireVerb::kSubmit;
  request.event = event;
  return request;
}

WireRequest timed_request(WireVerb verb, double time_minutes) {
  WireRequest request;
  request.verb = verb;
  request.time_minutes = time_minutes;
  return request;
}

/// Every response until the server closes the connection.
std::vector<WireResponse> read_until_closed(WireClient& client) {
  std::vector<WireResponse> responses;
  for (;;) {
    try {
      responses.push_back(client.read_response());
    } catch (const IoError&) {
      return responses;
    }
  }
}

auto stats_tuple(const WireServerStats& s) {
  return std::make_tuple(s.connections_accepted, s.connections_open,
                         s.connections_failed, s.frames_received,
                         s.frames_rejected, s.bytes_in, s.events_submitted,
                         s.epochs_advanced, s.timer_ticks);
}

auto response_tuple(const WireResponse& r) {
  return std::make_tuple(r.request_seq, r.error, r.detail, r.body);
}

/// The process's thread count, from the `Threads:` line of
/// /proc/self/status; -1 when the line is missing.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int threads = -1;
      status >> threads;
      return threads;
    }
  }
  return -1;
}

/// A raw connection whose reads time out after 10 s, so a server that
/// never answers fails the test instead of hanging it.
detail::FdGuard connect_with_read_timeout(const std::string& path) {
  const sockaddr_un address = detail::make_unix_address(path);
  detail::FdGuard fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  const timeval timeout{10, 0};
  if (!fd.valid() ||
      ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0 ||
      ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout)) != 0) {
    throw IoError("cannot connect to '" + path + "'");
  }
  return fd;
}

/// The next line-JSON response on `fd`. Throws IoError when the server
/// closes the connection or the read times out first.
WireResponse next_json_response(int fd, detail::RecvBuffer& in) {
  for (;;) {
    if (const std::optional<std::string_view> line = in.take_line()) {
      return decode_json_response(*line);
    }
    const std::optional<std::size_t> received = in.fill(fd);
    if (!received) throw IoError("no response within the read timeout");
    if (*received == 0) throw IoError("server closed the connection");
  }
}

TEST_F(WireServerTest, ConfigValidationRejectsUnusableSetups) {
  WireServerConfig config;  // empty socket path
  EXPECT_THROW(config.validate(), PreconditionError);
}

TEST_F(WireServerTest, StaleSocketFileIsReplacedOnStart) {
  {
    std::ofstream stale(socket_path());
    stale << "stale";
  }
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);
  WireClient client(socket_path(), WireClient::Framing::kBinary);
  EXPECT_EQ(client.query(0.0).error, WireError::kNone);
  serving.stop();
}

TEST_F(WireServerTest, QueryReflectsSubmittedEventsBothFramings) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  for (const auto framing :
       {WireClient::Framing::kBinary, WireClient::Framing::kJson}) {
    WireClient client(socket_path(), framing);
    const std::uint64_t base = framing == WireClient::Framing::kJson ? 100 : 0;
    client.submit(engine::start_event(base + 1, 0.25, 1.0));
    client.submit(engine::start_event(base + 2, 0.5, 2.0));
    client.submit(engine::end_event(base + 1, 5.0));
    client.epoch(6.0 + static_cast<double>(base));
    const WireResponse answer = client.query(6.0 + static_cast<double>(base));
    ASSERT_EQ(answer.error, WireError::kNone) << answer.detail;
    EXPECT_NE(answer.body.find("\"active_sessions\""), std::string::npos);
    EXPECT_NE(answer.body.find("\"opt_bounds\""), std::string::npos);
    EXPECT_NE(answer.body.find("\"fault_stats\""), std::string::npos);
    EXPECT_TRUE(client.async_errors().empty());
  }

  serving.stop();
  // 2 connections x (3 submits + 1 epoch + 1 query).
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.frames_received, 10u);
  EXPECT_EQ(stats.frames_rejected, 0u);
  EXPECT_EQ(stats.events_submitted, 6u);
  EXPECT_EQ(stats.epochs_advanced, 2u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_EQ(eng.events_applied(), 6u);
  EXPECT_EQ(eng.active_sessions(), 2u);  // one session left open per framing
}

TEST_F(WireServerTest, QueryAnswersForABacklogBeyondTheQueueCap) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  // More submits than both shards' queues hold: the serving loop applies
  // each queue as it fills, and the query applies the rest before it
  // answers.
  constexpr std::uint64_t kEvents =
      3 * engine::ShardedDispatchEngine::kShardQueueCap;
  WireClient client(socket_path(), WireClient::Framing::kBinary);
  for (std::uint64_t id = 0; id < kEvents; ++id) {
    client.submit(engine::start_event(id, 0.01, static_cast<double>(id)));
  }
  const WireResponse answer = client.query(static_cast<double>(kEvents));
  ASSERT_EQ(answer.error, WireError::kNone) << answer.detail;
  const std::string count = std::to_string(kEvents) + ",";
  EXPECT_NE(answer.body.find("\"active_sessions\":" + count), std::string::npos)
      << answer.body;
  EXPECT_NE(answer.body.find("\"events_applied\":" + count), std::string::npos)
      << answer.body;
  EXPECT_TRUE(client.async_errors().empty());

  serving.stop();
  EXPECT_EQ(server.stats().events_submitted, kEvents);
  EXPECT_EQ(eng.events_applied(), kEvents);
}

TEST_F(WireServerTest, FatalFrameClosesOnlyTheOffendingConnection) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  WireClient victim(socket_path(), WireClient::Framing::kBinary);
  victim.submit(engine::start_event(1, 0.25, 1.0));
  victim.flush();

  WireClient vandal(socket_path(), WireClient::Framing::kBinary);
  const std::string garbage = "GARBAGE-NOT-A-FRAME";
  vandal.send_raw(std::span(
      reinterpret_cast<const std::uint8_t*>(garbage.data()), garbage.size()));
  const WireResponse rejection = vandal.read_response();
  EXPECT_EQ(rejection.error, WireError::kBadMagic);
  // Fatal: the server closes the stream after the typed response.
  vandal.finish_writes();
  EXPECT_THROW((void)vandal.read_response(), IoError);

  // The victim's connection and the engine are unaffected.
  const WireResponse answer = victim.query(2.0);
  ASSERT_EQ(answer.error, WireError::kNone) << answer.detail;
  EXPECT_TRUE(victim.async_errors().empty());
  serving.stop();
  EXPECT_EQ(eng.events_applied(), 1u);
  EXPECT_EQ(server.stats().frames_rejected, 1u);
}

TEST_F(WireServerTest, RecoverableRejectionKeepsTheStreamUsable) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  WireClient client(socket_path(), WireClient::Framing::kBinary);
  ByteWriter frame;
  const std::vector<std::uint8_t> unknown_verb = {0x63};
  append_frame(frame, std::span(unknown_verb));
  client.send_raw(std::span(frame.data()));
  const WireResponse rejection = client.read_response();
  EXPECT_EQ(rejection.error, WireError::kUnknownVerb);

  // Same connection, next frame: served normally.
  const WireResponse answer = client.query(0.0);
  EXPECT_EQ(answer.error, WireError::kNone) << answer.detail;
  serving.stop();
  EXPECT_EQ(server.stats().frames_rejected, 1u);
}

TEST_F(WireServerTest, RegressingAndNonFiniteEpochsAreRejectedTyped) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  WireClient client(socket_path(), WireClient::Framing::kBinary);
  client.epoch(10.0);
  client.epoch(5.0);  // regresses: typed rejection, connection survives
  WireRequest nan_epoch;
  nan_epoch.verb = WireVerb::kEpoch;
  nan_epoch.time_minutes = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::uint8_t> nan_frame = encode_request_frame(nan_epoch);
  client.send_raw(std::span(nan_frame));

  const WireResponse answer = client.query(10.0);
  ASSERT_EQ(answer.error, WireError::kNone) << answer.detail;
  ASSERT_EQ(client.async_errors().size(), 2u);
  for (const WireResponse& rejection : client.async_errors()) {
    EXPECT_EQ(rejection.error, WireError::kBadField);
  }
  serving.stop();
  // Only the first epoch reached the engine.
  EXPECT_EQ(server.stats().epochs_advanced, 1u);
}

TEST_F(WireServerTest, ShutdownVerbEndsRunAndAppliesQueuedEvents) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  WireClient client(socket_path(), WireClient::Framing::kJson);
  constexpr std::uint64_t kEvents = 64;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    client.submit(
        engine::start_event(i + 1, 0.125, static_cast<double>(i) * 0.25));
  }
  const WireResponse ack = client.shutdown_server();
  ASSERT_EQ(ack.error, WireError::kNone) << ack.detail;
  EXPECT_NE(ack.body.find("\"stopping\""), std::string::npos);

  // run() unlinks the socket as it returns, so the verb alone ended it.
  wait_for([&] { return !std::filesystem::exists(socket_path()); });
  EXPECT_TRUE(serving.stop());
  // run() applies the shard queues: every accepted submit is applied.
  EXPECT_EQ(eng.events_applied(), kEvents);
  EXPECT_EQ(eng.active_sessions(), kEvents);
}

TEST_F(WireServerTest, RequestStopFromAnotherThreadEndsRun) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  // Submits without a query, so the shard queues still hold them when the
  // stop arrives.
  WireClient client(socket_path(), WireClient::Framing::kBinary);
  constexpr std::uint64_t kEvents = 64;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    client.submit(engine::start_event(i + 1, 0.125, static_cast<double>(i)));
  }
  client.flush();
  wait_for([&] { return server.stats().events_submitted == kEvents; });
  EXPECT_EQ(server.stats().connections_open, 1u);

  EXPECT_FALSE(serving.stop());  // request_stop() from the test thread
  EXPECT_FALSE(std::filesystem::exists(socket_path()));
  // run() closed the client's connection, which is still open on its side.
  EXPECT_EQ(server.stats().connections_open, 0u);
  EXPECT_EQ(server.stats().frames_rejected, 0u);
  EXPECT_EQ(eng.events_applied(), kEvents);
  EXPECT_EQ(eng.active_sessions(), kEvents);
}

TEST_F(WireServerTest, TimerCutsEpochsAtTheEventTimeWatermark) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config(/*epoch_cadence_ms=*/5));
  server.start();
  ServingThread serving(server);

  WireClient client(socket_path(), WireClient::Framing::kBinary);
  // The engine is the serving thread's alone while the server runs, so the
  // test watches the server: a query answered after a submit means the
  // loop has applied it, and every timer tick counted after that answer
  // cuts an epoch whose snapshot holds it.
  const auto tick_after_query = [&](double horizon) {
    ASSERT_EQ(client.query(horizon).error, WireError::kNone);
    const std::uint64_t ticks = server.stats().timer_ticks;
    wait_for([&] { return server.stats().timer_ticks > ticks; });
  };

  // Wall time decides only *when* the timer fires; the epoch's logical
  // time is the event-time high-water mark, never a clock reading, so the
  // tick cuts an epoch at 1.0 whose snapshot holds the open session.
  client.submit(engine::start_event(1, 0.5, 1.0));
  tick_after_query(1.0);
  EXPECT_EQ(server.watermark_minutes(), 1.0);

  // Raising the watermark makes the next tick integrate [1, 31) from that
  // snapshot; further ticks at a flat watermark add zero-length segments,
  // which are free (EngineTest.ZeroLengthEpochSegmentsAreFree).
  client.submit(engine::end_event(1, 31.0));
  tick_after_query(31.0);
  EXPECT_TRUE(client.async_errors().empty());

  serving.stop();
  EXPECT_GE(server.stats().timer_ticks, 2u);
  EXPECT_EQ(server.watermark_minutes(), 31.0);
  const engine::StreamingOptBounds bounds = eng.opt_bounds();
  // One 0.5 session for the 30-minute segment [1, 31): one server,
  // 30 min at $6/hour.
  EXPECT_GT(bounds.segments, 0u);
  EXPECT_EQ(bounds.lower_dollars, 30.0 / 60.0 * 6.0);
  EXPECT_EQ(bounds.upper_dollars, 30.0 / 60.0 * 6.0);
  EXPECT_EQ(eng.active_sessions(), 0u);
}

TEST_F(WireServerTest, ObsCountersMirrorServingStats) {
  engine::ShardedDispatchEngine eng(engine_config());
  obs::MetricsRegistry metrics;
  WireServer server(eng, server_config(), /*tracer=*/nullptr, &metrics);
  server.start();
  ServingThread serving(server);

  WireClient client(socket_path(), WireClient::Framing::kBinary);
  client.submit(engine::start_event(1, 0.25, 1.0));
  ASSERT_EQ(client.query(1.0).error, WireError::kNone);
  serving.stop();

  const WireServerStats stats = server.stats();
  EXPECT_EQ(metrics.counter("net.connections").value(),
            stats.connections_accepted);
  EXPECT_EQ(metrics.counter("net.frames_received").value(),
            stats.frames_received);
  EXPECT_EQ(metrics.counter("net.frames_rejected").value(), 0u);
  EXPECT_EQ(metrics.counter("net.bytes_in").value(), stats.bytes_in);
  EXPECT_EQ(metrics.counter("net.events_submitted").value(),
            stats.events_submitted);
}

TEST_F(WireServerTest, AnySplitOfAStreamAcrossWritesServesItIdentically) {
  // Submits, a recoverable rejection (a regressing epoch), an epoch and a
  // query: the receive buffer must decode the same requests however the
  // bytes arrive.
  const std::vector<WireRequest> requests = {
      submit_request(engine::start_event(1, 0.25, 1.0)),
      submit_request(engine::start_event(2, 0.5, 2.0)),
      submit_request(engine::start_event(3, 0.5, 3.0)),
      submit_request(engine::end_event(1, 4.0)),
      timed_request(WireVerb::kEpoch, 5.0),
      timed_request(WireVerb::kEpoch, 4.5),
      submit_request(engine::start_event(4, 0.125, 6.0)),
      submit_request(engine::end_event(2, 7.0)),
      timed_request(WireVerb::kQuery, 8.0),
  };
  struct Outcome {
    std::vector<WireResponse> responses;
    WireServerStats stats;
    std::uint64_t events_applied = 0;
    std::size_t active_sessions = 0;
    engine::StreamingOptBounds bounds;
    double bill = 0.0;
    std::vector<SizeRun> snapshot;
  };
  const auto serve = [&](WireClient::Framing framing,
                         const std::vector<std::size_t>& chunk_sizes) {
    const std::vector<std::uint8_t> bytes = encode_stream(framing, requests);
    engine::ShardedDispatchEngine eng(engine_config());
    WireServer server(eng, server_config());
    server.start();
    ServingThread serving(server);
    WireClient client(socket_path(), framing);
    std::size_t sent = 0;
    for (std::size_t i = 0; sent < bytes.size(); ++i) {
      const std::size_t n =
          std::min(chunk_sizes[i % chunk_sizes.size()], bytes.size() - sent);
      client.send_raw(std::span(bytes).subspan(sent, n));
      sent += n;
    }
    client.finish_writes();
    Outcome out;
    out.responses = read_until_closed(client);
    serving.stop();
    out.stats = server.stats();
    out.events_applied = eng.events_applied();
    out.active_sessions = eng.active_sessions();
    out.bounds = eng.opt_bounds();
    out.bill = eng.rental_cost_dollars(8.0);
    out.snapshot = eng.merged_snapshot_rle();
    return out;
  };

  for (const auto framing :
       {WireClient::Framing::kBinary, WireClient::Framing::kJson}) {
    SCOPED_TRACE(framing == WireClient::Framing::kBinary ? "binary" : "json");
    const Outcome whole = serve(framing, {std::size_t{1} << 20});
    ASSERT_EQ(whole.responses.size(), 2u);
    EXPECT_EQ(whole.responses[0].request_seq, 6u);
    EXPECT_EQ(whole.responses[0].error, WireError::kBadField);
    EXPECT_EQ(whole.responses[1].request_seq, 9u);
    EXPECT_EQ(whole.responses[1].error, WireError::kNone);
    EXPECT_EQ(whole.stats.frames_received, requests.size());
    EXPECT_EQ(whole.stats.frames_rejected, 1u);
    EXPECT_EQ(whole.stats.events_submitted, 6u);
    EXPECT_EQ(whole.stats.epochs_advanced, 1u);
    EXPECT_EQ(whole.stats.bytes_in,
              encode_stream(framing, requests).size());
    EXPECT_EQ(whole.events_applied, 6u);
    EXPECT_EQ(whole.active_sessions, 2u);

    for (const std::vector<std::size_t>& chunks :
         {std::vector<std::size_t>{1}, std::vector<std::size_t>{5, 1, 13, 46, 2, 91, 7}}) {
      SCOPED_TRACE(chunks.size() == 1 ? "one byte per write" : "uneven chunks");
      const Outcome split = serve(framing, chunks);
      ASSERT_EQ(split.responses.size(), whole.responses.size());
      for (std::size_t i = 0; i < whole.responses.size(); ++i) {
        EXPECT_EQ(response_tuple(split.responses[i]),
                  response_tuple(whole.responses[i]));
      }
      EXPECT_EQ(stats_tuple(split.stats), stats_tuple(whole.stats));
      EXPECT_EQ(split.events_applied, whole.events_applied);
      EXPECT_EQ(split.active_sessions, whole.active_sessions);
      EXPECT_EQ(split.bounds.lower_dollars, whole.bounds.lower_dollars);
      EXPECT_EQ(split.bounds.upper_dollars, whole.bounds.upper_dollars);
      EXPECT_EQ(split.bounds.segments, whole.bounds.segments);
      EXPECT_EQ(split.bounds.exact_segments, whole.bounds.exact_segments);
      EXPECT_EQ(split.bill, whole.bill);
      EXPECT_EQ(split.snapshot, whole.snapshot);
    }
  }
}

TEST_F(WireServerTest, FatalFrameDropsTheRestOfItsRead) {
  // Valid submits queued behind a fatal frame in the same write are never
  // served: one answer, then the connection closes.
  const std::vector<WireRequest> tail = {
      submit_request(engine::start_event(1, 0.25, 1.0)),
      submit_request(engine::start_event(2, 0.25, 2.0)),
  };
  const std::vector<std::uint8_t> binary_tail =
      encode_stream(WireClient::Framing::kBinary, tail);
  std::vector<std::uint8_t> bad_crc =
      encode_request_frame(submit_request(engine::start_event(9, 0.5, 0.5)));
  bad_crc.back() ^= 0x01U;
  const std::string long_line =
      "{\"verb\":\"query\",\"t\":0" + std::string(kMaxJsonLineBytes, ' ') + "}\n";

  struct Case {
    const char* name;
    WireClient::Framing framing;
    std::vector<std::uint8_t> head;
    WireError error;
  };
  const std::vector<Case> cases = {
      {"bad magic", WireClient::Framing::kBinary,
       as_bytes("GARBAGE-NOT-A-FRAME!"), WireError::kBadMagic},
      {"bad crc", WireClient::Framing::kBinary, bad_crc, WireError::kBadCrc},
      {"oversized line", WireClient::Framing::kJson, as_bytes(long_line),
       WireError::kOversizedLine},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::uint8_t> bytes = c.head;
    const std::vector<std::uint8_t> rest =
        c.framing == WireClient::Framing::kBinary
            ? binary_tail
            : encode_stream(WireClient::Framing::kJson, tail);
    bytes.insert(bytes.end(), rest.begin(), rest.end());

    engine::ShardedDispatchEngine eng(engine_config());
    WireServer server(eng, server_config());
    server.start();
    ServingThread serving(server);
    WireClient client(socket_path(), c.framing);
    client.send_raw(std::span(bytes));
    client.finish_writes();
    const std::vector<WireResponse> responses = read_until_closed(client);
    serving.stop();

    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].request_seq, 1u);
    EXPECT_EQ(responses[0].error, c.error);
    const WireServerStats stats = server.stats();
    EXPECT_EQ(stats.frames_received, 1u);
    EXPECT_EQ(stats.frames_rejected, 1u);
    EXPECT_EQ(stats.events_submitted, 0u);
    EXPECT_EQ(eng.events_applied(), 0u);
    EXPECT_LE(stats.bytes_in, bytes.size());
  }
}

TEST_F(WireServerTest, TruncatedFramesSayWhereTheStreamEnded) {
  const std::vector<std::uint8_t> first =
      encode_request_frame(submit_request(engine::start_event(1, 0.25, 1.0)));
  const std::vector<std::uint8_t> second =
      encode_request_frame(submit_request(engine::start_event(2, 0.25, 2.0)));
  struct Case {
    std::size_t second_bytes;  ///< how much of the second frame is sent
    const char* detail;
  };
  for (const Case& c :
       {Case{5, "connection closed inside a frame header"},
        Case{kFrameHeaderBytes, "connection closed inside a frame payload"},
        Case{kFrameHeaderBytes + 10, "connection closed inside a frame payload"}}) {
    SCOPED_TRACE(c.second_bytes);
    std::vector<std::uint8_t> bytes = first;
    bytes.insert(bytes.end(), second.begin(),
                 second.begin() + static_cast<std::ptrdiff_t>(c.second_bytes));

    engine::ShardedDispatchEngine eng(engine_config());
    WireServer server(eng, server_config());
    server.start();
    ServingThread serving(server);
    WireClient client(socket_path(), WireClient::Framing::kBinary);
    client.send_raw(std::span(bytes));
    client.finish_writes();
    const std::vector<WireResponse> responses = read_until_closed(client);
    serving.stop();

    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].request_seq, 2u);
    EXPECT_EQ(responses[0].error, WireError::kTruncatedFrame);
    EXPECT_EQ(responses[0].detail, c.detail);
    const WireServerStats stats = server.stats();
    EXPECT_EQ(stats.frames_received, 2u);
    EXPECT_EQ(stats.frames_rejected, 1u);
    EXPECT_EQ(stats.events_submitted, 1u);
    EXPECT_EQ(stats.bytes_in, bytes.size());
    EXPECT_EQ(eng.events_applied(), 1u);
  }
}

TEST_F(WireServerTest, JsonLinesSurviveCrlfBlanksSplitsAndAMissingFinalNewline) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  const std::string first =
      encode_json_request(submit_request(engine::start_event(1, 0.25, 1.0)));
  const std::string second =
      encode_json_request(submit_request(engine::start_event(2, 0.5, 2.0)));
  const std::string query = encode_json_request(timed_request(WireVerb::kQuery, 3.0));
  WireClient client(socket_path(), WireClient::Framing::kJson);
  // CRLF, a blank line and a blank CRLF line, then the second request split
  // across two writes, then a final line with no newline before EOF.
  const std::vector<std::uint8_t> head =
      as_bytes(first + "\r\n\n\r\n" + second.substr(0, 9));
  const std::vector<std::uint8_t> rest = as_bytes(second.substr(9) + "\n" + query);
  client.send_raw(std::span(head));
  client.send_raw(std::span(rest));
  client.finish_writes();
  const std::vector<WireResponse> responses = read_until_closed(client);
  serving.stop();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].request_seq, 3u);
  ASSERT_EQ(responses[0].error, WireError::kNone) << responses[0].detail;
  EXPECT_NE(responses[0].body.find("\"events_applied\":2"), std::string::npos);
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_received, 3u);
  EXPECT_EQ(stats.frames_rejected, 0u);
  EXPECT_EQ(stats.events_submitted, 2u);
  EXPECT_EQ(stats.bytes_in, head.size() + rest.size());
  EXPECT_EQ(eng.active_sessions(), 2u);
}

TEST_F(WireServerTest, PartialJsonLineOverTheCapIsRejectedWithoutItsNewline) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  // A raw connection whose reads time out: a server that waited for the
  // rest of the line would fail this test instead of hanging it.
  const sockaddr_un address = detail::make_unix_address(socket_path());
  const detail::FdGuard fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.valid());
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  // One byte over the cap and no newline, with the write side left open.
  detail::write_all(fd.get(), as_bytes("{" + std::string(kMaxJsonLineBytes, ' ')));
  detail::RecvBuffer in(kMaxFrameBytes);
  std::optional<std::string_view> line;
  while (!(line = in.take_line())) ASSERT_GT(in.fill(fd.get()), 0u);
  const WireResponse rejection = decode_json_response(*line);
  EXPECT_EQ(rejection.request_seq, 1u);
  EXPECT_EQ(rejection.error, WireError::kOversizedLine);
  EXPECT_EQ(rejection.detail, "request line exceeds the 65536-byte cap");
  EXPECT_EQ(in.fill(fd.get()), 0u);  // then the server closes
  serving.stop();
  EXPECT_EQ(server.stats().frames_received, 1u);
  EXPECT_EQ(server.stats().frames_rejected, 1u);
}

TEST_F(WireServerTest, ClientReadsResponseLinesLongerThanAFrame) {
  // A rejection detail quotes the offending token, and the server escapes
  // each control byte in it as six, so a JSON response line can outgrow
  // the client's kMaxFrameBytes receive buffer.
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  const std::string token(30000, '\x01');
  const std::vector<std::uint8_t> line =
      as_bytes("{\"verb\":\"query\",\"t\":" + token + "}\n");
  WireClient client(socket_path(), WireClient::Framing::kJson);
  client.send_raw(std::span(line));
  const WireResponse rejection = client.read_response();
  EXPECT_EQ(rejection.request_seq, 1u);
  EXPECT_EQ(rejection.error, WireError::kBadField);
  EXPECT_TRUE(rejection.detail.ends_with("invalid field 't' '" + token +
                                         "': expected a finite number"));
  // The connection survives a recoverable rejection.
  const WireResponse answer = client.query(0.0);
  EXPECT_EQ(answer.error, WireError::kNone) << answer.detail;
  serving.stop();
}

// The session id 2^64 - 1 is the packer's list terminator: placing it would
// wrap a shard's item table, close connections without an answer and lose
// later events, leaving servers billing forever. Four line-JSON connections
// in turn: a start of session 5, a start of the reserved id, the end of
// session 5, each with a query, then a last query. The reserved id must be
// counted, and everything else served.
TEST_F(WireServerTest, ReservedSessionIdIsCountedAndLaterEventsAreServed) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  const auto submit_and_query = [&](const engine::SessionEvent& event) {
    WireClient client(socket_path(), WireClient::Framing::kJson);
    client.submit(event);
    const WireResponse answer = client.query(event.time_minutes);
    EXPECT_EQ(answer.error, WireError::kNone) << answer.detail;
    EXPECT_TRUE(client.async_errors().empty());
  };
  submit_and_query(engine::start_event(5, 0.5, 0.0));
  submit_and_query(engine::start_event(kNoItem, 0.5, 1.0));
  submit_and_query(engine::end_event(5, 2.0));

  WireClient client(socket_path(), WireClient::Framing::kJson);
  const WireResponse answer = client.query(100.0);
  ASSERT_EQ(answer.error, WireError::kNone) << answer.detail;
  EXPECT_NE(answer.body.find("\"active_sessions\":0,"), std::string::npos) << answer.body;
  EXPECT_NE(answer.body.find("\"active_servers\":0,"), std::string::npos) << answer.body;
  EXPECT_NE(answer.body.find("\"events_applied\":3,"), std::string::npos) << answer.body;
  EXPECT_NE(answer.body.find("\"invalid_session_ids\":1,"), std::string::npos)
      << answer.body;
  EXPECT_NE(answer.body.find("\"total_dropped_events\":1}"), std::string::npos)
      << answer.body;
  serving.stop();
  EXPECT_EQ(eng.merged_fault_stats().invalid_session_ids, 1u);
  // Session 5 billed [0, 2) minutes at $6/hour, and nothing after.
  EXPECT_EQ(eng.rental_cost_dollars(100.0), eng.rental_cost_dollars(2.0));
}

/// Throws for one route key: a serving defect no wire error describes.
class ThrowingRouter final : public engine::ShardRouter {
 public:
  static constexpr std::uint64_t kPoisonKey = 13;

  [[nodiscard]] std::size_t shard_for(std::uint64_t route_key,
                                      std::size_t shard_count) const override {
    if (route_key == kPoisonKey) throw std::runtime_error("router defect");
    return static_cast<std::size_t>(route_key % shard_count);
  }
};

// The backstop closes a connection whose serving threw, without an answer.
// It must count that connection, and keep serving the next one.
TEST_F(WireServerTest, BackstopCountsTheConnectionsItDrops) {
  obs::MetricsRegistry metrics;
  engine::ShardedDispatchEngine eng(engine_config(),
                                    std::make_unique<ThrowingRouter>());
  WireServer server(eng, server_config(), nullptr, &metrics);
  server.start();
  ServingThread serving(server);

  WireClient doomed(socket_path(), WireClient::Framing::kJson);
  doomed.submit(engine::start_event(ThrowingRouter::kPoisonKey, 0.25, 1.0));
  doomed.flush();
  doomed.finish_writes();
  EXPECT_TRUE(read_until_closed(doomed).empty());
  wait_for([&] { return server.stats().connections_failed == 1; });

  WireClient next(socket_path(), WireClient::Framing::kJson);
  next.submit(engine::start_event(1, 0.25, 2.0));
  const WireResponse answer = next.query(3.0);
  ASSERT_EQ(answer.error, WireError::kNone) << answer.detail;
  EXPECT_NE(answer.body.find("\"events_applied\":1,"), std::string::npos)
      << answer.body;
  serving.stop();
  EXPECT_EQ(server.stats().connections_failed, 1u);
  EXPECT_EQ(server.stats().connections_accepted, 2u);
  EXPECT_EQ(metrics.counter_value("net.connections_failed"),
            std::optional<std::uint64_t>(1));
}

// One serving thread runs every connection: 32 held open at once, half in
// each framing, each get a submit and a query served, and the process
// gains at most that one thread, the ServingThread that calls run().
TEST_F(WireServerTest, ManyConnectionsShareOneServingThread) {
  // A runtime may start a helper thread along with the process's first
  // thread (ThreadSanitizer does); starting one here counts it in the
  // baseline.
  std::thread([] {}).join();
  const int threads_before = thread_count();
  ASSERT_GT(threads_before, 0);

  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  constexpr std::uint64_t kConnections = 32;
  std::vector<std::unique_ptr<WireClient>> clients;
  for (std::uint64_t i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<WireClient>(
        socket_path(), i < kConnections / 2 ? WireClient::Framing::kBinary
                                            : WireClient::Framing::kJson));
  }
  for (std::uint64_t i = 0; i < kConnections; ++i) {
    const double t = static_cast<double>(i);
    clients[i]->submit(engine::start_event(i + 1, 0.125, t));
    const WireResponse answer = clients[i]->query(t);
    ASSERT_EQ(answer.error, WireError::kNone) << answer.detail;
    EXPECT_NE(answer.body.find("\"events_applied\":" + std::to_string(i + 1) + ","),
              std::string::npos)
        << answer.body;
    EXPECT_TRUE(clients[i]->async_errors().empty());
  }
  EXPECT_EQ(server.stats().connections_open, kConnections);
  EXPECT_LE(thread_count(), threads_before + 1);

  clients.clear();
  serving.stop();
  EXPECT_EQ(server.stats().connections_accepted, kConnections);
  EXPECT_EQ(eng.active_sessions(), kConnections);
}

// A client that pipelines queries and reads none of the answers fills its
// output queue past kMaxQueuedOutputBytes, and the server stops reading
// it. Another connection must still be served, and the first, once it
// reads, must get every answer in order.
TEST_F(WireServerTest, NonReadingClientDoesNotStallOthers) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  ServingThread serving(server);

  // The hog writes without blocking until its writes stall for half a
  // second: by then the server has stopped reading it. A server that never
  // stops would run the hog into the byte limit instead.
  const std::string line =
      encode_json_request(timed_request(WireVerb::kQuery, 0.0)) + "\n";
  std::string chunk;
  for (int i = 0; i < 256; ++i) chunk += line;
  const detail::FdGuard hog = connect_with_read_timeout(socket_path());
  ASSERT_EQ(::fcntl(hog.get(), F_SETFL, O_NONBLOCK), 0);
  constexpr std::size_t kByteLimit = std::size_t{4} << 20;
  std::size_t sent = 0;
  for (;;) {
    ASSERT_LT(sent, kByteLimit) << "the server never stopped reading the hog";
    const std::size_t offset = sent % chunk.size();
    const ssize_t n = ::send(hog.get(), chunk.data() + offset,
                             chunk.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    pollfd writable{hog.get(), POLLOUT, 0};
    if (::poll(&writable, 1, 500) == 0) break;
  }
  const std::uint64_t hog_queries = sent / line.size();
  EXPECT_GT(hog_queries, 1000u);
  EXPECT_LT(server.stats().frames_received, hog_queries);

  const detail::FdGuard other = connect_with_read_timeout(socket_path());
  detail::write_all(
      other.get(),
      as_bytes(encode_json_request(
                   submit_request(engine::start_event(1, 0.5, 1.0))) +
               "\n" +
               encode_json_request(timed_request(WireVerb::kQuery, 1.0)) +
               "\n"));
  detail::RecvBuffer other_in(kMaxFrameBytes);
  const WireResponse answer = next_json_response(other.get(), other_in);
  EXPECT_EQ(answer.request_seq, 2u);
  ASSERT_EQ(answer.error, WireError::kNone) << answer.detail;
  EXPECT_NE(answer.body.find("\"events_applied\":1,"), std::string::npos)
      << answer.body;

  ASSERT_EQ(::fcntl(hog.get(), F_SETFL, 0), 0);
  detail::RecvBuffer hog_in(kMaxFrameBytes);
  std::uint64_t answered_in_order = 0;
  for (std::uint64_t seq = 1; seq <= hog_queries; ++seq) {
    const WireResponse response = next_json_response(hog.get(), hog_in);
    if (response.request_seq != seq || response.error != WireError::kNone) {
      ADD_FAILURE() << "answer " << seq << " arrived as seq "
                    << response.request_seq << ": " << response.detail;
      break;
    }
    ++answered_in_order;
  }
  EXPECT_EQ(answered_in_order, hog_queries);
  serving.stop();
  EXPECT_EQ(server.stats().connections_accepted, 2u);
}

TEST_F(WireServerTest, StopRequestedBeforeRunEndsItAtOnce) {
  engine::ShardedDispatchEngine eng(engine_config());
  WireServer server(eng, server_config());
  server.start();
  EXPECT_TRUE(std::filesystem::exists(socket_path()));
  server.request_stop();
  EXPECT_FALSE(server.run());
  EXPECT_FALSE(std::filesystem::exists(socket_path()));
  // A server runs once and starts once.
  EXPECT_THROW((void)server.run(), PreconditionError);
  EXPECT_THROW(server.start(), PreconditionError);
  server.request_stop();  // harmless once run() has returned
}

}  // namespace
}  // namespace dbp::net
