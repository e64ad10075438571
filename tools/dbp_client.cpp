// dbp_client — drive a dbp_serve instance over its Unix socket.
//
// Three modes, combinable left to right:
//
//   replay    stream a trace CSV (--trace=FILE) or a generated workload
//             (--events/--seed/--workload) through submit; with
//             --epoch-every=N it also drives epochs: one every N events
//             plus one at the end of the stream (omit it when the server's
//             timer owns the epoch cadence).
//   query     after the replay (or alone), round-trip the `query` verb and
//             print the server's stats JSON to stdout.
//   malform   (--malform=KIND) send one corrupted frame/line from the
//             malformed-input corpus and verify the server answers the
//             expected typed rejection, closes the connection only for
//             framing-fatal errors, and keeps serving other connections.
//
// Usage:
//   dbp_client --socket=PATH [--framing=binary|json]
//              [--trace=FILE | --events=2000 --seed=17
//               --workload=uniform|dyadic|bursts]
//              [--epoch-every=0] [--query-at=T] [--shutdown]
//              [--malform=truncated|bad-crc|oversized|garbage|unknown-verb|
//                         bad-json|non-utf8] [--expect-reject]
//              [--connect-retries=50]
//
// Exit status: 0 = success (with --expect-reject: the expected rejection
// arrived and the server survived), 1 = any failure.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "core/binary_io.hpp"
#include "core/crc32.hpp"
#include "core/error.hpp"
#include "engine/engine.hpp"
#include "net/wire_client.hpp"
#include "net/wire_protocol.hpp"
#include "sim/event.hpp"
#include "workload/random_instance.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace dbp;

constexpr const char* kUsage =
    "usage: dbp_client --socket=PATH [--framing=binary|json]\n"
    "                  [--trace=FILE | --events=2000 --seed=17\n"
    "                   --workload=uniform|dyadic|bursts]\n"
    "                  [--epoch-every=0] [--query-at=T] [--shutdown]\n"
    "                  [--malform=truncated|bad-crc|oversized|garbage|\n"
    "                             unknown-verb|bad-json|non-utf8]\n"
    "                  [--expect-reject] [--connect-retries=50]\n";

/// Maps an instance to the engine event stream, chronologically.
std::vector<engine::SessionEvent> stream_from_instance(const Instance& instance) {
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

/// Generated workloads mirror the dispatch bench's shape; --workload picks
/// the size distribution / arrival process the wire differential exercises.
std::vector<engine::SessionEvent> make_stream(std::size_t events,
                                              std::uint64_t seed,
                                              const std::string& workload,
                                              const std::string& usage) {
  RandomInstanceConfig config;
  config.item_count = std::max<std::size_t>(1, events / 2);
  config.arrival.rate = 50.0;
  config.duration.max_length = 6.0;
  config.size.min_fraction = 0.05;
  config.size.max_fraction = 0.5;
  if (workload == "uniform") {
    // defaults
  } else if (workload == "dyadic") {
    config.size.kind = SizeModel::Kind::kDyadic;
  } else if (workload == "bursts") {
    config.arrival.kind = ArrivalModel::Kind::kBursts;
    config.arrival.burst_size = 16;
    config.arrival.burst_gap = 0.5;
  } else {
    throw PreconditionError("unknown --workload '" + workload + "'\n" + usage);
  }
  return stream_from_instance(generate_random_instance(config, seed));
}

net::WireClient::Framing parse_framing(const std::string& name,
                                       const std::string& usage) {
  if (name == "binary") return net::WireClient::Framing::kBinary;
  if (name == "json") return net::WireClient::Framing::kJson;
  throw PreconditionError("unknown --framing '" + name + "'\n" + usage);
}

/// Connects with retries so a smoke script can start dbp_serve and
/// dbp_client back to back without racing the bind.
net::WireClient connect(const std::string& socket_path,
                        net::WireClient::Framing framing,
                        std::uint64_t retries) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    try {
      return net::WireClient(socket_path, framing);
    } catch (const IoError&) {
      if (attempt >= retries) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

/// One corpus entry: the bytes to inject, what the server must answer, and
/// whether the rejection is framing-fatal (connection must close after it).
struct MalformCase {
  std::string name;
  std::vector<std::uint8_t> bytes;
  net::WireError expected = net::WireError::kNone;
  bool json_mode = false;
  bool fatal = false;
};

MalformCase build_malform(const std::string& kind,
                          net::WireClient::Framing framing,
                          const std::string& usage) {
  const auto from_string = [](const std::string& text) {
    return std::vector<std::uint8_t>(text.begin(), text.end());
  };
  MalformCase out;
  out.name = kind;
  if (kind == "truncated") {
    // Valid header promising 32 payload bytes; only 8 arrive before EOF.
    const std::vector<std::uint8_t> payload(32, 0);
    ByteWriter frame;
    net::append_frame(frame, payload);
    std::vector<std::uint8_t> bytes = frame.take();
    bytes.resize(net::kFrameHeaderBytes + 8);
    out.bytes = std::move(bytes);
    out.expected = net::WireError::kTruncatedFrame;
    out.fatal = true;
  } else if (kind == "bad-crc") {
    net::WireRequest request;
    request.verb = net::WireVerb::kQuery;
    std::vector<std::uint8_t> bytes = net::encode_request_frame(request);
    bytes.back() ^= 0xFFU;  // flip a payload byte; the header CRC is stale
    out.bytes = std::move(bytes);
    out.expected = net::WireError::kBadCrc;
    out.fatal = true;
  } else if (kind == "oversized") {
    ByteWriter header;
    header.u32(net::kWireMagic);
    header.u32(net::kMaxFramePayloadBytes + 1);
    header.u32(0);
    out.bytes = header.take();
    out.expected = net::WireError::kOversizedFrame;
    out.fatal = true;
  } else if (kind == "garbage") {
    out.bytes = from_string("GARBAGE-NOT-A-FRAME\n");
    out.expected = net::WireError::kBadMagic;
    out.fatal = true;
  } else if (kind == "unknown-verb") {
    // The only framing-dependent entry: exercised in both framings.
    if (framing == net::WireClient::Framing::kJson) {
      out.bytes = from_string("{\"verb\":\"frobnicate\"}\n");
      out.json_mode = true;
    } else {
      const std::vector<std::uint8_t> payload = {0x63};
      ByteWriter frame;
      net::append_frame(frame, payload);
      out.bytes = frame.take();
    }
    out.expected = net::WireError::kUnknownVerb;
  } else if (kind == "bad-json") {
    out.bytes = from_string("{not json\n");
    out.expected = net::WireError::kBadJson;
    out.json_mode = true;
  } else if (kind == "non-utf8") {
    std::vector<std::uint8_t> bytes = from_string("{\"verb\":\"query\",\"t\":");
    bytes.push_back(0xFFU);  // bare continuation byte: invalid UTF-8
    bytes.push_back(0xFEU);
    bytes.push_back(static_cast<std::uint8_t>('}'));
    bytes.push_back(static_cast<std::uint8_t>('\n'));
    out.bytes = std::move(bytes);
    out.expected = net::WireError::kNotUtf8;
    out.json_mode = true;
  } else {
    throw PreconditionError("unknown --malform '" + kind + "'\n" + usage);
  }
  return out;
}

/// Runs one corpus entry end to end. Returns true when the server behaved
/// exactly as specified: typed rejection, correct close behaviour, and a
/// fresh connection still served afterwards.
bool run_malform(const std::string& socket_path, const MalformCase& entry,
                 std::uint64_t retries) {
  const net::WireClient::Framing framing =
      entry.json_mode ? net::WireClient::Framing::kJson
                      : net::WireClient::Framing::kBinary;
  net::WireClient client = connect(socket_path, framing, retries);
  client.send_raw(entry.bytes);
  if (entry.fatal) client.finish_writes();

  net::WireResponse response;
  try {
    response = client.read_response();
  } catch (const std::exception& error) {
    std::cerr << "dbp_client: no rejection for '" << entry.name
              << "': " << error.what() << "\n";
    return false;
  }
  if (response.error != entry.expected) {
    std::cerr << "dbp_client: '" << entry.name << "' expected error '"
              << net::to_string(entry.expected) << "', got '"
              << net::to_string(response.error) << "' (" << response.detail
              << ")\n";
    return false;
  }

  if (entry.fatal) {
    // A framing-fatal rejection must be the connection's last breath.
    try {
      (void)client.read_response();
      std::cerr << "dbp_client: connection survived fatal '" << entry.name
                << "'\n";
      return false;
    } catch (const IoError&) {
      // expected: server closed after the error response
    }
  } else {
    // A recoverable rejection must leave the same stream usable.
    const net::WireResponse after = client.query(0.0);
    if (after.error != net::WireError::kNone) {
      std::cerr << "dbp_client: stream unusable after recoverable '"
                << entry.name << "'\n";
      return false;
    }
  }

  // Either way the *server* must keep serving new connections.
  net::WireClient probe =
      connect(socket_path, net::WireClient::Framing::kBinary, retries);
  const net::WireResponse alive = probe.query(0.0);
  if (alive.error != net::WireError::kNone) {
    std::cerr << "dbp_client: server unhealthy after '" << entry.name << "'\n";
    return false;
  }
  std::cout << "{\"malform\":\"" << entry.name << "\",\"error\":\""
            << net::to_string(response.error) << "\",\"fatal\":"
            << (entry.fatal ? "true" : "false") << ",\"server_alive\":true}\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbp;
  try {
    const cli::Args args(argc, argv,
                         {"socket", "framing", "trace", "events", "seed",
                          "workload", "epoch-every", "query-at", "shutdown",
                          "malform", "expect-reject", "connect-retries"},
                         kUsage);
    const std::string socket_path = args.require("socket");
    const net::WireClient::Framing framing =
        parse_framing(args.get("framing", "binary"), kUsage);
    const std::uint64_t retries = args.get_u64("connect-retries", 50);

    if (args.has("malform")) {
      const MalformCase entry =
          build_malform(args.require("malform"), framing, kUsage);
      const bool ok = run_malform(socket_path, entry, retries);
      if (args.has("expect-reject")) return ok ? 0 : 1;
      return ok ? 0 : 1;
    }

    std::vector<engine::SessionEvent> stream;
    if (args.has("trace")) {
      stream = stream_from_instance(read_instance_csv(args.require("trace")));
    } else {
      stream = make_stream(args.get_u64("events", 2000),
                           args.get_u64("seed", 17),
                           args.get("workload", "uniform"), kUsage);
    }

    net::WireClient client = connect(socket_path, framing, retries);
    const std::uint64_t epoch_every = args.get_u64("epoch-every", 0);
    std::uint64_t since_epoch = 0;
    for (const engine::SessionEvent& event : stream) {
      client.submit(event);
      if (epoch_every != 0 && ++since_epoch == epoch_every) {
        client.epoch(event.time_minutes);
        since_epoch = 0;
      }
    }
    const double end_time =
        stream.empty() ? 0.0 : stream.back().time_minutes;
    // Only an epoch-driving client (--epoch-every) cuts the final epoch.
    // When the server's timer (or another client) owns the cadence, the
    // last epoch can already be past this stream's end, and an
    // unconditional epoch here would be rejected as regressing.
    if (epoch_every != 0) client.epoch(end_time);

    const double horizon = args.get_double("query-at", end_time);
    const net::WireResponse answer = client.query(horizon);
    if (answer.error != net::WireError::kNone) {
      std::cerr << "dbp_client: query rejected: " << answer.detail << "\n";
      return 1;
    }
    std::cout << "{\"schema\":\"dbp-client/1\",\"events_sent\":"
              << stream.size() << ",\"query\":" << answer.body << "}\n";

    if (args.has("shutdown")) {
      const net::WireResponse ack = client.shutdown_server();
      if (ack.error != net::WireError::kNone) {
        std::cerr << "dbp_client: shutdown rejected: " << ack.detail << "\n";
        return 1;
      }
      std::cerr << "dbp_client: server acknowledged shutdown\n";
    }

    for (const net::WireResponse& stray : client.async_errors()) {
      std::cerr << "dbp_client: request " << stray.request_seq
                << " rejected: " << net::to_string(stray.error) << " ("
                << stray.detail << ")\n";
    }
    return client.async_errors().empty() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "dbp_client: " << error.what() << "\n";
    return 1;
  }
}
