// dbp_serve — Unix-socket wire front-end for the sharded dispatch engine.
//
// Binds net::WireServer on --socket and serves on the main thread until a
// client sends the `shutdown` verb or the process receives SIGINT/SIGTERM;
// both paths run the same graceful stop (close connections, apply the
// engine's queued events, unlink socket). However many clients connect,
// the process runs one thread, which makes every engine call. A
// clairvoyant --algorithm is refused at start-up. On exit a summary JSON
// goes to stdout: serving counters plus the final engine view (events
// applied, active sessions, streaming OPT bounds).
//
// Usage:
//   dbp_serve --socket=PATH [--shards=1]
//             [--algorithm=first-fit] [--capacity=1.0] [--price-per-hour=6.0]
//             [--epoch-cadence-ms=0] [--trace-out=FILE] [--metrics]
//
// --epoch-cadence-ms=N arms a timerfd on the serving loop that cuts an
// epoch every N ms at the engine's event clock (0 = epochs only on
// explicit request). --trace-out/--metrics hand the tracer/registry to the
// server, so the exported trace matches a direct driver's
// (docs/wire_protocol.md).
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

#include "cli.hpp"
#include "core/checked_output.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "engine/engine.hpp"
#include "net/wire_server.hpp"
#include "obs_cli.hpp"

namespace {

using namespace dbp;

constexpr const char* kUsage =
    "usage: dbp_serve --socket=PATH [--shards=1]\n"
    "                 [--algorithm=first-fit] [--capacity=1.0]\n"
    "                 [--price-per-hour=6.0] [--epoch-cadence-ms=0]\n"
    "                 [--trace-out=FILE] [--metrics]\n";

/// The server's stop eventfd while run() serves, -1 otherwise.
volatile std::sig_atomic_t g_stop_fd = -1;

/// SIGINT/SIGTERM: WireServer::request_stop() written out in C, so run()
/// returns at once. write(2) is async-signal-safe.
void on_signal(int) {
  const int fd = g_stop_fd;
  if (fd < 0) return;
  const int saved_errno = errno;
  const std::uint64_t one = 1;
  const ssize_t written = write(fd, &one, sizeof(one));
  (void)written;
  errno = saved_errno;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbp;
  try {
    const cli::Args args(argc, argv,
                         {"socket", "shards", "algorithm", "capacity",
                          "price-per-hour", "epoch-cadence-ms", "trace-out",
                          "metrics"},
                         kUsage);
    cli::ObsSession obs_session(args);

    engine::EngineConfig config;
    config.shard_count = args.get_u64("shards", 1);
    config.algorithm = args.get("algorithm", "first-fit");
    config.spec = ServerSpec{args.get_double("capacity", 1.0),
                             args.get_double("price-per-hour", 6.0)};
    engine::ShardedDispatchEngine eng(config);

    net::WireServerConfig server_config;
    server_config.socket_path = args.require("socket");
    server_config.epoch_cadence_ms = args.get_u64("epoch-cadence-ms", 0);
    net::WireServer server(eng, server_config, obs_session.tracer(),
                           obs_session.metrics());

    server.start();
    g_stop_fd = server.stop_fd();
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::cerr << "dbp_serve: listening on " << server_config.socket_path
              << " (" << config.shard_count << " shard(s)";
    if (server_config.epoch_cadence_ms > 0) {
      std::cerr << ", epoch every " << server_config.epoch_cadence_ms << " ms";
    }
    std::cerr << ")\n";

    server.run();
    g_stop_fd = -1;

    const net::WireServerStats stats = server.stats();
    const engine::StreamingOptBounds bounds = eng.opt_bounds();
    std::ostringstream json;
    json << "{\n";
    json << "  \"schema\": \"dbp-serve/1\",\n";
    json << "  \"connections_accepted\": " << stats.connections_accepted
         << ",\n";
    json << "  \"frames_received\": " << stats.frames_received << ",\n";
    json << "  \"frames_rejected\": " << stats.frames_rejected << ",\n";
    json << "  \"bytes_in\": " << stats.bytes_in << ",\n";
    json << "  \"events_submitted\": " << stats.events_submitted << ",\n";
    json << "  \"epochs_advanced\": " << stats.epochs_advanced << ",\n";
    json << "  \"timer_ticks\": " << stats.timer_ticks << ",\n";
    json << "  \"events_applied\": " << eng.events_applied() << ",\n";
    json << "  \"active_sessions\": " << eng.active_sessions() << ",\n";
    json << "  \"dropped_events\": "
         << eng.merged_fault_stats().total_dropped_events() << ",\n";
    json << "  \"opt_lower_dollars\": " << json_number(bounds.lower_dollars)
         << ",\n";
    json << "  \"opt_upper_dollars\": " << json_number(bounds.upper_dollars)
         << ",\n";
    json << "  \"opt_segments\": " << bounds.segments << "\n";
    json << "}\n";
    std::cout << json.str();
    obs_session.finish();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "dbp_serve: " << error.what() << "\n";
    return 1;
  }
}
