// Unix-domain-socket front-end for the sharded dispatch engine.
//
// A WireServer listens on one AF_UNIX stream socket and accepts any number
// of client connections, each served by its own thread. The first byte of
// a connection picks its framing — '{' selects line-JSON, anything else
// the CRC'd binary frames of wire_protocol.hpp — and both deserialize into
// the same WireRequest vocabulary before touching the engine.
//
// Determinism is preserved by construction: the wire layer only *produces*
// engine::SessionEvents through the same submit() path every in-process
// producer uses; it never applies events, never reorders a connection's
// stream (per-connection FIFO == per-producer FIFO), and never invents
// timestamps. Epoch ticks come either from explicit `epoch` requests or
// from the optional timer thread, which advances to the high-water mark of
// event times seen so far — wall time paces *when* an epoch is cut, but
// the epoch's logical time is always derived from the event stream, so a
// wire-fed run replays bit-identically (tests/net_differential_test.cpp).
//
// Fault containment: every malformed frame is a typed WireError answered
// on the offending connection only. Recoverable errors (unknown verb, bad
// field) keep the connection; errors that desynchronize the byte stream
// (bad magic/CRC/length, truncation) close it after one final error
// response. Other connections and the engine are never affected.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "net/wire_protocol.hpp"
#include "obs/obs.hpp"

namespace dbp::net {

struct WireServerConfig {
  /// Filesystem path of the AF_UNIX listening socket.
  std::string socket_path;
  /// Per-frame payload cap for the binary framing.
  std::uint32_t max_frame_payload_bytes = kMaxFramePayloadBytes;
  /// Per-line cap for the JSON framing.
  std::size_t max_json_line_bytes = std::size_t{1} << 16;
  /// Timer-thread epoch cadence in milliseconds; 0 disables the timer and
  /// leaves epochs entirely to explicit `epoch` requests.
  std::uint64_t epoch_cadence_ms = 0;
  int listen_backlog = 64;
  /// Remove a stale socket file before binding (a previous server that
  /// died without stop() leaves one behind).
  bool unlink_existing = true;

  /// Throws PreconditionError unless the configuration is usable.
  void validate() const;
};

/// Monotonic serving counters; snapshot via WireServer::stats(). The same
/// values are mirrored into obs counters ("net.frames_received", ...) when
/// a MetricsRegistry is attached.
struct WireServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t frames_received = 0;  ///< frames or JSON lines parsed
  std::uint64_t frames_rejected = 0;  ///< typed rejections (any WireError)
  std::uint64_t bytes_in = 0;
  std::uint64_t events_submitted = 0;
  std::uint64_t epochs_advanced = 0;  ///< explicit requests + timer ticks
  std::uint64_t timer_ticks = 0;
};

class WireServer {
 public:
  /// The engine must outlive the server. `tracer`/`metrics` (optional) are
  /// installed as the observability context of every serving thread, so
  /// engine work triggered by wire requests emits trace records exactly
  /// like a direct driver would.
  WireServer(engine::ShardedDispatchEngine& eng, WireServerConfig config,
             obs::RunTracer* tracer = nullptr,
             obs::MetricsRegistry* metrics = nullptr);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds, listens and starts the accept (and, if configured, timer)
  /// thread. Throws IoError when the socket cannot be created.
  void start();

  /// Graceful shutdown: stops accepting, wakes and joins every connection
  /// and the timer, then drains the engine's rings so no accepted event is
  /// lost. Idempotent; also runs from the destructor.
  void stop();

  /// Blocks until a `shutdown` request arrives (or stop() is called from
  /// another thread). Returns whether a shutdown request was the trigger.
  bool wait_until_stopped();

  /// Wakes wait_until_stopped() without tearing anything down — the signal
  /// half of a SIGINT handler; the caller then runs stop().
  void request_stop();

  /// Bounded wait: true when a stop was requested within `timeout_ms`.
  /// Lets a serving loop interleave signal-flag polling with blocking on
  /// the shutdown verb (tools/dbp_serve).
  [[nodiscard]] bool poll_stop_requested(std::uint64_t timeout_ms);

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] WireServerStats stats() const noexcept;

  /// High-water mark of finite event/epoch times seen on the wire; the
  /// timer thread cuts its epochs here.
  [[nodiscard]] double watermark_minutes() const noexcept {
    return watermark_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const WireServerConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Connection;

  void accept_loop();
  void timer_loop();
  void serve_connection(Connection& conn);
  void serve_binary(Connection& conn);
  void serve_json(Connection& conn);

  /// Dispatches one decoded request. Returns true when the connection
  /// should close (shutdown verb). Success responses go out for query and
  /// shutdown only; submit/epoch are fire-and-forget unless rejected.
  bool handle_request(Connection& conn, std::uint64_t seq,
                      const WireRequest& request);
  void send_response(Connection& conn, const WireResponse& response);
  void reject(Connection& conn, std::uint64_t seq, WireError error,
              std::string detail);

  /// Advances the engine epoch. The engine refuses non-finite and
  /// regressing epoch times with a PreconditionError, which comes back as
  /// the rejection detail (empty on success), so the connection survives.
  [[nodiscard]] std::string advance_epoch_checked(double t);

  void raise_watermark(double t) noexcept;
  [[nodiscard]] std::string build_query_body(double horizon);
  void reap_finished_connections();

  engine::ShardedDispatchEngine& engine_;
  WireServerConfig config_;
  obs::RunTracer* tracer_;
  obs::MetricsRegistry* metrics_;

  // Cached "net.*" obs counters (null when no registry is attached).
  obs::Counter* c_connections_ = nullptr;
  obs::Counter* c_frames_received_ = nullptr;
  obs::Counter* c_frames_rejected_ = nullptr;
  obs::Counter* c_bytes_in_ = nullptr;
  obs::Counter* c_events_ = nullptr;
  obs::Counter* c_epochs_ = nullptr;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::thread timer_thread_;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<double> watermark_{0.0};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool shutdown_verb_seen_ = false;

  // Serving counters (relaxed; exact totals read after stop()).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_open_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> events_submitted_{0};
  std::atomic<std::uint64_t> epochs_advanced_{0};
  std::atomic<std::uint64_t> timer_ticks_{0};
};

}  // namespace dbp::net
