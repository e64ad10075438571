// Unix-domain-socket front-end for the sharded dispatch engine.
//
// A WireServer listens on one AF_UNIX stream socket and serves any number
// of client connections on the thread that calls run(). That thread runs a
// level-triggered epoll loop over the non-blocking listening socket, every
// connection, an eventfd that request_stop() writes and, when an epoch
// cadence is configured, a timerfd. The first byte of a connection picks
// its framing — '{' selects line-JSON, anything else the CRC'd binary
// frames of wire_protocol.hpp — and both deserialize into the same
// WireRequest vocabulary before touching the engine.
//
// The engine is not thread-safe, and the server keeps its one-thread
// contract: while run() serves, it makes every engine call, and it applies
// the engine's queued events before it returns. Read the engine through a
// `query`, or directly once run() has returned.
//
// Determinism is preserved by construction: the wire layer only *produces*
// engine::SessionEvents through the same submit() a direct driver calls;
// it never applies events itself, never reorders a connection's stream,
// and never invents timestamps. Epoch ticks come either from explicit
// `epoch` requests or from the timerfd, whose ticks the loop cuts at the
// engine's event clock (the latest applied event time) — wall time paces
// *when* an epoch is cut, but the epoch's logical time is always derived
// from the event stream, so a wire-fed run replays bit-identically
// (tests/net_differential_test.cpp).
//
// Each connection reads through one receive buffer, allocated once and
// sized for the largest frame: one recv() takes everything the peer has
// queued, and every complete frame or line in it is decoded in place.
// Responses the socket does not take at once wait in the connection's
// output queue and go out when the socket turns writable. While that
// queue holds more than kMaxQueuedOutputBytes the loop serves and reads
// nothing more from that connection, so a client that does not read its
// answers holds bounded memory and never stalls the others.
//
// Fault containment: every malformed frame is a typed WireError answered
// on the offending connection only. Recoverable errors (unknown verb, bad
// field) keep the connection; errors that desynchronize the byte stream
// (bad magic/CRC/length, truncation) close it after one final error
// response. Other connections and the engine are never affected.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "net/fd_io.hpp"
#include "net/wire_protocol.hpp"
#include "obs/obs.hpp"

namespace dbp::net {

/// Response bytes one connection may have queued, unsent, before the
/// server stops serving and reading it; it resumes once the queue is back
/// under the cap. One response can pass the cap by itself.
inline constexpr std::size_t kMaxQueuedOutputBytes =
    std::size_t{4} * kMaxFramePayloadBytes;

struct WireServerConfig {
  /// Filesystem path of the AF_UNIX listening socket.
  std::string socket_path;
  /// Epoch timer cadence in milliseconds; 0 disables the timer and leaves
  /// epochs entirely to explicit `epoch` requests.
  std::uint64_t epoch_cadence_ms = 0;

  /// Throws PreconditionError unless the configuration is usable.
  void validate() const;
};

/// Monotonic serving counters; snapshot via WireServer::stats(). The same
/// values are mirrored into obs counters ("net.frames_received", ...) when
/// a MetricsRegistry is attached.
struct WireServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  /// Connections closed without an answer because serving them threw
  /// something other than an I/O error (a serving defect).
  std::uint64_t connections_failed = 0;
  std::uint64_t frames_received = 0;  ///< frames or JSON lines parsed
  std::uint64_t frames_rejected = 0;  ///< typed rejections (any WireError)
  /// Bytes received from the sockets. After a fatal frame this can exceed
  /// the bytes parsed: the rest of that read is dropped unserved.
  std::uint64_t bytes_in = 0;
  std::uint64_t events_submitted = 0;
  std::uint64_t epochs_advanced = 0;  ///< explicit requests + timer ticks
  std::uint64_t timer_ticks = 0;
};

class WireServer {
 public:
  /// The engine must outlive the server. `tracer`/`metrics` (optional) are
  /// installed as the observability context while run() serves, so engine
  /// work triggered by wire requests emits trace records exactly like a
  /// direct driver would.
  WireServer(engine::ShardedDispatchEngine& eng, WireServerConfig config,
             obs::RunTracer* tracer = nullptr,
             obs::MetricsRegistry* metrics = nullptr);
  /// Closes what is still open: the listening socket (and its file) when
  /// run() never ran, and the stop eventfd. run() must have returned.
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds, listens, and builds the epoll set, the stop eventfd and, with a
  /// cadence, the epoch timerfd, on the calling thread. Throws IoError when
  /// one cannot be created. A server starts once.
  void start();

  /// Serves on the calling thread until the shutdown verb arrives or a stop
  /// is requested. Then it closes every connection, closes and unlinks the
  /// listening socket, and applies the engine's queued events, so no
  /// accepted event is lost. Returns true when the shutdown verb ended it.
  /// Runs once, after start().
  bool run();

  /// Ends run(): one write(2) of 1 to the stop eventfd, with no lock and no
  /// allocation. Any thread may call it after start(); a stop requested
  /// before run() makes run() return at once.
  void request_stop() noexcept;

  /// The stop eventfd (-1 before start()), open until the server is
  /// destroyed. Writing an 8-byte 1 to it is request_stop(), which a
  /// signal handler can do without touching the server.
  [[nodiscard]] int stop_fd() const noexcept { return wake_fd_.get(); }

  [[nodiscard]] WireServerStats stats() const noexcept;

  /// High-water mark of finite event/epoch times seen on the wire, as
  /// reported by `query`.
  [[nodiscard]] double watermark_minutes() const noexcept {
    return watermark_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const WireServerConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Connection;

  /// Closes the listening socket, if open, and unlinks its file.
  void close_listener() noexcept;

  // Everything below runs inside run() only.
  /// Serves until the shutdown verb or a stop request.
  void serve_loop();
  /// Accepts every queued connection; pauses the listening socket when the
  /// process or the system is out of descriptors.
  void accept_connections();
  void set_accepting(bool accepting);
  void tick_timer();

  /// Handles one epoll event of a connection, then re-registers or closes
  /// it.
  void serve_event(Connection& conn, std::uint32_t events);
  /// One recv(), then every request it completes.
  void read_and_serve(Connection& conn);
  /// Serves buffered complete requests until none is left, the connection
  /// closes, or its output queue passes kMaxQueuedOutputBytes.
  void serve_buffered(Connection& conn);
  void serve_binary(Connection& conn);
  void serve_json(Connection& conn);
  void serve_line(Connection& conn, std::string_view line);
  /// Answers a decode error or serves the request; the connection closes
  /// after a fatal error or the shutdown verb.
  void serve_decoded(Connection& conn, std::uint64_t seq,
                     const DecodeResult& decoded);
  /// The peer finished writing: serves or rejects a trailing partial
  /// request, and the connection closes once its output is sent.
  void serve_eof(Connection& conn);
  /// Matches the connection's epoll interest to its state, or closes it.
  void settle(Connection& conn);
  void close_connection(Connection& conn);

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
  /// Counts one epoch the engine cut at `t`.
  void count_epoch(double t) noexcept;

  void raise_watermark(double t) noexcept;
  [[nodiscard]] std::string build_query_body(double horizon);

  engine::ShardedDispatchEngine& engine_;
  WireServerConfig config_;
  obs::RunTracer* tracer_;
  obs::MetricsRegistry* metrics_;

  // Cached "net.*" obs counters (null when no registry is attached).
  obs::Counter* c_connections_ = nullptr;
  obs::Counter* c_connections_failed_ = nullptr;
  obs::Counter* c_frames_received_ = nullptr;
  obs::Counter* c_frames_rejected_ = nullptr;
  obs::Counter* c_bytes_in_ = nullptr;
  obs::Counter* c_events_ = nullptr;
  obs::Counter* c_epochs_ = nullptr;

  detail::FdGuard listen_fd_;
  detail::FdGuard epoll_fd_;
  detail::FdGuard wake_fd_;   ///< eventfd: request_stop() ends run()
  detail::FdGuard timer_fd_;  ///< timerfd: epoch cadence (invalid when 0)

  // Serving state: connections indexed by descriptor.
  std::vector<std::unique_ptr<Connection>> connections_;
  bool accept_paused_ = false;

  std::atomic<double> watermark_{0.0};

  bool shutdown_verb_seen_ = false;

  // Serving counters: run() is their only writer; stats() reads them from
  // any thread (exact totals once run() has returned).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_open_{0};
  std::atomic<std::uint64_t> connections_failed_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> events_submitted_{0};
  std::atomic<std::uint64_t> epochs_advanced_{0};
  std::atomic<std::uint64_t> timer_ticks_{0};
};

}  // namespace dbp::net
