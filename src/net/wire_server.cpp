#include "net/wire_server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/crc32.hpp"
#include "core/error.hpp"
#include "core/strfmt.hpp"
#include "net/fd_io.hpp"

// DBP_LINT_ALLOW(symbol-wall-clock): the epoch timer thread paces its ticks
// with condition_variable::wait_for. Wall time decides only *when* an epoch
// is cut; the epoch's logical time is always max(event watermark, last
// epoch), so no clock reading ever reaches an engine result.

namespace dbp::net {

using detail::FdGuard;
using detail::read_exact;
using detail::write_all;

void WireServerConfig::validate() const {
  DBP_REQUIRE(!socket_path.empty(), "WireServerConfig.socket_path is empty");
  DBP_REQUIRE(max_frame_payload_bytes > 0 &&
                  max_frame_payload_bytes <= kMaxFramePayloadBytes,
              "WireServerConfig.max_frame_payload_bytes must be in (0, " +
                  std::to_string(kMaxFramePayloadBytes) + "]");
  DBP_REQUIRE(max_json_line_bytes > 0,
              "WireServerConfig.max_json_line_bytes must be positive");
  DBP_REQUIRE(listen_backlog > 0,
              "WireServerConfig.listen_backlog must be positive");
}

struct WireServer::Connection {
  FdGuard fd;
  std::thread thread;
  std::atomic<bool> done{false};
  bool json_mode = false;
};

namespace {

void bump(obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->add(n);
}

}  // namespace

WireServer::WireServer(engine::ShardedDispatchEngine& eng,
                       WireServerConfig config, obs::RunTracer* tracer,
                       obs::MetricsRegistry* metrics)
    : engine_(eng),
      config_(std::move(config)),
      tracer_(tracer),
      metrics_(metrics) {
  config_.validate();
  if (metrics_ != nullptr) {
    c_connections_ = &metrics_->counter("net.connections");
    c_frames_received_ = &metrics_->counter("net.frames_received");
    c_frames_rejected_ = &metrics_->counter("net.frames_rejected");
    c_bytes_in_ = &metrics_->counter("net.bytes_in");
    c_events_ = &metrics_->counter("net.events_submitted");
    c_epochs_ = &metrics_->counter("net.epochs");
  }
}

WireServer::~WireServer() { stop(); }

void WireServer::start() {
  DBP_REQUIRE(!running_.load() && !stopping_.load(),
              "WireServer cannot be restarted; construct a fresh one");
  const sockaddr_un address = detail::make_unix_address(config_.socket_path);
  FdGuard sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) {
    throw IoError("cannot create unix socket: " +
                  std::string(std::strerror(errno)));
  }
  if (config_.unlink_existing) ::unlink(config_.socket_path.c_str());
  if (::bind(sock.get(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    throw IoError("cannot bind '" + config_.socket_path +
                  "': " + std::string(std::strerror(errno)));
  }
  if (::listen(sock.get(), config_.listen_backlog) != 0) {
    throw IoError("cannot listen on '" + config_.socket_path +
                  "': " + std::string(std::strerror(errno)));
  }
  listen_fd_ = sock.release();
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&WireServer::accept_loop, this);
  if (config_.epoch_cadence_ms > 0) {
    timer_thread_ = std::thread(&WireServer::timer_loop, this);
  }
}

void WireServer::stop() {
  stopping_.store(true, std::memory_order_release);
  request_stop();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (timer_thread_.joinable()) timer_thread_.join();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    // Wake every blocked read with EOF, then join; fds close in the joins'
    // wake order via each connection's own epilogue.
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->fd.valid()) ::shutdown(conn->fd.get(), SHUT_RDWR);
    }
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    connections_.clear();
  }
  const bool was_running = running_.exchange(false);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  // Graceful drain: every event accepted onto a ring is applied before the
  // server reports stopped — shutdown never loses acknowledged work.
  if (was_running) {
    obs::ObsScope scope(tracer_, metrics_);
    engine_.drain();
  }
}

bool WireServer::wait_until_stopped() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
  return shutdown_verb_seen_;
}

bool WireServer::poll_stop_requested(std::uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [this] { return stop_requested_; });
  return stop_requested_;
}

void WireServer::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

WireServerStats WireServer::stats() const noexcept {
  WireServerStats out;
  out.connections_accepted = connections_accepted_.load();
  out.connections_open = connections_open_.load();
  out.frames_received = frames_received_.load();
  out.frames_rejected = frames_rejected_.load();
  out.bytes_in = bytes_in_.load();
  out.events_submitted = events_submitted_.load();
  out.epochs_advanced = epochs_advanced_.load();
  out.timer_ticks = timer_ticks_.load();
  return out;
}

void WireServer::raise_watermark(double t) noexcept {
  if (!std::isfinite(t)) return;  // a NaN event time must not poison ticks
  double current = watermark_.load(std::memory_order_relaxed);
  while (t > current && !watermark_.compare_exchange_weak(
                            current, t, std::memory_order_relaxed)) {
  }
}

void WireServer::accept_loop() {
  obs::ObsScope scope(tracer_, metrics_);
  for (;;) {
    reap_finished_connections();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listening socket shut down by stop()
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = FdGuard(fd);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    bump(c_connections_);
    Connection* raw = conn.get();
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { serve_connection(*raw); });
  }
}

void WireServer::reap_finished_connections() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& conn) {
    if (!conn->done.load(std::memory_order_acquire)) return false;
    if (conn->thread.joinable()) conn->thread.join();
    return true;
  });
}

void WireServer::timer_loop() {
  obs::ObsScope scope(tracer_, metrics_);
  const auto cadence = std::chrono::milliseconds(config_.epoch_cadence_ms);
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    stop_cv_.wait_for(lock, cadence);
    if (stopping_.load(std::memory_order_acquire)) break;
    lock.unlock();
    // Tick at the event-time high-water mark. With no new events since the
    // last tick this is a zero-length epoch segment, which the engine
    // integrates as exactly zero dollars and zero segments
    // (EngineTest.ZeroLengthEpochSegmentsAreFree) — an idle server's timer
    // never distorts the OPT bounds.
    const std::string problem =
        advance_epoch_checked(watermark_.load(std::memory_order_relaxed));
    if (problem.empty()) {
      timer_ticks_.fetch_add(1, std::memory_order_relaxed);
    }
    lock.lock();
  }
}

std::string WireServer::advance_epoch_checked(double t) {
  try {
    engine_.advance_epoch(t);
  } catch (const PreconditionError& error) {
    return error.what();  // a non-finite or regressing epoch time
  }
  raise_watermark(t);
  epochs_advanced_.fetch_add(1, std::memory_order_relaxed);
  bump(c_epochs_);
  return {};
}

void WireServer::serve_connection(Connection& conn) {
  obs::ObsScope scope(tracer_, metrics_);
  try {
    // First byte picks the framing: '{' is line-JSON, anything else binary.
    // MSG_PEEK leaves the byte for the real reader.
    std::uint8_t first = 0;
    ssize_t n;
    do {
      n = ::recv(conn.fd.get(), &first, 1, MSG_PEEK);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      conn.json_mode = first == static_cast<std::uint8_t>('{');
      if (conn.json_mode) {
        serve_json(conn);
      } else {
        serve_binary(conn);
      }
    }
  } catch (const IoError&) {
    // Peer vanished mid-read or mid-write: that connection's problem only.
  } catch (const std::exception&) {
    // Backstop — a serving defect must never take the process down; the
    // connection is dropped and every other connection keeps running.
  }
  conn.fd.reset();
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  conn.done.store(true, std::memory_order_release);
}

void WireServer::serve_binary(Connection& conn) {
  std::uint64_t seq = 0;
  std::array<std::uint8_t, kFrameHeaderBytes> header_bytes{};
  for (;;) {
    const std::size_t header_got =
        read_exact(conn.fd.get(), header_bytes.data(), header_bytes.size());
    if (header_got == 0) return;  // clean EOF on a frame boundary
    ++seq;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bump(c_frames_received_);
    bytes_in_.fetch_add(header_got, std::memory_order_relaxed);
    bump(c_bytes_in_, header_got);
    if (header_got < header_bytes.size()) {
      reject(conn, seq, WireError::kTruncatedFrame,
             "connection closed inside a frame header");
      return;
    }
    FrameHeader header;
    const WireError header_error = decode_frame_header(
        header_bytes, header, config_.max_frame_payload_bytes);
    if (header_error != WireError::kNone) {
      reject(conn, seq, header_error,
             header_error == WireError::kBadMagic
                 ? "frame header magic mismatch (expected \"DBPW\")"
                 : strfmt("frame length %u exceeds the %u-byte payload cap",
                          header.payload_len, config_.max_frame_payload_bytes));
      return;  // both header errors are fatal: the stream is unframed now
    }
    std::vector<std::uint8_t> payload(header.payload_len);
    const std::size_t payload_got =
        read_exact(conn.fd.get(), payload.data(), payload.size());
    bytes_in_.fetch_add(payload_got, std::memory_order_relaxed);
    bump(c_bytes_in_, payload_got);
    if (payload_got < payload.size()) {
      reject(conn, seq, WireError::kTruncatedFrame,
             "connection closed inside a frame payload");
      return;
    }
    if (crc32(payload) != header.payload_crc) {
      reject(conn, seq, WireError::kBadCrc, "frame payload CRC mismatch");
      return;
    }
    const DecodeResult decoded = decode_request(payload);
    if (decoded.error != WireError::kNone) {
      reject(conn, seq, decoded.error, decoded.detail);
      if (fatal(decoded.error)) return;
      continue;
    }
    if (handle_request(conn, seq, decoded.request)) return;
  }
}

void WireServer::serve_json(Connection& conn) {
  std::uint64_t seq = 0;
  std::string buffer;
  std::array<char, 4096> chunk{};

  const auto process_line = [&](std::string_view line) {
    ++seq;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bump(c_frames_received_);
    if (line.size() > config_.max_json_line_bytes) {
      reject(conn, seq, WireError::kOversizedLine,
             strfmt("request line exceeds the %zu-byte cap",
                    config_.max_json_line_bytes));
      return true;  // close
    }
    const DecodeResult decoded = decode_json_request(line);
    if (decoded.error != WireError::kNone) {
      reject(conn, seq, decoded.error, decoded.detail);
      return fatal(decoded.error);
    }
    return handle_request(conn, seq, decoded.request);
  };

  for (;;) {
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // blank lines are interactive noise
      if (process_line(line)) return;
    }
    if (buffer.size() > config_.max_json_line_bytes) {
      ++seq;
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      bump(c_frames_received_);
      reject(conn, seq, WireError::kOversizedLine,
             strfmt("request line exceeds the %zu-byte cap",
                    config_.max_json_line_bytes));
      return;
    }
    ssize_t n;
    do {
      n = ::recv(conn.fd.get(), chunk.data(), chunk.size(), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      throw IoError("socket read failed: " + std::string(std::strerror(errno)));
    }
    if (n == 0) break;  // EOF
    bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    bump(c_bytes_in_, static_cast<std::uint64_t>(n));
    buffer.append(chunk.data(), static_cast<std::size_t>(n));
  }
  // A final line without its newline still counts (echo without -n).
  if (!buffer.empty()) process_line(buffer);
}

bool WireServer::handle_request(Connection& conn, std::uint64_t seq,
                                const WireRequest& request) {
  switch (request.verb) {
    case WireVerb::kSubmit:
      raise_watermark(request.event.time_minutes);
      engine_.submit(request.event);
      events_submitted_.fetch_add(1, std::memory_order_relaxed);
      bump(c_events_);
      return false;  // fire-and-forget: success sends no response
    case WireVerb::kEpoch: {
      const std::string problem = advance_epoch_checked(request.time_minutes);
      if (!problem.empty()) reject(conn, seq, WireError::kBadField, problem);
      return false;
    }
    case WireVerb::kQuery: {
      WireResponse response;
      response.request_seq = seq;
      response.body = build_query_body(request.time_minutes);
      send_response(conn, response);
      return false;
    }
    case WireVerb::kShutdown: {
      WireResponse response;
      response.request_seq = seq;
      response.body = "{\"stopping\":true}";
      send_response(conn, response);
      {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        stop_requested_ = true;
        shutdown_verb_seen_ = true;
      }
      stop_cv_.notify_all();
      return true;  // the requesting connection closes after the ack
    }
  }
  return false;
}

std::string WireServer::build_query_body(double horizon) {
  // Quiesce the rings first so the answer reflects every event accepted
  // before the query on this connection (per-connection FIFO).
  engine_.drain();
  const engine::StreamingOptBounds bounds = engine_.opt_bounds();
  const DispatcherFaultStats faults = engine_.merged_fault_stats();
  const auto u = [](std::uint64_t value) {
    return static_cast<unsigned long long>(value);
  };
  std::string body = strfmt(
      "{\"active_sessions\":%llu,\"active_servers\":%llu,"
      "\"events_applied\":%llu,\"bill_dollars\":%.17g,"
      "\"watermark_minutes\":%.17g,\"epochs_advanced\":%llu",
      u(engine_.active_sessions()), u(engine_.active_servers()),
      u(engine_.events_applied()), engine_.rental_cost_dollars(horizon),
      watermark_minutes(), u(epochs_advanced_.load()));
  body += strfmt(
      ",\"opt_bounds\":{\"lower_dollars\":%.17g,\"upper_dollars\":%.17g,"
      "\"segments\":%llu,\"exact_segments\":%llu}",
      bounds.lower_dollars, bounds.upper_dollars, u(bounds.segments),
      u(bounds.exact_segments));
  body += strfmt(
      ",\"fault_stats\":{\"duplicate_starts\":%llu,\"unknown_ends\":%llu,"
      "\"unknown_servers\":%llu,\"time_order_violations\":%llu,"
      "\"invalid_sizes\":%llu,\"rental_attempts_failed\":%llu,"
      "\"sessions_rejected_rental\":%llu,\"sessions_rejected_cap\":%llu,"
      "\"sessions_shed\":%llu,\"sessions_redispatched\":%llu,"
      "\"sessions_lost_on_crash\":%llu,\"servers_crashed\":%llu,"
      "\"backoff_minutes\":%.17g,\"total_dropped_events\":%llu}}",
      u(faults.duplicate_starts), u(faults.unknown_ends),
      u(faults.unknown_servers), u(faults.time_order_violations),
      u(faults.invalid_sizes), u(faults.rental_attempts_failed),
      u(faults.sessions_rejected_rental), u(faults.sessions_rejected_cap),
      u(faults.sessions_shed), u(faults.sessions_redispatched),
      u(faults.sessions_lost_on_crash), u(faults.servers_crashed),
      faults.backoff_minutes, u(faults.total_dropped_events()));
  return body;
}

void WireServer::send_response(Connection& conn,
                               const WireResponse& response) {
  if (conn.json_mode) {
    std::string line = encode_json_response(response);
    line += '\n';
    write_all(conn.fd.get(),
              std::span(reinterpret_cast<const std::uint8_t*>(line.data()),
                        line.size()));
  } else {
    const std::vector<std::uint8_t> frame = encode_response_frame(response);
    write_all(conn.fd.get(), frame);
  }
}

void WireServer::reject(Connection& conn, std::uint64_t seq, WireError error,
                        std::string detail) {
  frames_rejected_.fetch_add(1, std::memory_order_relaxed);
  bump(c_frames_rejected_);
  WireResponse response;
  response.request_seq = seq;
  response.error = error;
  response.detail = std::move(detail);
  try {
    send_response(conn, response);
  } catch (const IoError&) {
    // The offender hung up before reading its rejection; nothing owed.
  }
}

}  // namespace dbp::net
