#include "net/wire_server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/crc32.hpp"
#include "core/error.hpp"
#include "core/strfmt.hpp"

namespace dbp::net {

using detail::FdGuard;

// The largest binary frame also holds the largest JSON line with its
// "\r\n", so one receive buffer serves both framings and never grows: a
// partial frame is smaller than kMaxFrameBytes, and a partial line longer
// than kMaxJsonLineBytes is rejected before the next read.
static_assert(kMaxFrameBytes >= kMaxJsonLineBytes + 2);

namespace {

/// Pending connections the kernel queues for accept().
constexpr int kListenBacklog = 64;
/// Ready events taken per epoll_wait.
constexpr int kEventsPerWait = 64;
/// While the listening socket is paused for want of descriptors, a wait
/// that sees no event ends after this long and accepting is retried.
constexpr int kAcceptRetryMs = 100;

/// Adds to a serving counter. run() is its only writer, so a relaxed load
/// and store replace the read-modify-write.
void add(std::atomic<std::uint64_t>& counter, obs::Counter* mirror,
         std::uint64_t n = 1) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
  if (mirror != nullptr) mirror->add(n);
}

std::string_view as_text(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// Sends as much of `bytes` as the non-blocking socket takes now
/// (MSG_NOSIGNAL: a peer that vanished surfaces as IoError, never SIGPIPE).
std::size_t send_available(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      throw IoError("socket write failed: " + std::string(std::strerror(errno)));
    }
  }
  return sent;
}

FdGuard checked(int fd, const char* what) {
  if (fd < 0) {
    throw IoError(std::string("cannot create ") + what + ": " +
                  std::strerror(errno));
  }
  return FdGuard(fd);
}

void watch(int epoll_fd, int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
    throw IoError("cannot watch a descriptor with epoll: " +
                  std::string(std::strerror(errno)));
  }
}

}  // namespace

struct WireServer::Connection {
  enum class Framing : std::uint8_t { kUndecided, kBinary, kJson };

  explicit Connection(int fd) : fd(fd), in(kMaxFrameBytes) {}

  /// Whether the loop serves and reads this connection: it is not closing,
  /// and its output queue is within kMaxQueuedOutputBytes.
  [[nodiscard]] bool serving() const noexcept {
    return !closing && out.size() <= kMaxQueuedOutputBytes;
  }

  /// Sends `bytes` after whatever is queued; the socket's refusal is
  /// queued.
  void send(std::span<const std::uint8_t> bytes) {
    if (out.empty()) bytes = bytes.subspan(send_available(fd.get(), bytes));
    out.insert(out.end(), bytes.begin(), bytes.end());
  }

  /// Sends as much of the queue as the socket takes now.
  void flush() {
    const std::size_t sent = send_available(fd.get(), out);
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(sent));
  }

  FdGuard fd;
  detail::RecvBuffer in;
  /// Response bytes the socket has not taken yet, oldest first.
  std::vector<std::uint8_t> out;
  std::uint64_t seq = 0;  ///< requests parsed so far
  Framing framing = Framing::kUndecided;
  /// Serves no further request; the connection closes once `out` is sent.
  bool closing = false;
  std::uint32_t interest = EPOLLIN;  ///< the epoll events registered now
};

void WireServerConfig::validate() const {
  DBP_REQUIRE(!socket_path.empty(), "WireServerConfig.socket_path is empty");
}

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
    c_connections_failed_ = &metrics_->counter("net.connections_failed");
    c_frames_received_ = &metrics_->counter("net.frames_received");
    c_frames_rejected_ = &metrics_->counter("net.frames_rejected");
    c_bytes_in_ = &metrics_->counter("net.bytes_in");
    c_events_ = &metrics_->counter("net.events_submitted");
    c_epochs_ = &metrics_->counter("net.epochs");
  }
}

WireServer::~WireServer() { close_listener(); }

void WireServer::start() {
  DBP_REQUIRE(!wake_fd_.valid(),
              "WireServer cannot be restarted; construct a fresh one");
  const sockaddr_un address = detail::make_unix_address(config_.socket_path);
  FdGuard sock = checked(
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0),
      "unix socket");
  // Remove a stale socket file before binding: a previous server that died
  // before run() returned leaves one behind.
  ::unlink(config_.socket_path.c_str());
  if (::bind(sock.get(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    throw IoError("cannot bind '" + config_.socket_path +
                  "': " + std::string(std::strerror(errno)));
  }
  if (::listen(sock.get(), kListenBacklog) != 0) {
    throw IoError("cannot listen on '" + config_.socket_path +
                  "': " + std::string(std::strerror(errno)));
  }
  FdGuard epoll = checked(::epoll_create1(EPOLL_CLOEXEC), "epoll set");
  FdGuard wake =
      checked(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC), "stop eventfd");
  watch(epoll.get(), sock.get(), EPOLLIN);
  watch(epoll.get(), wake.get(), EPOLLIN);
  FdGuard timer;
  if (config_.epoch_cadence_ms > 0) {
    timer = checked(::timerfd_create(CLOCK_MONOTONIC,
                                     TFD_NONBLOCK | TFD_CLOEXEC),
                    "epoch timerfd");
    itimerspec cadence{};
    cadence.it_interval.tv_sec =
        static_cast<time_t>(config_.epoch_cadence_ms / 1000);
    cadence.it_interval.tv_nsec =
        static_cast<long>(config_.epoch_cadence_ms % 1000) * 1'000'000L;
    cadence.it_value = cadence.it_interval;
    if (::timerfd_settime(timer.get(), 0, &cadence, nullptr) != 0) {
      throw IoError("cannot arm the epoch timerfd: " +
                    std::string(std::strerror(errno)));
    }
    watch(epoll.get(), timer.get(), EPOLLIN);
  }
  listen_fd_ = std::move(sock);
  epoll_fd_ = std::move(epoll);
  wake_fd_ = std::move(wake);
  timer_fd_ = std::move(timer);
}

bool WireServer::run() {
  DBP_REQUIRE(epoll_fd_.valid(),
              "WireServer::run needs start() and runs only once");
  const obs::ObsScope scope(tracer_, metrics_);
  serve_loop();
  // Every connection closes here, and its peer sees EOF. The eventfd stays
  // open until the destructor, so a late request_stop() writes to it and
  // to no other descriptor.
  connections_.clear();
  connections_open_.store(0, std::memory_order_relaxed);
  timer_fd_.reset();
  epoll_fd_.reset();
  close_listener();
  // Graceful drain: every event the engine queued is applied before run()
  // returns — shutdown never loses acknowledged work.
  engine_.drain();
  return shutdown_verb_seen_;
}

void WireServer::request_stop() noexcept {
  // Makes the eventfd readable, which ends the serving loop. An eventfd
  // write of 1 fails only when the counter would reach 2^64 - 1, which no
  // count of stop requests reaches.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t written =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

void WireServer::close_listener() noexcept {
  if (!listen_fd_.valid()) return;
  listen_fd_.reset();
  ::unlink(config_.socket_path.c_str());
}

WireServerStats WireServer::stats() const noexcept {
  WireServerStats out;
  out.connections_accepted = connections_accepted_.load();
  out.connections_open = connections_open_.load();
  out.connections_failed = connections_failed_.load();
  out.frames_received = frames_received_.load();
  out.frames_rejected = frames_rejected_.load();
  out.bytes_in = bytes_in_.load();
  out.events_submitted = events_submitted_.load();
  out.epochs_advanced = epochs_advanced_.load();
  out.timer_ticks = timer_ticks_.load();
  return out;
}

void WireServer::raise_watermark(double t) noexcept {
  // A NaN event time must not poison ticks; run() is the only writer.
  if (std::isfinite(t) && t > watermark_.load(std::memory_order_relaxed)) {
    watermark_.store(t, std::memory_order_relaxed);
  }
}

void WireServer::serve_loop() {
  std::array<epoll_event, kEventsPerWait> events{};
  // The shutdown verb ends the loop once the events of its wake are served.
  while (!shutdown_verb_seen_) {
    const int ready =
        ::epoll_wait(epoll_fd_.get(), events.data(), kEventsPerWait,
                     accept_paused_ ? kAcceptRetryMs : -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;  // the epoll set itself failed; run() still drains
    }
    if (ready == 0) set_accepting(true);  // retry after a quiet pause
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_.get()) return;
      if (fd == listen_fd_.get()) {
        accept_connections();
      } else if (fd == timer_fd_.get()) {
        tick_timer();
      } else if (Connection* conn =
                     connections_[static_cast<std::size_t>(fd)].get()) {
        serve_event(*conn, events[i].events);
      }
    }
  }
}

void WireServer::accept_connections() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Out of descriptors: the queued connections wait in the backlog,
      // and the listening socket is not watched until a connection closes
      // or a wait passes quietly, so the loop does not spin on it.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        set_accepting(false);
      }
      return;  // EAGAIN: the backlog is empty
    }
    auto conn = std::make_unique<Connection>(fd);
    try {
      watch(epoll_fd_.get(), fd, EPOLLIN);
    } catch (const IoError&) {
      continue;  // unwatchable: closed with its Connection
    }
    const auto slot = static_cast<std::size_t>(fd);
    if (slot >= connections_.size()) connections_.resize(slot + 1);
    connections_[slot] = std::move(conn);
    add(connections_accepted_, c_connections_);
    add(connections_open_, nullptr);
  }
}

void WireServer::set_accepting(bool accepting) {
  if (accept_paused_ == !accepting) return;
  epoll_event event{};
  event.events = accepting ? EPOLLIN : 0U;
  event.data.fd = listen_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, listen_fd_.get(), &event) ==
      0) {
    accept_paused_ = !accepting;
  }
}

void WireServer::tick_timer() {
  std::uint64_t expirations = 0;
  // One epoch per wake, however many periods a long epoch let pass.
  if (::read(timer_fd_.get(), &expirations, sizeof(expirations)) !=
      static_cast<ssize_t>(sizeof(expirations))) {
    return;
  }
  // Tick at the engine's event clock, chosen after the tick's own drain,
  // so no event stamped later than the epoch is applied inside it. With
  // no new events since the last tick this is a zero-length epoch
  // segment, which the engine integrates as exactly zero dollars and zero
  // segments (EngineTest.ZeroLengthEpochSegmentsAreFree) — an idle
  // server's timer never distorts the OPT bounds.
  count_epoch(engine_.advance_epoch_to_event_clock());
  add(timer_ticks_, nullptr);
}

std::string WireServer::advance_epoch_checked(double t) {
  try {
    engine_.advance_epoch(t);
  } catch (const PreconditionError& error) {
    return error.what();  // a non-finite or regressing epoch time
  }
  count_epoch(t);
  return {};
}

void WireServer::count_epoch(double t) noexcept {
  raise_watermark(t);
  add(epochs_advanced_, c_epochs_);
}

void WireServer::serve_event(Connection& conn, std::uint32_t events) {
  try {
    if (!conn.out.empty() && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
      conn.flush();
      serve_buffered(conn);  // resumes a connection its queue paused
    }
    if (conn.serving() && (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      read_and_serve(conn);
    }
  } catch (const IoError&) {
    // Peer vanished mid-read or mid-write: that connection's problem only.
    conn.out.clear();
    conn.closing = true;
  } catch (const std::exception&) {
    // Backstop — a serving defect must never take the process down; the
    // connection is dropped, counted, and every other connection keeps
    // running.
    add(connections_failed_, c_connections_failed_);
    conn.out.clear();
    conn.closing = true;
  }
  settle(conn);
}

void WireServer::read_and_serve(Connection& conn) {
  const std::optional<std::size_t> received = conn.in.fill(conn.fd.get());
  if (!received) return;  // woken with nothing queued
  add(bytes_in_, c_bytes_in_, *received);
  if (*received == 0) {
    serve_eof(conn);
    return;
  }
  if (conn.framing == Connection::Framing::kUndecided) {
    // The first byte picks the framing: '{' is line-JSON, anything else
    // binary.
    conn.framing = conn.in.pending().front() == static_cast<std::uint8_t>('{')
                       ? Connection::Framing::kJson
                       : Connection::Framing::kBinary;
  }
  serve_buffered(conn);
}

void WireServer::serve_buffered(Connection& conn) {
  switch (conn.framing) {
    case Connection::Framing::kBinary:
      serve_binary(conn);
      break;
    case Connection::Framing::kJson:
      serve_json(conn);
      break;
    case Connection::Framing::kUndecided:
      break;
  }
}

void WireServer::serve_binary(Connection& conn) {
  const auto next_seq = [&] {
    add(frames_received_, c_frames_received_);
    return ++conn.seq;
  };
  while (conn.serving()) {
    // Serve every complete frame in the buffer. A header is checked as soon
    // as it is whole, so a bad magic or length is answered before any of
    // its payload is waited for.
    const std::span<const std::uint8_t> pending = conn.in.pending();
    if (pending.size() < kFrameHeaderBytes) return;
    FrameHeader header;
    const WireError header_error = decode_frame_header(pending, header);
    if (header_error != WireError::kNone) {
      reject(conn, next_seq(), header_error,
             header_error == WireError::kBadMagic
                 ? "frame header magic mismatch (expected \"DBPW\")"
                 : strfmt("frame length %u exceeds the %u-byte payload cap",
                          header.payload_len, kMaxFramePayloadBytes));
      conn.closing = true;  // both header errors are fatal: the stream is unframed now
      return;
    }
    const std::size_t frame_bytes = kFrameHeaderBytes + header.payload_len;
    if (pending.size() < frame_bytes) return;
    const std::uint64_t frame_seq = next_seq();
    const std::span<const std::uint8_t> payload =
        pending.subspan(kFrameHeaderBytes, header.payload_len);
    conn.in.consume(frame_bytes);
    if (crc32(payload) != header.payload_crc) {
      reject(conn, frame_seq, WireError::kBadCrc, "frame payload CRC mismatch");
      conn.closing = true;
      return;
    }
    serve_decoded(conn, frame_seq, decode_request(payload));
  }
}

void WireServer::serve_json(Connection& conn) {
  while (conn.serving()) {
    if (const std::optional<std::string_view> line = conn.in.take_line()) {
      serve_line(conn, *line);
      continue;
    }
    // No newline in what is left. A partial line already over the cap is
    // rejected by serve_line without waiting for the rest.
    if (conn.in.pending().size() > kMaxJsonLineBytes) {
      serve_line(conn, as_text(conn.in.pending()));
    }
    return;
  }
}

void WireServer::serve_line(Connection& conn, std::string_view line) {
  const std::uint64_t seq = ++conn.seq;
  add(frames_received_, c_frames_received_);
  if (line.size() > kMaxJsonLineBytes) {
    reject(conn, seq, WireError::kOversizedLine,
           strfmt("request line exceeds the %zu-byte cap", kMaxJsonLineBytes));
    conn.closing = true;
    return;
  }
  serve_decoded(conn, seq, decode_json_request(line));
}

void WireServer::serve_decoded(Connection& conn, std::uint64_t seq,
                               const DecodeResult& decoded) {
  if (decoded.error != WireError::kNone) {
    reject(conn, seq, decoded.error, decoded.detail);
    if (fatal(decoded.error)) conn.closing = true;
  } else if (handle_request(conn, seq, decoded.request)) {
    conn.closing = true;
  }
}

void WireServer::serve_eof(Connection& conn) {
  const std::size_t partial = conn.in.pending().size();
  if (partial > 0) {
    if (conn.framing == Connection::Framing::kJson) {
      // A final line without its newline still counts (echo without -n).
      serve_line(conn, as_text(conn.in.pending()));
    } else {
      add(frames_received_, c_frames_received_);
      reject(conn, ++conn.seq, WireError::kTruncatedFrame,
             partial < kFrameHeaderBytes
                 ? "connection closed inside a frame header"
                 : "connection closed inside a frame payload");
    }
  }
  conn.closing = true;
}

void WireServer::settle(Connection& conn) {
  if (conn.closing && conn.out.empty()) {
    close_connection(conn);
    return;
  }
  // A closing or paused connection is not watched for input, so an EOF or
  // a request it will not serve yet never wakes the loop.
  const std::uint32_t wanted =
      (conn.serving() ? EPOLLIN : 0U) |
      (conn.out.empty() ? 0U : EPOLLOUT);
  if (wanted == conn.interest) return;
  epoll_event event{};
  event.events = wanted;
  event.data.fd = conn.fd.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &event) != 0) {
    close_connection(conn);  // a connection the loop cannot watch is dropped
    return;
  }
  conn.interest = wanted;
}

void WireServer::close_connection(Connection& conn) {
  // Closing the descriptor takes it out of the epoll set; the peer sees
  // EOF. A descriptor is free again, so a paused listener resumes.
  connections_[static_cast<std::size_t>(conn.fd.get())].reset();
  connections_open_.store(
      connections_open_.load(std::memory_order_relaxed) - 1,
      std::memory_order_relaxed);
  set_accepting(true);
}

bool WireServer::handle_request(Connection& conn, std::uint64_t seq,
                                const WireRequest& request) {
  switch (request.verb) {
    case WireVerb::kSubmit:
      raise_watermark(request.event.time_minutes);
      engine_.submit(request.event);
      add(events_submitted_, c_events_);
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
      shutdown_verb_seen_ = true;  // run() returns after this wake
      return true;  // the requesting connection closes after the ack
    }
  }
  return false;
}

std::string WireServer::build_query_body(double horizon) {
  // Apply the queued events first, so the answer reflects every event
  // accepted before the query on this connection (per-connection FIFO).
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
      "\"invalid_sizes\":%llu,\"invalid_session_ids\":%llu,"
      "\"rental_attempts_failed\":%llu,"
      "\"sessions_rejected_rental\":%llu,\"sessions_rejected_cap\":%llu,"
      "\"sessions_shed\":%llu,\"sessions_redispatched\":%llu,"
      "\"sessions_lost_on_crash\":%llu,\"servers_crashed\":%llu,"
      "\"backoff_minutes\":%.17g,\"total_dropped_events\":%llu}}",
      u(faults.duplicate_starts), u(faults.unknown_ends),
      u(faults.unknown_servers), u(faults.time_order_violations),
      u(faults.invalid_sizes), u(faults.invalid_session_ids),
      u(faults.rental_attempts_failed),
      u(faults.sessions_rejected_rental), u(faults.sessions_rejected_cap),
      u(faults.sessions_shed), u(faults.sessions_redispatched),
      u(faults.sessions_lost_on_crash), u(faults.servers_crashed),
      faults.backoff_minutes, u(faults.total_dropped_events()));
  return body;
}

void WireServer::send_response(Connection& conn,
                               const WireResponse& response) {
  if (conn.framing == Connection::Framing::kJson) {
    std::string line = encode_json_response(response);
    line += '\n';
    conn.send(std::span(reinterpret_cast<const std::uint8_t*>(line.data()),
                        line.size()));
  } else {
    conn.send(encode_response_frame(response));
  }
}

void WireServer::reject(Connection& conn, std::uint64_t seq, WireError error,
                        std::string detail) {
  add(frames_rejected_, c_frames_rejected_);
  WireResponse response;
  response.request_seq = seq;
  response.error = error;
  response.detail = std::move(detail);
  send_response(conn, response);
}

}  // namespace dbp::net
