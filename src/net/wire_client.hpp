// Blocking Unix-socket client for WireServer, used by tools/dbp_client and
// the differential tests.
//
// Submissions and epochs are fire-and-forget on the wire (the server only
// answers them when it rejects), so the client pipelines them through a
// write buffer and never waits; query/shutdown are round trips that flush
// the pipeline first. Error responses to earlier fire-and-forget requests
// arrive interleaved and are collected into async_errors() while waiting
// for a round trip's own sequence number.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "net/fd_io.hpp"
#include "net/wire_protocol.hpp"

namespace dbp::net {

class WireClient {
 public:
  enum class Framing { kBinary, kJson };

  /// Connects immediately; throws IoError when the socket is not there.
  WireClient(const std::string& socket_path, Framing framing);

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Fire-and-forget: buffered, no response expected unless rejected.
  void submit(const engine::SessionEvent& event);
  void epoch(double time_minutes);

  /// Round trips: flush the pipeline, then wait for the matching response.
  /// Rejections of earlier pipelined requests encountered while waiting go
  /// to async_errors(). Throws IoError when the server hangs up first.
  WireResponse query(double bill_horizon_minutes);
  WireResponse shutdown_server();

  /// Pushes every buffered byte to the socket.
  void flush();

  /// Flushes, then writes `bytes` verbatim — corpus injection for the
  /// malformed-frame tests and tools/dbp_client --malform.
  void send_raw(std::span<const std::uint8_t> bytes);

  /// Blocking read of one response in this client's framing. Throws
  /// IoError on EOF, CorruptionError on an unparseable response.
  WireResponse read_response();

  /// Half-closes the write side so the server sees EOF while responses can
  /// still be read (used to observe fatal-rejection closes).
  void finish_writes();

  [[nodiscard]] const std::vector<WireResponse>& async_errors() const noexcept {
    return async_errors_;
  }
  [[nodiscard]] std::uint64_t requests_sent() const noexcept { return seq_; }
  [[nodiscard]] Framing framing() const noexcept { return framing_; }

 private:
  void enqueue(const WireRequest& request);
  WireResponse await_seq(std::uint64_t seq);

  detail::FdGuard fd_;
  Framing framing_;
  std::vector<std::uint8_t> out_buffer_;
  /// Starts at kMaxFrameBytes; grows only for a JSON response line longer
  /// than that (a rejection detail may quote the offending request).
  detail::RecvBuffer in_;
  std::uint64_t seq_ = 0;  ///< requests sent; server seqs are 1-based
  std::vector<WireResponse> async_errors_;
};

}  // namespace dbp::net
