#include "net/wire_client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <string_view>

#include "core/crc32.hpp"
#include "core/error.hpp"

namespace dbp::net {

namespace {

/// Flush threshold: large enough to amortize syscalls, small enough that a
/// replay never buffers an unbounded trace in memory.
constexpr std::size_t kFlushBytes = std::size_t{1} << 18;

}  // namespace

WireClient::WireClient(const std::string& socket_path, Framing framing)
    : framing_(framing), in_(kMaxFrameBytes) {
  const sockaddr_un address = detail::make_unix_address(socket_path);
  detail::FdGuard sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) {
    throw IoError("cannot create unix socket: " +
                  std::string(std::strerror(errno)));
  }
  if (::connect(sock.get(), reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    throw IoError("cannot connect to '" + socket_path +
                  "': " + std::string(std::strerror(errno)));
  }
  fd_ = std::move(sock);
}

void WireClient::enqueue(const WireRequest& request) {
  ++seq_;
  if (framing_ == Framing::kBinary) {
    const std::vector<std::uint8_t> frame = encode_request_frame(request);
    out_buffer_.insert(out_buffer_.end(), frame.begin(), frame.end());
  } else {
    const std::string line = encode_json_request(request);
    out_buffer_.insert(out_buffer_.end(), line.begin(), line.end());
    out_buffer_.push_back(static_cast<std::uint8_t>('\n'));
  }
  if (out_buffer_.size() >= kFlushBytes) flush();
}

void WireClient::submit(const engine::SessionEvent& event) {
  WireRequest request;
  request.verb = WireVerb::kSubmit;
  request.event = event;
  enqueue(request);
}

void WireClient::epoch(double time_minutes) {
  WireRequest request;
  request.verb = WireVerb::kEpoch;
  request.time_minutes = time_minutes;
  enqueue(request);
}

WireResponse WireClient::query(double bill_horizon_minutes) {
  WireRequest request;
  request.verb = WireVerb::kQuery;
  request.time_minutes = bill_horizon_minutes;
  enqueue(request);
  flush();
  return await_seq(seq_);
}

WireResponse WireClient::shutdown_server() {
  WireRequest request;
  request.verb = WireVerb::kShutdown;
  enqueue(request);
  flush();
  return await_seq(seq_);
}

void WireClient::flush() {
  if (out_buffer_.empty()) return;
  detail::write_all(fd_.get(), out_buffer_);
  out_buffer_.clear();
}

void WireClient::send_raw(std::span<const std::uint8_t> bytes) {
  flush();
  ++seq_;  // the server will count whatever this parses as one frame/line
  detail::write_all(fd_.get(), bytes);
}

void WireClient::finish_writes() {
  flush();
  ::shutdown(fd_.get(), SHUT_WR);
}

WireResponse WireClient::await_seq(std::uint64_t seq) {
  for (;;) {
    WireResponse response = read_response();
    if (response.request_seq == seq) return response;
    // A rejection of an earlier pipelined submit/epoch; keep it for the
    // caller and keep waiting for our round trip.
    async_errors_.push_back(std::move(response));
  }
}

WireResponse WireClient::read_response() {
  if (framing_ == Framing::kJson) {
    for (;;) {
      if (const std::optional<std::string_view> line = in_.take_line()) {
        return decode_json_response(*line);
      }
      if (in_.fill(fd_.get()) == 0U) {
        throw IoError("server closed the connection");
      }
    }
  }
  for (;;) {
    const std::span<const std::uint8_t> pending = in_.pending();
    if (pending.size() >= kFrameHeaderBytes) {
      FrameHeader header;
      if (decode_frame_header(pending, header) != WireError::kNone) {
        throw CorruptionError("malformed response frame header");
      }
      const std::size_t frame_bytes = kFrameHeaderBytes + header.payload_len;
      if (pending.size() >= frame_bytes) {
        const std::span<const std::uint8_t> payload =
            pending.subspan(kFrameHeaderBytes, header.payload_len);
        in_.consume(frame_bytes);
        if (crc32(payload) != header.payload_crc) {
          throw CorruptionError("response frame CRC mismatch");
        }
        return decode_response(payload);
      }
    }
    const bool inside_header = pending.size() < kFrameHeaderBytes;
    if (in_.fill(fd_.get()) == 0U) {
      throw IoError(inside_header
                        ? "server closed the connection"
                        : "server closed the connection mid-response");
    }
  }
}

}  // namespace dbp::net
