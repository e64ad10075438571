// Internal Unix-socket fd helpers shared by wire_server.cpp and
// wire_client.cpp: descriptor ownership, the client's whole writes, and
// the receive buffer that is the wire layer's only way to read a socket,
// blocking or not. Not part of the public net API.
#pragma once

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/error.hpp"

namespace dbp::net::detail {

/// Owns one file descriptor; close-once and movable.
class FdGuard {
 public:
  FdGuard() = default;
  explicit FdGuard(int fd) noexcept : fd_(fd) {}
  ~FdGuard() { reset(); }

  FdGuard(FdGuard&& other) noexcept : fd_(other.release()) {}
  FdGuard& operator=(FdGuard&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void reset() noexcept {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

/// Fills `sun_path` or throws: AF_UNIX paths have a hard kernel limit.
inline sockaddr_un make_unix_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  DBP_REQUIRE(!path.empty(), "unix socket path must not be empty");
  DBP_REQUIRE(path.size() < sizeof(address.sun_path),
              "unix socket path '" + path + "' exceeds the AF_UNIX limit of " +
                  std::to_string(sizeof(address.sun_path) - 1) + " bytes");
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

/// Writes the whole span (MSG_NOSIGNAL: a peer that vanished surfaces as
/// IoError, never SIGPIPE). Throws IoError on any socket error.
inline void write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("socket write failed: " + std::string(std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// One connection's receive buffer. The block is allocated once and not
/// zero-filled; fill() tops it up with as much of what the peer has queued
/// as fits, in one recv(). Callers decode complete frames (pending()) or
/// lines (take_line()) in place and consume them; the next fill() moves
/// only the trailing partial frame or line to the front.
class RecvBuffer {
 public:
  explicit RecvBuffer(std::size_t capacity)
      : storage_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity)),
        capacity_(capacity) {}

  /// Received bytes not consumed yet. Valid until the next fill().
  [[nodiscard]] std::span<const std::uint8_t> pending() const noexcept {
    return {storage_.get() + begin_, end_ - begin_};
  }

  /// Drops the first `n` pending bytes; views into them stay valid until
  /// the next fill().
  void consume(std::size_t n) noexcept {
    begin_ += n;
    scanned_ = 0;
  }

  /// The next complete non-blank line, without its "\n" or "\r\n", and
  /// consumed; nullopt when no further '\n' has arrived. Bytes searched
  /// once are not searched again after a fill().
  [[nodiscard]] std::optional<std::string_view> take_line() noexcept {
    for (;;) {
      const std::span<const std::uint8_t> bytes = pending();
      const auto* text = reinterpret_cast<const char*>(bytes.data());
      const void* newline =
          std::memchr(text + scanned_, '\n', bytes.size() - scanned_);
      if (newline == nullptr) {
        scanned_ = bytes.size();
        return std::nullopt;
      }
      std::string_view line(
          text, static_cast<std::size_t>(static_cast<const char*>(newline) - text));
      consume(line.size() + 1);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) return line;
    }
  }

  /// Moves the pending bytes to the front, then makes one recv() into the
  /// free space. A block full of pending bytes doubles first; only a
  /// reader without a size cap (the client's response lines) gets there,
  /// since the server rejects an over-cap frame or line before reading on.
  /// Returns the bytes received; 0 is an orderly EOF, or a shutdown() from
  /// another thread. nullopt means nothing was queued: the socket is
  /// non-blocking, or its receive timeout ran out. Throws IoError on any
  /// other socket error.
  std::optional<std::size_t> fill(int fd) {
    const std::size_t kept = end_ - begin_;
    if (kept == capacity_) {
      auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(2 * capacity_);
      std::memcpy(grown.get(), storage_.get() + begin_, kept);
      storage_ = std::move(grown);
      capacity_ *= 2;
    } else if (begin_ > 0 && kept > 0) {
      std::memmove(storage_.get(), storage_.get() + begin_, kept);
    }
    begin_ = 0;
    end_ = kept;
    for (;;) {
      const ssize_t n = ::recv(fd, storage_.get() + end_, capacity_ - end_, 0);
      if (n >= 0) {
        end_ += static_cast<std::size_t>(n);
        return static_cast<std::size_t>(n);
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
      if (errno != EINTR) {
        throw IoError("socket read failed: " + std::string(std::strerror(errno)));
      }
    }
  }

 private:
  std::unique_ptr<std::uint8_t[]> storage_;
  std::size_t capacity_;
  std::size_t begin_ = 0;    ///< first pending byte
  std::size_t end_ = 0;      ///< one past the last received byte
  std::size_t scanned_ = 0;  ///< pending bytes known to hold no '\n'
};

}  // namespace dbp::net::detail
