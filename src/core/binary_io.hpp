// Little-endian binary (de)serialization for the durability layer.
//
// Checkpoints must restore *bit-identical* state — a recovered run is proven
// equal to an uninterrupted one by exact field comparison — so doubles are
// written as their IEEE-754 bit patterns (never through text formatting) and
// integers in a fixed little-endian layout independent of host endianness.
// ByteReader bounds-checks every read and throws CorruptionError instead of
// walking past the buffer: framing errors surface as detected corruption,
// never as undefined behavior.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace dbp {

/// Append-only little-endian encoder over a growable byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(value); }

  void u32(std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      buffer_.push_back(static_cast<std::uint8_t>((value >> shift) & 0xFFU));
    }
  }

  void u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      buffer_.push_back(static_cast<std::uint8_t>((value >> shift) & 0xFFU));
    }
  }

  /// IEEE-754 bit pattern: round-trips every double (including NaN payloads
  /// and signed zeros) exactly.
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

  void boolean(bool value) { u8(value ? 1 : 0); }

  /// u64 length prefix followed by the raw bytes.
  void str(const std::string& value) {
    u64(value.size());
    buffer_.insert(buffer_.end(), value.begin(), value.end());
  }

  void bytes(std::span<const std::uint8_t> data) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }

  /// Rewrites the four bytes at `offset`, written earlier, as `value`: a
  /// field that can be computed only from bytes written after it.
  void patch_u32(std::size_t offset, std::uint32_t value) {
    DBP_REQUIRE(offset <= buffer_.size() && buffer_.size() - offset >= 4,
                "patch past the written bytes");
    for (int shift = 0; shift < 32; shift += 8, ++offset) {
      buffer_[offset] = static_cast<std::uint8_t>((value >> shift) & 0xFFU);
    }
  }

  /// Forgets the written bytes, keeping the buffer's capacity.
  void clear() noexcept { buffer_.clear(); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buffer_);
  }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked decoder over a byte span; every overrun or malformed
/// length raises CorruptionError.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[offset_++];
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<std::uint32_t>(data_[offset_++]) << shift;
    }
    return value;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      value |= static_cast<std::uint64_t>(data_[offset_++]) << shift;
    }
    return value;
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] bool boolean() {
    const std::uint8_t value = u8();
    if (value > 1) throw CorruptionError("boolean byte out of range");
    return value == 1;
  }

  [[nodiscard]] std::string str() {
    const std::uint64_t length = u64();
    need(length);
    std::string value(reinterpret_cast<const char*>(data_.data()) +
                          static_cast<std::ptrdiff_t>(offset_),
                      static_cast<std::size_t>(length));
    offset_ += static_cast<std::size_t>(length);
    return value;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  [[nodiscard]] bool done() const noexcept { return offset_ == data_.size(); }

  /// Deserializers call this after the last field so trailing garbage in a
  /// CRC-valid payload is still rejected.
  void expect_done() const {
    if (!done()) throw CorruptionError("trailing bytes after payload");
  }

 private:
  void need(std::uint64_t count) const {
    if (count > data_.size() - offset_) {
      throw CorruptionError("payload truncated: read past end of buffer");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace dbp
