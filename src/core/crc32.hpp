// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over byte spans.
//
// The durability layer stamps every journal record and checkpoint payload
// with a CRC so torn writes and bit rot are *detected* rather than replayed
// as silently wrong state, and the binary wire protocol checks one per
// frame on the serving path, once per 34-byte submit. So the loop is
// slicing-by-8 (Kounavis & Berry, ISCC 2005): eight 256-entry tables fold
// eight bytes per step, and the last 0-7 bytes take the single-table step.
// Both steps compute the standard CRC-32, so wire and on-disk bytes do not
// depend on the loop (tests/crc32_test.cpp checks it against a bytewise
// reference).
//
// Each step assembles its two 32-bit words from bytes in little-endian
// order, exactly like core/binary_io.hpp: no type-punned or unaligned
// loads, and the result never depends on host byte order. There is no CPU
// dispatch: SSE4.2's crc32 instruction computes CRC-32C, a different
// polynomial, and would change every byte on the wire and on disk.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace dbp {

namespace detail {

/// tables[0] is the classic bytewise table; tables[k][i] is the CRC
/// register after feeding byte i followed by k zero bytes, so one lookup
/// per table folds byte i of an 8-byte block at its distance from the end.
inline constexpr std::array<std::array<std::uint32_t, 256>, 8>
make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFU] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();

/// Little-endian 32-bit word from four bytes, independent of host order.
[[nodiscard]] inline constexpr std::uint32_t load_le32(
    const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC-32 of `data` (full-buffer convenience; standard init/final XOR).
/// `seed` chains: crc32(b, crc32(a)) == crc32(a‖b).
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data,
                                         std::uint32_t seed = 0) noexcept {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
        t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
        t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace dbp
