// CRC-32 kernel against an independent reference.
//
// Every other CRC check in the suite computes both sides with crc32()
// itself, so a wrong table or polynomial would pass them all. Here the
// oracle is the plain byte-at-a-time table loop (the kernel the
// slicing-by-8 loop replaced), written out in this file, plus published
// check values and a wire frame pinned byte for byte.
#include "core/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "net/wire_protocol.hpp"
#include "workload/rng.hpp"

namespace dbp {
namespace {

/// Bytewise CRC-32 (reflected, polynomial 0xEDB88320, init and final XOR
/// 0xFFFFFFFF), table built bit by bit.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data,
                              std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = ~seed;
  for (const std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFU] ^ (c >> 8);
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(count);
  for (std::uint8_t& byte : bytes) {
    byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return bytes;
}

std::span<const std::uint8_t> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926U);
  EXPECT_EQ(crc32({}), 0U);
  EXPECT_EQ(crc32(as_bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339U);
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32(zeros), 0x190A55ADU);
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthOffsetAndSeed) {
  // 8 spare bytes so every start offset 0-7 reaches every length, which
  // moves the 8-byte blocks and the 0-7 byte tail across the buffer.
  constexpr std::size_t kMaxLength = 1100;
  const std::vector<std::uint8_t> buffer = random_bytes(kMaxLength + 8, 7);
  Rng seeds(8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const std::span<const std::uint8_t> data =
          std::span(buffer).subspan(offset, length);
      const auto random_seed = static_cast<std::uint32_t>(seeds.uniform_int(
          0, std::numeric_limits<std::uint32_t>::max()));
      for (const std::uint32_t seed : {0U, 0xFFFFFFFFU, random_seed}) {
        ASSERT_EQ(crc32(data, seed), reference_crc32(data, seed))
            << "offset " << offset << " length " << length << " seed "
            << seed;
      }
    }
  }
}

TEST(Crc32Test, ChainsAcrossRandomSplits) {
  Rng rng(9);
  for (int round = 0; round < 500; ++round) {
    const std::vector<std::uint8_t> bytes =
        random_bytes(rng.uniform_int(0, 700), 100 + round);
    const std::size_t split = rng.uniform_int(0, bytes.size());
    const std::span<const std::uint8_t> whole(bytes);
    ASSERT_EQ(crc32(whole.subspan(split), crc32(whole.first(split))),
              crc32(whole))
        << "size " << bytes.size() << " split " << split;
  }
}

TEST(Crc32Test, PinsTheSubmitFrameBytes) {
  // submit{start, id 1, route 1, 0.125 GPU, t = 1.0}: magic "DBPW", payload
  // length 34, payload CRC 0x08130040, then the payload. Any change to the
  // CRC, the framing or the payload layout changes these bytes.
  const std::vector<std::uint8_t> expected{
      0x44, 0x42, 0x50, 0x57, 0x22, 0x00, 0x00, 0x00, 0x40, 0x00, 0x13, 0x08,
      0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xc0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f};
  net::WireRequest request;
  request.verb = net::WireVerb::kSubmit;
  request.event = engine::start_event(1, 0.125, 1.0);
  const std::vector<std::uint8_t> frame = net::encode_request_frame(request);
  EXPECT_EQ(frame, expected);
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + 34);
  const std::span<const std::uint8_t> payload =
      std::span(frame).subspan(net::kFrameHeaderBytes);
  EXPECT_EQ(crc32(payload), 0x08130040U);
  EXPECT_EQ(reference_crc32(payload), 0x08130040U);
}

}  // namespace
}  // namespace dbp
