// Wire protocol for the dispatch-engine front-end (docs/wire_protocol.md).
//
// Two framings over one request vocabulary:
//
//   binary   CRC'd length-prefixed frames reusing the core/binary_io
//            conventions of the durability layer:
//              u32 magic "DBPW" | u32 payload_len | u32 crc32(payload) | payload
//            payload = u8 verb | verb-specific little-endian fields.
//   json     one JSON object per '\n'-terminated line — a strict, flat
//            subset (string/number/bool values, no nesting) for
//            debuggability: `echo '{"verb":"query","t":0}' | nc -U ...`.
//
// Both deserialize into the same WireRequest and share field validation:
// numeric fields go through core/parse.hpp's strict parsers, so a wire
// field rejects "8abc" or "-1" exactly like a CLI flag does. Every decode
// failure is a *typed* WireError; fatal() says whether the connection's
// byte stream can still be trusted (a bad CRC cannot be resynchronized,
// an unknown verb in a CRC-valid frame can).
//
// The wire layer only ever *produces* engine::SessionEvents — it never
// applies them — so a wire-fed engine run is bit-identical to direct
// submit() of the same event sequence (tests/net_differential_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/binary_io.hpp"
#include "engine/engine.hpp"

namespace dbp::net {

inline constexpr std::uint32_t kWireMagic = 0x57504244U;  // "DBPW" LE
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Framing sanity bound, like the journal's kMaxRecordPayloadBytes: no
/// request payload is remotely this large, so a bigger length field is
/// garbage (or an attack), not a frame.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 1U << 16;
/// The largest whole frame: header plus the payload cap. Sizes each
/// connection's receive buffer.
inline constexpr std::size_t kMaxFrameBytes =
    kFrameHeaderBytes + kMaxFramePayloadBytes;
/// Per-line cap for the JSON framing, newline excluded.
inline constexpr std::size_t kMaxJsonLineBytes = std::size_t{1} << 16;

enum class WireVerb : std::uint8_t {
  kSubmit = 1,    ///< one engine::SessionEvent
  kEpoch = 2,     ///< advance_epoch at an explicit time
  kQuery = 3,     ///< stats snapshot as JSON (drains first)
  kShutdown = 4,  ///< graceful server stop (drains the engine before exit)
};

/// Typed per-connection rejection codes. Stable names (to_string) appear in
/// JSON error responses and docs/wire_protocol.md.
enum class WireError : std::uint8_t {
  kNone = 0,
  kBadMagic = 1,       ///< frame header magic mismatch (fatal)
  kOversizedFrame = 2, ///< length field > max payload (fatal)
  kBadCrc = 3,         ///< payload CRC mismatch (fatal)
  kTruncatedFrame = 4, ///< EOF mid-frame (fatal)
  kBadPayload = 5,     ///< CRC-valid payload under/overruns its fields
  kUnknownVerb = 6,    ///< verb byte / "verb" value not in the vocabulary
  kBadField = 7,       ///< field fails strict validation (bad number, kind,
                       ///< missing key, regressing epoch time)
  kBadJson = 8,        ///< line is not a flat JSON object
  kNotUtf8 = 9,        ///< line is not valid UTF-8
  kOversizedLine = 10, ///< JSON line exceeds the line cap (fatal)
};

/// Stable wire name ("bad_crc", "unknown_verb", ...).
[[nodiscard]] const char* to_string(WireError error) noexcept;

/// True when the connection's byte stream can no longer be trusted to be
/// frame-aligned: the server sends one last error response and closes.
/// Recoverable errors reject the one request and keep the stream.
[[nodiscard]] bool fatal(WireError error) noexcept;

/// One decoded request, framing-independent.
struct WireRequest {
  WireVerb verb = WireVerb::kSubmit;
  engine::SessionEvent event{};  ///< kSubmit only
  Time time_minutes = 0.0;       ///< kEpoch time / kQuery bill horizon
};

/// One decoded response. `body` is the JSON stats object for kQuery / the
/// ack object for kShutdown; `detail` is human-readable context on errors.
struct WireResponse {
  std::uint64_t request_seq = 0;  ///< 1-based frame/line number it answers
  WireError error = WireError::kNone;
  std::string detail;
  std::string body;
};

/// Decode outcome: error == kNone means `request` is valid.
struct DecodeResult {
  WireError error = WireError::kNone;
  std::string detail;
  WireRequest request{};
};

// ---- binary framing -----------------------------------------------------

/// Appends `magic | len | crc | payload` to `out`.
void append_frame(ByteWriter& out, std::span<const std::uint8_t> payload);

/// Parsed frame header; call after reading kFrameHeaderBytes.
struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// Validates magic, then the length against kMaxFramePayloadBytes, over the
/// first kFrameHeaderBytes of `bytes`. After kOversizedFrame `header` holds
/// the length read; after any other error it is unspecified.
[[nodiscard]] WireError decode_frame_header(
    std::span<const std::uint8_t> bytes, FrameHeader& header);

/// Request payload encoders (payload only; append_frame adds the header).
[[nodiscard]] std::vector<std::uint8_t> encode_request(const WireRequest& request);
/// Whole-frame convenience: header + payload.
[[nodiscard]] std::vector<std::uint8_t> encode_request_frame(const WireRequest& request);

/// Decodes a CRC-checked request payload (the caller verified the CRC).
[[nodiscard]] DecodeResult decode_request(std::span<const std::uint8_t> payload);

/// Response payload: u64 request_seq | u8 error | str detail | str body.
[[nodiscard]] std::vector<std::uint8_t> encode_response_frame(const WireResponse& response);
/// Decodes a response payload; throws CorruptionError on framing damage
/// (the client treats that as a broken server, not a request error).
[[nodiscard]] WireResponse decode_response(std::span<const std::uint8_t> payload);

// ---- line-JSON framing --------------------------------------------------

/// Strict UTF-8 validation (rejects overlongs, surrogates, > U+10FFFF).
[[nodiscard]] bool is_valid_utf8(std::string_view text) noexcept;

/// Encodes a request as one JSON line (no trailing newline).
[[nodiscard]] std::string encode_json_request(const WireRequest& request);

/// Decodes one JSON line (newline already stripped). Validates UTF-8,
/// scans the flat-object subset once into views of the line, and runs
/// every numeric field through the strict core parsers. An accepted line
/// allocates nothing; a rejected one allocates its detail text.
[[nodiscard]] DecodeResult decode_json_request(std::string_view line);

/// Encodes a response as one JSON line (no trailing newline):
///   {"seq":N,"ok":true[,...body fields]}               on success
///   {"seq":N,"error":"bad_field","detail":"..."}       on rejection
[[nodiscard]] std::string encode_json_response(const WireResponse& response);

/// Decodes a response line produced by encode_json_response; throws
/// CorruptionError when the line is not a response object.
[[nodiscard]] WireResponse decode_json_response(std::string_view line);

}  // namespace dbp::net
