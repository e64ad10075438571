#include "net/wire_protocol.hpp"

#include <array>
#include <cstddef>
#include <cstring>
#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "core/crc32.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/parse.hpp"
#include "core/strfmt.hpp"

namespace dbp::net {
namespace {

constexpr std::uint8_t kKindStart = 1;
constexpr std::uint8_t kKindEnd = 2;

constexpr std::array<const char*, 11> kErrorNames = {
    "ok",            "bad_magic",    "oversized_frame", "bad_crc",
    "truncated_frame", "bad_payload", "unknown_verb",    "bad_field",
    "bad_json",      "not_utf8",     "oversized_line",
};

}  // namespace

const char* to_string(WireError error) noexcept {
  const auto index = static_cast<std::size_t>(error);
  return index < kErrorNames.size() ? kErrorNames[index] : "unknown_error";
}

bool fatal(WireError error) noexcept {
  switch (error) {
    case WireError::kBadMagic:
    case WireError::kOversizedFrame:
    case WireError::kBadCrc:
    case WireError::kTruncatedFrame:
    case WireError::kOversizedLine:
      return true;
    default:
      return false;
  }
}

// ---- binary framing -----------------------------------------------------

void append_frame(ByteWriter& out, std::span<const std::uint8_t> payload) {
  DBP_REQUIRE(payload.size() <= kMaxFramePayloadBytes,
              "wire frame payload exceeds kMaxFramePayloadBytes");
  out.u32(kWireMagic);
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(crc32(payload));
  out.bytes(payload);
}

WireError decode_frame_header(std::span<const std::uint8_t> bytes,
                              FrameHeader& header) {
  if (bytes.size() < kFrameHeaderBytes) return WireError::kTruncatedFrame;
  ByteReader reader(bytes.first(kFrameHeaderBytes));
  if (reader.u32() != kWireMagic) return WireError::kBadMagic;
  header.payload_len = reader.u32();
  header.payload_crc = reader.u32();
  if (header.payload_len > kMaxFramePayloadBytes) return WireError::kOversizedFrame;
  return WireError::kNone;
}

std::vector<std::uint8_t> encode_request(const WireRequest& request) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(request.verb));
  switch (request.verb) {
    case WireVerb::kSubmit:
      out.u8(request.event.kind == engine::SessionEvent::Kind::kStart
                 ? kKindStart
                 : kKindEnd);
      out.u64(request.event.session_id);
      out.u64(request.event.route_key);
      out.f64(request.event.gpu_fraction);
      out.f64(request.event.time_minutes);
      break;
    case WireVerb::kEpoch:
    case WireVerb::kQuery:
      out.f64(request.time_minutes);
      break;
    case WireVerb::kShutdown:
      break;
  }
  return out.take();
}

std::vector<std::uint8_t> encode_request_frame(const WireRequest& request) {
  const std::vector<std::uint8_t> payload = encode_request(request);
  ByteWriter framed;
  append_frame(framed, payload);
  return framed.take();
}

DecodeResult decode_request(std::span<const std::uint8_t> payload) {
  DecodeResult result;
  try {
    ByteReader reader(payload);
    const std::uint8_t verb_byte = reader.u8();
    switch (verb_byte) {
      case static_cast<std::uint8_t>(WireVerb::kSubmit): {
        result.request.verb = WireVerb::kSubmit;
        const std::uint8_t kind = reader.u8();
        if (kind != kKindStart && kind != kKindEnd) {
          result.error = WireError::kBadField;
          result.detail =
              strfmt("invalid event kind byte %u: expected 1 (start) or 2 (end)",
                     static_cast<unsigned>(kind));
          return result;
        }
        result.request.event.kind = kind == kKindStart
                                        ? engine::SessionEvent::Kind::kStart
                                        : engine::SessionEvent::Kind::kEnd;
        result.request.event.session_id = reader.u64();
        result.request.event.route_key = reader.u64();
        result.request.event.gpu_fraction = reader.f64();
        result.request.event.time_minutes = reader.f64();
        break;
      }
      case static_cast<std::uint8_t>(WireVerb::kEpoch):
        result.request.verb = WireVerb::kEpoch;
        result.request.time_minutes = reader.f64();
        break;
      case static_cast<std::uint8_t>(WireVerb::kQuery):
        result.request.verb = WireVerb::kQuery;
        result.request.time_minutes = reader.f64();
        break;
      case static_cast<std::uint8_t>(WireVerb::kShutdown):
        result.request.verb = WireVerb::kShutdown;
        break;
      default:
        result.error = WireError::kUnknownVerb;
        result.detail = strfmt("unknown verb byte %u",
                               static_cast<unsigned>(verb_byte));
        return result;
    }
    reader.expect_done();
  } catch (const CorruptionError& error) {
    // Under/overrun of a CRC-valid payload: a codec mismatch, not line noise.
    result.error = WireError::kBadPayload;
    result.detail = error.what();
  }
  return result;
}

std::vector<std::uint8_t> encode_response_frame(const WireResponse& response) {
  ByteWriter payload;
  payload.u64(response.request_seq);
  payload.u8(static_cast<std::uint8_t>(response.error));
  payload.str(response.detail);
  payload.str(response.body);
  ByteWriter framed;
  append_frame(framed, payload.data());
  return framed.take();
}

WireResponse decode_response(std::span<const std::uint8_t> payload) {
  ByteReader reader(payload);
  WireResponse response;
  response.request_seq = reader.u64();
  const std::uint8_t code = reader.u8();
  if (code >= kErrorNames.size()) {
    throw CorruptionError("wire response carries unknown error code");
  }
  response.error = static_cast<WireError>(code);
  response.detail = reader.str();
  response.body = reader.str();
  reader.expect_done();
  return response;
}

// ---- line-JSON framing --------------------------------------------------

bool is_valid_utf8(std::string_view text) noexcept {
  std::size_t i = 0;
  while (i < text.size()) {
    // ASCII runs eight bytes at a time: no byte has its high bit set.
    std::uint64_t word = 0;
    if (i + sizeof word <= text.size()) {
      std::memcpy(&word, text.data() + i, sizeof word);
      if ((word & 0x8080808080808080ULL) == 0) {
        i += sizeof word;
        continue;
      }
    }
    const auto byte = static_cast<std::uint8_t>(text[i]);
    std::size_t extra = 0;
    std::uint32_t code_point = 0;
    std::uint32_t min_value = 0;
    if (byte < 0x80U) {
      ++i;
      continue;
    } else if ((byte & 0xE0U) == 0xC0U) {
      extra = 1;
      code_point = byte & 0x1FU;
      min_value = 0x80U;
    } else if ((byte & 0xF0U) == 0xE0U) {
      extra = 2;
      code_point = byte & 0x0FU;
      min_value = 0x800U;
    } else if ((byte & 0xF8U) == 0xF0U) {
      extra = 3;
      code_point = byte & 0x07U;
      min_value = 0x10000U;
    } else {
      return false;  // continuation byte or 0xF8+ lead byte
    }
    if (i + extra >= text.size()) return false;
    for (std::size_t k = 1; k <= extra; ++k) {
      const auto cont = static_cast<std::uint8_t>(text[i + k]);
      if ((cont & 0xC0U) != 0x80U) return false;
      code_point = (code_point << 6) | (cont & 0x3FU);
    }
    if (code_point < min_value) return false;                      // overlong
    if (code_point >= 0xD800U && code_point <= 0xDFFFU) return false;
    if (code_point > 0x10FFFFU) return false;
    i += extra + 1;
  }
  return true;
}

namespace {

// Request lines are scanned once, into fields that are views into the line,
// so an accepted request allocates nothing. No key, verb or kind word
// contains a character JSON escapes, so text holding an escape never equals
// one. Such text is decoded only to compare two keys for duplicates (in
// place) and to build an error text.

/// A string's text between its quotes, or a bare value token, in the line.
/// `escaped` marks string text holding an escape the scan accepted.
struct JsonText {
  std::string_view raw;
  bool escaped = false;
};

/// The character at `raw[i]`, its escape decoded; advances `i` past it.
char unescape_next(std::string_view raw, std::size_t& i) {
  const char c = raw[i++];
  if (c != '\\') return c;
  const char esc = raw[i++];
  switch (esc) {
    case 'n': return '\n';
    case 'r': return '\r';
    case 't': return '\t';
    default: return esc;  // '"', '\\' or '/'
  }
}

std::string unescape(const JsonText& text) {
  std::string out;
  for (std::size_t i = 0; i < text.raw.size();) {
    out.push_back(unescape_next(text.raw, i));
  }
  return out;
}

/// True when both texts decode to the same characters.
bool same_text(const JsonText& a, const JsonText& b) {
  if (!a.escaped && !b.escaped) return a.raw == b.raw;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.raw.size() && j < b.raw.size()) {
    if (unescape_next(a.raw, i) != unescape_next(b.raw, j)) return false;
  }
  return i == a.raw.size() && j == b.raw.size();
}

/// True when `text` decodes to `word`, which holds nothing JSON escapes.
bool is_word(const JsonText& text, std::string_view word) {
  return !text.escaped && text.raw == word;
}

/// The request keys, in kKeyNames order; kUnknown is any other key.
enum class Key : std::uint8_t { kVerb, kKind, kId, kRoute, kSize, kT, kUnknown };
constexpr std::array<std::string_view, 6> kKeyNames = {"verb", "kind", "id",
                                                       "route", "size", "t"};

constexpr unsigned key_bit(Key key) { return 1U << static_cast<unsigned>(key); }
constexpr unsigned kSubmitKeys = key_bit(Key::kVerb) | key_bit(Key::kKind) |
                                 key_bit(Key::kId) | key_bit(Key::kRoute) |
                                 key_bit(Key::kSize) | key_bit(Key::kT);
constexpr unsigned kTimedKeys = key_bit(Key::kVerb) | key_bit(Key::kT);
constexpr unsigned kShutdownKeys = key_bit(Key::kVerb);

struct JsonField {
  JsonText key;
  JsonText value;
  bool is_string = false;  ///< otherwise `value` is a bare token
  Key name = Key::kUnknown;
};

/// Strict single-pass scanner for one-line flat JSON objects. Fails
/// (returns false with a detail message) on nesting, duplicate keys,
/// unsupported escapes and any structural deviation, at the first one in
/// scan order — the wire rejects what it does not fully understand.
class FlatJsonScanner {
 public:
  FlatJsonScanner(std::string_view line, std::pmr::vector<JsonField>& fields)
      : line_(line), fields_(fields) {}

  [[nodiscard]] bool scan(std::string& detail) {
    skip_ws();
    if (!consume('{')) return fail(detail, "expected '{'");
    skip_ws();
    if (consume('}')) return finish(detail);
    while (true) {
      skip_ws();
      JsonField field;
      if (!scan_string(field.key, detail)) return false;
      for (const JsonField& existing : fields_) {
        if (same_text(existing.key, field.key)) {
          return fail(detail, "duplicate key '" + unescape(field.key) + "'");
        }
      }
      skip_ws();
      if (!consume(':')) return fail(detail, "expected ':' after key");
      skip_ws();
      if (!scan_value(field, detail)) return false;
      fields_.push_back(field);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return finish(detail);
      return fail(detail, "expected ',' or '}' after value");
    }
  }

 private:
  [[nodiscard]] bool finish(std::string& detail) {
    skip_ws();
    if (pos_ != line_.size()) return fail(detail, "trailing bytes after '}'");
    return true;
  }

  [[nodiscard]] bool fail(std::string& detail, const std::string& what) const {
    detail = strfmt("malformed JSON at byte %zu: %s", pos_, what.c_str());
    return false;
  }

  void skip_ws() {
    while (pos_ < line_.size() &&
           (line_[pos_] == ' ' || line_[pos_] == '\t' || line_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char expected) {
    if (pos_ < line_.size() && line_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool scan_string(JsonText& out, std::string& detail) {
    if (!consume('"')) return fail(detail, "expected '\"'");
    const std::size_t begin = pos_;
    while (pos_ < line_.size()) {
      const char c = line_[pos_++];
      if (c == '"') {
        out.raw = line_.substr(begin, pos_ - 1 - begin);
        return true;
      }
      if (c == '\\') {
        if (pos_ >= line_.size()) return fail(detail, "dangling escape");
        const char esc = line_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
          case 'n':
          case 'r':
          case 't':
            out.escaped = true;
            break;
          default:
            return fail(detail, strfmt("unsupported escape '\\%c'", esc));
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20U) {
        return fail(detail, "raw control byte inside string");
      }
    }
    return fail(detail, "unterminated string");
  }

  [[nodiscard]] bool scan_value(JsonField& field, std::string& detail) {
    if (pos_ >= line_.size()) return fail(detail, "expected a value");
    const char head = line_[pos_];
    if (head == '"') {
      field.is_string = true;
      return scan_string(field.value, detail);
    }
    if (head == '{' || head == '[') {
      return fail(detail, "nested values are not supported (flat object only)");
    }
    const std::size_t begin = pos_;
    while (pos_ < line_.size()) {
      const char c = line_[pos_];
      if (c == ',' || c == '}' || c == ' ' || c == '\t' || c == '\r') break;
      ++pos_;
    }
    if (pos_ == begin) return fail(detail, "expected a value");
    field.value.raw = line_.substr(begin, pos_ - begin);
    return true;
  }

  std::string_view line_;
  std::pmr::vector<JsonField>& fields_;
  std::size_t pos_ = 0;
};

Key key_of(const JsonText& key) {
  for (std::size_t k = 0; k < kKeyNames.size(); ++k) {
    if (is_word(key, kKeyNames[k])) return static_cast<Key>(k);
  }
  return Key::kUnknown;
}

/// Marks `result` rejected with kBadField carrying `detail`.
DecodeResult bad_field(std::string detail) {
  DecodeResult result;
  result.error = WireError::kBadField;
  result.detail = std::move(detail);
  return result;
}

[[nodiscard]] bool require_raw(const JsonField* field, Key key,
                               DecodeResult& rejection) {
  const char* name = kKeyNames[static_cast<std::size_t>(key)].data();
  if (field == nullptr) {
    rejection = bad_field(strfmt("missing field '%s'", name));
    return false;
  }
  if (field->is_string) {
    rejection = bad_field(strfmt("field '%s' must be a number, got a string", name));
    return false;
  }
  return true;
}

/// "field 'KEY'", the name the strict parsers give in their errors. Built
/// once; every label fits the small-string buffer, so that allocates
/// nothing either.
const std::string& field_label(Key key) {
  static const std::array<std::string, kKeyNames.size()> kLabels = [] {
    std::array<std::string, kKeyNames.size()> labels;
    for (std::size_t k = 0; k < kKeyNames.size(); ++k) {
      labels[k] = "field '";
      labels[k] += kKeyNames[k];
      labels[k] += '\'';
    }
    return labels;
  }();
  return kLabels[static_cast<std::size_t>(key)];
}

[[nodiscard]] bool parse_u64_field(const JsonField* field, Key key,
                                   std::uint64_t& out, DecodeResult& rejection) {
  if (!require_raw(field, key, rejection)) return false;
  try {
    out = parse_u64_strict(field->value.raw, field_label(key));
  } catch (const PreconditionError& error) {
    rejection = bad_field(error.what());
    return false;
  }
  return true;
}

[[nodiscard]] bool parse_double_field(const JsonField* field, Key key,
                                      double& out, DecodeResult& rejection) {
  if (!require_raw(field, key, rejection)) return false;
  try {
    out = parse_double_strict(field->value.raw, field_label(key));
  } catch (const PreconditionError& error) {
    rejection = bad_field(error.what());
    return false;
  }
  return true;
}

/// Rejects keys outside the verb's vocabulary (a mask of key_bit) so typos
/// ("szie") surface as errors instead of silently ignored fields.
[[nodiscard]] bool check_known_keys(std::span<const JsonField> fields,
                                    unsigned allowed, DecodeResult& rejection) {
  for (const JsonField& field : fields) {
    if ((allowed & key_bit(field.name)) == 0) {
      rejection = bad_field(
          strfmt("unexpected field '%s'", unescape(field.key).c_str()));
      return false;
    }
  }
  return true;
}

}  // namespace


std::string encode_json_request(const WireRequest& request) {
  switch (request.verb) {
    case WireVerb::kSubmit: {
      const engine::SessionEvent& event = request.event;
      if (event.kind == engine::SessionEvent::Kind::kStart) {
        return strfmt(
            "{\"verb\":\"submit\",\"kind\":\"start\",\"id\":%llu,"
            "\"route\":%llu,\"size\":%s,\"t\":%s}",
            static_cast<unsigned long long>(event.session_id),
            static_cast<unsigned long long>(event.route_key),
            json_number(event.gpu_fraction).c_str(),
            json_number(event.time_minutes).c_str());
      }
      return strfmt(
          "{\"verb\":\"submit\",\"kind\":\"end\",\"id\":%llu,"
          "\"route\":%llu,\"t\":%s}",
          static_cast<unsigned long long>(event.session_id),
          static_cast<unsigned long long>(event.route_key),
          json_number(event.time_minutes).c_str());
    }
    case WireVerb::kEpoch:
      return strfmt("{\"verb\":\"epoch\",\"t\":%s}",
                    json_number(request.time_minutes).c_str());
    case WireVerb::kQuery:
      return strfmt("{\"verb\":\"query\",\"t\":%s}",
                    json_number(request.time_minutes).c_str());
    case WireVerb::kShutdown:
      return "{\"verb\":\"shutdown\"}";
  }
  throw InvariantError("unreachable wire verb");
}

DecodeResult decode_json_request(std::string_view line) {
  DecodeResult result;
  if (!is_valid_utf8(line)) {
    result.error = WireError::kNotUtf8;
    result.detail = "request line is not valid UTF-8";
    return result;
  }
  // An accepted line has at most one field per key, so its fields fit this
  // buffer. Only a longer line, which is always rejected, spills to the
  // heap; no field count changes a result.
  alignas(JsonField) std::array<std::byte, kKeyNames.size() * sizeof(JsonField)>
      buffer;
  std::pmr::monotonic_buffer_resource arena(buffer.data(), buffer.size());
  std::pmr::vector<JsonField> fields(&arena);
  fields.reserve(kKeyNames.size());
  if (!FlatJsonScanner(line, fields).scan(result.detail)) {
    result.error = WireError::kBadJson;
    return result;
  }
  // The scan refused duplicates, so each key names at most one field.
  std::array<const JsonField*, kKeyNames.size()> by_key{};
  for (JsonField& field : fields) {
    field.name = key_of(field.key);
    if (field.name != Key::kUnknown) by_key[static_cast<std::size_t>(field.name)] = &field;
  }
  const auto find_field = [&by_key](Key key) {
    return by_key[static_cast<std::size_t>(key)];
  };

  const JsonField* verb = find_field(Key::kVerb);
  if (verb == nullptr || !verb->is_string) {
    result.error = WireError::kBadField;
    result.detail = "missing string field 'verb'";
    return result;
  }

  if (is_word(verb->value, "submit")) {
    if (!check_known_keys(fields, kSubmitKeys, result)) return result;
    result.request.verb = WireVerb::kSubmit;
    const JsonField* kind = find_field(Key::kKind);
    if (kind == nullptr || !kind->is_string ||
        (!is_word(kind->value, "start") && !is_word(kind->value, "end"))) {
      return bad_field("field 'kind' must be \"start\" or \"end\"");
    }
    const bool is_start = is_word(kind->value, "start");
    result.request.event.kind = is_start ? engine::SessionEvent::Kind::kStart
                                         : engine::SessionEvent::Kind::kEnd;
    if (!parse_u64_field(find_field(Key::kId), Key::kId,
                         result.request.event.session_id, result)) {
      return result;
    }
    // Routing defaults to the session id, matching start_event/end_event.
    result.request.event.route_key = result.request.event.session_id;
    if (const JsonField* route = find_field(Key::kRoute)) {
      if (!parse_u64_field(route, Key::kRoute, result.request.event.route_key,
                           result)) {
        return result;
      }
    }
    if (is_start) {
      if (!parse_double_field(find_field(Key::kSize), Key::kSize,
                              result.request.event.gpu_fraction, result)) {
        return result;
      }
    } else if (find_field(Key::kSize) != nullptr) {
      return bad_field("field 'size' is not allowed on kind \"end\"");
    }
    if (!parse_double_field(find_field(Key::kT), Key::kT,
                            result.request.event.time_minutes, result)) {
      return result;
    }
    return result;
  }

  if (is_word(verb->value, "epoch") || is_word(verb->value, "query")) {
    if (!check_known_keys(fields, kTimedKeys, result)) return result;
    result.request.verb =
        is_word(verb->value, "epoch") ? WireVerb::kEpoch : WireVerb::kQuery;
    if (!parse_double_field(find_field(Key::kT), Key::kT,
                            result.request.time_minutes, result)) {
      return result;
    }
    return result;
  }

  if (is_word(verb->value, "shutdown")) {
    if (!check_known_keys(fields, kShutdownKeys, result)) return result;
    result.request.verb = WireVerb::kShutdown;
    return result;
  }

  result.error = WireError::kUnknownVerb;
  result.detail = strfmt("unknown verb '%s'", unescape(verb->value).c_str());
  return result;
}


std::string encode_json_response(const WireResponse& response) {
  if (response.error == WireError::kNone) {
    std::string line = strfmt(
        "{\"seq\":%llu,\"ok\":true",
        static_cast<unsigned long long>(response.request_seq));
    if (!response.body.empty()) {
      line += ",\"result\":";
      line += response.body;
    }
    line += "}";
    return line;
  }
  return strfmt("{\"seq\":%llu,\"ok\":false,\"error\":\"%s\",\"detail\":%s}",
                static_cast<unsigned long long>(response.request_seq),
                to_string(response.error), json_quote(response.detail).c_str());
}

WireResponse decode_json_response(std::string_view line) {
  // Hand-rolled prefix match of exactly what encode_json_response emits —
  // the client only ever parses its own server's responses.
  const auto corrupt = [] {
    return CorruptionError("malformed wire response line");
  };
  const auto eat = [&](std::string_view prefix) {
    if (line.substr(0, prefix.size()) != prefix) throw corrupt();
    line.remove_prefix(prefix.size());
  };

  WireResponse response;
  eat("{\"seq\":");
  std::size_t digits = 0;
  while (digits < line.size() && line[digits] >= '0' && line[digits] <= '9') {
    ++digits;
  }
  if (digits == 0) throw corrupt();
  response.request_seq = parse_u64_strict(line.substr(0, digits), "seq");
  line.remove_prefix(digits);

  if (line.rfind(",\"ok\":true", 0) == 0) {
    line.remove_prefix(std::string_view(",\"ok\":true").size());
    if (line == "}") return response;
    eat(",\"result\":");
    if (line.empty() || line.back() != '}') throw corrupt();
    response.body = std::string(line.substr(0, line.size() - 1));
    return response;
  }

  eat(",\"ok\":false,\"error\":\"");
  const std::size_t name_end = line.find('"');
  if (name_end == std::string_view::npos) throw corrupt();
  const std::string_view name = line.substr(0, name_end);
  response.error = WireError::kNone;
  for (std::size_t code = 1; code < kErrorNames.size(); ++code) {
    if (name == kErrorNames[code]) {
      response.error = static_cast<WireError>(code);
      break;
    }
  }
  if (response.error == WireError::kNone) throw corrupt();
  line.remove_prefix(name_end + 1);

  eat(",\"detail\":");
  if (line.size() < 2 || line.back() != '}') throw corrupt();
  // Reverse json_quote: the detail string is the last field.
  std::string_view quoted = line.substr(0, line.size() - 1);
  if (quoted.size() < 2 || quoted.front() != '"' || quoted.back() != '"') {
    throw corrupt();
  }
  quoted = quoted.substr(1, quoted.size() - 2);
  for (std::size_t i = 0; i < quoted.size(); ++i) {
    if (quoted[i] != '\\') {
      response.detail.push_back(quoted[i]);
      continue;
    }
    if (++i >= quoted.size()) throw corrupt();
    switch (quoted[i]) {
      case '"': response.detail.push_back('"'); break;
      case '\\': response.detail.push_back('\\'); break;
      case 'n': response.detail.push_back('\n'); break;
      case 'r': response.detail.push_back('\r'); break;
      case 't': response.detail.push_back('\t'); break;
      case 'u': {
        if (i + 4 >= quoted.size()) throw corrupt();
        // Only \u00XX control escapes are ever emitted by json_quote.
        unsigned value = 0;
        for (std::size_t k = 1; k <= 4; ++k) {
          const char hex = quoted[i + k];
          unsigned digit = 0;
          if (hex >= '0' && hex <= '9') digit = static_cast<unsigned>(hex - '0');
          else if (hex >= 'a' && hex <= 'f') digit = static_cast<unsigned>(hex - 'a') + 10;
          else throw corrupt();
          value = (value << 4) | digit;
        }
        if (value > 0x1FU) throw corrupt();
        response.detail.push_back(static_cast<char>(value));
        i += 4;
        break;
      }
      default:
        throw corrupt();
    }
  }
  return response;
}

}  // namespace dbp::net
