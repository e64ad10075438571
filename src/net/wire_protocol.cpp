#include "net/wire_protocol.hpp"

#include <array>
#include <cstddef>

#include "core/crc32.hpp"
#include "core/error.hpp"
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

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20U) {
          out += strfmt("\\u%04x", static_cast<unsigned>(c));
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

/// %.17g round-trips every finite double through from_chars bit-exactly,
/// which the differential test depends on for sizes and times.
std::string json_number(double value) { return strfmt("%.17g", value); }

/// One value in the flat-object subset: either a JSON string (decoded) or
/// the raw token text of a number/bool/null, kept verbatim so numeric
/// fields run through the same strict parsers as CLI flags.
struct JsonValue {
  bool is_string = false;
  std::string text;
};

struct JsonField {
  std::string key;
  JsonValue value;
};

/// Strict parser for one-line flat JSON objects. Fails (returns false with
/// a detail message) on nesting, duplicate keys, unsupported escapes and
/// any structural deviation — the wire rejects what it does not fully
/// understand.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view line) : line_(line) {}

  [[nodiscard]] bool parse(std::vector<JsonField>& fields, std::string& detail) {
    skip_ws();
    if (!consume('{')) return fail(detail, "expected '{'");
    skip_ws();
    if (consume('}')) return finish(detail);
    while (true) {
      skip_ws();
      JsonField field;
      if (!parse_string(field.key, detail)) return false;
      for (const JsonField& existing : fields) {
        if (existing.key == field.key) {
          return fail(detail, "duplicate key '" + field.key + "'");
        }
      }
      skip_ws();
      if (!consume(':')) return fail(detail, "expected ':' after key");
      skip_ws();
      if (!parse_value(field.value, detail)) return false;
      fields.push_back(std::move(field));
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

  [[nodiscard]] bool parse_string(std::string& out, std::string& detail) {
    if (!consume('"')) return fail(detail, "expected '\"'");
    out.clear();
    while (pos_ < line_.size()) {
      const char c = line_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= line_.size()) return fail(detail, "dangling escape");
        const char esc = line_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          default:
            return fail(detail,
                        strfmt("unsupported escape '\\%c'", esc));
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20U) {
        return fail(detail, "raw control byte inside string");
      }
      out.push_back(c);
    }
    return fail(detail, "unterminated string");
  }

  [[nodiscard]] bool parse_value(JsonValue& out, std::string& detail) {
    if (pos_ >= line_.size()) return fail(detail, "expected a value");
    const char head = line_[pos_];
    if (head == '"') {
      out.is_string = true;
      return parse_string(out.text, detail);
    }
    if (head == '{' || head == '[') {
      return fail(detail, "nested values are not supported (flat object only)");
    }
    out.is_string = false;
    out.text.clear();
    while (pos_ < line_.size()) {
      const char c = line_[pos_];
      if (c == ',' || c == '}' || c == ' ' || c == '\t' || c == '\r') break;
      out.text.push_back(c);
      ++pos_;
    }
    if (out.text.empty()) return fail(detail, "expected a value");
    return true;
  }

  std::string_view line_;
  std::size_t pos_ = 0;
};

[[nodiscard]] const JsonValue* find_field(const std::vector<JsonField>& fields,
                                          std::string_view key) {
  for (const JsonField& field : fields) {
    if (field.key == key) return &field.value;
  }
  return nullptr;
}

/// Marks `result` rejected with kBadField carrying `detail`.
DecodeResult bad_field(std::string detail) {
  DecodeResult result;
  result.error = WireError::kBadField;
  result.detail = std::move(detail);
  return result;
}

[[nodiscard]] bool require_raw(const JsonValue* value, const char* key,
                               DecodeResult& rejection) {
  if (value == nullptr) {
    rejection = bad_field(strfmt("missing field '%s'", key));
    return false;
  }
  if (value->is_string) {
    rejection = bad_field(strfmt("field '%s' must be a number, got a string", key));
    return false;
  }
  return true;
}

/// "field 'KEY'", the name the strict parsers give in their errors. Every
/// key fits the small-string buffer, so building it allocates nothing.
std::string field_label(const char* key) {
  return std::string("field '") + key + "'";
}

[[nodiscard]] bool parse_u64_field(const JsonValue* value, const char* key,
                                   std::uint64_t& out, DecodeResult& rejection) {
  if (!require_raw(value, key, rejection)) return false;
  try {
    out = parse_u64_strict(value->text, field_label(key));
  } catch (const PreconditionError& error) {
    rejection = bad_field(error.what());
    return false;
  }
  return true;
}

[[nodiscard]] bool parse_double_field(const JsonValue* value, const char* key,
                                      double& out, DecodeResult& rejection) {
  if (!require_raw(value, key, rejection)) return false;
  try {
    out = parse_double_strict(value->text, field_label(key));
  } catch (const PreconditionError& error) {
    rejection = bad_field(error.what());
    return false;
  }
  return true;
}

/// Rejects keys outside the verb's vocabulary so typos ("szie") surface as
/// errors instead of silently ignored fields.
[[nodiscard]] bool check_known_keys(const std::vector<JsonField>& fields,
                                    std::span<const std::string_view> allowed,
                                    DecodeResult& rejection) {
  for (const JsonField& field : fields) {
    bool known = false;
    for (const std::string_view key : allowed) {
      if (field.key == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      rejection = bad_field(
          strfmt("unexpected field '%s'", field.key.c_str()));
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
  std::vector<JsonField> fields;
  std::string detail;
  if (!FlatJsonParser(line).parse(fields, detail)) {
    result.error = WireError::kBadJson;
    result.detail = std::move(detail);
    return result;
  }

  const JsonValue* verb = find_field(fields, "verb");
  if (verb == nullptr || !verb->is_string) {
    result.error = WireError::kBadField;
    result.detail = "missing string field 'verb'";
    return result;
  }

  if (verb->text == "submit") {
    static constexpr std::string_view kKeys[] = {"verb", "kind", "id",
                                                 "route", "size", "t"};
    if (!check_known_keys(fields, kKeys, result)) return result;
    result.request.verb = WireVerb::kSubmit;
    const JsonValue* kind = find_field(fields, "kind");
    if (kind == nullptr || !kind->is_string ||
        (kind->text != "start" && kind->text != "end")) {
      return bad_field("field 'kind' must be \"start\" or \"end\"");
    }
    const bool is_start = kind->text == "start";
    result.request.event.kind = is_start ? engine::SessionEvent::Kind::kStart
                                         : engine::SessionEvent::Kind::kEnd;
    if (!parse_u64_field(find_field(fields, "id"), "id",
                         result.request.event.session_id, result)) {
      return result;
    }
    // Routing defaults to the session id, matching start_event/end_event.
    result.request.event.route_key = result.request.event.session_id;
    if (const JsonValue* route = find_field(fields, "route")) {
      if (!parse_u64_field(route, "route", result.request.event.route_key,
                           result)) {
        return result;
      }
    }
    if (is_start) {
      if (!parse_double_field(find_field(fields, "size"), "size",
                              result.request.event.gpu_fraction, result)) {
        return result;
      }
    } else if (find_field(fields, "size") != nullptr) {
      return bad_field("field 'size' is not allowed on kind \"end\"");
    }
    if (!parse_double_field(find_field(fields, "t"), "t",
                            result.request.event.time_minutes, result)) {
      return result;
    }
    return result;
  }

  if (verb->text == "epoch" || verb->text == "query") {
    static constexpr std::string_view kKeys[] = {"verb", "t"};
    if (!check_known_keys(fields, kKeys, result)) return result;
    result.request.verb =
        verb->text == "epoch" ? WireVerb::kEpoch : WireVerb::kQuery;
    if (!parse_double_field(find_field(fields, "t"), "t",
                            result.request.time_minutes, result)) {
      return result;
    }
    return result;
  }

  if (verb->text == "shutdown") {
    static constexpr std::string_view kKeys[] = {"verb"};
    if (!check_known_keys(fields, kKeys, result)) return result;
    result.request.verb = WireVerb::kShutdown;
    return result;
  }

  result.error = WireError::kUnknownVerb;
  result.detail = strfmt("unknown verb '%s'", verb->text.c_str());
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
