// The line-JSON request decoder that src/net/wire_protocol.cpp shipped
// before its single-pass decoder, kept unchanged as the reference for
// tests/net_json_differential_test.cpp: a bytewise UTF-8 check, a
// flat-object parser that copies every key and value into a vector of
// strings, a linear lookup per field, and the strict core parsers for
// numbers. Test code only; src/ keeps one decoder.
#include "json_request_reference.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/parse.hpp"
#include "core/strfmt.hpp"

namespace dbp::net::reference {

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

namespace {

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

}  // namespace dbp::net::reference
