#include "core/json.hpp"

#include <charconv>

namespace dbp {

std::string json_number(double value) {
  // to_chars with a precision formats as printf does in the C locale.
  char buffer[32];
  const std::to_chars_result result = std::to_chars(
      buffer, buffer + sizeof(buffer), value, std::chars_format::general, 17);
  return std::string(buffer, result.ptr);
}

std::string json_quote(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
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
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20U) {
          out += "\\u00";
          out.push_back(kHex[byte >> 4U]);
          out.push_back(kHex[byte & 0xFU]);
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace dbp
