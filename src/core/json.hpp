// JSON text for the values the library prints: the run trace, the wire's
// line-JSON codec and the tools' reports all format through these two.
#pragma once

#include <string>
#include <string_view>

namespace dbp {

/// A double as `%.17g` prints it in the C locale, whatever the process
/// locale: it round-trips every finite double bit-exactly (inf and nan
/// print as `inf` and `nan`, which are not JSON numbers).
[[nodiscard]] std::string json_number(double value);

/// `text` as a JSON string literal, quotes included: `"` and `\` are
/// escaped, newline, carriage return and tab as `\n`, `\r` and `\t`, and
/// every other byte below 0x20 as `\u00XX`. Other bytes pass unchanged.
[[nodiscard]] std::string json_quote(std::string_view text);

}  // namespace dbp
