// Strict text -> number parsing shared by the CLI tools and the wire layer.
//
// std::stoull / std::stod are the wrong tool for untrusted input: "8abc"
// parses as 8, "-1" wraps to a huge uint64, and "abc" escapes as an uncaught
// std::invalid_argument. These helpers accept a value if and only if the
// *entire* token is a well-formed, in-range number, and report every failure
// as a PreconditionError naming the offending text — so a CLI flag and a
// wire-protocol field reject garbage identically (tools/cli.hpp and
// net/wire_protocol.cpp are the two consumers).
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

#include "core/error.hpp"

namespace dbp {

/// Parses a non-negative integer: ASCII digits only — no sign, no
/// whitespace, no base prefix, no trailing garbage — and within uint64
/// range. `what` names the value in the error ("--events value", "field
/// 'id'").
[[nodiscard]] inline std::uint64_t parse_u64_strict(std::string_view text,
                                                    const std::string& what) {
  DBP_REQUIRE(!text.empty(), "invalid " + what + ": empty, expected a "
              "non-negative integer");
  const bool all_digits = std::all_of(text.begin(), text.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
  DBP_REQUIRE(all_digits, "invalid " + what + " '" + std::string(text) +
              "': expected a non-negative integer");
  std::uint64_t value = 0;
  const std::from_chars_result result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  DBP_REQUIRE(result.ec != std::errc::result_out_of_range,
              "invalid " + what + " '" + std::string(text) +
              "': out of range for a 64-bit unsigned integer");
  DBP_REQUIRE(result.ec == std::errc() && result.ptr == text.data() + text.size(),
              "invalid " + what + " '" + std::string(text) +
              "': expected a non-negative integer");
  return value;
}

/// Parses a finite double in decimal or scientific notation, optionally
/// negative. The whole token must be consumed ("1.5x" is rejected, so are
/// "nan"/"inf": values that escape ordinary arithmetic are never accepted
/// from text). A leading '+' is rejected like any other garbage.
[[nodiscard]] inline double parse_double_strict(std::string_view text,
                                                const std::string& what) {
  DBP_REQUIRE(!text.empty(),
              "invalid " + what + ": empty, expected a finite number");
  double value = 0.0;
  const std::from_chars_result result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  DBP_REQUIRE(result.ec != std::errc::result_out_of_range,
              "invalid " + what + " '" + std::string(text) +
              "': out of double range");
  DBP_REQUIRE(result.ec == std::errc() && result.ptr == text.data() + text.size(),
              "invalid " + what + " '" + std::string(text) +
              "': expected a finite number");
  DBP_REQUIRE(std::isfinite(value), "invalid " + what + " '" +
              std::string(text) + "': expected a finite number");
  return value;
}

}  // namespace dbp
