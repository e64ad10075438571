// Reference line-JSON request decoder for differential tests
// (tests/json_request_reference.cpp).
#pragma once

#include <string_view>

#include "net/wire_protocol.hpp"

namespace dbp::net::reference {

/// is_valid_utf8 as it was before its eight-byte ASCII steps: one byte at
/// a time.
[[nodiscard]] bool is_valid_utf8(std::string_view text) noexcept;

/// decode_json_request as it was before the single-pass decoder: the same
/// contract, error kinds and detail texts, by an independent parser.
[[nodiscard]] DecodeResult decode_json_request(std::string_view line);

}  // namespace dbp::net::reference
