// Differential test of the line-JSON request decoder: decode_json_request
// (src/net/wire_protocol.cpp, one pass over the line into views) against
// the decoder it replaced, kept in tests/json_request_reference.cpp. On
// every line of the corpus both must return the same error kind, the same
// detail text byte for byte, and bitwise-equal request fields. The corpus:
// every verb's encoding over extreme ids, sizes and times, the NetWireJson
// cases, lines with many fields, and 120k seeded mutations of those lines.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "json_request_reference.hpp"
#include "net/wire_protocol.hpp"

namespace dbp::net {
namespace {

/// Empty when `got` equals `want` in error, detail and every request field
/// (doubles by bit pattern); otherwise what differs.
std::string difference(const DecodeResult& want, const DecodeResult& got) {
  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  const WireRequest& a = want.request;
  const WireRequest& b = got.request;
  if (want.error != got.error) {
    return std::string("error ") + to_string(want.error) + " vs " + to_string(got.error);
  }
  if (want.detail != got.detail) return "detail '" + want.detail + "' vs '" + got.detail + "'";
  if (a.verb != b.verb) return "verb";
  if (bits(a.time_minutes) != bits(b.time_minutes)) return "time_minutes";
  if (a.event.kind != b.event.kind) return "event.kind";
  if (a.event.session_id != b.event.session_id) return "event.session_id";
  if (a.event.route_key != b.event.route_key) return "event.route_key";
  if (bits(a.event.gpu_fraction) != bits(b.event.gpu_fraction)) return "event.gpu_fraction";
  if (bits(a.event.time_minutes) != bits(b.event.time_minutes)) return "event.time_minutes";
  return {};
}

/// Decodes every line with both decoders; returns the mismatch count and
/// records the first few, and counts results by error kind.
struct Comparison {
  std::size_t lines = 0;
  std::size_t mismatches = 0;
  std::vector<std::string> first_mismatches;
  std::map<WireError, std::size_t> by_error;

  void add(const std::string& line) {
    const DecodeResult want = reference::decode_json_request(line);
    const DecodeResult got = decode_json_request(line);
    ++lines;
    ++by_error[want.error];
    const std::string diff = difference(want, got);
    if (diff.empty()) return;
    ++mismatches;
    if (first_mismatches.size() < 8) first_mismatches.push_back(line + "  ->  " + diff);
  }

  void expect_no_mismatch() const {
    EXPECT_EQ(mismatches, 0u) << "of " << lines << " lines";
    for (const std::string& m : first_mismatches) ADD_FAILURE() << m;
  }
};

/// Every verb's encoding over extreme ids, routes, sizes and times.
std::vector<std::string> extreme_encodings() {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  const std::uint64_t ids[] = {0, 1, 42, std::uint64_t{1} << 32,
                               (std::uint64_t{1} << 53) + 1, std::uint64_t{1} << 63,
                               std::numeric_limits<std::uint64_t>::max()};
  const double values[] = {0.0,  -0.0,       kDenormMin, kMinNormal, 1e-300,
                           0.1,  1.0 / 3.0,  0.5,        1.0,        6.62607015e-3,
                           1e22, 1e300,      kMax,       -1.5,       -kMax};
  std::vector<std::string> lines;
  for (const std::uint64_t id : ids) {
    for (const std::uint64_t route : {id, std::uint64_t{7}}) {
      for (const double size : values) {
        for (const double t : {0.0, 1.0 / 3.0, 1e300, -kMax}) {
          WireRequest start;
          start.verb = WireVerb::kSubmit;
          start.event = engine::start_event(id, size, t);
          start.event.route_key = route;
          lines.push_back(encode_json_request(start));
          WireRequest end;
          end.verb = WireVerb::kSubmit;
          end.event = engine::end_event(id, size);
          end.event.route_key = route;
          lines.push_back(encode_json_request(end));
        }
      }
    }
  }
  for (const double t : values) {
    for (const WireVerb verb : {WireVerb::kEpoch, WireVerb::kQuery}) {
      WireRequest request;
      request.verb = verb;
      request.time_minutes = t;
      lines.push_back(encode_json_request(request));
    }
  }
  WireRequest shutdown;
  shutdown.verb = WireVerb::kShutdown;
  lines.push_back(encode_json_request(shutdown));
  return lines;
}

/// The NetWireJson cases (tests/net_wire_test.cpp), plus hand-written lines
/// with escapes, whitespace and odd tokens.
std::vector<std::string> handwritten_lines() {
  std::vector<std::string> lines = {
      R"({"verb":"submit","kind":"start","id":11,"size":0.25,"t":2.0})",
      "not json at all",
      "[1,2,3]",
      R"({"verb":"query","t":{"nested":1}})",
      R"({"verb":"query","t":[1]})",
      R"({"verb":"query","t":1,"t":2})",
      R"({"verb":"query","t":1)",
      R"({"verb":"frobnicate"})",
      R"({"kind":"start","id":1,"size":0.5,"t":1})",
      R"({"verb":"epoch"})",
      R"({"verb":"epoch","t":true})",
      R"({"verb":"epoch","t":"later"})",
      R"({"verb":"shutdown","bogus":1})",
      R"({"verb":"submit","kind":"sideways","id":1,"size":0.5,"t":1})",
      R"({"verb":"submit","kind":"end","id":1,"size":0.5,"t":1})",
      R"({"verb":"submit","kind":"start","id":1,"t":1})",
      R"({"verb":"submit","kind":"start","id":8abc,"size":0.5,"t":1})",
      R"({"verb":"submit","kind":"start","id":-1,"size":0.5,"t":1})",
      R"({"verb":"epoch","t":1.5x})",
      R"({"verb":"epoch","t":nan})",
      R"({"verb":"epoch","t":1e99999})",
      std::string(R"({"verb":"query","t":)") + "\xFF\xFE}",
      "",
      "{}",
      " { } ",
      "{ \"verb\" : \"query\" , \"t\" : 1 }\r",
      "\t{\"verb\":\"shutdown\"}\t",
      R"({"verb":"shutdown"} x)",
      R"({"verb":"sh\/utdown"})",
      R"({"v\/erb":"shutdown"})",
      R"({"verb":"query","t":1,"a\/b":1,"a/b":2})",
      R"({"verb":"query","t":1,"a\nb":1,"a\u000ab":2})",
      R"({"verb":"query","t":1,"\"":1,"\\":2,"\"":3})",
      R"({"verb":"submit","kind":"st\"art","id":1,"size":0.5,"t":1})",
      R"({"verb":"submit","kind":"start","id":"1","size":0.5,"t":1})",
      R"({"verb":"submit","kind":"start","id":1,"route":"2","size":0.5,"t":1})",
      R"({"verb":"submit","kind":"start","id":1,"route":,"size":0.5,"t":1})",
      R"({"verb":"submit","kind":"end","id":1,"route":18446744073709551616,"t":1})",
      R"({"verb":"submit","kind":"end","id":+1,"t":1})",
      R"({"verb":"submit","kind":"start","id":1,"size":+0.5,"t":1})",
      R"({"verb":"submit","kind":"start","id":1,"size":inf,"t":1})",
      R"({"verb":"submit","kind":"start","id":1,"size":0.5,"t":-infinity})",
      R"({"verb":"submit","kind":"start","id":1,"size":0x10,"t":1})",
      R"({"verb":"submit","kind":"start","id":1,"size":1e-400,"t":1})",
      R"({"verb":"query","t":1,"verb":"epoch"})",
      R"({"verb":query,"t":1})",
      R"({"verb":"query","t":1 2})",
      R"({"verb":"query",,"t":1})",
      R"({"verb":"query","t":1,})",
      R"({"verb" "query"})",
      R"({"verb":"query","t":"\q"})",
      R"({"verb":"query","t":"\)",
      R"({"verb":"query","t":")",
      R"({"verb":"query","t":1}})",
      std::string("{\"verb\":\"query\",\"t\":\"a") + '\x01' + "\"}",
      std::string("{\"verb\":\"query\",\"t\":1") + '\0' + "}",
      std::string("{\"verb\":\"query\",\"t\":\"\\") + '\0' + "\"}",
      "{\"verb\":\"caf\xC3\xA9\"}",
      "{\"caf\xC3\xA9\":1,\"verb\":\"query\",\"t\":1}",
  };
  return lines;
}

/// The request lines every mutation starts from.
std::vector<std::string> seed_lines() {
  std::vector<std::string> lines = handwritten_lines();
  // A sample of the extreme encodings keeps the seed set varied but small.
  const std::vector<std::string> extremes = extreme_encodings();
  for (std::size_t i = 0; i < extremes.size(); i += 7) lines.push_back(extremes[i]);
  return lines;
}

/// splitmix64: a fixed, portable stream for the mutations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(next() % n); }
  template <typename T, std::size_t N>
  const T& pick(const std::array<T, N>& items) { return items[below(N)]; }

 private:
  std::uint64_t state_;
};

/// Positions just after each ':' — where values start in a well-formed line.
std::vector<std::size_t> value_starts(const std::string& line) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == ':') starts.push_back(i + 1);
  }
  return starts;
}

/// End of the token starting at `begin`: the next ',' or '}' (or the end).
std::size_t token_end(const std::string& line, std::size_t begin) {
  const std::size_t end = line.find_first_of(",}", begin);
  return end == std::string::npos ? line.size() : end;
}

/// `count` fields ,"kI":N whose keys cycle through `distinct` names.
std::string numbered_fields(std::size_t count, std::size_t distinct) {
  std::string fields;
  for (std::size_t k = 0; k < count; ++k) {
    fields += ",\"k";
    fields += std::to_string(k % distinct);
    fields += "\":";
    fields += std::to_string(k);
  }
  return fields;
}

/// Where an extra field goes: just before the last '}', else the end.
std::size_t field_slot(const std::string& line) {
  const std::size_t close = line.rfind('}');
  return close == std::string::npos ? line.size() : close;
}

void mutate_once(std::string& line, Rng& rng) {
  static constexpr std::array<char, 36> kBytes = {
      '{', '}', '[', ']', '"', ':', ',', '\\', ' ', '\t', '\r', '\n',
      '0', '1', '9', '.', 'e', 'E', '+', '-', 'n', 'a', 'i', 'f',
      't', 'r', 'u', 'l', 's', '/', 'x', '\0', '\x01', '\x7F', 'v', 'd'};
  static constexpr std::array<std::string_view, 10> kEscapes = {
      R"(\")", R"(\\)", R"(\/)", R"(\n)", R"(\r)", R"(\t)", R"(\u0041)", R"(\x)", "\\", "\\\x01"};
  static constexpr std::array<std::string_view, 9> kUtf8 = {
      "\xFF", "\xC0\x80", "\xED\xA0\x80", "\xE2\x82", "\xF4\x90\x80\x80",
      "\xC3\xA9", "\xF0\x9F\x8E\xAE", "\x80", "\xE2\x82\xAC"};
  static constexpr std::array<std::string_view, 34> kNumbers = {
      "nan", "-nan", "NaN", "inf", "-inf", "infinity", "1e400", "-1e400", "1e-400",
      "4.9e-324", "2.2250738585072014e-308", "18446744073709551615",
      "18446744073709551616", "99999999999999999999", "-0", "00", "01", "1.",
      "-.5", ".5", "5e", "0x10", "1_0", "true", "false", "null", R"("7")", "",
      "1e+5", "1E5", "+1", "+0.5", "0.1", "7"};
  static constexpr std::array<std::string_view, 12> kWords = {
      "submit", "epoch", "query", "shutdown", "start", "end", "frobnicate",
      "Submit", R"(sub\/mit)", "", R"(st\"art)", "verb"};
  static constexpr std::array<std::string_view, 11> kKeys = {
      "verb", "kind", "id", "route", "size", "t", "szie", "T", "", R"(ve\/rb)", R"(\t)"};

  const std::size_t pos = rng.below(line.size() + 1);
  switch (rng.below(15)) {
    case 0:  // replace a byte
      if (!line.empty()) line[rng.below(line.size())] = rng.pick(kBytes);
      break;
    case 1:  // insert a byte
      line.insert(pos, 1, rng.pick(kBytes));
      break;
    case 2:  // delete a byte
      if (!line.empty()) line.erase(rng.below(line.size()), 1);
      break;
    case 3:  // truncate
      line.resize(pos);
      break;
    case 4:  // whitespace, including bytes the scanner does not skip
      line.insert(pos, std::string(1 + rng.below(3), " \t\r\n\f"[rng.below(5)]));
      break;
    case 5:  // an escape, valid or not, anywhere (mostly inside strings)
      line.insert(pos, rng.pick(kEscapes));
      break;
    case 6: {  // a duplicate: an exact copy of a field, or an escaped twin
      const std::size_t slot = field_slot(line);
      if (rng.below(2) == 0) {
        const std::size_t open = line.find('"', rng.below(line.size() + 1));
        const std::size_t end = open == std::string::npos ? open : token_end(line, open);
        if (open != std::string::npos && end > open) {
          const std::string field = line.substr(open, end - open);
          line.insert(slot, 1, ',');
          line.insert(slot + 1, field);
        }
      } else {
        line.insert(slot, R"(,"a/b":1,"a\/b":2)");
      }
      break;
    }
    case 7: {  // an unknown key, before or after the known ones
      const std::string field = std::string(R"("szie":1)");
      if (rng.below(2) == 0 && line.size() > 1 && line[0] == '{') {
        line.insert(1, field + ",");
      } else {
        line.insert(field_slot(line), "," + field);
      }
      break;
    }
    case 8: {  // many fields, distinct or repeating
      const std::size_t count = 17 + rng.below(24);
      const std::size_t distinct = rng.below(2) == 0 ? count : 1 + rng.below(8);
      line.insert(field_slot(line), numbered_fields(count, distinct));
      break;
    }
    case 9:  // UTF-8, valid or not
      line.insert(pos, rng.pick(kUtf8));
      break;
    case 10: {  // a leading '+' on a value
      const std::vector<std::size_t> starts = value_starts(line);
      if (!starts.empty()) line.insert(starts[rng.below(starts.size())], "+");
      break;
    }
    case 11: {  // a value replaced by an edge-case number or token
      const std::vector<std::size_t> starts = value_starts(line);
      if (starts.empty()) break;
      const std::size_t begin = starts[rng.below(starts.size())];
      line.replace(begin, token_end(line, begin) - begin, rng.pick(kNumbers));
      break;
    }
    case 12: {  // a value replaced by a verb or kind word
      const std::vector<std::size_t> starts = value_starts(line);
      if (starts.empty()) break;
      const std::size_t begin = starts[rng.below(starts.size())];
      std::string word(1, '"');
      word += rng.pick(kWords);
      word += '"';
      line.replace(begin, token_end(line, begin) - begin, word);
      break;
    }
    case 13: {  // a key renamed
      const std::size_t colon = line.find(':', rng.below(line.size() + 1));
      if (colon == std::string::npos || colon == 0 || line[colon - 1] != '"') break;
      const std::size_t open = line.rfind('"', colon - 2);
      if (open == std::string::npos) break;
      line.replace(open + 1, colon - 2 - open, rng.pick(kKeys));
      break;
    }
    default:  // a whole line of the other kind spliced in
      line.insert(pos, R"({"verb":"epoch","t":3})");
      break;
  }
}

TEST(NetJsonDifferentialTest, ExtremeEncodingsMatchTheReference) {
  Comparison comparison;
  for (const std::string& line : extreme_encodings()) comparison.add(line);
  comparison.expect_no_mismatch();
  // Every encoding of a finite value is accepted.
  EXPECT_EQ(comparison.by_error[WireError::kNone], comparison.lines);
}

TEST(NetJsonDifferentialTest, HandwrittenLinesMatchTheReference) {
  Comparison comparison;
  for (const std::string& line : handwritten_lines()) comparison.add(line);
  comparison.expect_no_mismatch();
}

/// No field count changes a result: 40 keys, distinct or duplicated, with
/// the verb first, last or missing, still get the reference's error.
TEST(NetJsonDifferentialTest, ManyFieldsMatchTheReference) {
  Comparison comparison;
  for (const std::size_t count : {6U, 7U, 8U, 16U, 17U, 40U, 400U}) {
    for (const std::size_t distinct : {count, std::size_t{3}}) {
      const std::string fields = numbered_fields(count, distinct);
      const std::string list = fields.substr(1);  // without the first ','
      comparison.add(R"({"verb":"query","t":1)" + fields + "}");
      comparison.add("{" + list + R"(,"verb":"query","t":1})");
      comparison.add("{" + list + "}");
      comparison.add(R"({"verb":"query")" + fields + R"(,"t":1,"t":2})");
    }
  }
  comparison.expect_no_mismatch();
}

/// The eight-byte ASCII steps must not skip a non-ASCII byte at any offset
/// of a word, nor misjudge a sequence that straddles two words.
TEST(NetJsonDifferentialTest, Utf8ValidatorMatchesTheBytewiseReference) {
  const std::string_view samples[] = {
      "\xFF", "\xC0\x80", "\xED\xA0\x80", "\xE2\x82", "\xF4\x90\x80\x80", "\x80",
      "\xC3\xA9", "\xE2\x82\xAC", "\xF0\x9F\x8E\xAE", "\xF0\x9F\x8E"};
  std::size_t checked = 0;
  for (const std::string_view sample : samples) {
    for (std::size_t length = 0; length <= 24; ++length) {
      for (std::size_t at = 0; at <= length; ++at) {
        std::string text(length, 'a');
        text.insert(at, sample);
        ASSERT_EQ(is_valid_utf8(text), reference::is_valid_utf8(text))
            << "sample of " << sample.size() << " bytes at " << at << " of " << length;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 3000u);
}

TEST(NetJsonDifferentialTest, SeededMutationsMatchTheReference) {
  constexpr std::size_t kMutants = 120'000;
  const std::vector<std::string> seeds = seed_lines();
  Rng rng(20261018);
  Comparison comparison;
  for (std::size_t i = 0; i < kMutants; ++i) {
    std::string line = seeds[rng.below(seeds.size())];
    for (std::size_t ops = 1 + rng.below(3); ops > 0; --ops) mutate_once(line, rng);
    comparison.add(line);
  }
  comparison.expect_no_mismatch();
  // The corpus reaches every outcome a request line can have.
  for (const WireError error : {WireError::kNone, WireError::kBadJson, WireError::kBadField,
                                WireError::kUnknownVerb, WireError::kNotUtf8}) {
    EXPECT_GE(comparison.by_error[error], 500u) << to_string(error);
  }
}

}  // namespace
}  // namespace dbp::net
