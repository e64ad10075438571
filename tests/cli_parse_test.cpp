// Strict CLI parsing regressions (tools/cli.hpp + core/parse.hpp).
//
// The historical failure mode: cli::Args::get_u64/get_double called raw
// std::stoull/std::stod, so "8abc" parsed as 8, "-1" wrapped to a huge
// uint64, and "abc" escaped as an uncaught std::invalid_argument instead
// of a PreconditionError carrying the usage hint. These tests pin the
// strict behavior for both helpers and for the shared core parsers the
// wire protocol reuses.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli.hpp"
#include "core/error.hpp"
#include "core/parse.hpp"
#include "exec/worker_budget.hpp"

namespace dbp {
namespace {

constexpr const char* kUsage = "usage: test_tool [--value=N]\n";

/// Builds an Args over `--key=value` style arguments.
cli::Args make_args(std::vector<std::string> argv_strings) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;  // keep c_str()s alive per call
  storage = std::move(argv_strings);
  storage.insert(storage.begin(), "test_tool");
  argv.reserve(storage.size());
  for (std::string& arg : storage) argv.push_back(arg.data());
  return cli::Args(static_cast<int>(argv.size()), argv.data(),
                   {"value", "threads"}, kUsage);
}

TEST(CliParseTest, U64AcceptsPlainDigits) {
  EXPECT_EQ(make_args({"--value=8"}).get_u64("value", 0), 8u);
  EXPECT_EQ(make_args({"--value=0"}).get_u64("value", 7), 0u);
  EXPECT_EQ(make_args({}).get_u64("value", 42), 42u);  // absent -> fallback
  EXPECT_EQ(make_args({"--value=18446744073709551615"}).get_u64("value", 0),
            UINT64_MAX);
}

TEST(CliParseTest, U64RejectsTrailingGarbage) {
  // The exact regression: "8abc" must not parse as 8.
  EXPECT_THROW((void)make_args({"--value=8abc"}).get_u64("value", 0),
               PreconditionError);
}

TEST(CliParseTest, U64RejectsNegative) {
  // The exact regression: "-1" must not wrap to 18446744073709551615.
  EXPECT_THROW((void)make_args({"--value=-1"}).get_u64("value", 0),
               PreconditionError);
}

TEST(CliParseTest, U64RejectsNonNumeric) {
  // The exact regression: "abc" must be a PreconditionError, not an
  // uncaught std::invalid_argument terminate.
  EXPECT_THROW((void)make_args({"--value=abc"}).get_u64("value", 0),
               PreconditionError);
}

TEST(CliParseTest, U64RejectsOverflowSignsAndPrefixes) {
  for (const char* bad : {"18446744073709551616",  // UINT64_MAX + 1
                          "99999999999999999999999", "+1", "0x10", "1e3",
                          " 8", "8 ", ""}) {
    EXPECT_THROW(
        (void)make_args({std::string("--value=") + bad}).get_u64("value", 0),
        PreconditionError)
        << "accepted '" << bad << "'";
  }
}

TEST(CliParseTest, U64ErrorCarriesUsageHint) {
  try {
    (void)make_args({"--value=8abc"}).get_u64("value", 0);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("8abc"), std::string::npos) << what;
    EXPECT_NE(what.find(kUsage), std::string::npos) << what;
  }
}

TEST(CliParseTest, DoubleAcceptsDecimalAndScientific) {
  EXPECT_DOUBLE_EQ(make_args({"--value=0.5"}).get_double("value", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(make_args({"--value=-2.25"}).get_double("value", 0.0), -2.25);
  EXPECT_DOUBLE_EQ(make_args({"--value=1e-3"}).get_double("value", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(make_args({}).get_double("value", 3.5), 3.5);
}

TEST(CliParseTest, DoubleRejectsGarbageAndNonFinite) {
  for (const char* bad : {"abc", "1.5x", "8abc", "", " 1.0", "1.0 ", "+1.5",
                          "nan", "inf", "-inf", "1e999"}) {
    EXPECT_THROW((void)make_args({std::string("--value=") + bad})
                     .get_double("value", 0.0),
                 PreconditionError)
        << "accepted '" << bad << "'";
  }
}

TEST(CliParseTest, DoubleErrorCarriesUsageHint) {
  try {
    (void)make_args({"--value=1.5x"}).get_double("value", 0.0);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("1.5x"), std::string::npos) << what;
    EXPECT_NE(what.find(kUsage), std::string::npos) << what;
  }
}

TEST(CliParseTest, ThreadCountKeepsCapAndStrictness) {
  EXPECT_EQ(make_args({"--threads=8"}).get_thread_count(), 8);
  EXPECT_EQ(make_args({}).get_thread_count(), 0);
  EXPECT_EQ(make_args({"--threads"}).get_thread_count(), 0);  // bare flag
  EXPECT_THROW((void)make_args({"--threads=513"}).get_thread_count(),
               PreconditionError);
  EXPECT_THROW((void)make_args({"--threads=8abc"}).get_thread_count(),
               PreconditionError);
  EXPECT_THROW((void)make_args({"--threads=-1"}).get_thread_count(),
               PreconditionError);
  // The cap is the worker budget's own, and the refusal reads as it always
  // has.
  EXPECT_EQ(make_args({"--threads=512"}).get_thread_count(),
            exec::WorkerBudget::kMaxWorkers);
  try {
    (void)make_args({"--threads=513"}).get_thread_count();
    ADD_FAILURE() << "--threads=513 was accepted";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_EQ(message.substr(0, message.find('\n')),
              "precondition failed: parsed <= kMaxThreads: --threads value "
              "'513' is out of range (max 512)");
  }
}

// The shared core parsers, as the wire protocol uses them (no usage hint).
TEST(CliParseTest, CoreParsersMatchCliSemantics) {
  EXPECT_EQ(parse_u64_strict("12345", "field"), 12345u);
  EXPECT_DOUBLE_EQ(parse_double_strict("-0.125", "field"), -0.125);
  EXPECT_THROW((void)parse_u64_strict("8abc", "field"), PreconditionError);
  EXPECT_THROW((void)parse_u64_strict("-1", "field"), PreconditionError);
  EXPECT_THROW((void)parse_double_strict("abc", "field"), PreconditionError);
  EXPECT_THROW((void)parse_double_strict("nan", "field"), PreconditionError);
}

}  // namespace
}  // namespace dbp
