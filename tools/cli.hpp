// Minimal --key=value argument parsing shared by the CLI tools.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/parse.hpp"
#include "exec/worker_budget.hpp"

namespace dbp::cli {

/// Parses `--key=value`, `--key value` and `--flag` arguments; positional
/// arguments and unknown keys raise PreconditionError with a usage hint.
class Args {
 public:
  Args(int argc, char** argv, std::vector<std::string> allowed_keys,
       std::string usage)
      : usage_(std::move(usage)) {
    for (const std::string& key : allowed_keys) allowed_.insert(key);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      DBP_REQUIRE(arg.rfind("--", 0) == 0,
                  "expected --key=value argument, got '" + arg + "'\n" + usage_);
      const std::size_t eq = arg.find('=');
      const std::string key = arg.substr(2, eq == std::string::npos
                                                ? std::string::npos
                                                : eq - 2);
      DBP_REQUIRE(allowed_.contains(key),
                  "unknown option --" + key + "\n" + usage_);
      if (eq != std::string::npos) {
        values_[key] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];  // space-separated form: --key value
      } else {
        values_[key] = "";  // bare flag
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::string require(const std::string& key) const {
    auto it = values_.find(key);
    DBP_REQUIRE(it != values_.end() && !it->second.empty(),
                "missing required option --" + key + "\n" + usage_);
    return it->second;
  }

  /// Strict parse (core/parse.hpp): the whole value must be a finite number
  /// — "1.5x", "nan" and "abc" are CLI errors with the usage hint, never a
  /// silently truncated or non-finite value.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      return parse_double_strict(it->second, "--" + key + " value");
    } catch (const PreconditionError& error) {
      throw PreconditionError(std::string(error.what()) + "\n" + usage_);
    }
  }

  /// Strict parse (core/parse.hpp): digits only, no sign/whitespace/suffix,
  /// in uint64 range. std::stoull would silently accept "8abc" as 8 and
  /// wrap "-1" into a huge count; here both are CLI errors with the usage
  /// hint.
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      return parse_u64_strict(it->second, "--" + key + " value");
    } catch (const PreconditionError& error) {
      throw PreconditionError(std::string(error.what()) + "\n" + usage_);
    }
  }

  /// get_u64 additionally capped at exec::WorkerBudget::kMaxWorkers for
  /// --threads. Returns 0 (the default budget) when the option is absent or
  /// empty.
  [[nodiscard]] int get_thread_count(const std::string& key = "threads") const {
    // Named for the refusal's text: DBP_REQUIRE prints its condition.
    constexpr std::uint64_t kMaxThreads = exec::WorkerBudget::kMaxWorkers;
    auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) return 0;
    const std::uint64_t parsed = get_u64(key, 0);
    DBP_REQUIRE(parsed <= kMaxThreads,
                "--" + key + " value '" + it->second + "' is out of range (max " +
                    std::to_string(kMaxThreads) + ")\n" + usage_);
    return static_cast<int>(parsed);
  }

  /// Splits a comma-separated value ("a,b,c").
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& key, const std::vector<std::string>& fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::vector<std::string> result;
    std::stringstream stream(it->second);
    std::string part;
    while (std::getline(stream, part, ',')) {
      if (!part.empty()) result.push_back(part);
    }
    return result;
  }

  [[nodiscard]] const std::string& usage() const noexcept { return usage_; }

 private:
  std::string usage_;
  std::set<std::string> allowed_;
  std::map<std::string, std::string> values_;
};

}  // namespace dbp::cli
