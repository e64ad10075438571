// Seeded random number generation for reproducible workloads.
#pragma once

#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "core/splitmix64.hpp"

namespace dbp {

/// A seeded mt19937_64 with the sampling helpers the generators need.
/// Every generator takes an explicit seed; identical seeds give identical
/// instances on every platform (we only use distributions with portable
/// algorithms or accept the libstdc++ implementation as the reference).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  [[nodiscard]] double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  [[nodiscard]] double lognormal(double log_mean, double log_sigma) {
    return std::lognormal_distribution<double>(log_mean, log_sigma)(engine_);
  }

  /// Pareto with scale x_m and shape alpha (heavy-tailed durations).
  [[nodiscard]] double pareto(double x_m, double alpha) {
    const double u = uniform(0.0, 1.0);
    return x_m / std::pow(1.0 - u, 1.0 / alpha);
  }

  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exact engine state as text (the standard guarantees operator<</operator>>
  /// round-trip mt19937_64 bit-exactly). Used by checkpoints: restoring the
  /// *position* of the stream — not merely the seed — is what keeps a
  /// recovered run on the same random trajectory as an uninterrupted one.
  [[nodiscard]] std::string save_state() const {
    std::ostringstream out;
    out << engine_;
    return out.str();
  }

  void load_state(const std::string& text) {
    std::istringstream in(text);
    in >> engine_;
    if (in.fail()) throw CorruptionError("malformed RNG engine state");
  }

  /// Derives an independent child stream (e.g. one per sweep cell) without
  /// correlations between siblings.
  [[nodiscard]] Rng fork(std::uint64_t stream) {
    // SplitMix64 over (state, stream) — standard seed derivation.
    return Rng(splitmix64_mix(engine_() + kSplitMix64Gamma * (stream + 1)));
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dbp
