// SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014): the one 64-bit mixer of the library. The
// engine's shard router, the dispatcher's session table, the fault
// simulator's generator and Rng::fork all call it.
#pragma once

#include <cstdint>

namespace dbp {

/// The generator's increment, 2^64 / golden ratio rounded to odd.
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ULL;

/// The splitmix64 finalizer: a fixed bijection of the 64-bit integers
/// that spreads nearby inputs across all bits.
[[nodiscard]] constexpr std::uint64_t splitmix64_mix(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One step of the generator: advances `state` by the gamma and returns
/// the mix of the new state.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(
    std::uint64_t& state) noexcept {
  state += kSplitMix64Gamma;
  return splitmix64_mix(state);
}

}  // namespace dbp
