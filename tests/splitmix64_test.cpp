// The splitmix64 finalizer and generator (core/splitmix64.hpp) against
// reference values computed independently, so a change to the one mixer
// the shard router, the session table, the fault simulator and Rng::fork
// share cannot pass unnoticed.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/splitmix64.hpp"

namespace dbp {
namespace {

static_assert(splitmix64_mix(0) == 0);
static_assert(splitmix64_mix(1) == 0x5692161d100b05e5ULL);

TEST(SplitMix64Test, FinalizerMatchesReferenceValues) {
  EXPECT_EQ(splitmix64_mix(0), 0u);
  EXPECT_EQ(splitmix64_mix(1), 0x5692161d100b05e5ULL);
}

TEST(SplitMix64Test, SequenceFromStateZeroMatchesReferenceValues) {
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(state, kSplitMix64Gamma);
  EXPECT_EQ(splitmix64_next(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(state, 2 * kSplitMix64Gamma);
}

}  // namespace
}  // namespace dbp
