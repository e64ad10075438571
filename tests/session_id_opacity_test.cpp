// Session ids are opaque: the dispatcher's session table hands the packer
// dense slots, so which 64-bit values clients pick cannot change a result.
// One seeded stream, with anomalies, is replayed through the sharded engine
// twice: once with dense ids, once with every id mapped through a seeded
// 64-bit bijection that sends ids to 2^40 and 2^64 - 2 among others. Route
// keys stay the dense ids, so each shard sees the same events. Bills, usage
// records, fault statistics and OPT bounds must match bit for bit, for
// every algorithm a dispatcher runs, at 1 and 4 shards.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "engine/engine.hpp"
#include "sim/event.hpp"
#include "workload/cloud_gaming.hpp"

namespace dbp::engine {
namespace {

constexpr std::uint64_t kSeed = 0x5EEDF00DULL;

/// A seeded bijection of the 64-bit values: xor, odd multiplies and
/// xor-shifts are each invertible.
std::uint64_t scramble(std::uint64_t x) {
  x ^= kSeed;
  x *= 0xD6E8FEB86659FD93ULL;
  x ^= x >> 32;
  x *= 0xA0761D6478BD642FULL;
  x ^= x >> 29;
  return x;
}

/// scramble() followed by two transpositions, so dense ids 0 and 1 become
/// 2^64 - 2 and 2^40: still a bijection.
std::uint64_t hostile_id(std::uint64_t dense) {
  constexpr std::uint64_t kLargest = kNoItem - 1;
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  const std::uint64_t x = scramble(dense);
  if (x == scramble(0)) return kLargest;
  if (x == kLargest) return scramble(0);
  if (x == scramble(1)) return kHuge;
  if (x == kHuge) return scramble(1);
  return x;
}

/// The stream: a three-hour cloud-gaming trace as start/end events, with an
/// anomaly of each kind every few dozen events — a duplicate start, an end
/// of a session never started, an invalid size and a late event.
std::vector<SessionEvent> stream() {
  CloudGamingConfig config;
  config.horizon_hours = 3.0;
  config.peak_hour = 1.5;
  config.peak_arrivals_per_minute = 4.0;
  const Instance instance = generate_cloud_gaming_trace(config, 42).instance;
  std::vector<SessionEvent> events;
  std::uint64_t never_started = instance.size();
  std::size_t n = 0;
  for (const Event& event : build_event_sequence(instance)) {
    const Item& item = instance.item(event.item);
    if (event.kind == EventKind::kArrival) {
      events.push_back(start_event(item.id, item.size, event.time));
    } else {
      events.push_back(end_event(item.id, event.time));
    }
    switch (++n % 40) {
      case 7:
        if (event.kind == EventKind::kArrival) {
          events.push_back(start_event(item.id, 0.25, event.time));
        }
        break;
      case 17:
        events.push_back(end_event(never_started++, event.time));
        break;
      case 27:
        events.push_back(start_event(never_started++, 1.5, event.time));
        break;
      case 37:
        events.push_back(start_event(never_started++, 0.25, event.time - 1.0));
        break;
      default:
        break;
    }
  }
  return events;
}

struct Outcome {
  double bill = 0.0;
  std::vector<std::vector<BinUsageRecord>> usage;  ///< per shard
  DispatcherFaultStats stats{};
  StreamingOptBounds opt{};
  std::size_t active = 0;
};

Outcome replay(const std::vector<SessionEvent>& events,
               const std::string& algorithm, std::size_t shards, bool hostile) {
  EngineConfig config;
  config.shard_count = shards;
  config.algorithm = algorithm;
  config.spec = ServerSpec{1.0, 6.0};
  config.packer_options.known_mu = 48.0;
  config.fault_policy.rental_failure_rate = 0.25;
  config.fault_policy.max_rental_retries = 1;
  ShardedDispatchEngine eng(config);
  std::size_t since_epoch = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SessionEvent event = events[i];
    if (hostile) event.session_id = hostile_id(event.session_id);
    eng.submit(event);
    if (++since_epoch >= 16 && i + 1 < events.size() &&
        events[i + 1].time_minutes > event.time_minutes) {
      eng.advance_epoch(event.time_minutes);
      since_epoch = 0;
    }
  }
  const Time horizon = events.back().time_minutes + 1.0;
  eng.advance_epoch(horizon);
  Outcome outcome;
  outcome.bill = eng.rental_cost_dollars(horizon);
  for (std::size_t s = 0; s < shards; ++s) {
    const auto records = eng.shard_dispatcher(s).bins().usage_records();
    outcome.usage.emplace_back(records.begin(), records.end());
  }
  outcome.stats = eng.merged_fault_stats();
  outcome.opt = eng.opt_bounds();
  outcome.active = eng.active_sessions();
  return outcome;
}

TEST(SessionIdOpacityTest, MappedIdsGiveBitIdenticalResults) {
  const std::vector<SessionEvent> events = stream();
  std::set<std::uint64_t> mapped;
  std::set<std::uint64_t> dense;
  for (const SessionEvent& event : events) {
    dense.insert(event.session_id);
    mapped.insert(hostile_id(event.session_id));
  }
  ASSERT_EQ(mapped.size(), dense.size());  // the mapping is injective here
  ASSERT_EQ(mapped.count(kNoItem), 0u);
  ASSERT_EQ(mapped.count(kNoItem - 1), 1u);
  ASSERT_EQ(mapped.count(std::uint64_t{1} << 40), 1u);

  std::uint64_t rentals_refused = 0;
  for (const std::string& algorithm : all_algorithm_names()) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(algorithm + " shards=" + std::to_string(shards));
      const Outcome plain = replay(events, algorithm, shards, false);
      const Outcome scrambled = replay(events, algorithm, shards, true);
      EXPECT_EQ(plain.bill, scrambled.bill);
      ASSERT_EQ(plain.usage.size(), scrambled.usage.size());
      for (std::size_t s = 0; s < plain.usage.size(); ++s) {
        ASSERT_EQ(plain.usage[s].size(), scrambled.usage[s].size());
        for (std::size_t b = 0; b < plain.usage[s].size(); ++b) {
          EXPECT_EQ(plain.usage[s][b].id, scrambled.usage[s][b].id);
          EXPECT_EQ(plain.usage[s][b].opened, scrambled.usage[s][b].opened);
          EXPECT_EQ(plain.usage[s][b].closed, scrambled.usage[s][b].closed);
        }
      }
      EXPECT_TRUE(plain.stats == scrambled.stats);
      EXPECT_EQ(plain.opt.lower_dollars, scrambled.opt.lower_dollars);
      EXPECT_EQ(plain.opt.upper_dollars, scrambled.opt.upper_dollars);
      EXPECT_EQ(plain.opt.segments, scrambled.opt.segments);
      EXPECT_EQ(plain.opt.exact_segments, scrambled.opt.exact_segments);
      EXPECT_EQ(plain.active, scrambled.active);
      // The stream really exercised the fault paths.
      EXPECT_GT(plain.stats.duplicate_starts, 0u);
      EXPECT_GT(plain.stats.unknown_ends, 0u);
      EXPECT_GT(plain.stats.invalid_sizes, 0u);
      EXPECT_GT(plain.stats.time_order_violations, 0u);
      rentals_refused += plain.stats.sessions_rejected_rental;
    }
  }
  EXPECT_GT(rentals_refused, 0u);
}

}  // namespace
}  // namespace dbp::engine
