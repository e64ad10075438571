// Front-end routing: which shard owns a session's events.
//
// Every event carries a `route_key` (defaulting to the session id); a
// ShardRouter maps the key to a shard index. Routing must be *stable* — a
// session's start and end must carry the same key, so they land on the
// same shard in FIFO order — and *pure*: the mapping may depend only on
// (key, shard_count), never on submission order or mutable state, so the
// shard assignment is bit-identical across runs, producers, and worker
// budgets.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/splitmix64.hpp"

namespace dbp::engine {

class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  /// Shard index in [0, shard_count) for `route_key`. Pure.
  [[nodiscard]] virtual std::size_t shard_for(std::uint64_t route_key,
                                              std::size_t shard_count) const = 0;
};

/// Default router: the splitmix64 finalizer over the key plus the gamma,
/// reduced mod shard_count. Spreads dense session ids uniformly;
/// deterministic.
class HashShardRouter final : public ShardRouter {
 public:
  [[nodiscard]] std::size_t shard_for(std::uint64_t route_key,
                                      std::size_t shard_count) const override {
    return static_cast<std::size_t>(
        splitmix64_mix(route_key + kSplitMix64Gamma) % shard_count);
  }
};

/// Region-aware router: a shard is a fleet, and every session of a region
/// is pinned to that region's shard, so region isolation holds whenever
/// shard_count >= regions (Section 5's constrained-DBP hook,
/// docs/dispatch_engine.md, examples/constrained_regions). The region set
/// is fixed at construction; producers translate names to keys once via
/// route_key_for and stamp the key on every event of the session.
class RegionShardRouter final : public ShardRouter {
 public:
  explicit RegionShardRouter(std::vector<std::string> regions)
      : regions_(std::move(regions)) {
    DBP_REQUIRE(!regions_.empty(), "region router needs at least one region");
  }

  /// The route key of a region name (its index in the construction list).
  [[nodiscard]] std::uint64_t route_key_for(std::string_view region) const {
    for (std::size_t i = 0; i < regions_.size(); ++i) {
      if (regions_[i] == region) return i;
    }
    throw PreconditionError("unknown region for the region-aware router");
  }

  [[nodiscard]] std::size_t shard_for(std::uint64_t route_key,
                                      std::size_t shard_count) const override {
    DBP_REQUIRE(route_key < regions_.size(),
                "route key is not a region index from route_key_for");
    return static_cast<std::size_t>(route_key % shard_count);
  }

  [[nodiscard]] const std::vector<std::string>& regions() const noexcept {
    return regions_;
  }

 private:
  std::vector<std::string> regions_;
};

}  // namespace dbp::engine
