// Workload definitions and the pre-encoded request plan one pass sends.
//
// A pass is one fresh dbp_serve fed one generated session stream. Every
// request of the pass is laid out as a Step and pre-encoded, per
// connection, into one contiguous byte buffer before any timing starts, so
// the load loop only ever hands byte ranges to send().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "engine/engine.hpp"

namespace servebench {

enum class Framing { kBinary, kJson };

struct WorkloadSpec {
  std::string name;
  Framing framing = Framing::kBinary;
  /// dbp_serve --shards; also the number of client connections, each one
  /// carrying exactly the sessions HashShardRouter sends to its shard.
  std::size_t shards = 1;
  bool dyadic_sizes = false;  ///< 2^-e GPU tiers, else uniform [0.05, 0.5]
  /// Open loop: events are due on a fixed schedule at `rate_events_per_s`
  /// and latency is taken from the due time. Closed loop: the next round is
  /// sent only after the previous round's query is answered.
  bool open_loop = false;
  double rate_events_per_s = 0.0;
  std::size_t pass_events = 0;  ///< session events per pass
  /// Per-connection events between ack queries (0: ack only at epochs).
  std::size_t ack_every = 0;
  /// Global events between epochs; each epoch is followed by a query.
  std::size_t epoch_every = 0;
  /// Leading events of each pass excluded from timing (not from checking).
  std::size_t warmup_events = 0;
  /// Each pass draws its own stream (pass_seed) instead of repeating the
  /// run's first one: where per-stream cost varies, a run then averages
  /// over several streams.
  bool stream_per_pass = false;
};

/// The workload named `name`; throws std::invalid_argument when unknown.
[[nodiscard]] const WorkloadSpec& find_workload(std::string_view name);

/// Deliberate faults for the failure-accounting self-test.
enum class Inject {
  kNone,
  kMalformed,  ///< one recoverable malformed request mid-pass
  kDrop,       ///< one session start never sent (its end then is unknown)
  kPerturb,    ///< the final served bill is nudged by one ulp before checking
};

struct Step {
  enum class Kind : std::uint8_t { kSubmit, kEpoch, kQuery, kMalformed };
  Kind kind = Kind::kSubmit;
  std::uint32_t conn = 0;
  /// Before sending, every query already sent must have been answered.
  bool barrier = false;
  /// Session events (in stream order) sent at or before this step; the
  /// open-loop due time of the step is (released_events - 1) / rate.
  std::size_t released_events = 0;
  double time = 0.0;  ///< kEpoch: epoch time; kQuery: bill horizon
  std::size_t event = 0;  ///< kSubmit: index into Plan::events
  std::size_t bytes_end = 0;  ///< end offset of the step in wire[conn]
};

struct Plan {
  WorkloadSpec spec;
  dbp::Instance instance;
  std::vector<dbp::engine::SessionEvent> events;  ///< stream order
  std::vector<Step> steps;                        ///< global send order
  std::vector<std::vector<std::uint8_t>> wire;    ///< per connection
  std::size_t warmup_steps = 0;  ///< first timed step
  std::size_t timed_events = 0;  ///< events sent from warmup_steps on
  std::size_t queries = 0;
  std::size_t epochs = 0;
  double final_horizon = 0.0;  ///< bill horizon of the final query
};

/// Seed of pass `pass`'s stream in a run seeded `seed` (pass 0: `seed`).
[[nodiscard]] std::uint64_t pass_seed(std::uint64_t seed, int pass);

/// Generates the pass stream from `seed` and lays out its requests. Same
/// (spec, seed, inject) => byte-identical plan.
[[nodiscard]] Plan build_plan(const WorkloadSpec& spec, std::uint64_t seed,
                              Inject inject);

/// Encodes one request in the given framing (binary frame or JSON line
/// with its newline).
[[nodiscard]] std::vector<std::uint8_t> encode(const Plan& plan,
                                               const Step& step,
                                               Framing framing);

}  // namespace servebench
