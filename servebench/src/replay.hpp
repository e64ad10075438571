// The in-process side of the benchmark: replays a Plan's requests straight
// into the library, which gives both the answer dbp_serve must serve (the
// correctness gate) and, when traced, the time each serving layer's public
// entry points take on the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gaming/fault_policy.hpp"
#include "plan.hpp"

namespace servebench {

/// Benchmark-side spans: name, start, end and the span that caused it,
/// kept in memory and written out once at the end of the run.
class Spans {
 public:
  struct Span {
    std::uint32_t parent = 0;  ///< 0 = root-level
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t count = 0;  ///< calls/events the span covers
  };

  /// Opens a span; returns its id (1-based).
  std::uint32_t begin(std::string name, std::uint32_t parent = 0);
  /// Closes span `id`, covering `count` calls or events.
  void end(std::uint32_t id, std::uint64_t count = 1);

  /// Sum of durations (ns) and counts of the spans named `name`.
  [[nodiscard]] double total_ns(const std::string& name) const;
  [[nodiscard]] std::uint64_t total_count(const std::string& name) const;
  /// Durations (ns) of the spans named `name`, in order.
  [[nodiscard]] std::vector<double> durations_ns(const std::string& name) const;

  /// Writes {"spans":[{"id","parent","name","start_ns","end_ns","count"}]}.
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// What the final query of a pass must report, bit for bit.
struct Expected {
  double bill_dollars = 0.0;
  double lower_dollars = 0.0;
  double upper_dollars = 0.0;
  std::uint64_t segments = 0;
  std::uint64_t exact_segments = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t epochs = 0;
  dbp::DispatcherFaultStats faults{};
  /// Engine oracle traffic and producer backoffs of the replay.
  std::uint64_t oracle_hits = 0;
  std::uint64_t oracle_misses = 0;
  std::uint64_t submit_backoffs = 0;
};

/// Feeds the plan's submits and epochs into an in-process
/// ShardedDispatchEngine configured like a default dbp_serve. With `spans`
/// the engine calls are timed, and each epoch's merged snapshot is counted
/// once more through a separate BinCountOracle to time opt alone.
[[nodiscard]] Expected replay_engine(const Plan& plan, Spans* spans);

/// The separately replayed layers: wire decoding, the dispatcher, the
/// packer loop and the batch OPT_total estimate, each timed into `spans`.
void replay_layers(const Plan& plan, Spans& spans);

/// Batch OPT_total bounds of the first `items` items of the plan's instance
/// (the whole instance when it is smaller), same bin-count options as the
/// engine.
struct BatchBounds {
  double lower = 0.0;
  double upper = 0.0;
};
[[nodiscard]] BatchBounds batch_opt_total(const Plan& plan, std::size_t items,
                                          Spans* spans);

/// Items the batch estimate covers on every workload: the whole
/// opt_dense_epochs pass, and a prefix of the same size elsewhere.
inline constexpr std::size_t kEstimateItems = 1000;

}  // namespace servebench
