// dbp_bench_report — machine-readable performance trajectory report.
//
// Times the OPT_total fast path (RLE snapshots + dedup + parallel segment
// evaluation) against the retained reference estimator, plus packer event
// throughput and the bin-count oracle, and writes the numbers as JSON so CI
// can archive one BENCH_perf.json per commit and plot the trajectory.
//
// Usage:
//   dbp_bench_report [--out=BENCH_perf.json] [--items=5000] [--repeats=3]
//                    [--threads=N]
//
// Wall-clock numbers are best-of-`repeats` (the minimum is the least noisy
// location statistic for a loaded machine). Estimator bounds are asserted
// bit-identical between the reference and fast paths before any timing is
// reported — a report from a wrong estimator would be worse than no report.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "exec/parallel_map.hpp"
#include "cli.hpp"
#include "core/checked_output.hpp"
#include "core/error.hpp"
#include "engine/engine.hpp"
#include "exec/execution_policy.hpp"
#include "exec/worker_budget.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "obs_cli.hpp"
#include "opt/bin_count.hpp"
#include "opt/opt_total.hpp"
#include "opt/opt_total_reference.hpp"
#include "opt/rle.hpp"
#include "sim/simulator.hpp"
#include "workload/random_instance.hpp"

namespace {

using namespace dbp;

constexpr const char* kUsage =
    "usage: dbp_bench_report [--out=BENCH_perf.json] [--items=5000]\n"
    "                        [--repeats=3] [--threads=N] [--trace-out=FILE]\n"
    "                        [--metrics]\n";

// DBP_LINT_ALLOW(wall-clock): this is the benchmark harness — measuring
// wall time is its entire job; timings go to the perf report only.
using Clock = std::chrono::steady_clock;

/// One timed invocation of `fn`, in milliseconds.
template <typename Fn>
double time_once_ms(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  const std::chrono::duration<double, std::milli> elapsed = Clock::now() - start;
  return elapsed.count();
}

/// Runs `fn` `repeats` times and returns the best wall-clock milliseconds.
template <typename Fn>
double best_of_ms(std::size_t repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < repeats; ++r) {
    best = std::min(best, time_once_ms(fn));
  }
  return best;
}

/// One reported measurement. `extras` are preformatted `"key": value` JSON
/// fragments appended to the case object.
struct BenchCase {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::vector<std::string> extras;
};

Instance make_uniform_instance(std::size_t items, std::uint64_t seed) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 20.0;
  config.duration.max_length = 8.0;
  config.size.min_fraction = 0.02;
  config.size.max_fraction = 0.5;
  return generate_random_instance(config, seed);
}

Instance make_dyadic_instance(std::size_t items, std::uint64_t seed) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 20.0;
  config.duration.max_length = 8.0;
  config.size.kind = SizeModel::Kind::kDyadic;
  config.size.min_exponent = 1;
  config.size.max_exponent = 6;
  return generate_random_instance(config, seed);
}

Instance make_churn_instance(std::size_t items, std::uint64_t seed) {
  // High-churn: large short-lived items, so bins hold only one or two items
  // and close almost immediately — arrivals and departures interleave
  // tightly and the packer index churns on every event instead of settling
  // into a read-mostly steady state.
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 100.0;
  config.duration.max_length = 2.0;
  config.size.min_fraction = 0.4;
  config.size.max_fraction = 0.7;
  return generate_random_instance(config, seed);
}

std::string json_number(double value) {
  // Round-trippable, locale-independent formatting.
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(17);
  out << value;
  return out.str();
}

/// `"workers": N, "policy": "..."` fragments recording what phase 2
/// actually did — the report must never advertise a parallel path the case
/// did not take (the uniform-workload regression hid behind exactly that).
std::vector<std::string> execution_extras(const OptTotalResult& result,
                                          exec::ExecutionPolicy policy) {
  return {"\"workers\": " + std::to_string(result.evaluate_workers),
          "\"policy\": \"" + std::string(exec::to_string(policy)) + "\"",
          std::string("\"evaluate_parallel\": ") +
              (result.evaluate_parallel ? "true" : "false")};
}

void append_opt_total_cases(std::vector<BenchCase>& cases,
                            const std::string& workload,
                            const Instance& instance, const CostModel& model,
                            std::size_t repeats) {
  OptTotalOptions options;
  options.bin_count.exact.node_budget = 20'000;

  // The three estimators are timed interleaved (one round of each per
  // repeat, minimum over rounds) rather than back to back, so the pairs
  // the report gets ratioed on — fast vs reference, fast vs sequential
  // (tools/check_bench_guard.py) — sample the same background load. On a
  // shared machine, back-to-back minima can disagree by more than the
  // guard's tolerance even for identical code paths.
  OptTotalResult reference;
  OptTotalResult fast;
  OptTotalResult sequential;
  double ref_ms = std::numeric_limits<double>::infinity();
  double fast_ms = std::numeric_limits<double>::infinity();
  double seq_ms = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < repeats; ++r) {
    ref_ms = std::min(ref_ms, time_once_ms([&] {
      reference = estimate_opt_total_reference(instance, model, options);
    }));
    // The shipped default: the adaptive policy under the process worker
    // budget. With a 1-worker budget it falls back to the sequential path;
    // with more hardware it fans phase 2 out — either way `workers`
    // records what actually ran.
    options.policy = exec::ExecutionPolicy::kAdaptive;
    fast_ms = std::min(fast_ms, time_once_ms([&] {
      fast = estimate_opt_total(instance, model, options);
    }));
    options.policy = exec::ExecutionPolicy::kSequential;
    seq_ms = std::min(seq_ms, time_once_ms([&] {
      sequential = estimate_opt_total(instance, model, options);
    }));
  }

  // The report is only meaningful for an estimator that matches the
  // specification bit for bit.
  DBP_CHECK(fast.lower_cost == reference.lower_cost &&
                fast.upper_cost == reference.upper_cost &&
                sequential.lower_cost == reference.lower_cost &&
                sequential.upper_cost == reference.upper_cost,
            "fast OPT_total bounds diverged from the reference estimator");

  // One instrumented run outside the timed loops harvests per-phase wall
  // clock (sweep / evaluate / combine) for the report, so the timed numbers
  // above never pay for their own instrumentation.
  options.policy = exec::ExecutionPolicy::kAdaptive;
  obs::MetricsRegistry phase_registry;
  {
    const obs::ObsScope scope(nullptr, &phase_registry);
    (void)estimate_opt_total(instance, model, options);
  }
  std::vector<std::string> fast_extras = {
      "\"segments\": " + std::to_string(fast.segments),
      "\"distinct_snapshots\": " + std::to_string(fast.distinct_snapshots),
      "\"dedup_hits\": " + std::to_string(fast.dedup_hits),
      "\"speedup_vs_reference\": " + json_number(ref_ms / fast_ms)};
  for (std::string& extra : execution_extras(fast, exec::ExecutionPolicy::kAdaptive)) {
    fast_extras.push_back(std::move(extra));
  }
  for (const char* phase : {"sweep", "evaluate", "combine"}) {
    const auto stats =
        phase_registry.timer_stats(std::string("opt_total.") + phase);
    if (stats && stats->count > 0) {
      fast_extras.push_back("\"phase_" + std::string(phase) +
                            "_ms\": " + json_number(stats->total_ms));
    }
  }

  std::vector<std::string> seq_extras = {"\"speedup_vs_reference\": " +
                                         json_number(ref_ms / seq_ms)};
  for (std::string& extra :
       execution_extras(sequential, exec::ExecutionPolicy::kSequential)) {
    seq_extras.push_back(std::move(extra));
  }

  const std::string prefix = "opt_total_" + workload;
  cases.push_back({prefix + "_reference", ref_ms, "ms", {"\"workers\": 1"}});
  cases.push_back({prefix + "_fast", fast_ms, "ms", std::move(fast_extras)});
  cases.push_back(
      {prefix + "_fast_sequential", seq_ms, "ms", std::move(seq_extras)});
}

/// Packer cases (unchanged since schema dbp-bench-perf/3).
///
/// Optimized cases time the steady-state hot path the memory-architecture
/// work targets: events prebuilt, storage reserved, then `replay_events`
/// alone — the region that scales with the event count and that the
/// zero-allocation test pins. The `_reference` cases run the pre-arena
/// strategies under the seed's timed region (full `simulate` by name,
/// including event build and accounting) in the same process, so their
/// items_per_sec stays comparable with the historical BENCH_perf.json
/// trajectory; `speedup_vs_reference` on an optimized case is the ratio of
/// the two protocols, measured interleaved under the same background load.
/// Before any timing, optimized and reference packers are asserted to
/// produce identical results — cost, bin count, and per-item assignment.
void append_packer_cases(std::vector<BenchCase>& cases, const CostModel& model,
                         std::size_t repeats) {
  const std::size_t items = 20'000;

  struct Workload {
    std::string suffix;  // appended to the case name ("" = historical names)
    Instance instance;
    PackerOptions options;
    std::vector<std::string> algorithms;
  };
  PackerOptions uniform_options;
  uniform_options.known_mu = 8.0;
  PackerOptions churn_options;
  churn_options.known_mu = 2.0;
  const std::vector<Workload> workloads = {
      {"",
       make_uniform_instance(items, 17),
       uniform_options,
       {"first-fit", "best-fit", "adaptive-mff", "modified-first-fit",
        "harmonic-first-fit"}},
      {"_churn",
       make_churn_instance(items, 23),
       churn_options,
       {"first-fit", "best-fit", "adaptive-mff"}},
  };

  for (const Workload& workload : workloads) {
    const Instance& instance = workload.instance;
    const PackerOptions& options = workload.options;
    const std::vector<Event> events = build_event_sequence(instance);

    // Bit-identity gate: a throughput report for a packer that diverges
    // from its reference would be worse than no report.
    for (const char* alg : {"first-fit", "best-fit"}) {
      auto optimized = make_packer(alg, model, options);
      const SimulationResult opt_result = simulate(instance, events, *optimized);
      auto reference =
          make_packer(std::string(alg) + "-reference", model, options);
      const SimulationResult ref_result = simulate(instance, events, *reference);
      DBP_CHECK(opt_result.total_cost == ref_result.total_cost &&
                    opt_result.bins_opened == ref_result.bins_opened &&
                    opt_result.assignment == ref_result.assignment,
                "optimized packer diverged from its reference");
    }

    // Interleaved timing: one round of every case per repeat, minimum over
    // rounds, so the ratios the guard checks sample the same background
    // load (same rationale as the OPT_total cases).
    std::vector<double> loop_ms(workload.algorithms.size(),
                                std::numeric_limits<double>::infinity());
    std::vector<std::string> reference_names = {"first-fit", "best-fit"};
    std::vector<double> ref_ms(reference_names.size(),
                               std::numeric_limits<double>::infinity());
    for (std::size_t r = 0; r < repeats; ++r) {
      for (std::size_t a = 0; a < workload.algorithms.size(); ++a) {
        auto packer = make_packer(workload.algorithms[a], model, options);
        packer->reserve_hint(instance.size());
        loop_ms[a] = std::min(loop_ms[a], time_once_ms([&] {
          replay_events(instance, events, *packer);
        }));
        DBP_CHECK(packer->bins().total_bins_opened() > 0, "degenerate packing");
      }
      for (std::size_t a = 0; a < reference_names.size(); ++a) {
        ref_ms[a] = std::min(ref_ms[a], time_once_ms([&] {
          const SimulationResult result = simulate(
              instance, reference_names[a] + "-reference", model, options);
          DBP_CHECK(result.total_cost > 0.0, "degenerate packing cost");
        }));
      }
    }

    const auto throughput = [items](double ms) {
      return "\"items_per_sec\": " +
             json_number(1000.0 * static_cast<double>(items) / ms);
    };
    for (std::size_t a = 0; a < workload.algorithms.size(); ++a) {
      std::vector<std::string> extras = {
          "\"items\": " + std::to_string(items), throughput(loop_ms[a]),
          "\"timed\": \"replay_events\""};
      for (std::size_t ref = 0; ref < reference_names.size(); ++ref) {
        if (reference_names[ref] == workload.algorithms[a]) {
          extras.push_back("\"speedup_vs_reference\": " +
                           json_number(ref_ms[ref] / loop_ms[a]));
        }
      }
      cases.push_back({"packer_" + workload.algorithms[a] + workload.suffix,
                       loop_ms[a], "ms", std::move(extras)});
    }
    for (std::size_t a = 0; a < reference_names.size(); ++a) {
      cases.push_back({"packer_" + reference_names[a] + "_reference" +
                           workload.suffix,
                       ref_ms[a], "ms",
                       {"\"items\": " + std::to_string(items),
                        throughput(ref_ms[a]), "\"timed\": \"simulate\""}});
    }
  }
}

void append_oracle_cases(std::vector<BenchCase>& cases, const CostModel& model,
                         std::size_t repeats) {
  // 2048 items, 6 distinct sizes: the multiplicity-compression showcase.
  std::vector<double> sizes;
  Rng rng(5);
  for (std::size_t i = 0; i < 2048; ++i) {
    sizes.push_back(std::ldexp(1.0, -static_cast<int>(rng.uniform_int(1, 6))));
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  const std::vector<SizeRun> runs = rle_from_sorted(sizes);

  BinCountOptions options;
  options.exact.node_budget = 20'000;
  constexpr int kCalls = 50;
  const double flat_ms = best_of_ms(repeats, [&] {
    for (int c = 0; c < kCalls; ++c) {
      const BinCountBounds bounds = optimal_bin_count(sizes, model, options);
      DBP_CHECK(bounds.lower >= 1, "degenerate bin count");
    }
  });
  BinCountScratch scratch;
  const double rle_ms = best_of_ms(repeats, [&] {
    for (int c = 0; c < kCalls; ++c) {
      const BinCountBounds bounds = optimal_bin_count_rle(runs, model, options, scratch);
      DBP_CHECK(bounds.lower >= 1, "degenerate bin count");
    }
  });
  cases.push_back({"bin_count_flat_2048x6", flat_ms / kCalls, "ms", {}});
  cases.push_back({"bin_count_rle_2048x6", rle_ms / kCalls, "ms",
                   {"\"speedup_vs_flat\": " + json_number(flat_ms / rle_ms),
                    "\"distinct_sizes\": " + std::to_string(runs.size())}});
}

/// Sharded dispatch engine cases (schema dbp-bench-perf/4).
///
/// Timed region: submit() of every event through the MPSC rings plus the
/// final epoch drain — the sustained streaming path tools/dbp_dispatch_bench
/// exposes standalone. The 1-shard engine is asserted bit-identical to a
/// plain GameServerDispatcher on the same stream before any timing, and
/// the guard (tools/check_bench_guard.py) checks the headline case's
/// events_per_sec against the baseline, machine-normalized.
void append_dispatch_cases(std::vector<BenchCase>& cases, std::size_t repeats) {
  const std::size_t kEvents = 100'000;

  // The stream: a gaming-like random instance expanded to sorted events.
  RandomInstanceConfig config;
  config.item_count = kEvents / 2;
  config.arrival.rate = 50.0;
  config.duration.max_length = 6.0;
  config.size.min_fraction = 0.05;
  config.size.max_fraction = 0.5;
  const Instance instance = generate_random_instance(config, 17);
  std::vector<engine::SessionEvent> stream;
  stream.reserve(2 * instance.size());
  for (const Event& event : build_event_sequence(instance)) {
    if (event.kind == EventKind::kArrival) {
      stream.push_back(engine::start_event(
          event.item, instance.item(event.item).size, event.time));
    } else {
      stream.push_back(engine::end_event(event.item, event.time));
    }
  }

  const auto engine_config = [](std::size_t shards) {
    engine::EngineConfig cfg;
    cfg.shard_count = shards;
    cfg.spec = ServerSpec{1.0, 6.0};
    return cfg;
  };

  // Bit-identity gate: a throughput number for a diverging engine would be
  // worse than no number.
  {
    engine::ShardedDispatchEngine eng(engine_config(1));
    FaultPolicy drop;
    drop.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
    GameServerDispatcher plain(ServerSpec{1.0, 6.0}, "first-fit", {}, drop);
    for (const engine::SessionEvent& event : stream) {
      eng.submit(event);
      if (event.kind == engine::SessionEvent::Kind::kStart) {
        (void)plain.start_session(event.session_id, event.gpu_fraction,
                                  event.time_minutes);
      } else {
        plain.end_session(event.session_id, event.time_minutes);
      }
    }
    eng.drain();
    const Time horizon = stream.back().time_minutes;
    DBP_CHECK(eng.rental_cost_dollars(horizon) ==
                      plain.rental_cost_dollars(horizon) &&
                  eng.active_sessions() == plain.active_sessions(),
              "1-shard engine diverged from the plain dispatcher");
  }

  // Interleaved best-of timing over the shard counts, same rationale as
  // the packer cases.
  const std::vector<std::size_t> shard_counts = {4, 1};
  std::vector<double> best_ms(shard_counts.size(),
                              std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t s = 0; s < shard_counts.size(); ++s) {
      best_ms[s] = std::min(best_ms[s], time_once_ms([&] {
        engine::ShardedDispatchEngine eng(engine_config(shard_counts[s]));
        for (const engine::SessionEvent& event : stream) eng.submit(event);
        eng.advance_epoch(stream.back().time_minutes);
        DBP_CHECK(eng.events_applied() == stream.size(),
                  "engine lost events during the benchmark");
      }));
    }
  }

  for (std::size_t s = 0; s < shard_counts.size(); ++s) {
    const std::string name =
        shard_counts[s] == 4 ? "bench_dispatch_throughput"
                             : "bench_dispatch_throughput_1shard";
    cases.push_back(
        {name, best_ms[s], "ms",
         {"\"events\": " + std::to_string(stream.size()),
          "\"events_per_sec\": " +
              json_number(1000.0 * static_cast<double>(stream.size()) /
                          best_ms[s]),
          "\"shards\": " + std::to_string(shard_counts[s]),
          "\"workers\": " + std::to_string(exec::WorkerBudget::effective())}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbp;
  try {
    const cli::Args args(
        argc, argv,
        {"out", "items", "repeats", "threads", "trace-out", "metrics"}, kUsage);
    // No --threads means budget 0: WorkerBudget keeps the runtime default,
    // so the parallel cases genuinely fan out when the hardware has cores.
    exec::WorkerBudget::set(args.get_thread_count());
    cli::ObsSession obs_session(args);
    const std::size_t items = args.get_u64("items", 5'000);
    const std::size_t repeats = std::max<std::size_t>(1, args.get_u64("repeats", 3));
    const std::string out_path = args.get("out", "BENCH_perf.json");
    const CostModel model{1.0, 1.0, 1e-9};

    std::vector<BenchCase> cases;
    append_opt_total_cases(cases, "uniform_" + std::to_string(items),
                           make_uniform_instance(items, 99), model, repeats);
    append_opt_total_cases(cases, "dyadic_" + std::to_string(items),
                           make_dyadic_instance(items, 99), model, repeats);
    append_packer_cases(cases, model, repeats);
    append_oracle_cases(cases, model, repeats);
    append_dispatch_cases(cases, repeats);

    std::ostringstream json;
    json << "{\n";
    json << "  \"schema\": \"dbp-bench-perf/4\",\n";
    json << "  \"workers\": " << exec::WorkerBudget::effective() << ",\n";
    json << "  \"available_workers\": " << exec::WorkerBudget::available()
         << ",\n";
    json << "  \"repeats\": " << repeats << ",\n";
    json << "  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const BenchCase& c = cases[i];
      json << "    {\"name\": \"" << c.name << "\", \"value\": "
           << json_number(c.value) << ", \"unit\": \"" << c.unit << "\"";
      for (const std::string& extra : c.extras) json << ", " << extra;
      json << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    std::ofstream out = open_output_file(out_path);
    out << json.str();
    close_output_file(out, out_path);
    std::cout << json.str();
    std::cerr << "report written to " << out_path << "\n";
    obs_session.finish();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "dbp_bench_report: " << error.what() << "\n";
    return 1;
  }
}
