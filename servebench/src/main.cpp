// servebench — end-to-end benchmark of dbp_serve's socket path with a
// per-layer attribution from a traced in-process replay.
//
//   servebench --serve=PATH --run-dir=DIR --workload=NAME --seed=N
//              --seconds=S --trace=0|1 [--inject=malformed|drop|perturb]
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace=0, the per-layer metrics with --trace=1. Exits 1
// when the served answer is wrong, 2 on usage errors, 3 when the run is
// invalid because the generator, not the server, was the bottleneck.
// servebench/README.md documents every metric and workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "plan.hpp"
#include "replay.hpp"
#include "serve.hpp"

namespace servebench {
namespace {

struct Options {
  std::string serve_binary;
  std::string run_dir;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Inject inject = Inject::kNone;
};

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + arg + "'");
    }
    values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  const auto require = [&](const std::string& key) {
    const auto it = values.find(key);
    if (it == values.end() || it->second.empty()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  };
  Options options;
  options.serve_binary = require("serve");
  options.run_dir = require("run-dir");
  options.workload = require("workload");
  options.seed = std::stoull(require("seed"));
  options.seconds = std::stod(require("seconds"));
  options.trace = require("trace") == "1";
  const std::string inject = values.count("inject") ? values["inject"] : "none";
  if (inject == "malformed") {
    options.inject = Inject::kMalformed;
  } else if (inject == "drop") {
    options.inject = Inject::kDrop;
  } else if (inject == "perturb") {
    options.inject = Inject::kPerturb;
  } else if (inject != "none") {
    throw std::invalid_argument("unknown --inject '" + inject + "'");
  }
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// The value after `"key":` in a query body (its keys are unique).
const char* body_value(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error("query body lacks '" + key + "'");
  }
  return body.c_str() + at + needle.size();
}

/// Correctness gate: every checked field of the served final answer must
/// equal the in-process replay bit for bit. Returns the mismatches.
std::vector<std::string> gate(const std::string& body, const Expected& want,
                              bool perturb) {
  std::vector<std::string> bad;
  if (body.empty()) return {"no final answer"};
  const auto same_double = [&](const char* key, double expected) {
    double served = std::strtod(body_value(body, key), nullptr);
    if (perturb && std::strcmp(key, "bill_dollars") == 0) {
      served = std::nextafter(served, INFINITY);
    }
    if (std::memcmp(&served, &expected, sizeof served) != 0) {
      char line[160];
      std::snprintf(line, sizeof line, "%s: served %.17g, expected %.17g", key,
                    served, expected);
      bad.emplace_back(line);
    }
  };
  const auto same_count = [&](const char* key, std::uint64_t expected) {
    const std::uint64_t served = std::strtoull(body_value(body, key), nullptr, 10);
    if (served != expected) {
      bad.push_back(std::string(key) + ": served " + std::to_string(served) +
                    ", expected " + std::to_string(expected));
    }
  };
  same_double("bill_dollars", want.bill_dollars);
  same_double("lower_dollars", want.lower_dollars);
  same_double("upper_dollars", want.upper_dollars);
  same_count("segments", want.segments);
  same_count("exact_segments", want.exact_segments);
  same_count("events_applied", want.events_applied);
  same_count("epochs_advanced", want.epochs);
  const dbp::DispatcherFaultStats& f = want.faults;
  same_count("duplicate_starts", f.duplicate_starts);
  same_count("unknown_ends", f.unknown_ends);
  same_count("unknown_servers", f.unknown_servers);
  same_count("time_order_violations", f.time_order_violations);
  same_count("invalid_sizes", f.invalid_sizes);
  same_count("rental_attempts_failed", f.rental_attempts_failed);
  same_count("sessions_rejected_rental", f.sessions_rejected_rental);
  same_count("sessions_rejected_cap", f.sessions_rejected_cap);
  same_count("sessions_shed", f.sessions_shed);
  same_count("sessions_redispatched", f.sessions_redispatched);
  same_count("sessions_lost_on_crash", f.sessions_lost_on_crash);
  same_count("servers_crashed", f.servers_crashed);
  same_double("backoff_minutes", f.backoff_minutes);
  same_count("total_dropped_events", f.total_dropped_events());
  return bad;
}

/// Everything one series of passes against fresh servers measured. Timings
/// are kept per pass and summarised by fast_quartile().
struct Series {
  std::size_t passes = 0;
  std::vector<double> events_per_s;
  std::vector<double> ack_p50_us;
  std::vector<double> ack_p99_us;
  std::vector<double> cpu_ns_per_event;
  std::vector<double> rss_mb;
  std::vector<double> setup_s;
  std::vector<double> lateness_us;
  std::vector<double> idle_query_rtt_us;
  std::size_t min_ack_samples = 0;
  std::vector<std::string> mismatches;
  double timed_s = 0.0;
  double events = 0.0;
  double generator_cpu_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One pass's stream and the answer the server must give for it.
struct PassInput {
  Plan plan;
  Expected want;
  std::vector<std::string> problems;  ///< reference-side check failures
};

/// Builds pass inputs: one stream for the whole run, or (when the workload
/// draws a stream per pass) a fresh one per pass, seeded from the run seed
/// and the pass index. The first pass's input is kept for the traced replay.
class Inputs {
 public:
  Inputs(const WorkloadSpec& spec, const Options& options, Spans* spans)
      : spec_(spec), options_(options) {
    first_ = make(0, spans);
  }

  const PassInput& first() const { return first_; }

  const PassInput& get(int pass) {
    if (pass == 0 || !spec_.stream_per_pass) return first_;
    if (current_pass_ != pass) {
      current_ = make(pass, nullptr);
      current_pass_ = pass;
    }
    return current_;
  }

 private:
  PassInput make(int pass, Spans* spans) const {
    PassInput input;
    input.plan = build_plan(spec_, pass_seed(options_.seed, pass), options_.inject);
    input.want = replay_engine(input.plan, spans);
    // With an epoch after every event of a whole instance, the streaming
    // bounds are the batch OPT_total integral up to summation order.
    const bool whole_batch =
        spec_.epoch_every == 1 && input.plan.instance.size() <= kEstimateItems;
    if (whole_batch || spans != nullptr) {
      const BatchBounds batch = batch_opt_total(input.plan, kEstimateItems, spans);
      const auto close = [](double a, double b) {
        return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
      };
      if (whole_batch && !(close(input.want.lower_dollars, batch.lower) &&
                           close(input.want.upper_dollars, batch.upper))) {
        input.problems.push_back("pass " + std::to_string(pass) +
                                 ": streaming OPT bounds differ from estimate_opt_total");
      }
    }
    return input;
  }

  const WorkloadSpec& spec_;
  const Options& options_;
  PassInput first_;
  PassInput current_;
  int current_pass_ = 0;
};

/// Passes against fresh servers until `seconds` of timed load are spent.
Series run_series(Inputs& inputs, const Options& options, double seconds,
                  bool traced, int first_index, int idle_queries) {
  Series series;
  for (int k = 0; k == 0 || series.timed_s < seconds; ++k) {
    const PassInput& input = inputs.get(k);
    const PassResult pass = run_pass(input.plan, options.serve_binary, options.run_dir,
                                     traced, first_index + k,
                                     k == 0 ? idle_queries : 0);
    series.mismatches.insert(series.mismatches.end(), input.problems.begin(),
                             input.problems.end());
    for (const std::string& problem :
         gate(pass.final_body, input.want, options.inject == Inject::kPerturb)) {
      series.mismatches.push_back("pass " + std::to_string(k) + ": " + problem);
    }
    const auto events = static_cast<double>(pass.timed_events);
    ++series.passes;
    series.timed_s += pass.timed_s;
    series.events += events;
    series.generator_cpu_s += pass.generator_cpu_s;
    series.events_per_s.push_back(pass.timed_s > 0 ? events / pass.timed_s : 0.0);
    series.ack_p50_us.push_back(quantile(pass.ack_us, 0.50));
    series.ack_p99_us.push_back(quantile(pass.ack_us, 0.99));
    series.cpu_ns_per_event.push_back(events > 0 ? 1e9 * pass.server_cpu_s / events : 0.0);
    series.rss_mb.push_back(pass.peak_rss_mb);
    series.setup_s.push_back(pass.setup_s);
    series.lateness_us.insert(series.lateness_us.end(), pass.lateness_us.begin(),
                              pass.lateness_us.end());
    series.idle_query_rtt_us.insert(series.idle_query_rtt_us.end(),
                                    pass.idle_query_rtt_us.begin(),
                                    pass.idle_query_rtt_us.end());
    series.min_ack_samples = k == 0 ? pass.ack_us.size()
                                    : std::min(series.min_ack_samples, pass.ack_us.size());
    series.attempted += pass.attempted;
    series.failed += std::max(pass.error_responses, pass.summary.frames_rejected) +
                     pass.summary.dropped_events + pass.missing_acks;
    if (pass.missing_acks > 0) break;  // a dead server will not come back
  }
  return series;
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// The run's figure for a per-pass timing: the quartile of its passes on
/// the good side (upper for throughput, lower for costs). The shared host
/// this benchmark runs on changes speed by tens of percent from second to
/// second, and only ever slows a pass down; the fast quartile of many short
/// passes tracks the code's own cost where a mean or median tracks the
/// neighbours.
double fast_quartile(const std::vector<double>& per_pass, bool higher_is_better) {
  return quantile(per_pass, higher_is_better ? 0.75 : 0.25);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& options) {
  const WorkloadSpec& spec = find_workload(options.workload);
  Spans spans;
  Spans* traced_spans = options.trace ? &spans : nullptr;
  // The reference answers (and, traced, the engine/opt layer timings of
  // the first pass's stream).
  Inputs inputs(spec, options, traced_spans);
  const Plan& plan = inputs.first().plan;
  const Expected& want = inputs.first().want;
  std::vector<std::string> mismatches;

  // Set-up probes: several fresh servers, so setup_s is a median.
  std::vector<double> setup_s;
  constexpr int kSetupProbes = 5;
  for (int k = 0; k < kSetupProbes; ++k) {
    setup_s.push_back(probe_setup(options.serve_binary, options.run_dir, spec.shards, k));
  }

  const std::uint32_t socket_span = spans.begin("socket.untraced");
  // Traced runs split their measuring time between an untraced and a
  // traced server (the tracing-overhead row).
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const Series series = run_series(inputs, options, seconds, /*traced=*/false, 100,
                                   options.trace ? 20 : 0);
  spans.end(socket_span, static_cast<std::uint64_t>(series.events));
  setup_s.insert(setup_s.end(), series.setup_s.begin(), series.setup_s.end());
  mismatches.insert(mismatches.end(), series.mismatches.begin(), series.mismatches.end());
  std::uint64_t attempted = series.attempted;
  std::uint64_t failed = series.failed;

  // Diagnostics.
  const double generator_share =
      series.timed_s > 0 ? series.generator_cpu_s / series.timed_s : 0.0;
  std::printf("servebench %s seed=%llu trace=%d: %zu pass(es), %.0f timed events "
              "in %.3f s\n",
              spec.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, series.passes, series.events, series.timed_s);
  std::printf("  per pass: >= %zu ack samples (%zu beyond p99); setup samples %zu\n",
              series.min_ack_samples, series.min_ack_samples / 100, setup_s.size());
  std::printf("  events/s by pass:");
  for (const double value : series.events_per_s) std::printf(" %.0f", value);
  std::printf("\n  generator: cpu %.3f us/event, busy share %.3f, lateness p99 %.1f us\n",
              series.events > 0 ? 1e6 * series.generator_cpu_s / series.events : 0.0,
              generator_share, quantile(series.lateness_us, 0.99));
  std::printf("  failed_share %.6g (%llu of %llu requests)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& problem : mismatches) {
    std::printf("  CORRECTNESS: %s\n", problem.c_str());
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    // The gate proved the served answer equal to `want`.
    // Ack latency is printed but not gated: on the shared host it moves by
    // 25-40% between runs of the same code (servebench/README.md).
    std::printf("  %-26s %16.6g us (not gated)\n", "ack_p50_us",
                fast_quartile(series.ack_p50_us, false));
    std::printf("  %-26s %16.6g us (not gated)\n", "ack_p99_us",
                fast_quartile(series.ack_p99_us, false));
    metrics = {
        {"events_per_s", fast_quartile(series.events_per_s, true), "events/s"},
        {"server_cpu_us_per_event", 1e-3 * fast_quartile(series.cpu_ns_per_event, false),
         "us"},
        {"server_peak_rss_mb", median(series.rss_mb), "MB"},
        {"setup_s", median(setup_s), "s"},
        {"bill_over_opt_lb",
         want.lower_dollars > 0 ? want.bill_dollars / want.lower_dollars : 0.0, "ratio"},
        {"opt_exact_share",
         want.segments > 0 ? static_cast<double>(want.exact_segments) /
                                 static_cast<double>(want.segments)
                           : 0.0,
         "ratio"},
    };
  } else {
    // Traced dbp_serve (--trace-out --metrics) for the overhead row.
    const std::uint32_t traced_span = spans.begin("socket.traced");
    const Series traced =
        run_series(inputs, options, seconds, /*traced=*/true, 200, 0);
    spans.end(traced_span, static_cast<std::uint64_t>(traced.events));
    mismatches.insert(mismatches.end(), traced.mismatches.begin(), traced.mismatches.end());
    attempted += traced.attempted;
    failed += traced.failed;

    replay_layers(plan, spans);

    const double submits = static_cast<double>(spans.total_count("engine.submit"));
    const auto per_call = [&](const char* name) {
      const double count = static_cast<double>(spans.total_count(name));
      return count > 0 ? spans.total_ns(name) / count : 0.0;
    };
    const auto per_event = [&](const char* name) {
      return submits > 0 ? spans.total_ns(name) / submits : 0.0;
    };
    const std::vector<double> epoch_ns = spans.durations_ns("engine.advance_epoch");
    const std::vector<double> count_ns = spans.durations_ns("opt.count_rle");
    std::vector<double> self_ns;
    for (std::size_t i = 0; i < epoch_ns.size() && i < count_ns.size(); ++i) {
      self_ns.push_back(epoch_ns[i] - count_ns[i]);
    }
    std::size_t frames = 0;
    double wire_bytes = 0.0;
    for (const Step& step : plan.steps) frames += step.kind != Step::Kind::kMalformed;
    for (const auto& bytes : plan.wire) wire_bytes += static_cast<double>(bytes.size());
    const double decode_ns = per_call(spec.framing == Framing::kBinary
                                          ? "net.decode_binary"
                                          : "net.decode_json");
    const double server_ns = fast_quartile(series.cpu_ns_per_event, false);

    // Attributed rows partition the server's per-event CPU; gaming and
    // algo are children of the drain row and are not added again. The
    // epoch splits into count_rle and the rest; count_rle is timed on a
    // second oracle, so where it is nearly the whole epoch its row is
    // capped at the epoch time it sits inside.
    const double epoch_per_event = per_event("engine.advance_epoch");
    const double count_per_event = std::min(per_event("opt.count_rle"), epoch_per_event);
    struct Row {
      const char* name;
      double ns_per_event;
    };
    const std::vector<Row> rows = {
        {"net.decode", submits > 0 ? decode_ns * static_cast<double>(frames) / submits : 0.0},
        {"engine.submit", per_event("engine.submit")},
        {"engine.drain", per_event("engine.drain")},
        {"engine.epoch_self", epoch_per_event - count_per_event},
        {"opt.count_rle", count_per_event},
    };
    double attributed = 0.0;
    for (const Row& row : rows) attributed += row.ns_per_event;
    const double residual = server_ns - attributed;

    std::printf("\n  per-layer table (ns per event; server cpu %.1f ns/event)\n", server_ns);
    for (const Row& row : rows) {
      std::printf("    %-22s %14.1f  %6.2f%%\n", row.name, row.ns_per_event,
                  server_ns > 0 ? 100.0 * row.ns_per_event / server_ns : 0.0);
    }
    std::printf("    %-22s %14.1f  %6.2f%%\n", "net.io_residual", residual,
                server_ns > 0 ? 100.0 * residual / server_ns : 0.0);
    std::printf("    %-22s %14.1f  (= server cpu)\n", "sum", attributed + residual);
    std::printf("      inside engine.drain: gaming.dispatch %.1f ns, algo.replay %.1f ns "
                "per event\n", per_call("gaming.dispatch"), per_call("algo.replay_events"));
    std::printf("  traced server: %.0f events/s vs untraced %.0f events/s\n",
                fast_quartile(traced.events_per_s, true),
                fast_quartile(series.events_per_s, true));

    const std::uint64_t lookups = want.oracle_hits + want.oracle_misses;
    metrics = {
        {"net.decode_binary_ns", per_call("net.decode_binary"), "ns"},
        {"net.decode_json_ns", per_call("net.decode_json"), "ns"},
        {"net.bytes_per_event", submits > 0 ? wire_bytes / submits : 0.0, "count"},
        {"net.io_residual_ns", residual, "ns"},
        {"net.query_rtt_us", median(series.idle_query_rtt_us), "us"},
        {"engine.submit_ns", per_call("engine.submit"), "ns"},
        {"engine.drain_ns_per_event", per_call("engine.drain"), "ns"},
        {"engine.submit_backoffs", static_cast<double>(want.submit_backoffs), "count"},
        {"engine.epoch_us_p50", 1e-3 * quantile(epoch_ns, 0.50), "us"},
        {"engine.epoch_us_p99", 1e-3 * quantile(epoch_ns, 0.99), "us"},
        {"engine.epoch_self_us", 1e-3 * median(self_ns), "us"},
        {"gaming.dispatch_ns", per_call("gaming.dispatch"), "ns"},
        {"algo.replay_ns", per_call("algo.replay_events"), "ns"},
        {"opt.count_rle_us_p50", 1e-3 * quantile(count_ns, 0.50), "us"},
        {"opt.count_rle_us_p99", 1e-3 * quantile(count_ns, 0.99), "us"},
        {"opt.oracle_hit_share",
         lookups > 0 ? static_cast<double>(want.oracle_hits) / static_cast<double>(lookups) : 0.0,
         "ratio"},
        {"opt.estimate_total_ms", 1e-6 * spans.total_ns("opt.estimate_opt_total"), "ms"},
        {"obs.trace_overhead_share",
         1.0 - fast_quartile(traced.events_per_s, true) /
                   fast_quartile(series.events_per_s, true),
         "ratio"},
    };
    const std::string spans_path = options.run_dir + "/spans_" + spec.name + "_" +
                                   std::to_string(options.seed) + ".json";
    spans.write_json(spans_path);
    std::printf("  spans -> %s\n", spans_path.c_str());
  }

  for (const Metric& metric : metrics) {
    std::printf("  %-26s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  if (generator_share > 0.9) {
    std::fprintf(stderr, "servebench: run invalid: the generator was busy %.0f%% of the "
                         "timed region, so it, not the server, set the pace\n",
                 100.0 * generator_share);
    return 3;
  }
  const bool correct = mismatches.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    const servebench::Options options = servebench::parse(argc, argv);
    return servebench::run(options);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "servebench: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "servebench: %s\n", error.what());
    return 1;
  }
}
