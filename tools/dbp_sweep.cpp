// dbp_sweep — sharded fleet driver: batch (algorithm x workload x seed)
// cells through parallel_map under the shared worker budget.
//
// Usage:
//   dbp_sweep [--workloads=uniform,dyadic,bursts] [--algorithms=a,b,c]
//             [--seeds=N] [--seed-base=S] [--items=N] [--opt]
//             [--threads=N] [--out=FILE.json] [--trace-dir=PREFIX]
//
// Nested-parallelism arbitration: the sweep owns the fan-out. Every cell
// takes an exec::WorkerLease before doing any work, so the work inside a
// cell (packer simulation, OPT_total estimation) always runs sequentially
// — whether the cell landed on a fan-out worker or on the main thread
// because the budget was 1 or there was one cell. The alternative (cells
// racing to start their own fan-outs) would oversubscribe the budget and
// make per-cell timings meaningless. One consequence worth knowing: with
// fewer cells than workers the surplus budget goes unused rather than
// accelerating a single cell.
//
// Observability attribution is per cell: each cell installs its own
// ObsScope with a private MetricsRegistry (and, under --trace-dir, a
// private RunTracer), so counters and traces from concurrent cells never
// interleave. The scope is thread-local, which is what makes this safe
// on parallel_map's workers. --trace-dir=PREFIX writes
// PREFIX.<workload>.<algo>.<seed>.jsonl per cell.
//
// Cell order in the output is the job-list order (workload-major, then
// algorithm, then seed) regardless of the parallel schedule, and every
// per-cell number except wall-clock is bit-identical across budgets.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/parallel_map.hpp"
#include "algo/factory.hpp"
#include "analysis/table.hpp"
#include "cli.hpp"
#include "core/checked_output.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/strfmt.hpp"
#include "exec/worker_budget.hpp"
#include "obs/obs.hpp"
#include "opt/opt_total.hpp"
#include "sim/simulator.hpp"
#include "workload/random_instance.hpp"

namespace {

using namespace dbp;

constexpr const char* kUsage =
    "usage: dbp_sweep [--workloads=uniform,dyadic,bursts]\n"
    "                 [--algorithms=a,b,c] [--seeds=N] [--seed-base=S]\n"
    "                 [--items=N] [--opt] [--threads=N]\n"
    "                 [--out=FILE.json] [--trace-dir=PREFIX]\n";

// DBP_LINT_ALLOW(wall-clock): per-cell wall time is a reported measurement
// of this driver; it never feeds back into any packing decision.
using Clock = std::chrono::steady_clock;

/// One sweep cell: everything needed to run it is by value, so cells are
/// safe to evaluate concurrently.
struct Cell {
  std::string workload;
  std::string algorithm;
  std::uint64_t seed = 0;
  std::size_t items = 0;
};

/// Everything measured about one cell. All fields except `ms` are
/// deterministic functions of the cell.
struct CellOutcome {
  Cell cell;
  double total_cost = 0.0;
  std::size_t bins_opened = 0;
  std::int64_t max_open_bins = 0;
  double mu = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  double ms = 0.0;
  // Present only under --opt.
  std::optional<OptTotalResult> opt;
  // Per-cell trace JSONL, exported inside the cell; written to disk by the
  // main thread after the sweep so file creation order is deterministic.
  std::string trace_jsonl;
};

RandomInstanceConfig workload_config(const std::string& name,
                                     std::size_t items) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 20.0;
  config.duration.max_length = 8.0;
  if (name == "uniform") {
    config.size.min_fraction = 0.02;
    config.size.max_fraction = 0.5;
  } else if (name == "dyadic") {
    config.size.kind = SizeModel::Kind::kDyadic;
    config.size.min_exponent = 1;
    config.size.max_exponent = 6;
  } else if (name == "bursts") {
    config.arrival.kind = ArrivalModel::Kind::kBursts;
    config.arrival.burst_size = 16;
    config.arrival.burst_gap = 0.5;
    config.size.min_fraction = 0.05;
    config.size.max_fraction = 0.4;
  } else {
    DBP_REQUIRE(false, "unknown workload '" + name +
                           "' (expected uniform, dyadic, or bursts)\n" +
                           std::string(kUsage));
  }
  return config;
}

/// Whether make_packer knows `name`: an online or a clairvoyant algorithm.
bool is_algorithm_name(const std::string& name) {
  const auto listed = [&](const std::vector<std::string>& names) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  return listed(all_algorithm_names()) || listed(clairvoyant_algorithm_names());
}

CellOutcome run_cell(const Cell& cell, bool want_opt, bool want_trace) {
  // The sweep owns the fan-out: everything below is sequential by lease,
  // so per-cell metrics and results do not depend on where the cell ran.
  const exec::WorkerLease lease;

  obs::MetricsRegistry registry;
  std::optional<obs::RunTracer> tracer;
  if (want_trace) tracer.emplace();
  const obs::ObsScope scope(tracer ? &*tracer : nullptr, &registry);

  const auto start = Clock::now();
  const Instance instance =
      generate_random_instance(workload_config(cell.workload, cell.items),
                               cell.seed);
  const InstanceMetrics metrics = compute_metrics(instance);

  PackerOptions options;
  options.known_mu = metrics.mu;
  options.seed = cell.seed;
  const SimulationResult result =
      simulate(instance, cell.algorithm, CostModel{1.0, 1.0, 1e-9}, options);

  CellOutcome outcome;
  outcome.cell = cell;
  outcome.total_cost = result.total_cost;
  outcome.bins_opened = result.bins_opened;
  outcome.max_open_bins = result.max_open_bins;
  outcome.mu = metrics.mu;

  if (want_opt) {
    OptTotalOptions opt_options;
    opt_options.bin_count.exact.node_budget = 5'000;
    outcome.opt =
        estimate_opt_total(instance, CostModel{1.0, 1.0, 1e-9}, opt_options);
  }

  const std::chrono::duration<double, std::milli> elapsed =
      Clock::now() - start;
  outcome.ms = elapsed.count();
  outcome.arrivals = registry.counter_value("packer.arrivals").value_or(0);
  outcome.departures = registry.counter_value("packer.departures").value_or(0);
  if (tracer) {
    std::ostringstream jsonl;
    tracer->export_jsonl(jsonl, /*include_timings=*/false);
    outcome.trace_jsonl = jsonl.str();
  }
  return outcome;
}

void write_json(const std::vector<CellOutcome>& outcomes,
                const std::string& path) {
  std::ostringstream json;
  json << "{\n  \"schema\": \"dbp-sweep/1\",\n";
  json << "  \"workers\": " << exec::WorkerBudget::effective() << ",\n";
  json << "  \"cells\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const CellOutcome& o = outcomes[i];
    json << "    {\"workload\": \"" << o.cell.workload << "\", \"algorithm\": \""
         << o.cell.algorithm << "\", \"seed\": " << o.cell.seed
         << ", \"items\": " << o.cell.items
         << ", \"total_cost\": " << json_number(o.total_cost)
         << ", \"bins_opened\": " << o.bins_opened
         << ", \"max_open_bins\": " << o.max_open_bins
         << ", \"mu\": " << json_number(o.mu)
         << ", \"arrivals\": " << o.arrivals
         << ", \"departures\": " << o.departures
         << ", \"ms\": " << json_number(o.ms);
    if (o.opt) {
      json << ", \"opt_lower\": " << json_number(o.opt->lower_cost)
           << ", \"opt_upper\": " << json_number(o.opt->upper_cost)
           << ", \"opt_exact\": " << (o.opt->exact ? "true" : "false")
           << ", \"evaluate_workers\": " << o.opt->evaluate_workers;
    }
    json << "}" << (i + 1 < outcomes.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::ofstream out = open_output_file(path);
  out << json.str();
  close_output_file(out, path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbp;
  try {
    const cli::Args args(argc, argv,
                         {"workloads", "algorithms", "seeds", "seed-base",
                          "items", "opt", "threads", "out",
                          "trace-dir"},
                         kUsage);
    exec::WorkerBudget::set(args.get_thread_count());
    const std::vector<std::string> workloads =
        args.get_list("workloads", {"uniform", "dyadic", "bursts"});
    const std::vector<std::string> algorithms =
        args.get_list("algorithms", paper_algorithm_names());
    const std::uint64_t seeds = args.get_u64("seeds", 3);
    DBP_REQUIRE(seeds > 0, "--seeds must be positive\n" + std::string(kUsage));
    const std::uint64_t seed_base = args.get_u64("seed-base", 1);
    const std::size_t items = args.get_u64("items", 1'000);
    const bool want_opt = args.has("opt");
    const bool want_trace = args.has("trace-dir");

    // Names are checked before any cell runs; make_packer would refuse an
    // unknown algorithm only inside its cells.
    for (const std::string& algorithm : algorithms) {
      if (!is_algorithm_name(algorithm)) {
        throw PreconditionError("unknown packer name: " + algorithm);
      }
    }
    // Workload-major, then algorithm, then seed: the output order contract.
    std::vector<Cell> cells;
    for (const std::string& workload : workloads) {
      (void)workload_config(workload, items);  // validate names up front
      for (const std::string& algorithm : algorithms) {
        for (std::uint64_t s = 0; s < seeds; ++s) {
          cells.push_back({workload, algorithm, seed_base + s, items});
        }
      }
    }

    std::cout << strfmt(
        "dbp_sweep: %zu cells (%zu workloads x %zu algorithms x %llu seeds), "
        "%d worker(s)\n\n",
        cells.size(), workloads.size(), algorithms.size(),
        static_cast<unsigned long long>(seeds), exec::WorkerBudget::effective());

    const std::vector<CellOutcome> outcomes =
        parallel_map(cells, [&](const Cell& cell) {
          return run_cell(cell, want_opt, want_trace);
        });

    Table table({"workload", "algorithm", "seed", "total cost", "bins",
                 "peak", "ratio vs OPT", "ms"});
    for (const CellOutcome& o : outcomes) {
      std::string ratio = "-";
      if (o.opt && o.opt->lower_cost > 0.0) {
        ratio = strfmt("[%.3f, %.3f]", o.total_cost / o.opt->upper_cost,
                       o.total_cost / o.opt->lower_cost);
      }
      table.add_row({o.cell.workload, o.cell.algorithm,
                     Table::integer(static_cast<long long>(o.cell.seed)),
                     Table::num(o.total_cost, 3),
                     Table::integer(static_cast<long long>(o.bins_opened)),
                     Table::integer(o.max_open_bins), ratio,
                     Table::num(o.ms, 2)});
    }
    table.print(std::cout);

    if (want_trace) {
      const std::string prefix = args.require("trace-dir");
      for (const CellOutcome& o : outcomes) {
        const std::string path =
            prefix + "." + o.cell.workload + "." + o.cell.algorithm + "." +
            std::to_string(o.cell.seed) + ".jsonl";
        std::ofstream out = open_output_file(path);
        out << o.trace_jsonl;
        close_output_file(out, path);
      }
      std::cout << "\nper-cell traces written to " << prefix << ".*.jsonl\n";
    }
    if (args.has("out")) write_json(outcomes, args.require("out"));
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "dbp_sweep: " << error.what() << "\n";
    return 1;
  }
}
