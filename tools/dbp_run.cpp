// dbp_run — run packing algorithms over a CSV trace and report costs and
// certified competitive ratios.
//
// Usage:
//   dbp_run --trace=trace.csv [--algorithms=first-fit,best-fit,...]
//           [--capacity=W] [--rate=C] [--no-opt] [--threads=N]
//           [--timeline=PREFIX]
//
// --timeline=PREFIX additionally writes PREFIX.<algo>.bins.csv (n(t)
// staircase) and PREFIX.<algo>.assign.csv for plotting.
#include <fstream>
#include <iostream>

#include "analysis/ratio.hpp"
#include "analysis/svg.hpp"
#include "analysis/table.hpp"
#include "analysis/timeline.hpp"
#include "cli.hpp"
#include "core/checked_output.hpp"
#include "core/strfmt.hpp"
#include "exec/worker_budget.hpp"
#include "obs_cli.hpp"
#include "workload/trace_io.hpp"

namespace {

constexpr const char* kUsage =
    "usage: dbp_run --trace=FILE [--algorithms=a,b,c] [--capacity=W]\n"
    "               [--rate=C] [--no-opt] [--threads=N] [--timeline=PREFIX]\n"
    "               [--svg=PREFIX] [--trace-out=FILE] [--metrics]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace dbp;
  try {
    const cli::Args args(
        argc, argv,
        {"trace", "algorithms", "capacity", "rate", "no-opt", "threads",
         "timeline", "svg", "trace-out", "metrics"},
        kUsage);
    exec::WorkerBudget::set(args.get_thread_count());
    cli::ObsSession obs_session(args);
    const Instance instance = read_instance_csv(args.require("trace"));
    DBP_REQUIRE(!instance.empty(), "trace is empty");
    const CostModel model{args.get_double("capacity", 1.0),
                          args.get_double("rate", 1.0), 1e-9};
    std::vector<std::string> algorithms =
        args.get_list("algorithms", all_algorithm_names());

    const InstanceMetrics metrics = compute_metrics(instance);
    std::cout << strfmt(
        "%zu items, mu = %.3f, span = %.3f, demand = %.3f | %d worker(s)\n",
        metrics.item_count, metrics.mu, metrics.span, metrics.total_demand,
        exec::WorkerBudget::effective());

    if (args.has("no-opt")) {
      Table table({"algorithm", "total cost", "bins opened", "peak open"});
      PackerOptions options;
      options.known_mu = metrics.mu;
      for (const std::string& name : algorithms) {
        const SimulationResult result = simulate(instance, name, model, options);
        table.add_row({result.algorithm, Table::num(result.total_cost, 3),
                       Table::integer((long long)result.bins_opened),
                       Table::integer(result.max_open_bins)});
      }
      table.print(std::cout);
    } else {
      const InstanceEvaluation evaluation =
          evaluate_algorithms(instance, algorithms, model);
      std::cout << strfmt("OPT_total in [%.3f, %.3f]%s\n\n",
                          evaluation.opt.lower_cost, evaluation.opt.upper_cost,
                          evaluation.opt.exact ? " (exact)" : "");
      Table table({"algorithm", "total cost", "ratio vs OPT", "bins opened",
                   "peak open"});
      for (const AlgorithmEvaluation& eval : evaluation.algorithms) {
        table.add_row({eval.display_name, Table::num(eval.total_cost, 3),
                       strfmt("[%.3f, %.3f]", eval.ratio.lower, eval.ratio.upper),
                       Table::integer((long long)eval.bins_opened),
                       Table::integer(eval.max_open_bins)});
      }
      table.print(std::cout);
    }

    if (args.has("timeline")) {
      const std::string prefix = args.require("timeline");
      PackerOptions options;
      options.known_mu = metrics.mu;
      for (const std::string& name : algorithms) {
        const SimulationResult result = simulate(instance, name, model, options);
        {
          const std::string path = prefix + "." + name + ".bins.csv";
          std::ofstream out = open_output_file(path);
          write_step_function_csv(result.open_bins_over_time, out);
          close_output_file(out, path);
        }
        {
          const std::string path = prefix + "." + name + ".assign.csv";
          std::ofstream out = open_output_file(path);
          write_assignment_csv(instance, result, out);
          close_output_file(out, path);
        }
      }
      std::cout << "\ntimelines written to " << prefix << ".<algo>.*.csv\n";
    }

    if (args.has("svg")) {
      const std::string prefix = args.require("svg");
      PackerOptions options;
      options.known_mu = metrics.mu;
      std::vector<SimulationResult> runs;
      runs.reserve(algorithms.size());
      for (const std::string& name : algorithms) {
        runs.push_back(simulate(instance, name, model, options));
        SvgOptions svg_options;
        svg_options.title = runs.back().algorithm + " — bin layout";
        const std::string path = prefix + "." + name + ".gantt.svg";
        std::ofstream out = open_output_file(path);
        out << render_bin_gantt_svg(instance, runs.back(), svg_options);
        close_output_file(out, path);
      }
      std::vector<TimelineSeries> series;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        series.push_back({runs[i].algorithm, &runs[i].open_bins_over_time});
      }
      SvgOptions svg_options;
      svg_options.title = "open bins over time (the MinTotal cost integrand)";
      const std::string path = prefix + ".open_bins.svg";
      std::ofstream out = open_output_file(path);
      out << render_open_bins_svg(series, svg_options);
      close_output_file(out, path);
      std::cout << "SVGs written to " << prefix << ".*\n";
    }
    obs_session.finish();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "dbp_run: " << error.what() << "\n";
    return 1;
  }
}
