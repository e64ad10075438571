// dbp_bounds — certified OPT_total bounds and the paper's closed-form
// bounds for a CSV trace, plus the repacking (with-migration) baseline.
//
// Usage:
//   dbp_bounds --trace=trace.csv [--capacity=W] [--rate=C] [--no-exact]
//              [--threads=N]
#include <iostream>

#include "cli.hpp"
#include "core/metrics.hpp"
#include "core/strfmt.hpp"
#include "exec/worker_budget.hpp"
#include "opt/opt_total.hpp"
#include "opt/repack_baseline.hpp"
#include "workload/trace_io.hpp"

namespace {

constexpr const char* kUsage =
    "usage: dbp_bounds --trace=FILE [--capacity=W] [--rate=C] [--no-exact]\n"
    "                  [--threads=N]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace dbp;
  try {
    const cli::Args args(
        argc, argv,
        {"trace", "capacity", "rate", "no-exact", "threads"},
        kUsage);
    exec::WorkerBudget::set(args.get_thread_count());
    const Instance instance = read_instance_csv(args.require("trace"));
    DBP_REQUIRE(!instance.empty(), "trace is empty");
    const CostModel model{args.get_double("capacity", 1.0),
                          args.get_double("rate", 1.0), 1e-9};

    const InstanceMetrics metrics = compute_metrics(instance);
    std::cout << strfmt(
        "%zu items | mu = %.3f | Delta = %.3f | sizes [%.4f, %.4f] | %d "
        "worker(s)\n",
        metrics.item_count, metrics.mu, metrics.min_interval_length,
        metrics.min_size, metrics.max_size, exec::WorkerBudget::effective());

    const CostBounds closed = compute_cost_bounds(instance, model);
    std::cout << strfmt("closed-form bounds:  (b.1) demand %.4f | (b.2) span "
                        "%.4f | (b.3) one-bin-per-item %.4f\n",
                        closed.demand_lower, closed.span_lower,
                        closed.one_per_item_upper);

    OptTotalOptions options;
    options.bin_count.use_exact_solver = !args.has("no-exact");
    const OptTotalResult opt = estimate_opt_total(instance, model, options);
    std::cout << strfmt(
        "OPT_total in [%.6f, %.6f]%s  (%zu/%zu segments proven exact)\n",
        opt.lower_cost, opt.upper_cost, opt.exact ? " (exact)" : "",
        opt.exact_segments, opt.segments);
    std::cout << strfmt(
        "snapshots: %zu distinct / %zu segments (%llu dedup hits)\n",
        opt.distinct_snapshots, opt.segments,
        static_cast<unsigned long long>(opt.dedup_hits));

    const RepackBaselineResult repack = run_repack_baseline(instance, model);
    std::cout << strfmt(
        "FFD-repack baseline (migration allowed): cost %.6f, peak %zu bins, "
        "%llu migrations (volume %.3f)\n",
        repack.total_cost, repack.max_bins,
        static_cast<unsigned long long>(repack.migrations),
        repack.migrated_volume);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "dbp_bounds: " << error.what() << "\n";
    return 1;
  }
}
