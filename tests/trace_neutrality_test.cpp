// Tracing must be observationally free: a run with a tracer and metrics
// registry installed produces bit-identical results to an untraced run, and
// the trace itself (timings stripped) is byte-identical across worker
// counts. These tests are the enforcement for the "read-only
// instrumentation" contract in obs/run_tracer.hpp.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exec/worker_budget.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "obs/run_tracer.hpp"
#include "opt/opt_total.hpp"
#include "sim/fault_sim.hpp"
#include "sim/simulator.hpp"
#include "workload/fault_schedule.hpp"
#include "workload/random_instance.hpp"

namespace dbp {
namespace {

Instance make_instance(std::size_t items, std::uint64_t seed) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 8.0;
  config.duration.min_length = 0.5;
  config.duration.max_length = 4.0;
  return generate_random_instance(config, seed);
}

void expect_bit_identical(const SimulationResult& traced,
                          const SimulationResult& untraced) {
  EXPECT_EQ(traced.algorithm, untraced.algorithm);
  // Exact equality on purpose: tracing may not perturb a single bit.
  EXPECT_EQ(traced.total_cost, untraced.total_cost);
  EXPECT_EQ(traced.total_cost_from_bins, untraced.total_cost_from_bins);
  EXPECT_EQ(traced.max_open_bins, untraced.max_open_bins);
  EXPECT_EQ(traced.bins_opened, untraced.bins_opened);
  EXPECT_EQ(traced.assignment, untraced.assignment);
  ASSERT_EQ(traced.bin_usage.size(), untraced.bin_usage.size());
  for (std::size_t i = 0; i < traced.bin_usage.size(); ++i) {
    EXPECT_EQ(traced.bin_usage[i].id, untraced.bin_usage[i].id);
    EXPECT_EQ(traced.bin_usage[i].opened, untraced.bin_usage[i].opened);
    EXPECT_EQ(traced.bin_usage[i].closed, untraced.bin_usage[i].closed);
  }
  EXPECT_EQ(traced.open_bins_over_time.breakpoints(),
            untraced.open_bins_over_time.breakpoints());
}

TEST(TraceNeutralityTest, SimulateIsBitIdenticalWithTracing) {
  const Instance instance = make_instance(300, 11);
  const CostModel model{1.0, 1.0, 1e-9};
  for (const char* algorithm : {"first-fit", "best-fit", "modified-first-fit"}) {
    const SimulationResult untraced = simulate(instance, algorithm, model);
    obs::RunTracer tracer;
    obs::MetricsRegistry registry;
    SimulationResult traced;
    {
      const obs::ObsScope scope(&tracer, &registry);
      traced = simulate(instance, algorithm, model);
    }
    expect_bit_identical(traced, untraced);
    // And the instrumentation actually observed the run.
    EXPECT_GT(tracer.total_recorded(), 0u);
    EXPECT_EQ(registry.counter_value("packer.arrivals"), instance.size());
    EXPECT_EQ(registry.counter_value("packer.departures"), instance.size());
    EXPECT_EQ(registry.counter_value("bin_manager.bins_opened"),
              traced.bins_opened);
  }
}

TEST(TraceNeutralityTest, FaultedSimulateIsBitIdenticalWithTracing) {
  const Instance instance = make_instance(250, 23);
  const CostModel model{1.0, 1.0, 1e-9};
  const FaultPlan plan = make_poisson_fault_plan(
      instance.packing_period(), 0.4, 0.1, CrashTarget::kFullest, 7);

  const FaultSimulationResult untraced =
      simulate_with_faults(instance, "first-fit", model, plan);
  obs::RunTracer tracer;
  obs::MetricsRegistry registry;
  FaultSimulationResult traced;
  {
    const obs::ObsScope scope(&tracer, &registry);
    traced = simulate_with_faults(instance, "first-fit", model, plan);
  }
  expect_bit_identical(traced.faulted, untraced.faulted);
  expect_bit_identical(traced.baseline, untraced.baseline);
  EXPECT_EQ(traced.cost_inflation_ratio, untraced.cost_inflation_ratio);
  EXPECT_EQ(traced.stats.crashes_landed, untraced.stats.crashes_landed);
  EXPECT_EQ(traced.stats.sessions_redispatched,
            untraced.stats.sessions_redispatched);
  EXPECT_EQ(registry.counter_value("fault.crashes_landed"),
            traced.stats.crashes_landed);
}

TEST(TraceNeutralityTest, OptTotalIsBitIdenticalWithTracing) {
  const Instance instance = make_instance(200, 5);
  const CostModel model{1.0, 1.0, 1e-9};
  OptTotalOptions options;
  options.bin_count.exact.node_budget = 20'000;

  const OptTotalResult untraced = estimate_opt_total(instance, model, options);
  obs::RunTracer tracer;
  obs::MetricsRegistry registry;
  OptTotalResult traced;
  {
    const obs::ObsScope scope(&tracer, &registry);
    traced = estimate_opt_total(instance, model, options);
  }
  EXPECT_EQ(traced.lower_cost, untraced.lower_cost);
  EXPECT_EQ(traced.upper_cost, untraced.upper_cost);
  EXPECT_EQ(traced.exact, untraced.exact);
  EXPECT_EQ(traced.segments, untraced.segments);
  EXPECT_EQ(traced.distinct_snapshots, untraced.distinct_snapshots);
  EXPECT_EQ(traced.dedup_hits, untraced.dedup_hits);
  // Three phase records (sweep, evaluate, combine) and per-phase timers.
  const auto sweep = registry.timer_stats("opt_total.sweep");
  ASSERT_TRUE(sweep.has_value());
  EXPECT_EQ(sweep->count, 1u);
  EXPECT_TRUE(registry.timer_stats("opt_total.evaluate").has_value());
  EXPECT_TRUE(registry.timer_stats("opt_total.combine").has_value());
}

/// Exports one traced full pipeline (packing runs + estimator) with timing
/// fields stripped.
std::string traced_pipeline_jsonl(const Instance& instance,
                                  const CostModel& model, int threads) {
  const int saved = exec::WorkerBudget::budget();
  exec::WorkerBudget::set(threads);
  obs::RunTracer tracer;
  {
    const obs::ObsScope scope(&tracer, nullptr);
    (void)simulate(instance, "first-fit", model);
    OptTotalOptions options;
    options.bin_count.exact.node_budget = 20'000;
    (void)estimate_opt_total(instance, model, options);
  }
  exec::WorkerBudget::set(saved);
  std::ostringstream out;
  tracer.export_jsonl(out, /*include_timings=*/false);
  return out.str();
}

TEST(TraceDeterminismTest, IdenticalJsonlAcrossWorkerCounts) {
  const Instance instance = make_instance(200, 31);
  const CostModel model{1.0, 1.0, 1e-9};
  const int budget = exec::WorkerBudget::budget();
  const std::string one_worker = traced_pipeline_jsonl(instance, model, 1);
  const std::string four_workers = traced_pipeline_jsonl(instance, model, 4);
  EXPECT_EQ(one_worker, four_workers);
  // The helper restores the budget it found, an unset default included.
  EXPECT_EQ(exec::WorkerBudget::budget(), budget);
}

TEST(TraceDeterminismTest, RepeatedRunsProduceIdenticalJsonl) {
  const Instance instance = make_instance(150, 13);
  const CostModel model{1.0, 1.0, 1e-9};
  const std::string first = traced_pipeline_jsonl(instance, model, 2);
  const std::string second = traced_pipeline_jsonl(instance, model, 2);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace dbp
