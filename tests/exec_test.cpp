// Tests for the exec subsystem: the process-wide WorkerBudget, the
// WorkerLease arbitration, the ExecutionPolicy decision function, and the
// regression the subsystem exists to fix — a 1-worker budget must route
// estimate_opt_total down the sequential path (no OpenMP team, observable
// through the phase metrics), while still producing results bit-identical
// to the unconditional parallel path.
#include "exec/worker_budget.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "exec/execution_policy.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "opt/opt_total.hpp"
#include "workload/random_instance.hpp"

namespace dbp {
namespace {

/// Restores the runtime-default budget no matter how a test exits, so
/// budget mutations never leak into other suites in the same binary.
struct BudgetGuard {
  ~BudgetGuard() { exec::WorkerBudget::set(0); }
};

TEST(WorkerBudgetTest, SetAndClampAndRestore) {
  const BudgetGuard guard;
  const int runtime_default = exec::WorkerBudget::available();
  EXPECT_GE(runtime_default, 1);

  exec::WorkerBudget::set(3);
  EXPECT_EQ(exec::WorkerBudget::budget(), 3);
  EXPECT_EQ(exec::WorkerBudget::effective(), 3);

  // Requests above the cap clamp instead of oversubscribing.
  exec::WorkerBudget::set(exec::WorkerBudget::kMaxWorkers + 100);
  EXPECT_EQ(exec::WorkerBudget::budget(), exec::WorkerBudget::kMaxWorkers);

  // 0 (and anything negative) restores the runtime default.
  exec::WorkerBudget::set(0);
  EXPECT_EQ(exec::WorkerBudget::budget(), 0);
  EXPECT_EQ(exec::WorkerBudget::effective(), runtime_default);
  EXPECT_EQ(exec::WorkerBudget::available(), runtime_default);
}

TEST(WorkerBudgetTest, LeaseForcesSequentialAndNests) {
  const BudgetGuard guard;
  exec::WorkerBudget::set(8);
  EXPECT_EQ(exec::WorkerBudget::effective(), 8);
  EXPECT_FALSE(exec::WorkerLease::held());
  {
    const exec::WorkerLease outer;
    EXPECT_TRUE(exec::WorkerLease::held());
    EXPECT_EQ(exec::WorkerBudget::effective(), 1);
    {
      const exec::WorkerLease inner;  // leases nest; depth-counted
      EXPECT_EQ(exec::WorkerBudget::effective(), 1);
    }
    EXPECT_TRUE(exec::WorkerLease::held());
    EXPECT_EQ(exec::WorkerBudget::effective(), 1);
  }
  EXPECT_FALSE(exec::WorkerLease::held());
  EXPECT_EQ(exec::WorkerBudget::effective(), 8);
  // The lease gates effective(), not the configured budget.
  EXPECT_EQ(exec::WorkerBudget::budget(), 8);
}

TEST(ExecutionPolicyTest, ShouldParallelizeTruthTable) {
  using exec::ExecutionPolicy;
  const exec::ParallelWorkEstimate big{/*jobs=*/1000, /*work_units=*/100'000};
  const exec::ParallelWorkEstimate tiny{/*jobs=*/4, /*work_units=*/8};
  const exec::ParallelWorkEstimate one{/*jobs=*/1, /*work_units=*/1'000'000};

  // Fewer than two jobs can never fan out, whatever the policy says.
  EXPECT_FALSE(exec::should_parallelize(ExecutionPolicy::kParallel, one, 8));

  EXPECT_FALSE(exec::should_parallelize(ExecutionPolicy::kSequential, big, 8));
  EXPECT_TRUE(exec::should_parallelize(ExecutionPolicy::kParallel, tiny, 1));

  // Adaptive: needs workers, enough jobs, and enough work per the cutoffs.
  EXPECT_TRUE(exec::should_parallelize(ExecutionPolicy::kAdaptive, big, 8));
  EXPECT_FALSE(exec::should_parallelize(ExecutionPolicy::kAdaptive, big, 1));
  EXPECT_FALSE(exec::should_parallelize(ExecutionPolicy::kAdaptive, tiny, 8));
  const exec::ParallelWorkEstimate at_cutoff{exec::kMinParallelJobs,
                                             exec::kMinParallelWorkUnits};
  EXPECT_TRUE(exec::should_parallelize(ExecutionPolicy::kAdaptive, at_cutoff, 2));
  const exec::ParallelWorkEstimate below_jobs{exec::kMinParallelJobs - 1,
                                              exec::kMinParallelWorkUnits};
  EXPECT_FALSE(
      exec::should_parallelize(ExecutionPolicy::kAdaptive, below_jobs, 2));
  const exec::ParallelWorkEstimate below_units{exec::kMinParallelJobs,
                                               exec::kMinParallelWorkUnits - 1};
  EXPECT_FALSE(
      exec::should_parallelize(ExecutionPolicy::kAdaptive, below_units, 2));
  // dbp_bench_report's dyadic 300-item instance: many jobs, but its whole
  // evaluate phase is sub-millisecond, so it stays sequential.
  const exec::ParallelWorkEstimate dyadic_300{/*jobs=*/550, /*work_units=*/3'243};
  EXPECT_FALSE(
      exec::should_parallelize(ExecutionPolicy::kAdaptive, dyadic_300, 4));
}

TEST(ExecutionPolicyTest, NamesRoundTrip) {
  using exec::ExecutionPolicy;
  for (const ExecutionPolicy policy :
       {ExecutionPolicy::kSequential, ExecutionPolicy::kParallel,
        ExecutionPolicy::kAdaptive}) {
    EXPECT_EQ(exec::parse_execution_policy(exec::to_string(policy)), policy);
  }
  EXPECT_THROW((void)exec::parse_execution_policy("turbo"), PreconditionError);
  EXPECT_THROW((void)exec::parse_execution_policy(""), PreconditionError);
}

Instance uniform_instance(std::size_t items, std::uint64_t seed) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 20.0;
  config.duration.max_length = 8.0;
  config.size.min_fraction = 0.02;
  config.size.max_fraction = 0.5;
  return generate_random_instance(config, seed);
}

/// The regression this PR fixes: under a 1-worker budget the adaptive
/// policy must take the sequential evaluation path — no OpenMP team, which
/// the opt_total.evaluate_* metrics make observable — while the result
/// stays bit-identical to the unconditional parallel path.
TEST(AdaptiveOptTotalTest, OneWorkerBudgetTakesSequentialPath) {
  const BudgetGuard guard;
  const Instance instance = uniform_instance(400, 99);
  const CostModel model{1.0, 1.0, 1e-9};

  exec::WorkerBudget::set(1);
  OptTotalOptions options;
  options.policy = exec::ExecutionPolicy::kAdaptive;
  obs::MetricsRegistry registry;
  OptTotalResult adaptive;
  {
    const obs::ObsScope scope(nullptr, &registry);
    adaptive = estimate_opt_total(instance, model, options);
  }
  EXPECT_FALSE(adaptive.evaluate_parallel);
  EXPECT_EQ(adaptive.evaluate_workers, 1);
  EXPECT_EQ(registry.counter_value("opt_total.evaluate_sequential"), 1u);
  EXPECT_FALSE(registry.counter_value("opt_total.evaluate_parallel").has_value());
  EXPECT_EQ(registry.gauge_value("opt_total.evaluate_workers"), 1.0);

  // Same budget, forced-parallel policy: the OpenMP region is entered (the
  // estimator reports the path it took) but the numbers cannot move.
  options.policy = exec::ExecutionPolicy::kParallel;
  const OptTotalResult parallel = estimate_opt_total(instance, model, options);
  EXPECT_TRUE(parallel.evaluate_parallel);
  EXPECT_EQ(adaptive.lower_cost, parallel.lower_cost);
  EXPECT_EQ(adaptive.upper_cost, parallel.upper_cost);
  EXPECT_EQ(adaptive.segments, parallel.segments);
  EXPECT_EQ(adaptive.distinct_snapshots, parallel.distinct_snapshots);
  EXPECT_EQ(adaptive.dedup_hits, parallel.dedup_hits);
}

/// A held lease must defeat even an explicit multi-worker budget: this is
/// how an outer sweep (dbp_sweep's cells) keeps inner estimators off the
/// OpenMP runtime.
TEST(AdaptiveOptTotalTest, LeaseKeepsAdaptiveSequentialUnderBigBudget) {
  const BudgetGuard guard;
  exec::WorkerBudget::set(8);
  const Instance instance = uniform_instance(300, 7);
  const CostModel model{1.0, 1.0, 1e-9};
  OptTotalOptions options;
  options.policy = exec::ExecutionPolicy::kAdaptive;

  const exec::WorkerLease lease;
  const OptTotalResult result = estimate_opt_total(instance, model, options);
  EXPECT_FALSE(result.evaluate_parallel);
  EXPECT_EQ(result.evaluate_workers, 1);
}

}  // namespace
}  // namespace dbp
