// Tests for the exec subsystem: the process-wide WorkerBudget, the
// WorkerLease arbitration, the fork-join every fan-out runs on, the
// adaptive fan-out rule, and the regression the subsystem exists to fix —
// a 1-worker budget must route estimate_opt_total down the sequential path
// (one worker, observable through the phase metrics), while still
// producing results bit-identical to the fanned-out path.
#include "exec/worker_budget.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/fork_join.hpp"
#include "exec/parallel_map.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "opt/opt_total.hpp"
#include "thread_start_failure.hpp"
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

/// Runs in a death-test child: pins the process to its lowest allowed CPU
/// before anything reads the budget. 0 when the default budget is then one
/// worker.
int default_budget_pinned_to_one_cpu() {
  cpu_set_t cpus{};
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 4;
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &cpus)) ++first;
  cpu_set_t one{};
  CPU_SET(first, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return 4;
  return exec::WorkerBudget::available() == 1 &&
                 exec::WorkerBudget::effective() == 1
             ? 0
             : 1;
}

/// The default budget is the CPU count of the process's affinity mask, so a
/// process started under taskset fans out no wider than its CPUs.
TEST(WorkerBudgetDeathTest, DefaultIsTheAffinityMaskCpuCount) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::_Exit(default_budget_pinned_to_one_cpu()),
              ::testing::ExitedWithCode(0), "");
}

TEST(ForkJoinTest, OneWorkerRunsInlineWithoutALease) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  exec::fork_join(1, [&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(exec::WorkerLease::held());
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ForkJoinTest, BlockZeroRunsOnTheCallerAndEveryBlockUnderALease) {
  constexpr std::size_t kWorkers = 4;
  std::vector<std::thread::id> ran_on(kWorkers);
  std::vector<int> leased(kWorkers, 0);
  exec::fork_join(kWorkers, [&](std::size_t w) {
    ran_on[w] = std::this_thread::get_id();
    leased[w] = exec::WorkerLease::held() ? 1 : 0;
  });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_NE(ran_on[w], std::thread::id{}) << "block " << w << " never ran";
    if (w > 0) {
      EXPECT_NE(ran_on[w], ran_on[0]) << "block " << w;
    }
    EXPECT_EQ(leased[w], 1) << "block " << w << " ran without a lease";
  }
  EXPECT_FALSE(exec::WorkerLease::held());
}

TEST(ForkJoinTest, JoinsEveryThreadBeforeRethrowing) {
  std::atomic<int> finished{0};
  EXPECT_THROW(exec::fork_join(3,
                               [&](std::size_t w) {
                                 if (w == 0) throw std::runtime_error("block 0");
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(20));
                                 finished.fetch_add(1);
                               }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 2);
}

TEST(AdaptiveRuleTest, ShouldParallelizeTruthTable) {
  const exec::ParallelWorkEstimate big{/*jobs=*/1000, /*work_units=*/100'000};
  const exec::ParallelWorkEstimate tiny{/*jobs=*/4, /*work_units=*/8};
  const exec::ParallelWorkEstimate one{/*jobs=*/1, /*work_units=*/1'000'000};

  // One job never fans out, however much work it holds.
  EXPECT_FALSE(exec::should_parallelize(one, 8));

  // Needs workers, enough jobs, and enough work per the cutoffs.
  EXPECT_TRUE(exec::should_parallelize(big, 8));
  EXPECT_FALSE(exec::should_parallelize(big, 1));
  EXPECT_FALSE(exec::should_parallelize(tiny, 8));
  const exec::ParallelWorkEstimate at_cutoff{exec::kMinParallelJobs,
                                             exec::kMinParallelWorkUnits};
  EXPECT_TRUE(exec::should_parallelize(at_cutoff, 2));
  const exec::ParallelWorkEstimate below_jobs{exec::kMinParallelJobs - 1,
                                              exec::kMinParallelWorkUnits};
  EXPECT_FALSE(exec::should_parallelize(below_jobs, 2));
  const exec::ParallelWorkEstimate below_units{exec::kMinParallelJobs,
                                               exec::kMinParallelWorkUnits - 1};
  EXPECT_FALSE(exec::should_parallelize(below_units, 2));
  // dbp_bench_report's dyadic 300-item instance: many jobs, but its whole
  // evaluate phase is sub-millisecond, so it stays sequential.
  const exec::ParallelWorkEstimate dyadic_300{/*jobs=*/550, /*work_units=*/3'243};
  EXPECT_FALSE(exec::should_parallelize(dyadic_300, 4));
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

/// Under a 1-worker budget the evaluate phase must take the sequential
/// path — one worker, which the opt_total.evaluate_* metrics make
/// observable — while the result stays bit-identical to the fanned-out
/// path a larger budget takes on the same instance.
TEST(AdaptiveOptTotalTest, OneWorkerBudgetTakesSequentialPath) {
  const BudgetGuard guard;
  const Instance instance = uniform_instance(400, 99);
  const CostModel model{1.0, 1.0, 1e-9};

  exec::WorkerBudget::set(1);
  obs::MetricsRegistry registry;
  OptTotalResult adaptive;
  {
    const obs::ObsScope scope(nullptr, &registry);
    adaptive = estimate_opt_total(instance, model);
  }
  EXPECT_FALSE(adaptive.evaluate_parallel);
  EXPECT_EQ(adaptive.evaluate_workers, 1);
  EXPECT_EQ(registry.counter_value("opt_total.evaluate_sequential"), 1u);
  EXPECT_FALSE(registry.counter_value("opt_total.evaluate_parallel").has_value());
  EXPECT_EQ(registry.gauge_value("opt_total.evaluate_workers"), 1.0);

  // Budget 8: the adaptive rule fans the same instance out, and the numbers
  // cannot move.
  exec::WorkerBudget::set(8);
  const OptTotalResult parallel = estimate_opt_total(instance, model);
  EXPECT_TRUE(parallel.evaluate_parallel);
  EXPECT_EQ(parallel.evaluate_workers, 8);
  EXPECT_EQ(adaptive.lower_cost, parallel.lower_cost);
  EXPECT_EQ(adaptive.upper_cost, parallel.upper_cost);
  EXPECT_EQ(adaptive.segments, parallel.segments);
  EXPECT_EQ(adaptive.distinct_snapshots, parallel.distinct_snapshots);
  EXPECT_EQ(adaptive.dedup_hits, parallel.dedup_hits);
}

/// A held lease must defeat even an explicit multi-worker budget: this is
/// how an outer sweep (dbp_sweep's cells) keeps inner estimators from
/// starting threads of their own.
TEST(AdaptiveOptTotalTest, LeaseKeepsAdaptiveSequentialUnderBigBudget) {
  const BudgetGuard guard;
  exec::WorkerBudget::set(8);
  const Instance instance = uniform_instance(300, 7);
  const CostModel model{1.0, 1.0, 1e-9};

  const exec::WorkerLease lease;
  const OptTotalResult result = estimate_opt_total(instance, model);
  EXPECT_FALSE(result.evaluate_parallel);
  EXPECT_EQ(result.evaluate_workers, 1);
}

/// Runs in the death-test child: under budget 4, with no room left for a
/// thread stack, parallel_map and the evaluate phase of an instance the
/// adaptive rule fans out must return what they return under budget 1. 0
/// when they do.
int fan_out_without_thread_stacks() {
  std::vector<int> jobs(64);
  std::iota(jobs.begin(), jobs.end(), 0);
  const auto square = [](int x) { return x * x; };
  const Instance instance = uniform_instance(400, 17);
  const CostModel model{1.0, 1.0, 1e-9};
  exec::WorkerBudget::set(1);
  const std::vector<int> reference_map = parallel_map(jobs, square);
  const OptTotalResult reference = estimate_opt_total(instance, model);

  if (!thread_start_failure::leave_no_room_for_thread_stacks()) return 4;
  exec::WorkerBudget::set(4);
  const std::vector<int> mapped = parallel_map(jobs, square);
  const OptTotalResult estimated = estimate_opt_total(instance, model);
  if (!thread_start_failure::thread_start_fails()) return 5;
  if (estimated.evaluate_workers != 4) return 6;  // it did ask for 4 workers

  const bool same = mapped == reference_map &&
                    estimated.lower_cost == reference.lower_cost &&
                    estimated.upper_cost == reference.upper_cost &&
                    estimated.segments == reference.segments &&
                    estimated.exact_segments == reference.exact_segments &&
                    estimated.distinct_snapshots == reference.distinct_snapshots &&
                    estimated.max_bins_lower == reference.max_bins_lower &&
                    estimated.max_bins_upper == reference.max_bins_upper;
  return same ? 0 : 1;
}

/// A fan-out that cannot start its threads runs on the calling thread and
/// returns the same results.
TEST(FanOutSpawnFailureDeathTest, RunsOnTheCallerWhenNoThreadCanStart) {
  if (thread_start_failure::kSanitizedBuild) {
    GTEST_SKIP() << "sanitizer runtimes map more address space than the "
                    "limit leaves";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::_Exit(fan_out_without_thread_stacks()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace dbp
