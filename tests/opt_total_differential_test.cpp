// Differential tests for the fast OPT_total pipeline.
//
// estimate_opt_total (RLE snapshots, dedup, parallel segment evaluation)
// must reproduce the reference estimator (support/opt_total_reference.hpp)
// bit for bit — not approximately: the fast path is engineered to replay
// the reference's floating-point operation sequence exactly, and these
// tests are the contract.
#include "opt/opt_total.hpp"

#include <gtest/gtest.h>

#include "exec/worker_budget.hpp"
#include "support/opt_total_reference.hpp"
#include "workload/adversary_anyfit.hpp"
#include "workload/adversary_bestfit.hpp"
#include "workload/random_instance.hpp"
#include "workload/transform.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

/// Bit-identical comparison: EXPECT_EQ on doubles is exact, which is the
/// point — the fast path replays the reference's FP operation sequence.
void expect_bit_identical(const OptTotalResult& fast,
                          const OptTotalResult& reference) {
  EXPECT_EQ(fast.lower_cost, reference.lower_cost);
  EXPECT_EQ(fast.upper_cost, reference.upper_cost);
  EXPECT_EQ(fast.exact, reference.exact);
  EXPECT_EQ(fast.segments, reference.segments);
  EXPECT_EQ(fast.exact_segments, reference.exact_segments);
  EXPECT_EQ(fast.distinct_snapshots, reference.distinct_snapshots);
  EXPECT_EQ(fast.dedup_hits, reference.dedup_hits);
  EXPECT_EQ(fast.max_bins_lower, reference.max_bins_lower);
  EXPECT_EQ(fast.max_bins_upper, reference.max_bins_upper);
  EXPECT_EQ(fast.closed_form.demand_lower, reference.closed_form.demand_lower);
  EXPECT_EQ(fast.closed_form.span_lower, reference.closed_form.span_lower);
}

/// Restores the runtime-default budget no matter how a test exits.
struct BudgetGuard {
  ~BudgetGuard() { exec::WorkerBudget::set(0); }
};

/// Under worker budgets 1, 2 and 8 the estimate must reproduce the
/// reference bit for bit — the budget only chooses *where* snapshots are
/// evaluated, never *what* is computed. A `fans_out` instance is large
/// enough for the adaptive rule to fan the evaluate phase out whenever the
/// budget allows, so the parallel path is taken, not just permitted.
void expect_differential_match(const Instance& instance,
                               const OptTotalOptions& options = {},
                               bool fans_out = false) {
  const BudgetGuard guard;
  const OptTotalResult reference =
      estimate_opt_total_reference(instance, unit_model(), options);
  for (const int threads : {1, 2, 8}) {
    exec::WorkerBudget::set(threads);
    const OptTotalResult result = estimate_opt_total(instance, unit_model(), options);
    expect_bit_identical(result, reference);
    // The budget caps what the estimator may claim to have used.
    EXPECT_LE(result.evaluate_workers, threads);
    if (fans_out && threads > 1) {
      EXPECT_TRUE(result.evaluate_parallel) << "budget " << threads;
      EXPECT_EQ(result.evaluate_workers, threads);
    }
  }
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

Instance dyadic_burst_instance(std::size_t items, std::uint64_t seed) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.kind = ArrivalModel::Kind::kBursts;
  config.arrival.burst_size = 16;
  config.arrival.burst_gap = 0.5;
  config.duration.max_length = 6.0;
  config.size.kind = SizeModel::Kind::kDyadic;
  config.size.min_exponent = 1;
  config.size.max_exponent = 5;
  return generate_random_instance(config, seed);
}

/// Emulates a crash at time `t`: every item alive across `t` departs and
/// immediately re-arrives (the fault-recovery layer's re-dispatch shape).
/// Doubles the event count at `t` and creates revisited snapshots.
Instance split_at(const Instance& instance, Time t) {
  Instance out;
  out.reserve(instance.size());
  for (const Item& item : instance.items()) {
    if (item.arrival < t && t < item.departure) {
      out.add(item.arrival, t, item.size);
      out.add(t, item.departure, item.size);
    } else {
      out.add(item.arrival, item.departure, item.size);
    }
  }
  return out;
}

TEST(OptTotalDifferentialTest, SeededRandomUniform) {
  for (const std::uint64_t seed : {1u, 7u, 31u, 99u}) {
    expect_differential_match(uniform_instance(400, seed), {}, /*fans_out=*/true);
  }
}

TEST(OptTotalDifferentialTest, DyadicBurstsBatchedEqualTimes) {
  // Burst arrivals exercise the batched-event path; dyadic sizes compress
  // heavily, so this is also the workload where snapshot dedup fires.
  for (const Instance& instance :
       {dyadic_burst_instance(600, 3), dyadic_burst_instance(400, 31)}) {
    const OptTotalResult fast = estimate_opt_total(instance, unit_model());
    EXPECT_GT(fast.dedup_hits, 0u);
    expect_differential_match(instance);
  }
}

TEST(OptTotalDifferentialTest, AnyFitAdversaryTheorem1) {
  AnyFitAdversaryConfig config;
  config.k = 8;
  config.mu = 4.0;
  expect_differential_match(build_anyfit_adversary(config).instance);
}

TEST(OptTotalDifferentialTest, BestFitAdversaryTheorem2) {
  BestFitAdversaryConfig config;
  config.k = 4;
  config.mu = 4.0;
  expect_differential_match(build_bestfit_adversary(config).instance);
}

TEST(OptTotalDifferentialTest, ChaosRecoveredInstances) {
  const Instance base = uniform_instance(300, 11);
  const TimeInterval period = base.packing_period();
  const Time mid = 0.5 * (period.begin + period.end);
  const Instance crashed = split_at(split_at(base, mid), 0.75 * period.end);
  expect_differential_match(crashed);
  expect_differential_match(reverse_time(crashed));
  expect_differential_match(
      overlay(crashed, scale_time(base, 1.0, 0.25 * period.end)));
}

TEST(OptTotalDifferentialTest, WithoutExactSolver) {
  OptTotalOptions options;
  options.bin_count.use_exact_solver = false;
  expect_differential_match(uniform_instance(400, 5), options, /*fans_out=*/true);
}

TEST(OptTotalDifferentialTest, DeterministicAcrossWorkerCounts) {
  const BudgetGuard guard;
  const Instance instance = dyadic_burst_instance(500, 21);
  exec::WorkerBudget::set(1);
  const OptTotalResult one = estimate_opt_total(instance, unit_model());
  exec::WorkerBudget::set(4);
  const OptTotalResult four = estimate_opt_total(instance, unit_model());
  expect_bit_identical(four, one);
}

TEST(OptTotalDifferentialTest, ReferenceCountersMatchFastPath) {
  const Instance instance = dyadic_burst_instance(300, 2);
  const OptTotalResult reference =
      estimate_opt_total_reference(instance, unit_model());
  EXPECT_EQ(reference.dedup_hits,
            reference.segments - reference.distinct_snapshots);
}

}  // namespace
}  // namespace dbp
