// E11 — throughput microbenchmarks (google-benchmark).
//
// Measures the engineering half of the library: packer event throughput
// (items/sec) per algorithm and scale, the bin-count oracle, and the
// OPT_total estimator.
#include <benchmark/benchmark.h>

#include <cmath>

#include "opt/bin_count.hpp"
#include "opt/opt_total.hpp"
#include "opt/opt_total_reference.hpp"
#include "opt/rle.hpp"
#include "sim/simulator.hpp"
#include "workload/random_instance.hpp"

namespace {

using namespace dbp;

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

Instance make_instance(std::size_t items, std::uint64_t seed = 99) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 20.0;
  config.duration.max_length = 8.0;
  config.size.min_fraction = 0.02;
  config.size.max_fraction = 0.5;
  return generate_random_instance(config, seed);
}

// Dyadic sizes duplicate heavily, so RLE snapshots stay tiny and snapshot
// dedup fires; this is the workload the fast path is built for.
Instance make_dyadic_instance(std::size_t items, std::uint64_t seed = 99) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 20.0;
  config.duration.max_length = 8.0;
  config.size.kind = SizeModel::Kind::kDyadic;
  config.size.min_exponent = 1;
  config.size.max_exponent = 6;
  return generate_random_instance(config, seed);
}

void BM_Packer(benchmark::State& state, const std::string& algorithm) {
  const auto items = static_cast<std::size_t>(state.range(0));
  const Instance instance = make_instance(items);
  PackerOptions options;
  options.known_mu = 8.0;
  for (auto _ : state) {
    const SimulationResult result =
        simulate(instance, algorithm, unit_model(), options);
    benchmark::DoNotOptimize(result.total_cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items));
}

void RegisterPackerBenchmarks() {
  for (const std::string& name : all_algorithm_names()) {
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_Packer/" + name).c_str(),
        [name](benchmark::State& state) { BM_Packer(state, name); });
    bench->Arg(1'000)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond)->MinTime(0.05);
  }
}

void BM_BinCountOracle(benchmark::State& state) {
  const auto active = static_cast<std::size_t>(state.range(0));
  std::vector<double> sizes;
  Rng rng(5);
  for (std::size_t i = 0; i < active; ++i) {
    sizes.push_back(rng.uniform(0.02, 0.5));
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  const CostModel model = unit_model();
  BinCountOptions options;
  options.exact.node_budget = 20'000;
  for (auto _ : state) {
    const BinCountBounds bounds = optimal_bin_count(sizes, model, options);
    benchmark::DoNotOptimize(bounds.lower);
  }
}
BENCHMARK(BM_BinCountOracle)->Arg(32)->Arg(256)->Arg(2048)->MinTime(0.05);

// Same bin-count query posed through the RLE interface on a duplicated-size
// multiset: `active` items but only 6 distinct sizes. Compare against
// BM_BinCountOracle to see what multiplicity compression buys.
void BM_BinCountOracleRle(benchmark::State& state) {
  const auto active = static_cast<std::size_t>(state.range(0));
  std::vector<double> sizes;
  Rng rng(5);
  for (std::size_t i = 0; i < active; ++i) {
    const int exponent = static_cast<int>(rng.uniform_int(1, 6));
    sizes.push_back(std::ldexp(1.0, -exponent));
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  const std::vector<SizeRun> runs = rle_from_sorted(sizes);
  const CostModel model = unit_model();
  BinCountOptions options;
  options.exact.node_budget = 20'000;
  BinCountScratch scratch;
  for (auto _ : state) {
    const BinCountBounds bounds = optimal_bin_count_rle(runs, model, options, scratch);
    benchmark::DoNotOptimize(bounds.lower);
  }
}
BENCHMARK(BM_BinCountOracleRle)->Arg(32)->Arg(256)->Arg(2048)->MinTime(0.05);

void RunOptTotal(benchmark::State& state, const Instance& instance,
                 exec::ExecutionPolicy policy) {
  const CostModel model = unit_model();
  OptTotalOptions options;
  options.bin_count.exact.node_budget = 20'000;
  options.policy = policy;
  for (auto _ : state) {
    const OptTotalResult result = estimate_opt_total(instance, model, options);
    benchmark::DoNotOptimize(result.lower_cost);
  }
}

void BM_OptTotal(benchmark::State& state) {
  RunOptTotal(state, make_instance(static_cast<std::size_t>(state.range(0))),
              exec::ExecutionPolicy::kAdaptive);
}
BENCHMARK(BM_OptTotal)->Arg(1'000)->Arg(5'000)->Unit(benchmark::kMillisecond)->MinTime(0.05);

void BM_OptTotalSequential(benchmark::State& state) {
  RunOptTotal(state, make_instance(static_cast<std::size_t>(state.range(0))),
              exec::ExecutionPolicy::kSequential);
}
BENCHMARK(BM_OptTotalSequential)->Arg(5'000)->Unit(benchmark::kMillisecond)->MinTime(0.05);

void BM_OptTotalDyadic(benchmark::State& state) {
  RunOptTotal(state,
              make_dyadic_instance(static_cast<std::size_t>(state.range(0))),
              exec::ExecutionPolicy::kAdaptive);
}
BENCHMARK(BM_OptTotalDyadic)->Arg(1'000)->Arg(5'000)->Unit(benchmark::kMillisecond)->MinTime(0.05);

// Pre-fast-path estimator retained as the differential-test specification;
// benchmarked so the speedup of the RLE + dedup + parallel pipeline is a
// number in the report, not a claim.
void BM_OptTotalReference(benchmark::State& state) {
  const Instance instance =
      make_instance(static_cast<std::size_t>(state.range(0)));
  const CostModel model = unit_model();
  OptTotalOptions options;
  options.bin_count.exact.node_budget = 20'000;
  for (auto _ : state) {
    const OptTotalResult result =
        estimate_opt_total_reference(instance, model, options);
    benchmark::DoNotOptimize(result.lower_cost);
  }
}
BENCHMARK(BM_OptTotalReference)->Arg(1'000)->Arg(5'000)->Unit(benchmark::kMillisecond)->MinTime(0.05);

void BM_OptTotalReferenceDyadic(benchmark::State& state) {
  const Instance instance =
      make_dyadic_instance(static_cast<std::size_t>(state.range(0)));
  const CostModel model = unit_model();
  OptTotalOptions options;
  options.bin_count.exact.node_budget = 20'000;
  for (auto _ : state) {
    const OptTotalResult result =
        estimate_opt_total_reference(instance, model, options);
    benchmark::DoNotOptimize(result.lower_cost);
  }
}
BENCHMARK(BM_OptTotalReferenceDyadic)->Arg(1'000)->Arg(5'000)->Unit(benchmark::kMillisecond)->MinTime(0.05);

void BM_EventSequence(benchmark::State& state) {
  const Instance instance =
      make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_event_sequence(instance).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventSequence)->Arg(10'000)->Arg(100'000)->MinTime(0.05);

}  // namespace

int main(int argc, char** argv) {
  RegisterPackerBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
