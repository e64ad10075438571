// E11 — throughput microbenchmarks (google-benchmark).
//
// Measures the engineering half of the library: packer event throughput
// (items/sec) per algorithm and scale, the bin-count oracle and its
// branch-and-bound search, the OPT_total estimator, and the CRC-32 kernel
// every wire frame and durable record goes through.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/arena.hpp"
#include "core/crc32.hpp"
#include "exec/worker_budget.hpp"
#include "opt/bin_count.hpp"
#include "opt/exact.hpp"
#include "opt/opt_total.hpp"
#include "opt/rle.hpp"
#include "sim/simulator.hpp"
#include "support/flat_bin_count.hpp"
#include "support/opt_total_reference.hpp"
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

// The flat bin-count chain (the test oracle in support/flat_bin_count.hpp)
// on `active` continuous sizes.
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

// Epoch 20 of servebench's opt_dense_epochs stream (seed 7, pass 5): L2 is
// 5, min(FFD, BFD) and the minimum-bin-slack witness are 6, and the search
// proves 6.
std::vector<double> dense_epoch_proof_sizes() {
  return {0.46199923905757112,  0.41873479919668632,  0.39713670250615674,
          0.38438132503459133,  0.3815657907357653,   0.33689384113839688,
          0.32237908702751017,  0.30364170478396663,  0.29035731896276656,
          0.27630812393550752,  0.2500218742304362,   0.21647848107790896,
          0.18973939958074082,  0.1893551912523318,   0.1659921904507847,
          0.16471762486288385,  0.070477615768579333, 0.065703133307765227,
          0.061770794976926849, 0.050094778546414663};
}

// Epoch 35 of servebench's mixed_json_openloop stream (seed 7, pass 0), the
// merged snapshot of both shards: L2 is 52 and min(FFD, BFD) and the
// witness are 53. The search uses up its whole budget without closing it.
std::vector<double> openloop_exhausted_sizes() {
  return {
      0.49914323058479448, 0.49693233775849632, 0.49667075045413106,
      0.48999305363124368, 0.48608452688585047, 0.48015571455466677,
      0.4799661347061977, 0.47968224846927732, 0.47842757661396107,
      0.47797219427519683, 0.47570590468773183, 0.47418192244595508,
      0.47401497584606461, 0.47301122725711953, 0.47092460823442261,
      0.47088073290619548, 0.46530466742090759, 0.46527749611270819,
      0.46074613608844539, 0.45749155041228906, 0.45681044434626583,
      0.45399994541992894, 0.45340804167801341, 0.45113005732357825,
      0.44925615607120439, 0.44687766052253669, 0.4465105951390077,
      0.44607162208445755, 0.44452412043777761, 0.44394782253931203,
      0.44025249334771593, 0.4395974812963101, 0.43931211817642629,
      0.43562755808671338, 0.42957541033093322, 0.42794871885096142,
      0.42614960244336436, 0.42541678975525038, 0.42296622604433098,
      0.42280924271595166, 0.42250900162384836, 0.42213062328854778,
      0.41979077312702495, 0.41955176681260259, 0.4192813507821595,
      0.41418187629303632, 0.41235332919339412, 0.41011630181774794,
      0.40648600340945135, 0.4036377995193588, 0.40259792342398726,
      0.3982707248786162, 0.39650258139828559, 0.39584895938744086,
      0.39407236412318952, 0.39129582611580133, 0.38993706139101653,
      0.38991899441119687, 0.38907206931707311, 0.38400699715874126,
      0.38287278270214659, 0.38144013629302004, 0.38137092927081179,
      0.37859850319530913, 0.37672499701804163, 0.37592623503077005,
      0.37549266750659799, 0.3691181431093169, 0.36439223786826413,
      0.36380852409292286, 0.36149214018761838, 0.35523332147111453,
      0.35487366083109434, 0.35378551054205043, 0.35322319704097283,
      0.34702015480475829, 0.34401158913895974, 0.3426798939717195,
      0.33807671561872898, 0.33690476610407838, 0.33522697212874486,
      0.33470667922860581, 0.33335660027479846, 0.33243652144133518,
      0.33097258346591019, 0.32852569302795481, 0.32499243666480998,
      0.32453092933326499, 0.32412782707971438, 0.32091395914602244,
      0.31355410383328447, 0.30593531556992343, 0.30121000718686347,
      0.29903020673390124, 0.29697596797957188, 0.29425343461181508,
      0.29248241785835705, 0.28907920214843219, 0.28686682666012253,
      0.28253408520981066, 0.28240025921639894, 0.28200808289277496,
      0.2772361038845752, 0.27557634625452943, 0.26271982234311225,
      0.25621764233224448, 0.25610515733709394, 0.25598022704553181,
      0.25505771695962037, 0.25435737997781915, 0.25356216565174705,
      0.24994310249475366, 0.24295040953599439, 0.24146467107893582,
      0.23834456560121992, 0.23569671456144614, 0.23295802457549952,
      0.23120340777374437, 0.22101006783601673, 0.21871192743753254,
      0.21153894522470124, 0.20870721636235029, 0.20534372042804,
      0.19959890835627409, 0.19787676167528417, 0.19582296622436385,
      0.19458462006016569, 0.19209515742107469, 0.19076202110864826,
      0.18579252894333675, 0.18540875565278603, 0.18505216151187615,
      0.18395823239809461, 0.17699963812666675, 0.16861957043931564,
      0.16662951223997036, 0.16419811530013378, 0.16265798464505199,
      0.16077029629478079, 0.15661754381232207, 0.15102710464330171,
      0.1503911350705795, 0.15026016027052125, 0.1450761547274067,
      0.14173576203273897, 0.13806683892408389, 0.13548642757482832,
      0.13456896767515783, 0.13399529290281875, 0.12737982839208012,
      0.12484673212661226, 0.11164332955809206, 0.1107335080548999,
      0.10123915849686549, 0.098687598778784497, 0.097979057683683229,
      0.097130603458517373, 0.09308596248748563, 0.086123994603872878,
      0.081168145301549255, 0.071573380484528076, 0.070161523955646385,
      0.06783344628334935, 0.067521452959767594, 0.065998459751968289,
      0.065299317225848669, 0.063367630564232891, 0.060694704010057887,
      0.054391018434093052, 0.050393011956951138};
}

// Branch-and-bound alone at its default 200k-node budget, started where the
// bin-count chain starts it: from L2 and the witness's bin count.
void BM_ExactSearch(benchmark::State& state, const std::vector<double>& sizes) {
  const CostModel model{1.0, 0.1, 1e-9};  // a served ServerSpec{1.0, 6.0}
  BinCountOptions witness_only;
  witness_only.exact.node_budget = 1;
  const std::size_t lower = l2_lower_bound_sorted(sizes, model);
  const std::size_t upper = optimal_bin_count(sizes, model, witness_only).upper;
  MonotonicArena arena;
  ExactPackingResult result;
  for (auto _ : state) {
    arena.reset();
    result = exact_bin_count_bounded(sizes, model, lower, upper, {}, arena);
    benchmark::DoNotOptimize(result.upper);
  }
  state.counters["nodes"] = static_cast<double>(result.nodes);
  state.counters["proven"] = result.proven ? 1.0 : 0.0;
}
BENCHMARK_CAPTURE(BM_ExactSearch, dense_epoch_proof, dense_epoch_proof_sizes())
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK_CAPTURE(BM_ExactSearch, openloop_exhausted, openloop_exhausted_sizes())
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

void RunOptTotal(benchmark::State& state, const Instance& instance) {
  const CostModel model = unit_model();
  OptTotalOptions options;
  options.bin_count.exact.node_budget = 20'000;
  for (auto _ : state) {
    const OptTotalResult result = estimate_opt_total(instance, model, options);
    benchmark::DoNotOptimize(result.lower_cost);
  }
}

void BM_OptTotal(benchmark::State& state) {
  RunOptTotal(state, make_instance(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_OptTotal)->Arg(1'000)->Arg(5'000)->Unit(benchmark::kMillisecond)->MinTime(0.05);

// A held lease leaves the estimate one worker: the sequential path.
void BM_OptTotalSequential(benchmark::State& state) {
  const exec::WorkerLease lease;
  RunOptTotal(state, make_instance(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_OptTotalSequential)->Arg(5'000)->Unit(benchmark::kMillisecond)->MinTime(0.05);

void BM_OptTotalDyadic(benchmark::State& state) {
  RunOptTotal(state,
              make_dyadic_instance(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_OptTotalDyadic)->Arg(1'000)->Arg(5'000)->Unit(benchmark::kMillisecond)->MinTime(0.05);

// Pre-fast-path estimator kept as the differential-test specification
// (support/opt_total_reference.hpp); benchmarked so the speedup of the RLE + dedup + parallel pipeline is a
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

// 34 B is one binary submit payload (checked once per frame on the serving
// path); 4 KiB and 1 MiB are journal-flush and checkpoint sized.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  std::uint32_t x = 0x9E3779B9U;
  for (std::uint8_t& byte : bytes) {
    x = x * 1664525U + 1013904223U;
    byte = static_cast<std::uint8_t>(x >> 24);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytes.data());
    benchmark::DoNotOptimize(crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(34)->Arg(4 << 10)->Arg(1 << 20)->MinTime(0.05);

}  // namespace

int main(int argc, char** argv) {
  RegisterPackerBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
