// dbp_fuzz — seeded randomized stress harness.
//
// Usage:
//   dbp_fuzz [--rounds=N] [--seed=S] [--items=MAX] [--no-chaos]
//
// Each round draws a random workload configuration and seed, runs every
// algorithm with paranoid Any Fit checking where applicable, recomputes the
// accounting independently, validates the paper's closed-form bounds and
// the OPT sandwich, and (for First Fit) the Section 4.3 invariants. Unless
// --no-chaos is given, each round then replays the instance under a random
// FaultPlan (crashes + anomalous events) and checks that the cost
// accounting invariants survive recovery. Each round also checks the
// bin-count chain against exhaustive enumeration: a few dozen multisets of
// at most 10 sizes, half on a 0.05 grid (whose exact fills leave rounding
// residues) and half continuous, whose optimum under CostModel::fits is
// enumerated here; the flat exact_bin_count (support/flat_bin_count.hpp)
// and the library's optimal_bin_count_rle must bracket it. And each round fuzzes the durability journal codec: a journal
// encoded by the real JournalWriter is truncated, bit-flipped, spliced and
// garbage-extended, and the scanner must return exactly the intact record
// prefix or a typed CorruptionError — it must never crash and never accept
// a damaged record. On any violation it prints the offending (round, seed)
// so the failure is reproducible, and exits non-zero. Used as a
// long-running robustness soak beyond what the unit-test sweeps cover.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <vector>

#include "algo/any_fit_packer.hpp"
#include "algo/strategies.hpp"
#include "analysis/ff_decomposition.hpp"
#include "cli.hpp"
#include "durability/journal.hpp"
#include "exec/worker_budget.hpp"
#include "core/metrics.hpp"
#include "core/strfmt.hpp"
#include "opt/bin_count.hpp"
#include "opt/opt_total.hpp"
#include "opt/rle.hpp"
#include "sim/fault_sim.hpp"
#include "sim/simulator.hpp"
#include "support/flat_bin_count.hpp"
#include "workload/fault_schedule.hpp"
#include "workload/random_instance.hpp"
#include "workload/rng.hpp"

namespace {

constexpr const char* kUsage =
    "usage: dbp_fuzz [--rounds=N] [--seed=S] [--items=MAX] [--threads=N]\n"
    "                [--no-chaos]\n";

using namespace dbp;

RandomInstanceConfig random_config(Rng& rng, std::size_t max_items) {
  RandomInstanceConfig config;
  config.item_count = 20 + rng.uniform_int(0, max_items - 20);
  config.duration.kind = static_cast<DurationModel::Kind>(rng.uniform_int(0, 4));
  config.duration.min_length = rng.uniform(0.1, 2.0);
  config.duration.max_length =
      config.duration.min_length * rng.uniform(1.0, 20.0);
  config.duration.log_mean = rng.uniform(-1.0, 1.0);
  if (rng.bernoulli(0.4)) {
    config.arrival.kind = ArrivalModel::Kind::kBursts;
    config.arrival.burst_size = 2 + rng.uniform_int(0, 30);
    config.arrival.burst_gap = rng.uniform(0.05, 4.0);
  } else {
    config.arrival.rate = rng.uniform(0.5, 50.0);
  }
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      const double lo = rng.uniform(0.005, 0.4);
      config.size.kind = SizeModel::Kind::kUniform;
      config.size.min_fraction = lo;
      config.size.max_fraction = rng.uniform(lo, 1.0);
      break;
    }
    case 1:
      config.size.kind = SizeModel::Kind::kDyadic;
      config.size.min_exponent = 1;
      config.size.max_exponent = 1 + static_cast<int>(rng.uniform_int(0, 7));
      break;
    default:
      config.size.kind = SizeModel::Kind::kDiscrete;
      config.size.fractions = {0.1, 1.0 / 3.0, 0.5, 0.7};
      break;
  }
  config.pin_mu_extremes = rng.bernoulli(0.5);
  return config;
}

/// Replays the instance under a random FaultPlan for every online
/// algorithm and checks that the accounting invariants — the per-bin vs
/// integral agreement and the closed-form lower bounds, both of which
/// survive crash re-dispatch — still hold after recovery.
bool run_chaos_round(std::uint64_t round, std::uint64_t seed,
                     const Instance& instance, const CostModel& model,
                     const CostBounds& closed, const InstanceMetrics& metrics,
                     Rng& rng) {
  const double crash_rate = rng.uniform(0.01, 0.15);
  const double anomaly_rate = rng.uniform(0.0, 0.05);
  const auto target = static_cast<CrashTarget>(rng.uniform_int(0, 4));
  const FaultPlan plan = make_poisson_fault_plan(
      instance.packing_period(), crash_rate, anomaly_rate, target,
      seed ^ 0xC4A05);

  bool ok = true;
  const auto fail = [&](const std::string& what) {
    std::cerr << strfmt("FUZZ CHAOS FAILURE round=%llu seed=%llu: %s\n",
                        static_cast<unsigned long long>(round),
                        static_cast<unsigned long long>(seed), what.c_str());
    ok = false;
  };

  PackerOptions options;
  options.known_mu = metrics.mu;
  options.seed = seed;
  for (const std::string& name : all_algorithm_names()) {
    const FaultSimulationResult cell =
        simulate_with_faults(instance, name, model, plan, options);
    const double scale =
        std::max({std::abs(cell.faulted.total_cost),
                  std::abs(cell.faulted.total_cost_from_bins), 1.0});
    if (std::abs(cell.faulted.total_cost - cell.faulted.total_cost_from_bins) >
        1e-9 * scale) {
      fail(name + " accounting invariant broken after fault recovery");
    }
    // Every session is still served over its full interval (re-dispatch is
    // instantaneous), so the demand and span lower bounds still apply.
    if (cell.faulted.total_cost < closed.demand_lower * (1.0 - 1e-9)) {
      fail(name + " beat the demand bound (b.1) under faults");
    }
    if (cell.faulted.total_cost < closed.span_lower * (1.0 - 1e-9)) {
      fail(name + " beat the span bound (b.2) under faults");
    }
    if (!(cell.cost_inflation_ratio > 0.0) ||
        !std::isfinite(cell.cost_inflation_ratio)) {
      fail(name + " produced a non-finite cost inflation ratio");
    }
    if (cell.stats.total_dropped() != cell.stats.anomalies_injected) {
      fail(name + " guard dropped a different count than was injected");
    }
  }
  return ok;
}

/// The fewest bins `sizes` packs into, by trying every assignment of the
/// items (in order) to the bins opened so far or to a new one, under
/// CostModel::fits against each bin's running level. Exponential: meant for
/// at most ~10 items.
std::size_t enumerated_bin_count(const std::vector<double>& sizes,
                                 const CostModel& model) {
  std::size_t best = sizes.size();
  std::vector<double> levels;
  const auto place = [&](auto&& self, std::size_t index) -> void {
    if (levels.size() >= best) return;
    if (index == sizes.size()) {
      best = levels.size();
      return;
    }
    // By index: deeper calls push onto `levels` and may reallocate it.
    for (std::size_t bin = 0; bin < levels.size(); ++bin) {
      if (model.fits(sizes[index], model.bin_capacity - levels[bin])) {
        levels[bin] += sizes[index];
        self(self, index + 1);
        levels[bin] -= sizes[index];
      }
    }
    levels.push_back(sizes[index]);
    self(self, index + 1);
    levels.pop_back();
  };
  place(place, 0);
  return best;
}

/// Checks the bin-count chain's certified bounds against enumeration on
/// small multisets. A bound past the optimum is a wrong certificate, which
/// the OPT_total checks of run_round cannot see: one bin too many on a few
/// segments moves no integral past a closed-form bound or a packer's cost.
bool run_bin_count_round(std::uint64_t round, std::uint64_t seed) {
  constexpr int kMultisets = 48;
  Rng rng(seed ^ 0xB1AC0D7ULL);
  const CostModel model{1.0, 1.0, 1e-9};
  BinCountScratch scratch;
  bool ok = true;
  for (int draw = 0; draw < kMultisets; ++draw) {
    const bool grid = draw % 2 == 0;
    std::vector<double> sizes(1 + rng.uniform_int(0, 9));
    for (double& size : sizes) {
      size = grid ? 0.05 * static_cast<double>(rng.uniform_int(1, 14))
                  : rng.uniform(0.02, 0.7);
    }
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    const std::size_t optimum = enumerated_bin_count(sizes, model);
    const ExactPackingResult search = exact_bin_count(sizes, model);
    const BinCountBounds chain =
        optimal_bin_count_rle(rle_from_sorted(sizes), model, {}, scratch);
    const auto check = [&](const char* who, std::size_t lower, std::size_t upper) {
      if (lower <= optimum && optimum <= upper) return;
      std::cerr << strfmt(
          "FUZZ BIN-COUNT FAILURE round=%llu seed=%llu draw=%d: %s certified "
          "[%zu, %zu] for %zu %s sizes packing into %zu bins\n",
          static_cast<unsigned long long>(round),
          static_cast<unsigned long long>(seed), draw, who, lower, upper,
          sizes.size(), grid ? "grid" : "continuous", optimum);
      ok = false;
    };
    check("exact_bin_count", search.lower, search.upper);
    check("optimal_bin_count_rle", chain.lower, chain.upper);
  }
  return ok;
}

/// Fuzzes the journal decoder: encode a random event stream through the
/// real JournalWriter, then mutate the bytes and require scan_journal_bytes
/// to return exactly the intact record prefix or throw CorruptionError —
/// never crash, never accept a record the writer did not produce intact.
bool run_journal_fuzz_round(std::uint64_t round, std::uint64_t seed) {
  namespace dur = durability;
  Rng rng(seed ^ 0x70511F1EDULL);
  bool ok = true;
  const auto fail = [&](const std::string& what) {
    std::cerr << strfmt("FUZZ JOURNAL FAILURE round=%llu seed=%llu: %s\n",
                        static_cast<unsigned long long>(round),
                        static_cast<unsigned long long>(seed), what.c_str());
    ok = false;
  };

  // Ground truth: a dense event stream encoded by the production writer.
  const std::uint64_t stream_id = rng.uniform_int(0, ~std::uint64_t{0});
  const std::size_t count = 1 + rng.uniform_int(0, 39);
  const std::uint64_t base_seq = rng.bernoulli(0.5) ? 0 : rng.uniform_int(1, 500);
  std::vector<dur::JournalEvent> truth(count);
  for (std::size_t i = 0; i < count; ++i) {
    truth[i].seq = base_seq + i;
    truth[i].kind = static_cast<dur::JournalEventKind>(rng.uniform_int(1, 3));
    truth[i].time = rng.uniform(0.0, 1000.0);
    truth[i].subject = rng.uniform_int(0, 1'000'000);
    truth[i].size = rng.uniform(0.0, 1.0);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       strfmt("dbp_fuzz_journal.%llu.%llu.dbpj",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(round)))
          .string();
  std::filesystem::remove(path);
  {
    dur::JournalWriter writer(path, stream_id);
    for (const dur::JournalEvent& event : truth) writer.append(event);
    writer.flush();
  }
  const std::vector<std::uint8_t> bytes = dur::detail::read_file(path);
  std::filesystem::remove(path);
  DBP_REQUIRE((bytes.size() - dur::kJournalHeaderBytes) % count == 0,
              "journal records are not fixed-size");
  const std::size_t record_size =
      (bytes.size() - dur::kJournalHeaderBytes) / count;

  // Clean decode must round-trip exactly.
  {
    const dur::JournalScan scan = dur::scan_journal_bytes(bytes);
    if (scan.stream_id != stream_id) fail("clean scan lost the stream id");
    if (scan.events != truth) fail("clean scan did not round-trip");
    if (scan.torn_tail || scan.valid_bytes != bytes.size()) {
      fail("clean scan reported damage");
    }
  }

  /// Expect exactly the first `prefix` ground-truth records, with damage.
  const auto expect_prefix = [&](const std::vector<std::uint8_t>& mutated,
                                 std::size_t prefix, const char* what) {
    try {
      const dur::JournalScan scan = dur::scan_journal_bytes(mutated);
      if (scan.events.size() != prefix ||
          !std::equal(scan.events.begin(), scan.events.end(), truth.begin())) {
        fail(std::string(what) + ": accepted records beyond the intact prefix");
        return;
      }
      if (scan.valid_bytes !=
          dur::kJournalHeaderBytes + prefix * record_size) {
        fail(std::string(what) + ": wrong valid-prefix length");
      }
      if (!scan.torn_tail && mutated.size() != scan.valid_bytes) {
        fail(std::string(what) + ": damage not reported as a torn tail");
      }
    } catch (const CorruptionError&) {
      fail(std::string(what) + ": intact-prefix damage escalated to "
                               "CorruptionError");
    }
  };
  const auto expect_refusal = [&](const std::vector<std::uint8_t>& mutated,
                                  const char* what) {
    try {
      (void)dur::scan_journal_bytes(mutated);
      fail(std::string(what) + ": decoder accepted unrecoverable bytes");
    } catch (const CorruptionError&) {
      // expected: typed refusal, not a crash and not a fabricated scan
    }
  };

  // Truncation at any byte: crashes can only shorten the file.
  for (int i = 0; i < 4; ++i) {
    const std::size_t cut = rng.uniform_int(0, bytes.size());
    std::vector<std::uint8_t> mutated(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    if (cut < dur::kJournalHeaderBytes) {
      expect_refusal(mutated, "truncation inside header");
    } else {
      expect_prefix(mutated, (cut - dur::kJournalHeaderBytes) / record_size,
                    "truncation");
    }
  }

  // Single bit flips: damage inside record r ends the valid prefix at r.
  for (int i = 0; i < 4; ++i) {
    const std::size_t at = rng.uniform_int(0, bytes.size() - 1);
    std::vector<std::uint8_t> mutated = bytes;
    mutated[at] ^= static_cast<std::uint8_t>(1U << rng.uniform_int(0, 7));
    if (at < dur::kJournalHeaderBytes) {
      expect_refusal(mutated, "header bit flip");
    } else {
      expect_prefix(mutated, (at - dur::kJournalHeaderBytes) / record_size,
                    "record bit flip");
    }
  }

  // Garbage appended past the last record: a torn tail, nothing accepted.
  {
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t extra = 1 + rng.uniform_int(0, 63);
    for (std::size_t i = 0; i < extra; ++i) {
      mutated.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    expect_prefix(mutated, count, "garbage tail");
  }

  // Splicing out a middle record leaves CRC-valid records with a sequence
  // break — impossible as a crash artifact, so the file must be refused.
  if (count >= 3) {
    const std::size_t victim = 1 + rng.uniform_int(0, count - 3);
    std::vector<std::uint8_t> mutated = bytes;
    const auto start = static_cast<long>(dur::kJournalHeaderBytes +
                                         victim * record_size);
    mutated.erase(mutated.begin() + start,
                  mutated.begin() + start + static_cast<long>(record_size));
    expect_refusal(mutated, "spliced-out record");
  }

  // Arbitrary garbage is never a journal.
  {
    std::vector<std::uint8_t> garbage(rng.uniform_int(0, 200));
    for (std::uint8_t& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    expect_refusal(garbage, "random garbage");
  }
  return ok;
}

bool run_round(std::uint64_t round, std::uint64_t seed, std::size_t max_items,
               bool chaos) {
  Rng rng(seed);
  const RandomInstanceConfig config = random_config(rng, max_items);
  const Instance instance = generate_random_instance(config, seed ^ 0xABCDEF);
  const CostModel model{1.0, 1.0, 1e-9};
  const CostBounds closed = compute_cost_bounds(instance, model);
  const InstanceMetrics metrics = compute_metrics(instance);

  OptTotalOptions opt_options;
  opt_options.bin_count.exact.node_budget = 2'000;
  const OptTotalResult opt = estimate_opt_total(instance, model, opt_options);

  bool ok = true;
  const auto fail = [&](const std::string& what) {
    std::cerr << strfmt("FUZZ FAILURE round=%llu seed=%llu: %s\n",
                        static_cast<unsigned long long>(round),
                        static_cast<unsigned long long>(seed), what.c_str());
    ok = false;
  };

  if (opt.lower_cost > opt.upper_cost * (1.0 + 1e-9)) fail("OPT bounds crossed");
  if (opt.lower_cost < closed.lower() - 1e-9) fail("OPT below closed-form bound");

  PackerOptions packer_options;
  packer_options.known_mu = metrics.mu;
  packer_options.seed = seed;
  for (const std::string& name : all_algorithm_names()) {
    SimulationResult result;
    if (name == "first-fit" || name == "best-fit" || name == "worst-fit" ||
        name == "last-fit" || name == "move-to-front-fit") {
      // Paranoid variant proves the Any Fit contract per placement.
      std::unique_ptr<FitStrategy> strategy;
      if (name == "first-fit") strategy = std::make_unique<FirstFitStrategy>(model);
      if (name == "best-fit") strategy = std::make_unique<BestFitStrategy>(model);
      if (name == "worst-fit") strategy = std::make_unique<WorstFitStrategy>(model);
      if (name == "last-fit") strategy = std::make_unique<LastFitStrategy>(model);
      if (name == "move-to-front-fit") {
        strategy = std::make_unique<MoveToFrontStrategy>(model);
      }
      AnyFitPacker packer(model, std::move(strategy));
      packer.set_paranoid(true);
      result = simulate(instance, packer);
    } else {
      result = simulate(instance, name, model, packer_options);
    }
    if (result.total_cost < closed.demand_lower * (1.0 - 1e-9)) {
      fail(name + " beat the demand bound (b.1)");
    }
    if (result.total_cost < closed.span_lower * (1.0 - 1e-9)) {
      fail(name + " beat the span bound (b.2)");
    }
    if (result.total_cost > closed.one_per_item_upper * (1.0 + 1e-9)) {
      fail(name + " exceeded the one-bin-per-item bound (b.3)");
    }
    if (result.total_cost < opt.lower_cost * (1.0 - 1e-9)) {
      fail(name + " beat OPT");
    }
    if (name == "first-fit") {
      if (result.total_cost >
          (2.0 * metrics.mu + 13.0) * opt.upper_cost * (1.0 + 1e-9)) {
        fail("first-fit exceeded the Theorem 5 bound");
      }
      const FFDecomposition d = decompose_first_fit(instance, result);
      const DecompositionReport report =
          verify_ff_decomposition(instance, result, d, model);
      if (!report.all_ok()) {
        fail("FF decomposition invariant: " + report.violations.front());
      }
    }
  }
  if (chaos &&
      !run_chaos_round(round, seed, instance, model, closed, metrics, rng)) {
    ok = false;
  }
  if (!run_bin_count_round(round, seed)) ok = false;
  if (!run_journal_fuzz_round(round, seed)) ok = false;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dbp::cli::Args args(argc, argv,
                              {"rounds", "seed", "items", "threads", "no-chaos"},
                              kUsage);
    // Strict --threads (shared cli.hpp parsing): a pinned budget makes fuzz
    // wall-clock and scheduling comparable across machines with different
    // core counts; results are bit-identical either way.
    dbp::exec::WorkerBudget::set(args.get_thread_count());
    const std::uint64_t rounds = args.get_u64("rounds", 25);
    const std::uint64_t base_seed = args.get_u64("seed", 1);
    const std::size_t max_items = args.get_u64("items", 600);
    const bool chaos = !args.has("no-chaos");

    std::size_t failures = 0;
    for (std::uint64_t round = 0; round < rounds; ++round) {
      if (!run_round(round, base_seed + round * 0x9E3779B9ULL, max_items,
                     chaos)) {
        ++failures;
      }
    }
    std::cout << dbp::strfmt("dbp_fuzz: %llu rounds, %zu failures\n",
                             static_cast<unsigned long long>(rounds), failures);
    return failures == 0 ? 0 : 2;
  } catch (const std::exception& error) {
    std::cerr << "dbp_fuzz: " << error.what() << "\n";
    return 1;
  }
}
