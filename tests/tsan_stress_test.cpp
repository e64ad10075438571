// Thread-safety stress suite, written for the DBP_SANITIZE=thread build
// (ctest -L tsan). It hammers the surfaces the library documents as
// thread-safe: parallel_map's job index, cancellation flag and exception
// capture, with several maps fanning out at once (each map's
// exec::fork_join starts kThreads - 1 threads of its own, the same code
// release builds run); MetricsRegistry's relaxed atomics and
// registration mutex; RunTracer's ring buffer; and concurrent
// estimate_opt_total calls with per-thread observability contexts. The
// suite also runs (and must pass) in plain builds.
#include <atomic>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.hpp"
#include "exec/parallel_map.hpp"
#include "exec/worker_budget.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "obs/run_tracer.hpp"
#include "opt/bin_count.hpp"
#include "opt/opt_total.hpp"

namespace dbp {
namespace {

constexpr int kThreads = 4;
constexpr int kIterations = 200;

void run_on_threads(const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
}

/// Fans every map out to kThreads workers, whatever the host's CPU count.
struct FanOutBudget {
  FanOutBudget() { exec::WorkerBudget::set(kThreads); }
  ~FanOutBudget() { exec::WorkerBudget::set(0); }
  FanOutBudget(const FanOutBudget&) = delete;
  FanOutBudget& operator=(const FanOutBudget&) = delete;
};

Instance make_instance(std::uint64_t seed) {
  Instance instance;
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < 120; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(state >> 11) /
                     static_cast<double>(1ULL << 53);
    const Time arrival = u * 50.0;
    instance.add(arrival, arrival + 1.0 + u * 10.0, 0.05 + 0.9 * u);
  }
  return instance;
}

TEST(TsanStress, ParallelMapConcurrentThrowAndCancel) {
  // Several threads each run a parallel_map whose jobs race a shared
  // counter and one of which throws; the cancellation flag and the
  // exception slot are the surfaces under test.
  const FanOutBudget budget;
  run_on_threads([](int t) {
    for (int iter = 0; iter < kIterations / 4; ++iter) {
      std::vector<int> jobs(64);
      for (int j = 0; j < 64; ++j) jobs[static_cast<std::size_t>(j)] = j;
      std::atomic<int> touched{0};
      const int poison = (iter + t) % 64;
      try {
        parallel_map(jobs, [&](int job) {
          touched.fetch_add(1, std::memory_order_relaxed);
          if (job == poison) throw std::runtime_error("poisoned job");
          return job * 2;
        });
        FAIL() << "parallel_map swallowed the poisoned job's exception";
      } catch (const std::runtime_error& err) {
        EXPECT_STREQ(err.what(), "poisoned job");
      }
      EXPECT_GE(touched.load(), 1);
    }
  });
}

TEST(TsanStress, ParallelMapConcurrentCleanRuns) {
  const FanOutBudget budget;
  run_on_threads([](int) {
    for (int iter = 0; iter < kIterations / 4; ++iter) {
      std::vector<int> jobs(32);
      for (int j = 0; j < 32; ++j) jobs[static_cast<std::size_t>(j)] = j;
      const std::vector<int> doubled = parallel_map(jobs, [](int job) {
        return job * 2;
      });
      ASSERT_EQ(doubled.size(), jobs.size());
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(doubled[j], jobs[j] * 2);
      }
    }
  });
}

TEST(TsanStress, MetricsRegistryConcurrentHammering) {
  obs::MetricsRegistry registry;
  run_on_threads([&](int t) {
    // Shared names force registration races; per-thread names force
    // concurrent growth of the storage deques.
    obs::Counter& shared = registry.counter("stress.shared");
    for (int iter = 0; iter < kIterations; ++iter) {
      shared.add();
      registry.counter("stress.thread." + std::to_string(t)).add();
      registry.counter("stress.mod." + std::to_string(iter % 5)).add(2);
      registry.gauge("stress.gauge").set(static_cast<double>(iter));
      registry.timer("stress.timer").record_ms(0.25);
      (void)registry.counter_value("stress.shared");
      (void)registry.timer_stats("stress.timer");
    }
  });
  EXPECT_EQ(registry.counter_value("stress.shared"),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  const auto stats = registry.timer_stats("stress.timer");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->count, static_cast<std::uint64_t>(kThreads) * kIterations);
  std::ostringstream out;
  registry.write_text(out, false);
  EXPECT_NE(out.str().find("stress.shared"), std::string::npos);
}

TEST(TsanStress, RunTracerConcurrentRecording) {
  obs::RunTracer tracer(1u << 10);  // small ring: eviction races included
  run_on_threads([&](int t) {
    for (int iter = 0; iter < kIterations; ++iter) {
      obs::TraceRecord record;
      record.kind = obs::TraceKind::kArrival;
      record.item = static_cast<ItemId>(t * kIterations + iter);
      tracer.record(std::move(record));
      if (iter % 32 == 0) (void)tracer.snapshot();
    }
  });
  EXPECT_EQ(tracer.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(tracer.size() + tracer.dropped(), tracer.total_recorded());
}

TEST(TsanStress, ConcurrentOptTotalWithThreadLocalObs) {
  // Each thread runs the full estimator with its own tracer and metrics;
  // the thread-local ObsScope must keep the contexts isolated.
  std::vector<OptTotalResult> results(kThreads);
  run_on_threads([&](int t) {
    const Instance instance = make_instance(0x9E3779B97F4A7C15ULL);
    const CostModel model{};
    obs::RunTracer tracer;
    obs::MetricsRegistry metrics;
    obs::ObsScope scope(&tracer, &metrics);
    results[static_cast<std::size_t>(t)] = estimate_opt_total(instance, model);
    EXPECT_GT(tracer.total_recorded(), 0u);
  });
  // Identical input on every thread: the results must agree bit-for-bit.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[0].lower_cost, results[static_cast<std::size_t>(t)].lower_cost);
    EXPECT_EQ(results[0].upper_cost, results[static_cast<std::size_t>(t)].upper_cost);
    EXPECT_EQ(results[0].segments, results[static_cast<std::size_t>(t)].segments);
  }
}

}  // namespace
}  // namespace dbp
