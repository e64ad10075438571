// The library's one fan-out: a fork-join over std::threads started for the
// call. parallel_map and estimate_opt_total's evaluate phase run through
// it, so its rules are the rules of every parallel code path in the
// library. No thread outlives the call. should_parallelize below is the
// adaptive rule a caller consults before it fans out.
#pragma once

#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/worker_budget.hpp"

namespace dbp::exec {

/// What the caller knows about the fan-out it is about to run. `work_units`
/// is a caller-chosen proxy for total work — estimate_opt_total passes the
/// total RLE-run count across pending snapshots, so a thousand trivially
/// small snapshots do not look like a thousand heavyweight jobs.
struct ParallelWorkEstimate {
  std::size_t jobs = 0;
  std::size_t work_units = 0;
};

/// A fan-out is not free: fork_join starts its threads on every call (a
/// two-thread fork-join costs ~65-78 µs of wall time on a 4-vCPU guest),
/// and its workers share one job index. Below ~16 jobs starting a fan-out
/// is visible against the work (bench_perf_micro, BM_OptTotal* on
/// 5000-item instances). Below 2^15 total RLE runs the evaluate phase takes
/// a few milliseconds at most, the same order as what a fan-out costs when
/// a worker is slow to start: dbp_bench_report's dyadic 300-item instance
/// (3,243 runs, ~0.7 ms sequential) ran up to 6x slower fanned out. The
/// dyadic 2000-item instance (21,690 runs) evaluates sequentially too; the
/// uniform ones (40,660 runs and up) fan out (docs/performance.md
/// "Adaptive fan-out rule").
inline constexpr std::size_t kMinParallelJobs = 16;
inline constexpr std::size_t kMinParallelWorkUnits = std::size_t{1} << 15;

/// The adaptive rule: fan out only when there is help to be had (`workers`,
/// WorkerBudget::effective(), above 1) and the job mix can amortize
/// starting threads. Both paths must give bit-identical results; the rule
/// only picks the faster one, and the sequential path is never wrong, only
/// occasionally a little slower on hardware we could have used.
[[nodiscard]] constexpr bool should_parallelize(const ParallelWorkEstimate& estimate,
                                                int workers) noexcept {
  return workers > 1 && estimate.jobs >= kMinParallelJobs &&
         estimate.work_units >= kMinParallelWorkUnits;
}

/// Runs `block(w)` once for every w in [0, workers) and returns when all of
/// them have returned.
///   * Fewer than two workers run block(0) inline: no thread, no lease, no
///     allocation.
///   * Otherwise block 0 runs on the calling thread and blocks 1..workers-1
///     on std::threads. When a thread cannot start (std::system_error, e.g.
///     EAGAIN when no stack can be mapped), the caller runs the blocks that
///     have no thread after its own, so the fan-out degrades to the calling
///     thread instead of failing.
///   * Every block of a multi-worker call, the caller's included, runs under
///     a WorkerLease, so library code it calls takes its sequential path
///     instead of oversubscribing the budget.
///   * An exception escaping a block is kept; every started thread is
///     joined before the first one kept is rethrown.
/// Which thread runs a block must never change a result: callers give each
/// block its own output, or let blocks claim jobs through an atomic index.
template <typename Block>
void fork_join(std::size_t workers, const Block& block) {
  if (workers < 2) {
    block(std::size_t{0});
    return;
  }
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto run = [&](std::size_t w) {
    const WorkerLease lease;
    try {
      block(w);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  std::size_t unstarted = workers;  // first block no thread was started for
  try {
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(run, w);
  } catch (...) {
    unstarted = threads.size() + 1;
  }
  run(0);
  for (std::size_t w = unstarted; w < workers; ++w) run(w);
  for (std::thread& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dbp::exec
