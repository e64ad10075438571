// Parallel parameter sweeps.
//
// Experiment harnesses build a flat list of independent jobs (one per sweep
// cell / seed) and map them in parallel. Results land at the job's index, so
// output order is deterministic regardless of the schedule.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/fork_join.hpp"
#include "exec/worker_budget.hpp"

namespace dbp {

/// Applies `fn(job)` to every element of `jobs` in parallel and returns the
/// results in order. `fn` must be safe to call concurrently on distinct
/// jobs. Up to exec::WorkerBudget::effective() workers (one per job at
/// most) claim jobs through one atomic index, the calling thread among
/// them (exec::fork_join); one worker runs the loop on the caller. The
/// first exception to be *captured* by any job is rethrown after every
/// worker has stopped; once one job has thrown, jobs that have not yet
/// started are skipped (a cancellation flag is checked at iteration
/// start), so an early failure does not pay for the rest of the sweep.
///
/// Contract on the result type: results are constructed in place inside
/// std::optional slots, so `Result` must be move-constructible but does
/// NOT need to be default-constructible (and no default-constructed
/// "ghost" values can leak out of a throwing sweep).
template <typename Job, typename Fn>
auto parallel_map(const std::vector<Job>& jobs, Fn&& fn)
    -> std::vector<decltype(fn(jobs.front()))> {
  using Result = decltype(fn(jobs.front()));
  static_assert(std::is_move_constructible_v<Result>,
                "parallel_map results are moved out of their slots; the "
                "result type must be move-constructible (it need not be "
                "default-constructible)");
  std::vector<std::optional<Result>> slots(jobs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  const std::size_t workers = std::min(
      jobs.size(), static_cast<std::size_t>(exec::WorkerBudget::effective()));
  exec::fork_join(workers, [&](std::size_t) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < jobs.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      if (cancelled.load(std::memory_order_relaxed)) return;
      try {
        slots[i].emplace(fn(jobs[i]));
      } catch (...) {
        cancelled.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  });
  std::vector<Result> results;
  results.reserve(jobs.size());
  for (std::optional<Result>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace dbp
