// OpenMP-parallel parameter sweeps.
//
// Experiment harnesses build a flat list of independent jobs (one per sweep
// cell / seed) and map them in parallel. Results land at the job's index, so
// output order is deterministic regardless of the schedule.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/worker_budget.hpp"

#if defined(DBP_HAVE_OPENMP)
#include <omp.h>
#endif

namespace dbp {

/// Number of worker threads parallel_map will use from this thread:
/// exec::WorkerBudget::effective() when OpenMP is compiled in, and 1
/// without it, since the OpenMP fan-outs then run sequentially.
[[nodiscard]] inline int parallel_worker_count() {
#if defined(DBP_HAVE_OPENMP)
  return exec::WorkerBudget::effective();
#else
  return 1;
#endif
}

/// Applies `fn(job)` to every element of `jobs` in parallel and returns the
/// results in order. `fn` must be safe to call concurrently on distinct
/// jobs. The first exception to be *captured* by any job is rethrown after
/// the loop; once one job has thrown, jobs that have not yet started are
/// skipped (a cancellation flag is checked at iteration start), so an
/// early failure does not pay for the rest of the sweep.
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
  std::vector<Result> results;
  if (jobs.empty()) return results;
  std::vector<std::optional<Result>> slots(jobs.size());
  std::exception_ptr error;
  std::atomic<bool> cancelled{false};

  // One fan-out decision per map, delegated to the worker-budget layer: a
  // 1-worker budget, a held WorkerLease, or an enclosing active parallel
  // region (nested map) all serialize the loop instead of paying for an
  // OpenMP team that cannot help.
  const bool fan_out = jobs.size() > 1 && parallel_worker_count() > 1;
  // Signed induction variable: unsigned ones break OpenMP 2.0 / MSVC builds.
  const auto job_count = static_cast<std::ptrdiff_t>(jobs.size());
#if defined(DBP_HAVE_OPENMP)
#pragma omp parallel for schedule(dynamic) if (fan_out)
#else
  (void)fan_out;
#endif
  for (std::ptrdiff_t i = 0; i < job_count; ++i) {  // NOLINT(modernize-loop-convert)
    if (cancelled.load(std::memory_order_relaxed)) continue;
    const auto index = static_cast<std::size_t>(i);
    try {
      slots[index].emplace(fn(jobs[index]));
    } catch (...) {
      cancelled.store(true, std::memory_order_relaxed);
#if defined(DBP_HAVE_OPENMP)
#pragma omp critical(dbp_parallel_map_error)
#endif
      {
        if (!error) error = std::current_exception();
      }
    }
  }
  if (error) std::rethrow_exception(error);
  results.reserve(jobs.size());
  for (std::optional<Result>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

/// Caps the worker count for subsequent parallel_map calls (CLI --threads
/// plumbing). Delegates to the process-wide exec::WorkerBudget; `threads`
/// <= 0 restores the runtime default.
inline void set_parallel_worker_count(int threads) {
  exec::WorkerBudget::set(threads);
}

}  // namespace dbp
