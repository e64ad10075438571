// The library's one fan-out: a fork-join over std::threads started for the
// call. parallel_map and estimate_opt_total's evaluate phase run through
// it, so its rules are the rules of every parallel code path in the
// library. No thread outlives the call.
#pragma once

#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/worker_budget.hpp"

namespace dbp::exec {

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
