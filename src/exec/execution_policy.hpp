// How a library fan-out decides between its sequential and parallel code
// paths. Both paths are required to be bit-identical; the policy only picks
// the faster one, so callers can default to kAdaptive without thinking.
//
// The adaptive cutoffs exist because a fan-out is not free: exec::fork_join
// starts its threads on every call (a two-thread fork-join costs ~65-78 µs
// of wall time on a 4-vCPU guest), and its workers share one job index.
// Sequential is therefore the right answer when the budget is one worker,
// when there are too few independent jobs to amortize starting threads, or
// when the jobs are so small (heavily deduplicated snapshots, few RLE runs
// each) that the fan-out's fixed cost dominates the work itself.
#pragma once

#include <cstddef>
#include <string>

namespace dbp::exec {

enum class ExecutionPolicy {
  kSequential,  ///< never fan out (reference behavior, nested contexts)
  kParallel,    ///< always fan out when >1 job (differential-test coverage)
  kAdaptive,    ///< fan out only when the budget and job mix can amortize it
};

/// What the caller knows about the fan-out it is about to run. `work_units`
/// is a caller-chosen proxy for total work — estimate_opt_total passes the
/// total RLE-run count across pending snapshots, so a thousand trivially
/// small snapshots do not look like a thousand heavyweight jobs.
struct ParallelWorkEstimate {
  std::size_t jobs = 0;
  std::size_t work_units = 0;
};

/// Below ~16 jobs starting a fan-out is visible against the work
/// (bench_perf_micro, BM_OptTotal* on 5000-item instances). Below 2^15
/// total RLE runs the evaluate phase takes a few milliseconds at most, the
/// same order as what a fan-out costs when a worker is slow to start:
/// dbp_bench_report's dyadic 300-item instance (3,243 runs, ~0.7 ms
/// sequential) ran up to 6x slower fanned out. The dyadic 2000-item
/// instance (21,690 runs) now evaluates sequentially too; the uniform ones
/// (40,660 runs and up) still fan out (docs/performance.md "Adaptive
/// execution policy"). The sequential path is never wrong, only
/// occasionally a little slower on hardware we could have used.
inline constexpr std::size_t kMinParallelJobs = 16;
inline constexpr std::size_t kMinParallelWorkUnits = std::size_t{1} << 15;

/// The decision: should this fan-out start threads? Pure function of its
/// arguments so tests can pin the truth table.
[[nodiscard]] bool should_parallelize(ExecutionPolicy policy,
                                      const ParallelWorkEstimate& estimate,
                                      int workers) noexcept;

[[nodiscard]] const char* to_string(ExecutionPolicy policy) noexcept;

/// Parses "sequential" | "parallel" | "adaptive" (the CLI --policy values);
/// throws PreconditionError on anything else.
[[nodiscard]] ExecutionPolicy parse_execution_policy(const std::string& name);

}  // namespace dbp::exec
