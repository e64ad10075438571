// How a library fan-out decides between its sequential and parallel code
// paths. Both paths are required to be bit-identical; the policy only picks
// the faster one, so callers can default to kAdaptive without thinking.
//
// The adaptive cutoffs exist because parallel_map is not free even when it
// ends up running on one thread: the OpenMP region, the dynamic scheduler,
// and the per-job std::optional result slots cost ~18% on the OPT_total
// uniform-5000 workload (BENCH_perf.json recorded 1748 ms parallel vs
// 1474 ms sequential with a 1-worker budget — the regression this layer
// fixes). Sequential is therefore the right answer when the budget is one
// worker, when there are too few independent jobs to amortize the region
// startup, or when the jobs are so small (heavily deduplicated snapshots,
// few RLE runs each) that slot overhead dominates the work itself.
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

/// Below ~16 jobs the OpenMP region startup is visible against the work
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

/// The decision: should this fan-out use parallel_map? Pure function of its
/// arguments so tests can pin the truth table.
[[nodiscard]] bool should_parallelize(ExecutionPolicy policy,
                                      const ParallelWorkEstimate& estimate,
                                      int workers) noexcept;

[[nodiscard]] const char* to_string(ExecutionPolicy policy) noexcept;

/// Parses "sequential" | "parallel" | "adaptive" (the CLI --policy values);
/// throws PreconditionError on anything else.
[[nodiscard]] ExecutionPolicy parse_execution_policy(const std::string& name);

}  // namespace dbp::exec
