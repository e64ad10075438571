// Process-wide worker-budget accounting: the single source of truth for
// "how many threads may the next fan-out use".
//
// Before this layer existed, thread counts were scattered ad-hoc calls to
// omp_set_num_threads / omp_get_max_threads (sweep.hpp, the CLI tools) and
// every parallel site made its own nesting assumptions. WorkerBudget
// centralizes three questions:
//
//   * budget()    — what cap did the operator configure (--threads)?
//   * available() — what would the runtime give us by default?
//   * effective() — how many workers will the *next* fan-out actually get,
//                   accounting for nesting: inside an active OpenMP region
//                   (or under a WorkerLease) the answer is 1, because the
//                   team's threads are already busy running the outer
//                   sweep. This is how sweep-level parallelism (dbp_sweep
//                   cells) and snapshot-level parallelism (estimate_opt_total
//                   phase 2) are arbitrated instead of oversubscribing.
//
// The budget itself never influences results — every consumer is required
// to be bit-identical across worker counts (tests/opt_total_differential_test,
// tests/trace_neutrality_test) — it only decides how fast they arrive.
#pragma once

namespace dbp::exec {

class WorkerBudget {
 public:
  /// Mirror of cli::Args::kMaxThreads: anything larger is a config error
  /// upstream, so the budget silently clamps as a last line of defense.
  static constexpr int kMaxWorkers = 512;

  /// Sets the process-wide budget. `workers` <= 0 restores the runtime
  /// default (the thread count the process started with). Values above
  /// kMaxWorkers are clamped. Forwards to omp_set_num_threads when OpenMP
  /// is compiled in, so legacy omp call sites observe the same cap.
  static void set(int workers) noexcept;

  /// The configured cap; 0 means "runtime default" (never explicitly set,
  /// or reset via set(0)).
  [[nodiscard]] static int budget() noexcept;

  /// The runtime's default parallelism, captured before any set() call
  /// (OpenMP's initial max-threads; 1 without OpenMP).
  [[nodiscard]] static int available() noexcept;

  /// Workers the next parallel fan-out on this thread will get: 1 inside an
  /// active parallel region or under a WorkerLease (nested fan-outs run
  /// sequentially instead of oversubscribing), otherwise the budgeted count
  /// in every build, available() when none is set. A fan-out that needs
  /// OpenMP asks parallel_worker_count() instead, which is 1 without it.
  [[nodiscard]] static int effective() noexcept;

  /// True when the calling thread is part of an active (multi-thread)
  /// OpenMP team — i.e. an outer fan-out already owns the budget.
  [[nodiscard]] static bool in_parallel_region() noexcept;
};

/// RAII claim on the whole budget for an outer fan-out that OpenMP cannot
/// see (std::thread pools, external schedulers): while a lease is held on
/// this thread, effective() reports 1, so any library code called underneath
/// takes its sequential path. Leases nest; thread-local, so a lease on the
/// dispatching thread does not leak into unrelated threads.
class WorkerLease {
 public:
  WorkerLease() noexcept;
  ~WorkerLease();

  WorkerLease(const WorkerLease&) = delete;
  WorkerLease& operator=(const WorkerLease&) = delete;

  /// True when the calling thread holds at least one lease.
  [[nodiscard]] static bool held() noexcept;
};

}  // namespace dbp::exec
