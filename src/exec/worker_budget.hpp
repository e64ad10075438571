// Process-wide worker-budget accounting: the single source of truth for
// "how many threads may the next fan-out use".
//
// WorkerBudget centralizes three questions:
//
//   * budget()    — what cap did the operator configure (--threads)?
//   * available() — what would the process get by default?
//   * effective() — how many workers will the *next* fan-out actually get,
//                   accounting for nesting: under a WorkerLease the answer
//                   is 1, because an outer fan-out's threads are already
//                   busy. Every worker of an exec::fork_join holds one, so
//                   sweep-level parallelism (dbp_sweep cells) and
//                   snapshot-level parallelism (estimate_opt_total's
//                   evaluate phase) are arbitrated instead of
//                   oversubscribing.
//
// The budget itself never influences results — every consumer is required
// to be bit-identical across worker counts (tests/opt_total_differential_test,
// tests/trace_neutrality_test) — it only decides how fast they arrive.
#pragma once

namespace dbp::exec {

class WorkerBudget {
 public:
  /// The largest budget. --threads (tools/cli.hpp) rejects anything above
  /// it, and set() clamps to it as a last line of defense.
  static constexpr int kMaxWorkers = 512;

  /// Sets the process-wide budget. `workers` <= 0 restores the default,
  /// available(). Values above kMaxWorkers are clamped.
  static void set(int workers) noexcept;

  /// The configured cap; 0 means "default" (never explicitly set, or reset
  /// via set(0)).
  [[nodiscard]] static int budget() noexcept;

  /// The default parallelism: the CPUs in the process's affinity mask when
  /// first asked (two under `taskset -c 0,1`), at most kMaxWorkers; 1 when
  /// the mask cannot be read.
  [[nodiscard]] static int available() noexcept;

  /// Workers the next fan-out on this thread will get: 1 under a
  /// WorkerLease (nested fan-outs run sequentially instead of
  /// oversubscribing), otherwise the budget, or available() when none is
  /// set.
  [[nodiscard]] static int effective() noexcept;
};

/// RAII claim on the whole budget for an outer fan-out: while a lease is
/// held on this thread, effective() reports 1, so any library code called
/// underneath takes its sequential path. exec::fork_join takes one on every
/// worker; callers take their own around work they spread by other means.
/// Leases nest; thread-local, so a lease on the dispatching thread does not
/// leak into unrelated threads.
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
