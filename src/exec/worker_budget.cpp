#include "exec/worker_budget.hpp"

#include <algorithm>
#include <atomic>

#if defined(DBP_HAVE_OPENMP)
#include <omp.h>
#endif

namespace dbp::exec {

namespace {

/// The runtime default, captured once before any budget override. Meyers
/// singleton so the capture races with nothing: set() reads it before the
/// first omp_set_num_threads.
int runtime_default() noexcept {
#if defined(DBP_HAVE_OPENMP)
  static const int initial = std::max(1, omp_get_max_threads());
  return initial;
#else
  return 1;
#endif
}

std::atomic<int> g_budget{0};  // 0 = runtime default

thread_local int t_lease_depth = 0;

}  // namespace

void WorkerBudget::set(int workers) noexcept {
  (void)runtime_default();  // capture the default before overriding it
  if (workers <= 0) workers = 0;
  workers = std::min(workers, kMaxWorkers);
  g_budget.store(workers, std::memory_order_relaxed);
#if defined(DBP_HAVE_OPENMP)
  omp_set_num_threads(workers > 0 ? workers : runtime_default());
#endif
}

int WorkerBudget::budget() noexcept {
  return g_budget.load(std::memory_order_relaxed);
}

int WorkerBudget::available() noexcept { return runtime_default(); }

int WorkerBudget::effective() noexcept {
  if (in_parallel_region() || WorkerLease::held()) return 1;
  const int configured = budget();
  if (configured > 0) return std::min(configured, kMaxWorkers);
#if defined(DBP_HAVE_OPENMP)
  // omp_get_max_threads already reflects set()'s omp_set_num_threads, but
  // consulting the budget first keeps an explicit cap right even if
  // third-party code fiddled with the ICV behind our back.
  return std::max(1, omp_get_max_threads());
#else
  return available();
#endif
}

bool WorkerBudget::in_parallel_region() noexcept {
#if defined(DBP_HAVE_OPENMP)
  // omp_in_parallel is true only for *active* (multi-thread) regions; a
  // serialized `parallel for if(false)` does not count, which is exactly
  // right — a serialized outer sweep leaves the budget unclaimed.
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

WorkerLease::WorkerLease() noexcept { ++t_lease_depth; }

WorkerLease::~WorkerLease() { --t_lease_depth; }

bool WorkerLease::held() noexcept { return t_lease_depth > 0; }

}  // namespace dbp::exec
