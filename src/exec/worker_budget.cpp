#include "exec/worker_budget.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>

namespace dbp::exec {

namespace {

int affinity_cpu_count() noexcept {
  cpu_set_t cpus{};
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 1;
  return std::clamp(CPU_COUNT(&cpus), 1, WorkerBudget::kMaxWorkers);
}

std::atomic<int> g_budget{0};  // 0 = available()

thread_local int t_lease_depth = 0;

}  // namespace

void WorkerBudget::set(int workers) noexcept {
  g_budget.store(std::clamp(workers, 0, kMaxWorkers), std::memory_order_relaxed);
}

int WorkerBudget::budget() noexcept {
  return g_budget.load(std::memory_order_relaxed);
}

int WorkerBudget::available() noexcept {
  static const int cpus = affinity_cpu_count();
  return cpus;
}

int WorkerBudget::effective() noexcept {
  if (WorkerLease::held()) return 1;
  const int configured = budget();
  return configured > 0 ? configured : available();
}

WorkerLease::WorkerLease() noexcept { ++t_lease_depth; }

WorkerLease::~WorkerLease() { --t_lease_depth; }

bool WorkerLease::held() noexcept { return t_lease_depth > 0; }

}  // namespace dbp::exec
