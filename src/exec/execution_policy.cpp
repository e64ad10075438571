#include "exec/execution_policy.hpp"

#include "core/error.hpp"

namespace dbp::exec {

bool should_parallelize(ExecutionPolicy policy,
                        const ParallelWorkEstimate& estimate,
                        int workers) noexcept {
  if (estimate.jobs < 2) return false;  // nothing to fan out
  switch (policy) {
    case ExecutionPolicy::kSequential:
      return false;
    case ExecutionPolicy::kParallel:
      // Unconditional by design: the differential suite uses this to drive
      // the fan-out path even on a 1-worker budget.
      return true;
    case ExecutionPolicy::kAdaptive:
      return workers > 1 && estimate.jobs >= kMinParallelJobs &&
             estimate.work_units >= kMinParallelWorkUnits;
  }
  return false;
}

const char* to_string(ExecutionPolicy policy) noexcept {
  switch (policy) {
    case ExecutionPolicy::kSequential:
      return "sequential";
    case ExecutionPolicy::kParallel:
      return "parallel";
    case ExecutionPolicy::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

ExecutionPolicy parse_execution_policy(const std::string& name) {
  if (name == "sequential") return ExecutionPolicy::kSequential;
  if (name == "parallel") return ExecutionPolicy::kParallel;
  if (name == "adaptive") return ExecutionPolicy::kAdaptive;
  DBP_REQUIRE(false, "unknown execution policy '" + name +
                         "' (expected sequential, parallel, or adaptive)");
  return ExecutionPolicy::kAdaptive;  // unreachable
}

}  // namespace dbp::exec
