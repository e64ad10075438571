#include "obs/obs.hpp"

#include <chrono>

namespace dbp::obs {

namespace detail {

constinit thread_local ObsContext g_context{};

}  // namespace detail

namespace {

/// The one steady-clock read in the library. Everything that wants elapsed
/// time goes through PhaseStopwatch and therefore through this TU; objects
/// outside src/obs referencing a clock symbol fail dbp_symcheck.
[[nodiscard]] double steady_now_ms() noexcept {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

}  // namespace

void PhaseStopwatch::begin() noexcept {
  if (active_) start_ms_ = steady_now_ms();
}

double PhaseStopwatch::elapsed_ms() const noexcept {
  if (!active_) return 0.0;
  return steady_now_ms() - start_ms_;
}

}  // namespace dbp::obs
