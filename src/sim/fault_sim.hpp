// Fault-injected simulation: replays an Instance against an online packer
// while executing a FaultPlan, with exact cost accounting on both the
// fault-free baseline and the post-fault run (docs/fault_model.md).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/fault.hpp"
#include "sim/simulator.hpp"

namespace dbp {

/// What the injector did during one faulted run.
struct FaultInjectionStats {
  /// Crash faults in the plan / crashes that found an open bin to kill.
  std::size_t crashes_requested = 0;
  std::size_t crashes_landed = 0;
  /// Live items re-injected as fresh arrivals after their bin crashed.
  std::size_t sessions_redispatched = 0;
  /// Anomalous events synthesized and fed to the admission check.
  std::size_t anomalies_injected = 0;
  /// Anomalous events the admission check refused, by injected kind. Every
  /// injected anomaly must land here: the instance itself is clean, so
  /// total_dropped() == anomalies_injected on a correct run.
  std::array<std::uint64_t, kAnomalyKindCount> anomalies_dropped{};

  [[nodiscard]] std::uint64_t dropped(AnomalyKind kind) const noexcept {
    return anomalies_dropped[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t count : anomalies_dropped) total += count;
    return total;
  }
};

/// Baseline + faulted accounting for one (instance, algorithm, plan) cell.
struct FaultSimulationResult {
  SimulationResult faulted;   ///< the run with the plan executed
  SimulationResult baseline;  ///< the same packer, fault-free
  /// faulted.total_cost / baseline.total_cost — exact, per run. Can dip
  /// below 1: a crash acts as a forced repack, which occasionally
  /// consolidates a fragmented fleet.
  double cost_inflation_ratio = 1.0;
  FaultInjectionStats stats;
};

/// Core faulted replay. On a bin crash at time t the victim's live items
/// depart at t (closing its cost accrual) and immediately re-arrive, in
/// ascending item-id order, as fresh online arrivals at t — re-dispatch
/// without migration, preserving the online contract. Every event passes the
/// admission check of core/fault.hpp, which GameServerDispatcher shares:
/// anomalous events are counted and never reach the packer, and an instance
/// event it refuses (e.g. an item larger than the bin) is a
/// PreconditionError.
///
/// With an empty plan this performs exactly the operations of simulate():
/// the results are bit-identical. Clairvoyant packers are rejected
/// (re-dispatch is an online notion).
[[nodiscard]] SimulationResult simulate_faulted(const Instance& instance,
                                                Packer& packer,
                                                const FaultPlan& plan,
                                                FaultInjectionStats* stats = nullptr);

/// Convenience wrapper: runs the fault-free baseline and the faulted run
/// with fresh packers of the named algorithm and reports the exact
/// cost-inflation ratio.
[[nodiscard]] FaultSimulationResult simulate_with_faults(
    const Instance& instance, const std::string& algorithm,
    const CostModel& model, const FaultPlan& plan,
    const PackerOptions& options = {});

}  // namespace dbp
