// The online packing simulator: replays an Instance's events against a
// Packer and produces exact total-cost accounting.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "algo/packer.hpp"
#include "core/instance.hpp"
#include "core/step_function.hpp"
#include "core/types.hpp"
#include "sim/event.hpp"

namespace dbp {

/// Everything measured about one packing run.
struct SimulationResult {
  std::string algorithm;

  /// A_total(R) = C * integral of n(t) dt over the packing period.
  double total_cost = 0.0;
  /// Same quantity accounted per bin: C * sum of len(I_i). The simulator
  /// verifies both accountings agree to relative 1e-9.
  double total_cost_from_bins = 0.0;

  /// max_t n(t): the classical DBP objective, reported for comparison with
  /// the Coffman-Garey-Johnson setting.
  std::int64_t max_open_bins = 0;
  std::size_t bins_opened = 0;

  /// Usage period [opened, closed) of every bin, indexed by BinId.
  std::vector<BinUsageRecord> bin_usage;
  /// assignment[item id] = bin id.
  std::vector<BinId> assignment;
  /// n(t), finalized.
  StepFunction open_bins_over_time;

  TimeInterval packing_period{};

  /// Items grouped by bin: result[bin id] = item ids assigned to that bin
  /// in arrival order. Derived on demand.
  [[nodiscard]] std::vector<std::vector<ItemId>> items_by_bin() const;
};

/// Runs `packer` over `instance` (packer must be freshly constructed).
/// The packer only ever sees ArrivingItem slices — the online contract is
/// structural, not advisory.
[[nodiscard]] SimulationResult simulate(const Instance& instance, Packer& packer);

/// Same run over a caller-provided event sequence (must be exactly
/// build_event_sequence(instance)); lets repeated runs over one instance —
/// algorithm comparisons, benchmarks — pay the event sort once.
[[nodiscard]] SimulationResult simulate(const Instance& instance,
                                        std::span<const Event> events,
                                        Packer& packer);

/// The packer event loop alone: drives `packer` (clairvoyant-aware) over a
/// prebuilt event sequence with no result accounting. This is the
/// steady-state hot path — with reserve_hint() called first it performs
/// zero heap allocations (tests/zero_alloc_test.cpp pins that).
void replay_events(const Instance& instance, std::span<const Event> events,
                   Packer& packer);

/// Convenience: build the named packer and simulate.
[[nodiscard]] SimulationResult simulate(const Instance& instance,
                                        const std::string& algorithm,
                                        const CostModel& model,
                                        const PackerOptions& options = {});

namespace detail {

/// Shared result finalization for simulate() and simulate_faulted():
/// finalize_bin_accounting, then the per-item assignment from the manager's
/// history (item ids are the instance's).
void finalize_accounting(SimulationResult& result, const Instance& instance,
                         const BinManager& bins);

/// The bin half of finalize_accounting: copies usage records and computes
/// both cost accountings (and checks they agree to relative 1e-9); leaves
/// `result.assignment` alone. Requires every bin to be closed. A dispatcher
/// run, whose packer items are session slots, uses this and records the
/// assignment from start_session's return values.
void finalize_bin_accounting(SimulationResult& result, const BinManager& bins);

}  // namespace detail

}  // namespace dbp
