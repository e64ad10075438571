// Certified bounds on OPT_total(R) (paper Section 3.2).
//
// OPT(R, t) — the minimum number of bins into which the items active at
// time t can be repacked — is piecewise constant between events, so
//   OPT_total(R) = sum over inter-event segments of opt(active) * len * C
// is computed *exactly* whenever the per-segment bin-count oracle proves
// optimality; otherwise certified [lower, upper] interval bounds are
// integrated instead.
//
// One path from bounds to dollars: OptTotalIntegrator below is shared by
// estimate_opt_total and the streaming engine's epochs (engine/engine.hpp),
// so an engine with an epoch at every event boundary reproduces the batch
// integral bit for bit.
//
// Batch pipeline (three phases, deterministic end to end):
//   1. A sequential event sweep maintains the active multiset run-length
//      encoded (distinct size -> count), records every segment in
//      chronological order, and keeps one copy per *distinct* snapshot —
//      adversarial/cyclic workloads revisit the same active set constantly.
//   2. The distinct snapshots are evaluated through optimal_bin_count_rle,
//      in parallel when the worker budget and the job mix can amortize a
//      fan-out (exec::should_parallelize).
//   3. A sequential combine feeds every segment's bounds, in chronological
//      order, through the integrator, so results are bit-identical run to
//      run regardless of worker count.
#pragma once

#include <cstddef>

#include "core/compensated_sum.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/types.hpp"
#include "opt/bin_count.hpp"

namespace dbp {

struct OptTotalResult {
  /// Integral bounds: lower_cost <= OPT_total(R) <= upper_cost.
  double lower_cost = 0.0;
  double upper_cost = 0.0;
  /// True when every evaluated segment was proven optimal (lower == upper).
  bool exact = false;

  /// The paper's closed-form lower bounds (b.1) and (b.2) for reference;
  /// `lower_cost` always dominates their max.
  CostBounds closed_form{};

  /// Number of distinct time segments evaluated and how many were exact.
  std::size_t segments = 0;
  std::size_t exact_segments = 0;

  /// Bounds on max_t OPT(R, t): the *classical* DBP objective (Coffman,
  /// Garey & Johnson), computed in the same sweep. Lets experiments relate
  /// the MinTotal objective to the classical max-bins one (paper Section 2).
  std::size_t max_bins_lower = 0;
  std::size_t max_bins_upper = 0;

  /// Distinct active-set snapshots after merging duplicate segments;
  /// dedup_hits = segments - distinct_snapshots (segments whose bounds were
  /// reused for free).
  std::size_t distinct_snapshots = 0;
  std::size_t dedup_hits = 0;

  /// Execution metadata, not part of the mathematical result (the
  /// differential suite compares every field above this line, never these):
  /// which path phase 2 took and how many workers it used. On a 1-worker
  /// budget these read {false, 1}.
  bool evaluate_parallel = false;
  int evaluate_workers = 1;
};

/// Phase 2 fans out (exec::fork_join) only when the worker budget and the
/// pending job mix can amortize the fan-out overhead
/// (exec::should_parallelize); under a WorkerLease it runs on the calling
/// thread. The combine is sequential either way, so results are
/// bit-identical across worker counts.
struct OptTotalOptions {
  BinCountOptions bin_count{};
};

/// Integrates per-segment bin-count bounds into OPT_total dollars — the one
/// path both estimate_opt_total and the streaming engine take. Segments are
/// added in chronological order; each adds bounds x width (minutes) to a
/// compensated sum, and the cost rate is applied once, when the integral is
/// read. A segment counts only when its width is positive and its fleet is
/// non-empty: zero-length epochs and idle gaps add nothing, not even to
/// segments(). An empty fleet is recognised by its bounds, {0, 0}, since
/// every non-empty multiset needs at least one bin.
class OptTotalIntegrator {
 public:
  explicit OptTotalIntegrator(double cost_rate) noexcept : cost_rate_(cost_rate) {}

  void add(BinCountBounds bounds, double width) noexcept;

  [[nodiscard]] double lower_cost() const noexcept { return lower_.value() * cost_rate_; }
  [[nodiscard]] double upper_cost() const noexcept { return upper_.value() * cost_rate_; }
  [[nodiscard]] std::size_t segments() const noexcept { return segments_; }
  [[nodiscard]] std::size_t exact_segments() const noexcept { return exact_segments_; }

 private:
  double cost_rate_;
  CompensatedSum lower_;
  CompensatedSum upper_;
  std::size_t segments_ = 0;
  std::size_t exact_segments_ = 0;
};

/// Walks the instance's event sequence, maintaining the active size multiset
/// run-length encoded, and integrates the per-segment bin-count bounds.
/// O(E log d) sweep + one bin-count evaluation per distinct snapshot, for E
/// event batches and d distinct sizes.
[[nodiscard]] OptTotalResult estimate_opt_total(const Instance& instance,
                                                const CostModel& model,
                                                const OptTotalOptions& options = {});

/// Bounds on the competitive ratio A_total / OPT_total given a measured
/// algorithm cost and an OPT estimate.
struct RatioBounds {
  double lower = 0.0;  ///< algorithm_cost / opt.upper_cost
  double upper = 0.0;  ///< algorithm_cost / opt.lower_cost
};

[[nodiscard]] RatioBounds competitive_ratio_bounds(double algorithm_cost,
                                                   const OptTotalResult& opt);

}  // namespace dbp
