// Reference OPT_total estimator: the specification the fast pipeline in
// opt_total.cpp is differentially tested against.
//
// Maintains the active multiset as a plain std::multiset<double>, takes a
// flat O(active items) snapshot per segment, evaluates every distinct
// snapshot through the flat optimal_bin_count (the `_sorted` kernels and
// exact_bin_count — none of the RLE code the fast path runs), strictly
// sequentially, and integrates segment by segment in chronological order,
// the order OptTotalIntegrator sums in. estimate_opt_total must return
// bit-identical results (tests/opt_total_differential_test.cpp);
// bench_perf_micro benchmarks the two side by side so the speedup stays
// measured, not asserted.
#pragma once

#include "opt/opt_total.hpp"

namespace dbp {

/// Sequential reference estimator. Ignores OptTotalOptions::policy; only
/// bin_count options apply.
[[nodiscard]] OptTotalResult estimate_opt_total_reference(
    const Instance& instance, const CostModel& model,
    const OptTotalOptions& options = {});

}  // namespace dbp
