// Reference OPT_total estimator: the specification the fast pipeline in
// src/opt/opt_total.cpp is differentially tested against. A test oracle,
// kept out of the library.
//
// Maintains the active multiset as a plain std::multiset<double>, takes a
// flat O(active items) snapshot per segment, evaluates every distinct
// snapshot through the flat optimal_bin_count (support/flat_bin_count.hpp:
// the `_sorted` kernels and the per-item witness — none of the RLE code
// the fast path runs), strictly sequentially, and integrates segment by
// segment in chronological order, the order OptTotalIntegrator sums in.
// estimate_opt_total must return bit-identical results
// (tests/opt_total_differential_test.cpp); dbp_bench_report and
// bench_perf_micro time the two side by side so the speedup stays
// measured, not asserted.
#pragma once

#include "opt/opt_total.hpp"

namespace dbp {

/// Sequential reference estimator; the bin_count options apply as in
/// estimate_opt_total.
[[nodiscard]] OptTotalResult estimate_opt_total_reference(
    const Instance& instance, const CostModel& model,
    const OptTotalOptions& options = {});

}  // namespace dbp
