#include "opt/lower_bounds.hpp"

#include <algorithm>
#include <cmath>

#include "core/arena.hpp"
#include "core/compensated_sum.hpp"
#include "core/error.hpp"

namespace dbp {

std::size_t guarded_ceil(double x) {
  if (x <= 0.0) return 0;
  const double guarded = x * (1.0 - 1e-12);
  return static_cast<std::size_t>(std::ceil(guarded));
}

std::size_t l2_lower_bound_rle(std::span<const SizeRun> runs, const CostModel& model,
                               MonotonicArena& scratch) {
  model.validate();
  rle_validate(runs, model);
  const std::size_t d = runs.size();
  if (d == 0) return 0;
  const std::span<std::uint64_t> cum = scratch.allocate_array<std::uint64_t>(d + 1);
  const std::span<double> boundary = scratch.allocate_array<double>(d + 1);
  const double capacity = model.bin_capacity + model.fit_tolerance;
  const double half = capacity / 2.0;

  // Boundary prefix sums: boundary[j] is the compensated sum after the first
  // j runs, produced by the same per-item add sequence the flat algorithm
  // uses, so the values match prefix[cum[j]] bitwise.
  cum[0] = 0;
  boundary[0] = 0.0;
  {
    CompensatedSum sum;
    for (std::size_t j = 0; j < d; ++j) {
      for (std::uint64_t i = 0; i < runs[j].count; ++i) sum.add(runs[j].size);
      cum[j + 1] = cum[j] + runs[j].count;
      boundary[j + 1] = sum.value();
    }
  }
  const std::uint64_t n = cum[d];

  // Item count of elements strictly larger than `bound` = items of every run
  // before the first run with size <= bound. Returns the *run* index.
  const auto first_run_le = [&](double bound) {
    return static_cast<std::size_t>(
        std::lower_bound(runs.begin(), runs.end(), bound,
                         [](const SizeRun& run, double b) { return run.size > b; }) -
        runs.begin());
  };

  const std::size_t half_run = first_run_le(half);  // first run with size <= half
  const std::uint64_t n12 = cum[half_run];          // |S1| + |S2|
  std::size_t best = 0;

  // Candidate alphas: 0 plus every distinct size <= capacity/2 — exactly the
  // runs from half_run on (runs are strictly decreasing, hence distinct).
  for (std::size_t a = half_run; a <= d; ++a) {
    const bool trivial = a == d;  // the alpha = 0 candidate
    const double alpha = trivial ? 0.0 : runs[a].size;
    const std::size_t n1_run = first_run_le(capacity - alpha);
    const std::uint64_t n1 = cum[n1_run];
    // S3 ends at the last run with size >= alpha; for alpha = 0 that is n.
    const std::uint64_t s3_end = trivial ? n : cum[a + 1];
    if (s3_end < n12) continue;
    const std::uint64_t n2 = n12 - n1;
    const double sum_s2 = boundary[half_run] - boundary[n1_run];
    const double sum_s3 =
        (trivial ? boundary[d] : boundary[a + 1]) - boundary[half_run];
    const double spare_in_s2_bins = static_cast<double>(n2) * capacity - sum_s2;
    const std::size_t extra = guarded_ceil((sum_s3 - spare_in_s2_bins) / capacity);
    best = std::max(best, static_cast<std::size_t>(n12) + extra);
  }

  // L1 fallback over all items; boundary[d] equals the flat total bitwise.
  const std::size_t l1 =
      std::max<std::size_t>(1, guarded_ceil(boundary[d] / capacity));
  return std::max(best, l1);
}

}  // namespace dbp
