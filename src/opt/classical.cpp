#include "opt/classical.hpp"

#include <algorithm>
#include <set>

#include "algo/segment_tree.hpp"
#include "core/error.hpp"

namespace dbp {

namespace {

std::vector<double> sorted_desc(std::span<const double> sizes) {
  std::vector<double> sorted(sizes.begin(), sizes.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  return sorted;
}

void validate_sizes(std::span<const double> sizes, const CostModel& model) {
  for (double s : sizes) {
    DBP_REQUIRE(s > 0.0 && model.fits(s, model.bin_capacity),
                "size must be in (0, bin capacity]");
  }
}

}  // namespace

std::size_t first_fit_decreasing(std::span<const double> sizes,
                                 const CostModel& model) {
  return first_fit_decreasing_sorted(sorted_desc(sizes), model);
}

std::size_t first_fit_decreasing_sorted(std::span<const double> sorted_desc,
                                        const CostModel& model) {
  model.validate();
  validate_sizes(sorted_desc, model);
  DBP_REQUIRE(std::is_sorted(sorted_desc.rbegin(), sorted_desc.rend()),
              "sizes must be non-increasing");
  MaxSegmentTree residuals;
  for (double size : sorted_desc) {
    auto pos = residuals.find_leftmost(
        [&](double residual) { return model.fits(size, residual); });
    if (!pos) pos = residuals.push_back(model.bin_capacity);
    residuals.assign(*pos, residuals.value_at(*pos) - size);
  }
  return residuals.size();
}

std::size_t best_fit_decreasing(std::span<const double> sizes,
                                const CostModel& model) {
  return best_fit_decreasing_sorted(sorted_desc(sizes), model);
}

std::size_t best_fit_decreasing_sorted(std::span<const double> sorted_desc,
                                       const CostModel& model) {
  model.validate();
  validate_sizes(sorted_desc, model);
  DBP_REQUIRE(std::is_sorted(sorted_desc.rbegin(), sorted_desc.rend()),
              "sizes must be non-increasing");
  std::multiset<double> residuals;  // residual capacities of open bins
  std::size_t bins = 0;
  for (double size : sorted_desc) {
    auto it = residuals.lower_bound(size - model.fit_tolerance);
    if (it == residuals.end()) {
      ++bins;
      residuals.insert(model.bin_capacity - size);
    } else {
      const double residual = *it;
      residuals.erase(it);
      residuals.insert(residual - size);
    }
  }
  return bins;
}

std::size_t first_fit_decreasing_rle(std::span<const SizeRun> runs,
                                     const CostModel& model,
                                     MaxSegmentTree& residuals) {
  model.validate();
  rle_validate(runs, model);
  // A reused tree after clear() holds only -inf leaves, so the descents and
  // appends below behave exactly as on a fresh tree (its larger physical
  // capacity never changes which position a fit query selects).
  residuals.clear();
  // Equivalence to the per-item loop: once an item of size s lands in the
  // leftmost fitting bin b, every bin left of b still rejects s (their
  // residuals are unchanged), so the next item of the same size lands in b
  // again until b rejects s. A run therefore fills bins left to right, and
  // the per-item subtraction sequence on each residual is replayed exactly.
  for (const SizeRun& run : runs) {
    std::uint64_t remaining = run.count;
    while (remaining > 0) {
      auto pos = residuals.find_leftmost(
          [&](double residual) { return model.fits(run.size, residual); });
      if (!pos) pos = residuals.push_back(model.bin_capacity);
      double residual = residuals.value_at(*pos);
      while (remaining > 0 && model.fits(run.size, residual)) {
        residual -= run.size;
        --remaining;
      }
      residuals.assign(*pos, residual);
    }
  }
  return residuals.size();
}

std::size_t best_fit_decreasing_rle(std::span<const SizeRun> runs,
                                    const CostModel& model,
                                    std::vector<double>& residuals) {
  model.validate();
  rle_validate(runs, model);
  // Equivalence to the per-item loop: the best-fit bin is the smallest
  // residual >= s - tol. Placing s there yields residual r - s, which is
  // smaller than every other fitting residual (they were all >= r), so as
  // long as r - s still fits, the *same* bin is re-selected; once it drops
  // below the threshold it never receives s again. A run therefore drains
  // into one bin at a time with the per-item subtraction sequence replayed
  // exactly, at one erase/insert per bin touched instead of per item. A
  // fresh bin behaves identically with r starting at W - s.
  //
  // The residuals live in an ascending-sorted vector: std::lower_bound finds
  // the same residual value best_fit_decreasing_sorted's multiset finds, and
  // only values are ever read (classical.hpp). Bins stay in the low tens
  // here, so the memmove behind insert/erase is cheaper than multiset node
  // churn — and clear() keeps the capacity, so a reusing caller allocates
  // nothing in steady state.
  residuals.clear();
  std::size_t bins = 0;
  for (const SizeRun& run : runs) {
    const double threshold = run.size - model.fit_tolerance;
    std::uint64_t remaining = run.count;
    while (remaining > 0) {
      const auto it = std::lower_bound(residuals.begin(), residuals.end(), threshold);
      double residual;
      if (it == residuals.end()) {
        ++bins;
        residual = model.bin_capacity - run.size;
      } else {
        residual = *it;
        residuals.erase(it);
        residual -= run.size;
      }
      --remaining;
      while (remaining > 0 && !(residual < threshold)) {
        residual -= run.size;
        --remaining;
      }
      residuals.insert(std::upper_bound(residuals.begin(), residuals.end(), residual),
                       residual);
    }
  }
  return bins;
}

}  // namespace dbp
