#include "support/flat_bin_count.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "algo/segment_tree.hpp"
#include "core/arena.hpp"
#include "core/audit.hpp"
#include "core/compensated_sum.hpp"
#include "core/error.hpp"
#include "opt/lower_bounds.hpp"

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

/// The minimum-bin-slack witness item by item, on a sorted flat multiset:
/// the specification the library's RunSlackWitness (opt/bin_count.cpp) is
/// differentially tested against. Bins are built one at a time: the largest
/// remaining item opens each, then a depth-first search over the remaining
/// items, largest first, looks for the fill that leaves the least slack. One
/// node is one tentative addition of an item; among equal sizes only the
/// first available one is tried per depth. A bin's search stops after
/// kWitnessNodesPerBin nodes or at a fill within the fit tolerance, and the
/// best fill found is committed. `packed_` marks items committed to earlier
/// bins or in the fill being tried.
class FlatSlackWitness {
 public:
  FlatSlackWitness(std::span<const double> sorted_desc, const CostModel& model)
      : sizes_(sorted_desc), model_(model), packed_(sorted_desc.size(), 0) {}

  /// Packs every item and returns the bins used, or `upper` as soon as the
  /// packing cannot use fewer than `upper` bins.
  std::size_t pack(std::size_t upper) {
#if DBP_AUDIT_ENABLED
    constexpr std::size_t kUnplaced = static_cast<std::size_t>(-1);
    std::vector<std::size_t> bin_of(sizes_.size(), kUnplaced);
#endif
    std::size_t bins = 0;
    std::size_t placed = 0;
    std::size_t first = 0;
    while (placed < sizes_.size()) {
      if (bins + 1 >= upper) return upper;
      while (packed_[first]) ++first;
      packed_[first] = 1;
      best_ = model_.bin_capacity - sizes_[first];
      best_path_.clear();
      nodes_ = 0;
      done_ = false;
      if (best_ > model_.fit_tolerance) extend(first + 1, best_);
      for (const std::size_t r : best_path_) packed_[r] = 1;
      placed += 1 + best_path_.size();
#if DBP_AUDIT_ENABLED
      double residual = model_.bin_capacity;
      for (std::size_t k = 0; k <= best_path_.size(); ++k) {
        const std::size_t r = k == 0 ? first : best_path_[k - 1];
        DBP_AUDIT_CHECK(model_.fits(sizes_[r], residual),
                        "minimum-bin-slack witness overfilled a bin");
        residual -= sizes_[r];
        DBP_AUDIT_CHECK(bin_of[r] == kUnplaced,
                        "minimum-bin-slack witness placed an item twice");
        bin_of[r] = bins;
      }
#endif
      ++bins;
    }
#if DBP_AUDIT_ENABLED
    DBP_AUDIT_CHECK(std::find(bin_of.begin(), bin_of.end(), kUnplaced) == bin_of.end(),
                    "minimum-bin-slack witness left an item unpacked");
#endif
    return bins;
  }

 private:
  void extend(std::size_t from, double residual) {
    double tried = 0.0;  // size tried at this depth; no item has size 0
    for (std::size_t r = from; r < sizes_.size(); ++r) {
      const double size = sizes_[r];
      if (packed_[r] || size == tried || !model_.fits(size, residual)) continue;
      if (nodes_ == kWitnessNodesPerBin) {
        done_ = true;
        return;
      }
      ++nodes_;
      tried = size;
      packed_[r] = 1;
      path_.push_back(r);
      const double child = residual - size;
      if (child < best_) {
        best_ = child;
        best_path_ = path_;
      }
      if (best_ <= model_.fit_tolerance) {
        done_ = true;
      } else {
        extend(r + 1, child);
      }
      path_.pop_back();
      packed_[r] = 0;
      if (done_) return;
    }
  }

  std::span<const double> sizes_;
  const CostModel& model_;
  std::vector<char> packed_;
  std::vector<std::size_t> path_;
  std::vector<std::size_t> best_path_;
  double best_ = 0.0;
  std::uint64_t nodes_ = 0;
  bool done_ = false;
};

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

std::size_t l1_lower_bound(std::span<const double> sizes, const CostModel& model) {
  model.validate();
  if (sizes.empty()) return 0;
  CompensatedSum sum;
  for (double s : sizes) {
    DBP_REQUIRE(s > 0.0, "sizes must be positive");
    sum.add(s);
  }
  const double capacity = model.bin_capacity + model.fit_tolerance;
  return std::max<std::size_t>(1, guarded_ceil(sum.value() / capacity));
}

std::size_t l2_lower_bound(std::span<const double> sizes, const CostModel& model) {
  return l2_lower_bound_sorted(sorted_desc(sizes), model);
}

std::size_t l2_lower_bound_sorted(std::span<const double> sorted_desc,
                                  const CostModel& model) {
  model.validate();
  DBP_REQUIRE(std::is_sorted(sorted_desc.rbegin(), sorted_desc.rend()),
              "sizes must be non-increasing");
  const std::size_t n = sorted_desc.size();
  if (n == 0) return 0;
  const double capacity = model.bin_capacity + model.fit_tolerance;
  const double half = capacity / 2.0;

  // Prefix sums over the descending order.
  std::vector<double> prefix(n + 1, 0.0);
  {
    CompensatedSum sum;
    for (std::size_t i = 0; i < n; ++i) {
      DBP_REQUIRE(sorted_desc[i] > 0.0, "sizes must be positive");
      sum.add(sorted_desc[i]);
      prefix[i + 1] = sum.value();
    }
  }

  // For threshold alpha (<= capacity/2):
  //   S1 = { s : s > capacity - alpha }   -- no other item >= alpha fits
  //   S2 = { s : capacity - alpha >= s > capacity/2 }
  //   S3 = { s : capacity/2 >= s >= alpha }
  //   L2(alpha) = |S1| + |S2|
  //             + max(0, ceil((sum(S3) - (|S2|*capacity - sum(S2))) / capacity))
  // Candidate alphas: the distinct sizes <= capacity/2, plus the trivial 0
  // (which reduces to L1 over all items).
  const auto first_le = [&](double bound) {
    // Index of first element <= bound in the descending array.
    return static_cast<std::size_t>(
        std::lower_bound(sorted_desc.begin(), sorted_desc.end(), bound,
                         [](double a, double b) { return a > b; }) -
        sorted_desc.begin());
  };

  const std::size_t first_half = first_le(half);  // start of sizes <= capacity/2
  std::size_t best = 0;

  std::size_t i = first_half;
  std::vector<double> alphas;
  alphas.push_back(0.0);
  while (i < n) {
    alphas.push_back(sorted_desc[i]);
    const double v = sorted_desc[i];
    while (i < n && sorted_desc[i] == v) ++i;
  }

  for (double alpha : alphas) {
    const std::size_t n1 = first_le(capacity - alpha);  // |S1|
    const std::size_t n12 = first_half;                 // |S1| + |S2|
    // S3 spans indices [first_half, end_of >= alpha).
    std::size_t s3_end = n;
    if (alpha > 0.0) {
      // First element < alpha in descending order.
      s3_end = static_cast<std::size_t>(
          std::lower_bound(sorted_desc.begin(), sorted_desc.end(), alpha,
                           [](double a, double b) { return a >= b; }) -
          sorted_desc.begin());
    }
    if (s3_end < n12) continue;  // alpha > capacity/2 candidates never occur
    const std::size_t n2 = n12 - n1;
    const double sum_s2 = prefix[n12] - prefix[n1];
    const double sum_s3 = prefix[s3_end] - prefix[n12];
    const double spare_in_s2_bins = static_cast<double>(n2) * capacity - sum_s2;
    const std::size_t extra = guarded_ceil((sum_s3 - spare_in_s2_bins) / capacity);
    best = std::max(best, n12 + extra);
  }
  return std::max(best, l1_lower_bound(sorted_desc, model));
}

ExactPackingResult exact_bin_count(std::span<const double> sizes,
                                   const CostModel& model,
                                   const ExactPackingOptions& options) {
  model.validate();
  const std::vector<double> sorted = sorted_desc(sizes);
  const std::size_t lower = l2_lower_bound_sorted(sorted, model);
  const std::size_t upper = std::min(first_fit_decreasing_sorted(sorted, model),
                                     best_fit_decreasing_sorted(sorted, model));
  MonotonicArena arena;
  return exact_bin_count_bounded(sorted, model, lower, upper, options, arena);
}

BinCountBounds optimal_bin_count(std::span<const double> sizes, const CostModel& model,
                                 const BinCountOptions& options) {
  model.validate();
  const std::vector<double> sorted = sorted_desc(sizes);
  validate_sizes(sorted, model);
  if (sorted.empty()) return {0, 0};

  CompensatedSum sum;
  for (double s : sorted) sum.add(s);
  if (const auto closed = closed_form_bin_count(sorted.size(), sum.value(),
                                                sorted.front(), sorted.back(), model)) {
    return *closed;
  }

  const std::size_t lower = l2_lower_bound_sorted(sorted, model);
  std::size_t upper = std::min(first_fit_decreasing_sorted(sorted, model),
                               best_fit_decreasing_sorted(sorted, model));
  DBP_CHECK(lower <= upper, "L2 exceeds the FFD/BFD bin count");
  if (lower == upper || !options.use_exact_solver) return {lower, upper};

  upper = FlatSlackWitness(sorted, model).pack(upper);
  DBP_CHECK(lower <= upper, "L2 exceeds the witness bin count");
  if (lower == upper) return {lower, upper};

  MonotonicArena arena;
  const ExactPackingResult exact =
      exact_bin_count_bounded(sorted, model, lower, upper, options.exact, arena);
  return {std::max(lower, exact.lower), std::min(upper, exact.upper)};
}

}  // namespace dbp
