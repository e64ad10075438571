#include "support/opt_total_reference.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/compensated_sum.hpp"
#include "core/error.hpp"
#include "sim/event.hpp"
#include "support/flat_bin_count.hpp"

namespace dbp {

namespace {

struct FlatSnapshotHash {
  std::size_t operator()(const std::vector<double>& v) const noexcept {
    // FNV-1a over the raw byte representation; the key is the exact multiset.
    std::uint64_t h = 1469598103934665603ULL;
    for (double d : v) {
      std::uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      for (int shift = 0; shift < 64; shift += 8) {
        h ^= (bits >> shift) & 0xFF;
        h *= 1099511628211ULL;
      }
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

OptTotalResult estimate_opt_total_reference(const Instance& instance,
                                            const CostModel& model,
                                            const OptTotalOptions& options) {
  model.validate();
  OptTotalResult result;
  result.exact = true;
  if (instance.empty()) return result;
  result.closed_form = compute_cost_bounds(instance, model);

  const std::vector<Event> events = build_event_sequence(instance);

  // Active sizes in descending order (greater<> comparator), so a snapshot
  // is a straight copy.
  std::multiset<double, std::greater<>> active;
  std::vector<std::vector<double>> snapshots;  // first-occurrence order
  // Chronological (distinct snapshot index, width) per segment.
  std::vector<std::pair<std::size_t, double>> segments;
  // DBP_LINT_ALLOW(unordered-container): dedup via try_emplace by exact
  // key; never iterated — snapshot order is first-occurrence order.
  std::unordered_map<std::vector<double>, std::size_t, FlatSnapshotHash> index;
  std::vector<double> snapshot;

  std::size_t i = 0;
  while (i < events.size()) {
    const Time t = events[i].time;
    for (; i < events.size() && events[i].time == t; ++i) {
      const Item& item = instance.item(events[i].item);
      if (events[i].kind == EventKind::kArrival) {
        active.insert(item.size);
      } else {
        const auto it = active.find(item.size);
        DBP_CHECK(it != active.end(), "departure of an inactive size");
        active.erase(it);
      }
    }
    if (i == events.size()) {
      DBP_CHECK(active.empty(), "items remain active after the last event");
      break;
    }
    const Time segment_end = events[i].time;
    const double width = segment_end - t;
    if (width <= 0.0 || active.empty()) continue;

    snapshot.assign(active.begin(), active.end());
    const auto [slot, inserted] = index.try_emplace(snapshot, snapshots.size());
    if (inserted) snapshots.push_back(snapshot);
    segments.emplace_back(slot->second, width);
  }

  std::vector<BinCountBounds> bounds;
  for (const std::vector<double>& sizes : snapshots) {
    bounds.push_back(optimal_bin_count(sizes, model, options.bin_count));
    result.max_bins_lower = std::max(result.max_bins_lower, bounds.back().lower);
    result.max_bins_upper = std::max(result.max_bins_upper, bounds.back().upper);
  }

  CompensatedSum lower_integral;
  CompensatedSum upper_integral;
  for (const auto& [s, width] : segments) {
    if (bounds[s].exact()) {
      ++result.exact_segments;
    } else {
      result.exact = false;
    }
    lower_integral.add(static_cast<double>(bounds[s].lower) * width);
    upper_integral.add(static_cast<double>(bounds[s].upper) * width);
  }

  result.segments = segments.size();
  result.distinct_snapshots = snapshots.size();
  result.dedup_hits = result.segments - snapshots.size();

  result.lower_cost = lower_integral.value() * model.cost_rate;
  result.upper_cost = upper_integral.value() * model.cost_rate;
  result.lower_cost = std::max(result.lower_cost, result.closed_form.lower());
  DBP_CHECK(result.lower_cost <= result.upper_cost * (1.0 + 1e-9),
            "OPT_total bounds crossed");
  return result;
}

}  // namespace dbp
