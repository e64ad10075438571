#include "opt/opt_total.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include <string>

#include "exec/parallel_map.hpp"
#include "core/arena.hpp"
#include "core/audit.hpp"
#include "core/error.hpp"
#include "exec/execution_policy.hpp"
#include "exec/worker_budget.hpp"
#include "obs/obs.hpp"
#include "opt/scratch.hpp"
#include "sim/event.hpp"

#if DBP_AUDIT_ENABLED
#include <set>
#endif

namespace dbp {

namespace {

/// One inter-event segment: which distinct snapshot was active, for how long.
struct Segment {
  std::size_t snapshot = 0;
  double width = 0.0;
};

/// Times the estimator's three phases when an observability context is
/// installed; zero clock reads otherwise. Phase durations land both in the
/// metrics registry (timer "opt_total.<phase>") and, as kOptPhase records
/// with an "ms" timing field, in the trace. The records themselves are
/// emitted from the sequential control path only, so traces are identical
/// across worker counts up to those timing fields. The clock itself lives
/// behind obs::PhaseStopwatch, so this TU never references a clock symbol
/// (dbp_symcheck `wall-clock` object policy).
class PhaseObserver {
 public:
  PhaseObserver() noexcept = default;

  void begin() noexcept { stopwatch_.begin(); }

  void end(const char* phase, std::uint64_t count) {
    if (!stopwatch_.active()) return;
    const double elapsed_ms = stopwatch_.elapsed_ms();
    if (obs::MetricsRegistry* metrics = obs::metrics()) {
      metrics->timer(std::string("opt_total.") + phase).record_ms(elapsed_ms);
    }
    if (obs::RunTracer* tracer = obs::tracer()) {
      obs::TraceRecord record;
      record.kind = obs::TraceKind::kOptPhase;
      record.count = count;
      record.ms = elapsed_ms;
      record.label = phase;
      tracer->record(std::move(record));
    }
  }

 private:
  obs::PhaseStopwatch stopwatch_;
};

}  // namespace

void OptTotalIntegrator::add(BinCountBounds bounds, double width) noexcept {
  if (!(width > 0.0) || bounds.upper == 0) return;
  lower_.add(static_cast<double>(bounds.lower) * width);
  upper_.add(static_cast<double>(bounds.upper) * width);
  ++segments_;
  if (bounds.exact()) ++exact_segments_;
}

OptTotalResult estimate_opt_total(const Instance& instance, const CostModel& model,
                                  const OptTotalOptions& options) {
  model.validate();
  OptTotalResult result;
  result.exact = true;
  if (instance.empty()) return result;
  result.closed_form = compute_cost_bounds(instance, model);

  const std::vector<Event> events = build_event_sequence(instance);
  PhaseObserver observer;
  observer.begin();

  // ---- Phase 1: sequential sweep, RLE active set, snapshot dedup. ----
  // Active sizes run-length encoded in descending order (greater<>), so a
  // snapshot key is a straight copy of O(distinct sizes) runs. Distinct
  // snapshots live in a monotonic arena (stable addresses, one bump per
  // snapshot) and are referenced by span everywhere downstream; the dedup
  // map keys on those spans directly, so a duplicate segment costs a
  // provisional arena copy that marker/rewind takes right back.
  std::map<double, std::uint64_t, std::greater<>> active;
  MonotonicArena snapshot_arena;
  std::vector<std::span<const SizeRun>> snapshots;  // first-occurrence order
  std::vector<Segment> segments;                    // chronological order
  // DBP_LINT_ALLOW(unordered-container): dedup via try_emplace by exact
  // key; never iterated — snapshot order is first-occurrence order.
  std::unordered_map<std::span<const SizeRun>, std::size_t, SizeRunVectorHash,
                     SizeRunKeyEqual>
      index;
#if DBP_AUDIT_ENABLED
  // Audit shadow of `active`: a dense multiset maintained item-by-item. At
  // every snapshot the RLE key must describe exactly this multiset.
  std::multiset<double, std::greater<>> audit_active;
#endif

  std::size_t i = 0;
  while (i < events.size()) {
    const Time t = events[i].time;
    // Apply the whole batch at time t (departures already sort first).
    for (; i < events.size() && events[i].time == t; ++i) {
      const Item& item = instance.item(events[i].item);
      if (events[i].kind == EventKind::kArrival) {
        ++active[item.size];
        DBP_AUDIT_ONLY(audit_active.insert(item.size);)
      } else {
        const auto it = active.find(item.size);
        DBP_CHECK(it != active.end(), "departure of an inactive size");
        if (--it->second == 0) active.erase(it);
#if DBP_AUDIT_ENABLED
        const auto audit_it = audit_active.find(item.size);
        DBP_AUDIT_CHECK(audit_it != audit_active.end(),
                        "dense shadow multiset missing a departing size");
        audit_active.erase(audit_it);
#endif
      }
    }
    if (i == events.size()) {
      DBP_CHECK(active.empty(), "items remain active after the last event");
      break;
    }
    const Time segment_end = events[i].time;
    const double width = segment_end - t;
    if (width <= 0.0 || active.empty()) continue;

    const MonotonicArena::Marker mark = snapshot_arena.marker();
    const std::span<SizeRun> key = snapshot_arena.allocate_array<SizeRun>(active.size());
    {
      std::size_t r = 0;
      for (const auto& [size, count] : active) key[r++] = SizeRun{size, count};
    }
#if DBP_AUDIT_ENABLED
    // RLE snapshot multiset == dense bookkeeping: identical total count and
    // per-size multiplicities, strictly decreasing run sizes.
    DBP_AUDIT_CHECK(rle_item_count(key) == audit_active.size(),
                    "RLE snapshot item count disagrees with the dense multiset");
    for (std::size_t r = 0; r < key.size(); ++r) {
      DBP_AUDIT_CHECK(r == 0 || key[r].size < key[r - 1].size,
                      "RLE snapshot runs are not strictly decreasing");
      DBP_AUDIT_CHECK(audit_active.count(key[r].size) == key[r].count,
                      "RLE run multiplicity disagrees with the dense multiset");
    }
#endif

    const auto [slot, inserted] =
        index.try_emplace(std::span<const SizeRun>(key), snapshots.size());
    if (inserted) {
      snapshots.push_back(key);
    } else {
      // Duplicate snapshot: release the provisional arena copy.
      snapshot_arena.rewind(mark);
    }
    segments.push_back(Segment{slot->second, width});
  }

  observer.end("sweep", segments.size());
  observer.begin();

  // ---- Phase 2: evaluate the distinct snapshots. ----
  // The fan-out decision: the worker budget (1 worker, a held lease, or an
  // enclosing sweep-level parallel region all mean "no help available") and
  // the job mix (few or tiny snapshots cannot amortize the OpenMP region +
  // result-slot overhead) both have to justify parallel_map. work_units =
  // total RLE runs across snapshots, so a thousand heavily-deduplicated
  // two-run snapshots do not count as heavy work.
  exec::ParallelWorkEstimate work;
  work.jobs = snapshots.size();
  for (const std::span<const SizeRun> snapshot : snapshots) {
    work.work_units += snapshot.size();
  }
  const int workers = exec::WorkerBudget::effective();
  const bool fan_out = exec::should_parallelize(options.policy, work, workers);
  result.evaluate_parallel = fan_out;
  result.evaluate_workers = fan_out ? workers : 1;
  // Each worker evaluates thousands of snapshots against one reusable
  // scratch (opt/scratch.hpp), so the whole phase performs a bounded number
  // of warm-up allocations instead of a dozen per snapshot. Scratch reuse
  // never changes a result, so they stay independent of the worker count.
  std::vector<BinCountBounds> bounds;
  if (fan_out) {
    // Scratches are indexed by OpenMP thread id; sizing by max_threads
    // covers any team parallel_map can start under the current budget.
#if defined(DBP_HAVE_OPENMP)
    std::vector<BinCountScratch> scratches(
        static_cast<std::size_t>(omp_get_max_threads()));
#else
    std::vector<BinCountScratch> scratches(1);
#endif
    bounds = parallel_map(snapshots, [&](std::span<const SizeRun> snapshot) {
#if defined(DBP_HAVE_OPENMP)
      BinCountScratch& scratch =
          scratches[static_cast<std::size_t>(omp_get_thread_num())];
#else
      BinCountScratch& scratch = scratches.front();
#endif
      return optimal_bin_count_rle(snapshot, model, options.bin_count, scratch);
    });
  } else {
    BinCountScratch scratch;
    bounds.reserve(snapshots.size());
    for (const std::span<const SizeRun> snapshot : snapshots) {
      bounds.push_back(optimal_bin_count_rle(snapshot, model, options.bin_count, scratch));
    }
  }
  for (const BinCountBounds& b : bounds) {
    result.max_bins_lower = std::max(result.max_bins_lower, b.lower);
    result.max_bins_upper = std::max(result.max_bins_upper, b.upper);
  }
  result.distinct_snapshots = snapshots.size();
  observer.end("evaluate", result.distinct_snapshots);
  observer.begin();

  // ---- Phase 3: sequential combine, segment by segment in time order. ----
  OptTotalIntegrator integral(model.cost_rate);
  for (const Segment& segment : segments) {
    integral.add(bounds[segment.snapshot], segment.width);
  }
  result.segments = integral.segments();
  result.exact_segments = integral.exact_segments();
  result.exact = result.exact_segments == result.segments;
  result.dedup_hits = result.segments - result.distinct_snapshots;
  result.lower_cost = integral.lower_cost();
  result.upper_cost = integral.upper_cost();

  // The integral lower bound dominates (b.1) and (b.2) pointwise, but keep
  // the max for numerical safety.
  result.lower_cost = std::max(result.lower_cost, result.closed_form.lower());
  DBP_CHECK(result.lower_cost <= result.upper_cost * (1.0 + 1e-9),
            "OPT_total bounds crossed");
  observer.end("combine", result.distinct_snapshots);
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("opt_total.calls").add();
    metrics->counter("opt_total.segments").add(result.segments);
    metrics->counter("opt_total.distinct_snapshots").add(result.distinct_snapshots);
    metrics->counter("opt_total.dedup_hits").add(result.dedup_hits);
    // Which path phase 2 took, so the execution-policy choice is observable
    // (tests/exec_test.cpp pins the 1-worker sequential fallback on these).
    metrics->counter(result.evaluate_parallel ? "opt_total.evaluate_parallel"
                                              : "opt_total.evaluate_sequential")
        .add();
    metrics->gauge("opt_total.evaluate_workers")
        .set(static_cast<double>(result.evaluate_workers));
  }
  return result;
}

RatioBounds competitive_ratio_bounds(double algorithm_cost, const OptTotalResult& opt) {
  DBP_REQUIRE(algorithm_cost >= 0.0, "negative algorithm cost");
  DBP_REQUIRE(opt.lower_cost > 0.0, "OPT lower bound must be positive");
  return RatioBounds{algorithm_cost / opt.upper_cost, algorithm_cost / opt.lower_cost};
}

}  // namespace dbp
