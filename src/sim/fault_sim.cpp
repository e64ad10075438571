#include "sim/fault_sim.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "algo/clairvoyant.hpp"
#include "core/error.hpp"
#include "core/splitmix64.hpp"
#include "core/strfmt.hpp"
#include "obs/obs.hpp"

namespace dbp {

namespace {

BinSlot select_victim(const BinManager& bins, const std::vector<BinSlot>& open,
                      CrashTarget target, std::uint64_t& rng_state) {
  switch (target) {
    case CrashTarget::kOldest:
      return open.front();
    case CrashTarget::kNewest:
      return open.back();
    case CrashTarget::kRandom:
      return open[static_cast<std::size_t>(splitmix64_next(rng_state) %
                                           open.size())];
    case CrashTarget::kFullest: {
      BinSlot best = open.front();
      double best_level = bins.level(best);
      for (const BinSlot bin : open) {
        const double level = bins.level(bin);
        if (level > best_level) {
          best = bin;
          best_level = level;
        }
      }
      return best;
    }
    case CrashTarget::kEmptiest: {
      BinSlot best = open.front();
      double best_level = bins.level(best);
      for (const BinSlot bin : open) {
        const double level = bins.level(bin);
        if (level < best_level) {
          best = bin;
          best_level = level;
        }
      }
      return best;
    }
  }
  DBP_CHECK(false, "unreachable crash target");
  return open.front();  // unreachable
}

}  // namespace

SimulationResult simulate_faulted(const Instance& instance, Packer& packer,
                                  const FaultPlan& plan,
                                  FaultInjectionStats* stats_out) {
  DBP_REQUIRE(packer.bins().total_bins_opened() == 0,
              "packers are single-use; construct a fresh one per run");
  DBP_REQUIRE(dynamic_cast<ClairvoyantPacker*>(&packer) == nullptr,
              "fault injection requires an online packer (re-dispatch is an "
              "online notion)");
  plan.validate();

  FaultInjectionStats stats;
  SimulationResult result;
  result.algorithm = packer.name();
  if (instance.empty()) {
    // Nothing can land on an empty run; record the plan size and finish.
    stats.crashes_requested = plan.crashes.size();
    if (stats_out != nullptr) *stats_out = stats;
    result.open_bins_over_time.finalize();
    return result;
  }
  result.packing_period = instance.packing_period();
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord record;
    record.time = result.packing_period.begin;
    record.kind = obs::TraceKind::kRunBegin;
    record.count = instance.size();
    record.label = result.algorithm;
    tracer->record(std::move(record));
  }

  const std::vector<Event> events = build_event_sequence(instance);
  const BinManager& bins = packer.bins();
  // Every event passes the admission check (core/fault.hpp) against the
  // packer's residents. Only accepted events reach the packer and advance
  // the clock; faults advance it to their own time.
  Time clock = -kTimeInfinity;
  const auto refusal_of = [&](bool arrival, ItemId id, double size, Time t) {
    const bool active = bins.active_size(id).has_value();
    return arrival ? check_start(clock, id, size, t, bins.model(), active)
                   : check_end(clock, t, active);
  };
  std::uint64_t rng_state = plan.seed;
  ItemId next_synthetic_id = static_cast<ItemId>(instance.size());
  stats.crashes_requested = plan.crashes.size();

  std::size_t ei = 0, ai = 0, ci = 0;
  while (ei < events.size() || ai < plan.anomalies.size() ||
         ci < plan.crashes.size()) {
    const Time event_time = ei < events.size() ? events[ei].time : kTimeInfinity;
    const Time anomaly_time =
        ai < plan.anomalies.size() ? plan.anomalies[ai].time : kTimeInfinity;
    const Time crash_time =
        ci < plan.crashes.size() ? plan.crashes[ci].time : kTimeInfinity;

    if (event_time <= anomaly_time && event_time <= crash_time) {
      // Instance events are trusted input: a refusal here means the caller
      // fed corrupt data, which is a precondition violation.
      const Event& event = events[ei++];
      const Item& item = instance.item(event.item);
      const bool arrival = event.kind == EventKind::kArrival;
      const std::optional<DispatchErrorKind> refusal =
          refusal_of(arrival, item.id, item.size, event.time);
      DBP_REQUIRE(!refusal, strfmt("instance event for item %llu rejected as %s",
                                   static_cast<unsigned long long>(item.id),
                                   to_string(*refusal)));
      clock = event.time;
      if (arrival) {
        packer.on_arrival(ArrivingItem{item.id, event.time, item.size});
      } else {
        packer.on_departure(item.id, event.time);
      }
    } else if (anomaly_time <= crash_time) {
      const AnomalyFault& fault = plan.anomalies[ai++];
      clock = std::max(clock, fault.time);
      Time time = fault.time;
      bool arrival = true;
      ItemId id = 0;
      double size = 0.0;
      DispatchErrorKind expected = DispatchErrorKind::kInvalidSize;  // NaN, negative
      switch (fault.kind) {
        case AnomalyKind::kDuplicateStart: {
          // Duplicates the k-th smallest resident id, k drawn from the plan.
          std::vector<ItemId> residents;
          bins.for_each_open_bin([&](BinSlot bin) {
            bins.for_each_resident(bin, [&](ItemId resident, double) {
              residents.push_back(resident);
            });
          });
          if (residents.empty()) continue;  // no session to duplicate
          std::sort(residents.begin(), residents.end());
          id = residents[static_cast<std::size_t>(splitmix64_next(rng_state) %
                                                  residents.size())];
          size = instance.item(id).size;
          expected = DispatchErrorKind::kDuplicateStart;
          break;
        }
        case AnomalyKind::kUnknownSessionEnd:
          arrival = false;
          id = next_synthetic_id++;
          expected = DispatchErrorKind::kUnknownSession;
          break;
        case AnomalyKind::kOutOfOrderTimestamp:
          id = next_synthetic_id++;
          size = 0.25;
          time = clock - 1.0;
          expected = DispatchErrorKind::kTimeOrderViolation;
          break;
        case AnomalyKind::kNaNSize:
          id = next_synthetic_id++;
          size = std::numeric_limits<double>::quiet_NaN();
          break;
        case AnomalyKind::kNegativeSize:
          id = next_synthetic_id++;
          size = -0.25;
          break;
      }
      ++stats.anomalies_injected;
      DBP_CHECK(refusal_of(arrival, id, size, time) == expected,
                "injected anomaly was not refused as its kind");
      ++stats.anomalies_dropped[static_cast<std::size_t>(fault.kind)];
      if (obs::RunTracer* tracer = obs::tracer()) {
        obs::TraceRecord record;
        record.time = time;
        record.kind = obs::TraceKind::kFaultAnomaly;
        record.item = id;
        record.label = to_string(fault.kind);
        tracer->record(std::move(record));
      }
      if (obs::MetricsRegistry* metrics = obs::metrics()) {
        metrics->counter("fault.anomalies_dropped").add();
      }
    } else {
      const CrashFault& fault = plan.crashes[ci++];
      clock = std::max(clock, fault.time);
      std::vector<BinSlot> open;  // in opening order, i.e. by ascending id
      bins.for_each_open_bin([&open](BinSlot slot) { open.push_back(slot); });
      if (open.empty()) continue;  // crash on an idle fleet: nothing to kill
      const BinId victim =
          bins.id_of(select_victim(bins, open, fault.target, rng_state));
      const std::vector<ItemId> live = bins.items_in(victim);
      if (obs::RunTracer* tracer = obs::tracer()) {
        obs::TraceRecord record;
        record.time = fault.time;
        record.kind = obs::TraceKind::kFaultCrash;
        record.bin = victim;
        record.count = live.size();
        record.label = to_string(fault.target);
        tracer->record(std::move(record));
      }
      // The crash ends the victim's cost accrual: every live item departs
      // at the crash time, which closes the bin...
      for (const ItemId id : live) packer.on_departure(id, fault.time);
      DBP_CHECK(!bins.is_open(victim), "crashed bin still open");
      // ...then the orphans re-arrive as fresh online arrivals (ascending
      // id order), i.e. re-dispatch without migration.
      for (const ItemId id : live) {
        packer.on_arrival(ArrivingItem{id, fault.time, instance.item(id).size});
      }
      ++stats.crashes_landed;
      stats.sessions_redispatched += live.size();
      if (obs::RunTracer* tracer = obs::tracer()) {
        obs::TraceRecord record;
        record.time = fault.time;
        record.kind = obs::TraceKind::kRedispatch;
        record.bin = victim;
        record.count = live.size();
        tracer->record(std::move(record));
      }
      if (obs::MetricsRegistry* metrics = obs::metrics()) {
        metrics->counter("fault.crashes_landed").add();
        metrics->counter("fault.sessions_redispatched").add(live.size());
      }
    }
  }

  DBP_CHECK(bins.open_count() == 0, "bins remain open after the last departure");
  detail::finalize_accounting(result, instance, bins);
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord record;
    record.time = result.packing_period.end;
    record.kind = obs::TraceKind::kRunEnd;
    record.count = result.bins_opened;
    record.label = result.algorithm;
    tracer->record(std::move(record));
  }
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

FaultSimulationResult simulate_with_faults(const Instance& instance,
                                           const std::string& algorithm,
                                           const CostModel& model,
                                           const FaultPlan& plan,
                                           const PackerOptions& options) {
  FaultSimulationResult cell;
  cell.baseline = simulate(instance, algorithm, model, options);
  auto packer = make_packer(algorithm, model, options);
  cell.faulted = simulate_faulted(instance, *packer, plan, &cell.stats);
  cell.cost_inflation_ratio =
      cell.baseline.total_cost > 0.0
          ? cell.faulted.total_cost / cell.baseline.total_cost
          : 1.0;
  return cell;
}

}  // namespace dbp
