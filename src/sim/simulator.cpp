#include "sim/simulator.hpp"

#include <cmath>

#include "algo/clairvoyant.hpp"

#include "core/compensated_sum.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace dbp {

std::vector<std::vector<ItemId>> SimulationResult::items_by_bin() const {
  std::vector<std::vector<ItemId>> result(bins_opened);
  for (std::size_t item = 0; item < assignment.size(); ++item) {
    result[static_cast<std::size_t>(assignment[item])].push_back(
        static_cast<ItemId>(item));
  }
  return result;
}

void replay_events(const Instance& instance, std::span<const Event> events,
                   Packer& packer) {
  // The loop itself is a Packer method so the statically-typed packers can
  // devirtualize it end to end; the default handles the general (including
  // clairvoyant) case. See algo/packer.cpp.
  packer.replay(instance, events);
}

SimulationResult simulate(const Instance& instance, std::span<const Event> events,
                          Packer& packer) {
  DBP_REQUIRE(packer.bins().total_bins_opened() == 0,
              "packers are single-use; construct a fresh one per run");
  SimulationResult result;
  result.algorithm = packer.name();
  if (instance.empty()) {
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

  packer.reserve_hint(instance.size());
  replay_events(instance, events, packer);

  const BinManager& bins = packer.bins();
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
  return result;
}

SimulationResult simulate(const Instance& instance, Packer& packer) {
  const std::vector<Event> events = build_event_sequence(instance);
  return simulate(instance, events, packer);
}

void detail::finalize_accounting(SimulationResult& result,
                                 const Instance& instance,
                                 const BinManager& bins) {
  finalize_bin_accounting(result, bins);
  result.assignment.resize(instance.size());
  for (const Item& item : instance.items()) {
    auto bin = bins.assignment_of(item.id);
    DBP_CHECK(bin.has_value(), "item missing from assignment history");
    result.assignment[static_cast<std::size_t>(item.id)] = *bin;
  }
}

void detail::finalize_bin_accounting(SimulationResult& result,
                                     const BinManager& bins) {
  result.bins_opened = bins.total_bins_opened();
  result.bin_usage.assign(bins.usage_records().begin(), bins.usage_records().end());

  const double rate = bins.model().cost_rate;
  CompensatedSum per_bin_cost;
  for (const BinUsageRecord& record : result.bin_usage) {
    DBP_CHECK(record.is_closed(), "usage record of an unclosed bin");
    result.open_bins_over_time.add_interval({record.opened, record.closed});
    per_bin_cost.add(record.usage_length() * rate);
  }
  result.open_bins_over_time.finalize();
  result.total_cost_from_bins = per_bin_cost.value();
  result.total_cost = result.open_bins_over_time.integral() * rate;
  result.max_open_bins = result.open_bins_over_time.max_value();

  const double scale = std::max({std::abs(result.total_cost),
                                 std::abs(result.total_cost_from_bins), 1.0});
  DBP_CHECK(std::abs(result.total_cost - result.total_cost_from_bins) <=
                1e-9 * scale,
            "per-bin and integral cost accounting disagree");
}

SimulationResult simulate(const Instance& instance, const std::string& algorithm,
                          const CostModel& model, const PackerOptions& options) {
  auto packer = make_packer(algorithm, model, options);
  return simulate(instance, *packer);
}

}  // namespace dbp
