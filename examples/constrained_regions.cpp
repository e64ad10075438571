// Constrained dispatch across regions: the paper's Section 5 future-work
// direction ("each item is allowed to be assigned to only a subset of bins
// to cater for the interactivity constraints of dispatching playing
// requests among distributed clouds").
//
//   $ ./constrained_regions
//
// Players are latency-bound to their nearest region, so each region runs an
// isolated fleet: a dispatch engine with one shard per region, each region
// pinned to its shard by a RegionShardRouter. The example quantifies the
// fragmentation cost of the constraint: per-region fleets vs one
// hypothetical global fleet.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/strfmt.hpp"
#include "engine/engine.hpp"
#include "engine/router.hpp"
#include "gaming/dispatcher.hpp"
#include "sim/event.hpp"
#include "workload/cloud_gaming.hpp"

int main() {
  using namespace dbp;
  const ServerSpec spec{1.0, 1.2};

  // Three regions with different peak hours (time zones) and demand.
  struct Region {
    const char* name;
    double peak_hour;
    double peak_rate;
    std::uint64_t seed;
  };
  const std::vector<Region> regions{
      {"us-east", 20.0, 1.2, 101},
      {"eu-west", 14.0, 0.9, 202},
      {"ap-south", 6.0, 0.7, 303},
  };

  // Shard i is the i-th region in name order, so the engine's shard-order
  // bill sums the regions alphabetically.
  std::vector<std::string> names;
  for (const Region& region : regions) names.emplace_back(region.name);
  std::sort(names.begin(), names.end());
  auto router = std::make_unique<engine::RegionShardRouter>(names);

  // Merge all regions' traces into one event stream.
  Instance merged;
  std::vector<std::uint64_t> route_of;
  for (const Region& region : regions) {
    CloudGamingConfig config;
    config.horizon_hours = 24.0;
    config.peak_hour = region.peak_hour;
    config.peak_arrivals_per_minute = region.peak_rate;
    const CloudGamingTrace trace = generate_cloud_gaming_trace(config, region.seed);
    for (const Item& item : trace.instance.items()) {
      merged.add(item.arrival, item.departure, item.size);
      route_of.push_back(router->route_key_for(region.name));
    }
    std::cout << strfmt("%-9s %5zu sessions (peak hour %.0f)\n", region.name,
                        trace.instance.size(), region.peak_hour);
  }

  engine::EngineConfig engine_config;
  engine_config.shard_count = names.size();
  engine_config.algorithm = "modified-first-fit";
  engine_config.spec = spec;
  engine::ShardedDispatchEngine constrained(engine_config, std::move(router));
  GameServerDispatcher global(spec, "modified-first-fit");

  for (const Event& event : build_event_sequence(merged)) {
    const Item& item = merged.item(event.item);
    engine::SessionEvent routed =
        event.kind == EventKind::kArrival
            ? engine::start_event(item.id, item.size, item.arrival)
            : engine::end_event(item.id, item.departure);
    routed.route_key = route_of[static_cast<std::size_t>(item.id)];
    constrained.submit(routed);
    if (event.kind == EventKind::kArrival) {
      global.start_session(item.id, item.size, item.arrival);
    } else {
      global.end_session(item.id, item.departure);
    }
  }
  constrained.drain();

  const Time end = merged.packing_period().end;
  const double constrained_bill = constrained.rental_cost_dollars(end);
  const double global_bill = global.rental_cost_dollars(end);
  std::cout << strfmt(
      "\nper-region fleets (constrained DBP):  $%9.2f\n"
      "single global fleet (hypothetical):   $%9.2f\n"
      "fragmentation premium:                 %8.1f%%\n",
      constrained_bill, global_bill,
      (constrained_bill / global_bill - 1.0) * 100.0);
  std::cout << "\nThe premium is the price of the placement constraint the\n"
               "paper's future work proposes to analyze; staggered peak hours\n"
               "keep it moderate because regional fleets idle at different\n"
               "times.\n";
  return 0;
}
