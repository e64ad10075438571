#include "analysis/adaptive_adversary.hpp"

#include <algorithm>
#include <cmath>

#include "algo/clairvoyant.hpp"
#include "core/error.hpp"

namespace dbp {

void AdaptiveAdversaryConfig::validate() const {
  DBP_REQUIRE(k >= 1, "k must be >= 1");
  DBP_REQUIRE(std::isfinite(mu) && mu >= 1.0, "mu must be >= 1");
  DBP_REQUIRE(std::isfinite(delta) && delta > 0.0, "Delta must be positive");
  DBP_REQUIRE(std::isfinite(bin_capacity) && bin_capacity > 0.0,
              "bin capacity must be positive");
}

AdaptiveAdversaryOutcome run_adaptive_adversary(
    const PackerFactoryFn& make_packer, const AdaptiveAdversaryConfig& config) {
  config.validate();
  const std::size_t item_count = config.k * config.k;
  const double size = config.bin_capacity / static_cast<double>(config.k);
  const Time delta = config.delta;
  const Time mu_delta = config.mu * delta;

  // --- Probe phase: feed all arrivals, observe the packing.
  std::unique_ptr<Packer> probe = make_packer();
  DBP_REQUIRE(probe != nullptr, "packer factory returned null");
  DBP_REQUIRE(dynamic_cast<ClairvoyantPacker*>(probe.get()) == nullptr,
              "the adaptive adversary targets online packers only");
  for (ItemId id = 0; id < item_count; ++id) {
    probe->on_arrival(ArrivingItem{id, 0.0, size});
  }
  AdaptiveAdversaryOutcome outcome;
  outcome.probe_bins = probe->bins().total_bins_opened();

  // Survivor selection: the smallest item id in each open bin stays until
  // mu*Delta; everything else departs at Delta.
  std::vector<bool> survivor(item_count, false);
  const BinManager& bins = probe->bins();
  bins.for_each_open_bin([&](BinSlot slot) {
    ItemId smallest = kNoItem;
    bins.for_each_resident(slot,
                           [&](ItemId id, double) { smallest = std::min(smallest, id); });
    DBP_CHECK(smallest != kNoItem, "open bin without residents");
    survivor[static_cast<std::size_t>(smallest)] = true;
  });

  outcome.instance.reserve(item_count);
  for (ItemId id = 0; id < item_count; ++id) {
    outcome.instance.add(0.0, survivor[static_cast<std::size_t>(id)] ? mu_delta : delta,
                         size);
  }

  // --- Replay against a fresh, identically-configured packer. Departures
  // happen after every t = 0 placement, so the replayed assignment matches
  // the probe for any deterministic (or identically-seeded) algorithm.
  std::unique_ptr<Packer> target = make_packer();
  outcome.replay = simulate(outcome.instance, *target);
  DBP_CHECK(outcome.replay.bins_opened == outcome.probe_bins,
            "replay diverged from the probe phase");

  outcome.opt = estimate_opt_total(outcome.instance, target->model());
  outcome.ratio = outcome.replay.total_cost / outcome.opt.upper_cost;
  return outcome;
}

}  // namespace dbp
