#include "algo/factory.hpp"

#include <memory>

#include "algo/adaptive_mff.hpp"
#include "algo/any_fit_packer.hpp"
#include "algo/clairvoyant.hpp"
#include "algo/size_classed_packer.hpp"
#include "algo/strategies.hpp"
#include "core/error.hpp"

namespace dbp {

std::unique_ptr<Packer> make_packer(const std::string& name, const CostModel& model,
                                    const PackerOptions& options) {
  // Built-in strategies go through StaticAnyFitPacker<S>: bit-identical to
  // AnyFitPacker (same arrival/departure bodies) with the per-event policy
  // calls devirtualized and inlined into the event loop.
  auto static_fit = [&]<typename S>(std::unique_ptr<S> strategy) {
    return std::make_unique<StaticAnyFitPacker<S>>(model, std::move(strategy));
  };
  if (name == "first-fit") {
    return static_fit(std::make_unique<FirstFitStrategy>(model));
  }
  if (name == "best-fit") {
    return static_fit(std::make_unique<BestFitStrategy>(model));
  }
  if (name == "worst-fit") {
    return static_fit(std::make_unique<WorstFitStrategy>(model));
  }
  if (name == "next-fit") {
    return static_fit(std::make_unique<NextFitStrategy>(model));
  }
  if (name == "last-fit") {
    return static_fit(std::make_unique<LastFitStrategy>(model));
  }
  if (name == "random-fit") {
    return static_fit(std::make_unique<RandomFitStrategy>(model, options.seed));
  }
  if (name == "move-to-front-fit") {
    return static_fit(std::make_unique<MoveToFrontStrategy>(model));
  }
  if (name == "modified-first-fit") {
    return make_modified_first_fit(model, options.mff_k);
  }
  if (name == "modified-first-fit-known-mu") {
    DBP_REQUIRE(options.known_mu >= 1.0,
                "modified-first-fit-known-mu requires options.known_mu >= 1");
    return make_modified_first_fit_known_mu(model, options.known_mu);
  }
  if (name == "harmonic-first-fit") {
    return make_harmonic_first_fit(model, options.harmonic_classes);
  }
  if (name == "adaptive-mff") {
    return std::make_unique<AdaptiveMffPacker>(model);
  }
  if (name == "align-departures-fit") {
    return std::make_unique<DurationAwarePacker>(
        model, DurationAwarePacker::Policy::kAlignDepartures);
  }
  if (name == "min-extension-fit") {
    return std::make_unique<DurationAwarePacker>(
        model, DurationAwarePacker::Policy::kMinimizeExtension);
  }
  DBP_REQUIRE(false, "unknown packer name: " + name);
  return nullptr;  // unreachable
}

const std::vector<std::string>& all_algorithm_names() {
  static const std::vector<std::string> names{
      "first-fit",         "best-fit",   "worst-fit",
      "next-fit",          "last-fit",   "random-fit",
      "move-to-front-fit", "modified-first-fit", "modified-first-fit-known-mu",
      "adaptive-mff",      "harmonic-first-fit"};
  return names;
}

const std::vector<std::string>& paper_algorithm_names() {
  static const std::vector<std::string> names{"first-fit", "best-fit",
                                              "modified-first-fit"};
  return names;
}

const std::vector<std::string>& clairvoyant_algorithm_names() {
  static const std::vector<std::string> names{"align-departures-fit",
                                              "min-extension-fit"};
  return names;
}

}  // namespace dbp
