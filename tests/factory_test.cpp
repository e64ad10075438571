#include "algo/factory.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "support/reference_strategies.hpp"
#include "workload/rng.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

TEST(FactoryTest, BuildsEveryRegisteredAlgorithm) {
  PackerOptions options;
  options.known_mu = 4.0;
  for (const std::string& name : all_algorithm_names()) {
    auto packer = make_packer(name, unit_model(), options);
    ASSERT_NE(packer, nullptr) << name;
    EXPECT_FALSE(packer->name().empty()) << name;
    // Smoke: the packer can place and release an item.
    packer->on_arrival({0, 0.0, 0.5});
    packer->on_departure(0, 1.0);
    EXPECT_EQ(packer->bins().open_count(), 0u) << name;
  }
}

TEST(FactoryTest, UnknownNameThrows) {
  EXPECT_THROW((void)make_packer("frist-fit", unit_model()), PreconditionError);
  EXPECT_THROW((void)make_packer("", unit_model()), PreconditionError);
  // The reference twins are test oracles (support/reference_strategies.hpp):
  // the library's factory does not build them.
  EXPECT_THROW((void)make_packer("first-fit-reference", unit_model()),
               PreconditionError);
  EXPECT_THROW((void)make_packer("best-fit-reference", unit_model()),
               PreconditionError);
}

TEST(FactoryTest, KnownMuVariantRequiresMu) {
  EXPECT_THROW((void)make_packer("modified-first-fit-known-mu", unit_model()),
               PreconditionError);
  PackerOptions options;
  options.known_mu = 2.0;
  EXPECT_NO_THROW(make_packer("modified-first-fit-known-mu", unit_model(), options));
}

TEST(FactoryTest, MffKIsConfigurable) {
  PackerOptions options;
  options.mff_k = 4.0;
  auto packer = make_packer("modified-first-fit", unit_model(), options);
  EXPECT_EQ(packer->name(), "modified-first-fit(k=4)");
}

TEST(FactoryTest, HarmonicClassesConfigurable) {
  PackerOptions options;
  options.harmonic_classes = 7;
  auto packer = make_packer("harmonic-first-fit", unit_model(), options);
  EXPECT_EQ(packer->name(), "harmonic-first-fit(K=7)");
}

TEST(FactoryTest, RandomFitSeedIsDeterministic) {
  PackerOptions options;
  options.seed = 7;
  auto a = make_packer("random-fit", unit_model(), options);
  auto b = make_packer("random-fit", unit_model(), options);
  for (ItemId i = 0; i < 200; ++i) {
    const double size = 0.1 + 0.05 * static_cast<double>(i % 5);
    EXPECT_EQ(a->on_arrival({i, 0.0, size}), b->on_arrival({i, 0.0, size}));
  }
}

// would_open_bin is the dispatcher's rental gate: it must predict, for
// every packer's own rule, whether the next arrival opens a bin. Next Fit
// and the size-classed packers open one while another open bin has room,
// so "some open bin fits" is the wrong answer for them.
TEST(FactoryTest, WouldOpenBinPredictsEveryArrival) {
  PackerOptions options;
  options.known_mu = 4.0;
  std::vector<std::string> names = all_algorithm_names();
  names.insert(names.end(), {"first-fit-reference", "best-fit-reference"});
  const auto build = [&](const std::string& name) {
    if (name == "first-fit-reference") {
      return make_reference_packer("first-fit", unit_model());
    }
    if (name == "best-fit-reference") {
      return make_reference_packer("best-fit", unit_model());
    }
    return make_packer(name, unit_model(), options);
  };
  const std::set<std::string> own_rule{"next-fit", "modified-first-fit",
                                       "modified-first-fit-known-mu",
                                       "adaptive-mff", "harmonic-first-fit"};
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto packer = build(name);
    Rng rng(11);
    std::vector<ItemId> active;
    std::size_t opened_with_room = 0;
    for (ItemId id = 0; id < 2000; ++id) {
      const Time now = static_cast<Time>(id);
      while (!active.empty() && rng.bernoulli(0.45)) {
        const std::size_t pick = rng.uniform_int(0, active.size() - 1);
        packer->on_departure(active[pick], now);
        active[pick] = active.back();
        active.pop_back();
      }
      const double size = rng.uniform(0.02, 0.7);
      bool room = false;
      packer->bins().for_each_open_bin(
          [&](BinSlot bin) { room = room || packer->bins().fits(size, bin); });
      const bool predicted = packer->would_open_bin(size);
      const std::size_t before = packer->bins().total_bins_opened();
      packer->on_arrival({id, now, size});
      const bool opened = packer->bins().total_bins_opened() > before;
      ASSERT_EQ(predicted, opened) << "arrival " << id << " size " << size;
      if (opened && room) ++opened_with_room;
      active.push_back(id);
    }
    if (own_rule.count(name) != 0) {
      EXPECT_GT(opened_with_room, 0u) << "the stream never tells the rules apart";
    } else {
      EXPECT_EQ(opened_with_room, 0u) << "an Any Fit packer opened a bin with room";
    }
  }
}

TEST(FactoryTest, PaperAlgorithmsAreSubsetOfAll) {
  const auto& all = all_algorithm_names();
  for (const std::string& name : paper_algorithm_names()) {
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end()) << name;
  }
}

}  // namespace
}  // namespace dbp
