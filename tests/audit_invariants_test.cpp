// Exercises the DBP_AUDIT deep invariant checks (core/audit.hpp). This
// suite is only registered through dbp_add_audit_test, so it links against
// dbp_audit_lib — the algo/sim/opt core recompiled with DBP_AUDIT=1 — and
// every place/remove/snapshot below runs the full audit machinery.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "algo/bin_manager.hpp"
#include "algo/factory.hpp"
#include "core/audit.hpp"
#include "core/error.hpp"
#include "core/instance.hpp"
#include "opt/opt_total.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"

namespace dbp {
namespace {

static_assert(DBP_AUDIT_ENABLED == 1,
              "audit_invariants_test must be built via dbp_add_audit_test "
              "(DBP_AUDIT=1); a no-audit build would test nothing");

/// Deterministic in-test generator (no src/workload dependency, no rand()):
/// a plain 64-bit LCG mapped to [0, 1).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}

  double next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state_ >> 11) /
           static_cast<double>(1ULL << 53);
  }

 private:
  std::uint64_t state_;
};

Instance make_instance(std::size_t items, std::uint64_t seed) {
  Instance instance;
  Lcg lcg(seed);
  for (std::size_t i = 0; i < items; ++i) {
    const Time arrival = lcg.next() * 100.0;
    const Time length = 0.5 + lcg.next() * 25.0;
    const double size = 0.02 + 0.93 * lcg.next();
    instance.add(arrival, arrival + length, size);
  }
  return instance;
}

TEST(AuditMacros, EnabledInThisBinary) {
  EXPECT_TRUE(audit_enabled());
}

TEST(AuditMacros, FailingCheckThrowsInvariantError) {
  EXPECT_THROW(DBP_AUDIT_CHECK(1 + 1 == 3, "arithmetic broke"), InvariantError);
  EXPECT_NO_THROW(DBP_AUDIT_CHECK(1 + 1 == 2, "arithmetic fine"));
}

TEST(BinManagerAudit, ScriptedLifecyclePassesDeepAudit) {
  BinManager manager(CostModel{});
  const BinSlot b0 = manager.open_bin(0.0);
  const BinSlot b1 = manager.open_bin(0.0);
  const BinId b0_id = manager.id_of(b0);
  manager.place(ArrivingItem{0, 0.0, 0.6}, b0);
  manager.place(ArrivingItem{1, 1.0, 0.3}, b0);
  manager.place(ArrivingItem{2, 1.0, 0.9}, b1);
  manager.audit();

  manager.remove(1, 2.0);
  manager.audit();
  manager.place(ArrivingItem{3, 3.0, 0.35}, b0);
  manager.audit();

  manager.remove(0, 4.0);
  manager.remove(3, 4.0);  // empties and closes b0
  EXPECT_FALSE(manager.is_open(b0_id));
  manager.remove(2, 5.0);
  manager.audit();
  EXPECT_EQ(manager.open_count(), 0u);
  EXPECT_EQ(manager.active_item_count(), 0u);
}

TEST(BinManagerAudit, RandomChurnKeepsInvariants) {
  const Instance instance = make_instance(400, 0x243F6A8885A308D3ULL);
  BinManager manager(CostModel{});
  // Replay the event sequence with trivial first-fit placement; every
  // place/remove self-audits the touched bin, and we run the full audit
  // at a coarse cadence.
  const std::vector<Event> events = build_event_sequence(instance);
  std::size_t step = 0;
  for (const Event& event : events) {
    const Item& item = instance.item(event.item);
    if (event.kind == EventKind::kArrival) {
      BinSlot chosen = kNoSlot;
      manager.for_each_open_bin([&](BinSlot slot) {
        if (chosen == kNoSlot && manager.fits(item.size, slot)) chosen = slot;
      });
      if (chosen == kNoSlot) chosen = manager.open_bin(event.time);
      manager.place(ArrivingItem{item.id, item.arrival, item.size}, chosen);
    } else {
      manager.remove(item.id, event.time);
    }
    if (++step % 64 == 0) manager.audit();
  }
  manager.audit();
  EXPECT_EQ(manager.active_item_count(), 0u);
  EXPECT_EQ(manager.open_count(), 0u);
}

TEST(PackerAudit, AllFactoryAlgorithmsRunUnderAudit) {
  const Instance instance = make_instance(300, 0x9E3779B97F4A7C15ULL);
  const CostModel model{};
  PackerOptions options;
  options.known_mu = 64.0;  // generators above cap the duration ratio at 52
  for (const std::string& name : all_algorithm_names()) {
    SCOPED_TRACE(name);
    const SimulationResult result = simulate(instance, name, model, options);
    EXPECT_GT(result.bins_opened, 0u);
    EXPECT_GT(result.total_cost, 0.0);
  }
}

TEST(OptTotalAudit, RleShadowMultisetAgreesWithDenseBookkeeping) {
  const Instance instance = make_instance(350, 0xD1B54A32D192ED03ULL);
  const CostModel model{};
  const OptTotalResult result = estimate_opt_total(instance, model, {});
  EXPECT_GT(result.segments, 0u);
  EXPECT_GT(result.distinct_snapshots, 0u);
  EXPECT_LE(result.lower_cost, result.upper_cost * (1.0 + 1e-9));
}

TEST(OptTotalAudit, DuplicateSizesStressRleRuns) {
  // Many exactly-equal sizes force multi-count RLE runs, the case where a
  // broken run-length encoding would diverge from the dense multiset.
  Instance instance;
  Lcg lcg(0xA5A5A5A5DEADBEEFULL);
  for (std::size_t i = 0; i < 240; ++i) {
    const Time arrival = lcg.next() * 40.0;
    const Time length = 1.0 + lcg.next() * 10.0;
    const double size = (i % 3 == 0) ? 0.25 : (i % 3 == 1 ? 0.5 : 0.125);
    instance.add(arrival, arrival + length, size);
  }
  const OptTotalResult result = estimate_opt_total(instance, CostModel{}, {});
  EXPECT_GT(result.segments, 0u);
}

}  // namespace
}  // namespace dbp
