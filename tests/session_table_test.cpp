// The dispatcher's session table (gaming/session_table.hpp): opaque 64-bit
// session ids map to dense slots, the packer sees only slots, freed slots
// are reused lowest first, and a checkpoint's (slot, id) pairs are
// validated on restore.
#include "gaming/session_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algo/bin_manager.hpp"
#include "core/binary_io.hpp"
#include "core/error.hpp"
#include "gaming/dispatcher.hpp"

namespace dbp {
namespace {

constexpr std::uint64_t kHugeId = std::uint64_t{1} << 40;
constexpr std::uint64_t kLargestId = kNoItem - 1;  // 2^64 - 2

/// Deterministic in-test generator: a plain 64-bit LCG.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_;
  }
  std::uint64_t below(std::uint64_t n) { return (next() >> 11) % n; }

 private:
  std::uint64_t state_;
};

std::uint64_t insert(SessionTable& table, std::uint64_t id) {
  const SessionTable::Probe probe = table.find(id);
  EXPECT_FALSE(probe.found) << id;
  return table.insert(probe, id);
}

void erase(SessionTable& table, std::uint64_t id) {
  const SessionTable::Probe probe = table.find(id);
  ASSERT_TRUE(probe.found) << id;
  table.erase(probe);
}

TEST(SessionTableTest, FreedSlotsAreReusedLowestFirst) {
  SessionTable table;
  EXPECT_FALSE(table.find(5).found);
  const std::vector<std::uint64_t> ids = {kLargestId, 0, kHugeId, 7, 1u << 25};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(insert(table, ids[i]), i);
  }
  erase(table, ids[3]);
  erase(table, ids[1]);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_FALSE(table.find(ids[1]).found);
  // Slots 1 and 3 are free: the next sessions take 1, then 3, then 5.
  EXPECT_EQ(insert(table, 11), 1u);
  EXPECT_EQ(insert(table, 12), 3u);
  EXPECT_EQ(insert(table, 13), 5u);
  EXPECT_EQ(table.slot_count(), 6u);
  const SessionTable::Probe probe = table.find(kHugeId);
  ASSERT_TRUE(probe.found);
  EXPECT_EQ(table.slot(probe), 2u);
  EXPECT_EQ(table.id_of(2), kHugeId);
  std::vector<std::uint64_t> in_slot_order;
  table.for_each([&](ItemId slot, std::uint64_t id) {
    EXPECT_EQ(table.id_of(slot), id);
    in_slot_order.push_back(id);
  });
  EXPECT_EQ(in_slot_order, (std::vector<std::uint64_t>{kLargestId, 11, kHugeId,
                                                      12, 1u << 25, 13}));
}

TEST(SessionTableTest, ReservedIdIsNeverFound) {
  SessionTable table;
  (void)insert(table, 3);
  EXPECT_FALSE(table.find(kNoItem).found);
}

// Random inserts and erases against std::map, over ids from a small pool
// (so both hit often) that includes huge ids. The table stays at quarter
// load at most, every erase runs the backward shift, every insert takes the
// lowest slot the map does not hold (the slots span several bitmap words),
// and audit() re-checks every cell's reachability against a packer that
// mirrors the slots.
TEST(SessionTableTest, MatchesAMapUnderRandomChurn) {
  Lcg lcg(99);
  std::vector<std::uint64_t> pool;
  for (int i = 0; i < 300; ++i) {
    pool.push_back(i % 3 == 0 ? lcg.next() : (i % 3 == 1 ? kHugeId + i : i));
  }
  pool.push_back(kLargestId);
  SessionTable table;
  BinManager packer(CostModel{1e9, 1.0, 1e-9});
  BinSlot bin = packer.open_bin(0.0);  // the one open bin
  std::map<std::uint64_t, ItemId> reference;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = pool[lcg.below(pool.size())];
    const SessionTable::Probe probe = table.find(id);
    ASSERT_EQ(probe.found, reference.count(id) == 1) << "step " << step;
    if (probe.found) {
      ASSERT_EQ(table.slot(probe), reference[id]);
      packer.remove(table.slot(probe), 1.0);
      table.erase(probe);
      reference.erase(id);
      if (packer.open_count() == 0) bin = packer.open_bin(1.0);
    } else {
      std::vector<bool> held(table.slot_count() + 1, false);
      for (const auto& entry : reference) held[entry.second] = true;
      const auto lowest_free = static_cast<ItemId>(
          std::find(held.begin(), held.end(), false) - held.begin());
      const ItemId slot = table.insert(probe, id);
      ASSERT_EQ(slot, lowest_free) << "step " << step;
      reference[id] = slot;
      if (packer.open_count() == 0) bin = packer.open_bin(1.0);
      packer.place(ArrivingItem{slot, 1.0, 1.0}, bin);
    }
    ASSERT_EQ(table.size(), reference.size());
    ASSERT_LE(4 * table.size(), table.capacity());
    table.audit_session(id, packer);
    if (step % 97 == 0) table.audit(packer);
  }
  table.audit(packer);
  // Lowest-free reuse keeps the slots dense: never more than the peak.
  EXPECT_LE(table.slot_count(), pool.size());
}

TEST(SessionTableTest, AuditCatchesATableThatDisagreesWithThePacker) {
  SessionTable table;
  BinManager packer(CostModel{1.0, 1.0, 1e-9});
  const BinSlot bin = packer.open_bin(0.0);
  const ItemId a = insert(table, kHugeId);
  const ItemId b = insert(table, 9);
  packer.place(ArrivingItem{a, 0.0, 0.25}, bin);
  EXPECT_THROW(table.audit(packer), InvariantError);  // b is not placed
  EXPECT_THROW(table.audit_session(kHugeId, packer), InvariantError);
  packer.place(ArrivingItem{b, 0.0, 0.25}, bin);
  EXPECT_NO_THROW(table.audit(packer));
  EXPECT_NO_THROW(table.audit_session(9, packer));
  packer.remove(a, 1.0);
  packer.place(ArrivingItem{a + 2, 1.0, 0.25}, bin);  // a slot no session holds
  EXPECT_THROW(table.audit(packer), InvariantError);
  EXPECT_THROW(table.audit_session(kHugeId, packer), InvariantError);
}

// ---- inside the dispatcher ------------------------------------------------

ServerSpec spec() { return ServerSpec{1.0, 6.0}; }

FaultPolicy drop_policy() {
  FaultPolicy policy;
  policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  return policy;
}

TEST(DispatcherSessionTableTest, HugeIdsAreServedAndFoundByTheirIds) {
  GameServerDispatcher dispatcher(spec(), "first-fit", {}, drop_policy());
  const BinId a = dispatcher.start_session(kHugeId, 0.5, 0.0);
  const BinId b = dispatcher.start_session(kLargestId, 0.75, 1.0);
  ASSERT_NE(a, kNoServer);
  ASSERT_NE(b, kNoServer);
  EXPECT_NE(a, b);
  ASSERT_TRUE(dispatcher.find_session(kLargestId).has_value());
  EXPECT_EQ(dispatcher.find_session(kLargestId)->server, b);
  EXPECT_EQ(dispatcher.find_session(kLargestId)->gpu_fraction, 0.75);
  EXPECT_FALSE(dispatcher.find_session(0).has_value());
  // The packer sees slots 0 and 1, never the ids.
  EXPECT_EQ(dispatcher.bins().assignment_history().size(), 2u);
  EXPECT_EQ(dispatcher.start_session(kHugeId, 0.25, 2.0), kNoServer);  // duplicate
  dispatcher.end_session(kHugeId, 3.0);
  EXPECT_FALSE(dispatcher.find_session(kHugeId).has_value());
  dispatcher.end_session(kHugeId, 4.0);  // unknown now
  EXPECT_EQ(dispatcher.fault_stats().duplicate_starts, 1u);
  EXPECT_EQ(dispatcher.fault_stats().unknown_ends, 1u);
  EXPECT_EQ(dispatcher.active_sessions(), 1u);
  dispatcher.sessions().audit(dispatcher.bins());
}

// Shedding breaks size ties on the lowest session id, not the lowest slot:
// session 9 holds slot 0 and session 3 slot 1, so only id order sheds 3.
TEST(DispatcherSessionTableTest, SheddingTiesBreakOnSessionIdsNotSlots) {
  FaultPolicy policy = drop_policy();
  policy.max_fleet_servers = 1;
  GameServerDispatcher dispatcher(spec(), "first-fit", {}, policy);
  (void)dispatcher.start_session(9, 0.25, 0.0);
  (void)dispatcher.start_session(3, 0.25, 1.0);
  EXPECT_EQ(dispatcher.start_session(20, 0.75, 2.0), BinId{0});
  EXPECT_EQ(dispatcher.fault_stats().sessions_shed, 1u);
  EXPECT_FALSE(dispatcher.find_session(3).has_value());
  EXPECT_TRUE(dispatcher.find_session(9).has_value());
  dispatcher.sessions().audit(dispatcher.bins());
}

// A crash re-dispatches orphans in ascending session id, not slot order:
// session 8 (slot 0, 0.4) and session 2 (slot 1, 0.3) orphan onto a fleet
// whose only other server has 0.4 free, so the first re-dispatched takes it.
TEST(DispatcherSessionTableTest, CrashRedispatchFollowsSessionIdsNotSlots) {
  GameServerDispatcher dispatcher(spec(), "first-fit", {}, drop_policy());
  const BinId crashing = dispatcher.start_session(8, 0.4, 0.0);
  ASSERT_EQ(dispatcher.start_session(2, 0.3, 1.0), crashing);
  const BinId other = dispatcher.start_session(50, 0.6, 2.0);
  ASSERT_NE(other, crashing);
  EXPECT_EQ(dispatcher.fail_server(crashing, 3.0), 2u);
  EXPECT_EQ(dispatcher.find_session(2)->server, other);
  EXPECT_NE(dispatcher.find_session(8)->server, other);
  dispatcher.sessions().audit(dispatcher.bins());
}

// A packer that throws on an arrival (a clairvoyant one needs departure
// times) starts no session, so the table must not keep one either.
TEST(DispatcherSessionTableTest, ARefusedArrivalLeavesNoSessionBehind) {
  GameServerDispatcher dispatcher(spec(), "align-departures-fit");
  EXPECT_THROW((void)dispatcher.start_session(kHugeId, 0.5, 0.0), PreconditionError);
  EXPECT_EQ(dispatcher.sessions().size(), 0u);
  EXPECT_FALSE(dispatcher.find_session(kHugeId).has_value());
  // Not a duplicate start: the same id is refused by the packer again.
  EXPECT_THROW((void)dispatcher.start_session(kHugeId, 0.5, 1.0), PreconditionError);
  EXPECT_EQ(dispatcher.fault_stats().duplicate_starts, 0u);
  dispatcher.sessions().audit(dispatcher.bins());
}

// At the same peak active count, ten times the events leave the session
// table and the packer's item table no larger: memory follows the active
// sessions, not the ids or the run's length.
TEST(DispatcherSessionTableTest, TablesStayAtThePeakActiveCount) {
  constexpr std::uint64_t kActive = 150;
  const auto run = [](std::uint64_t events) {
    GameServerDispatcher dispatcher(spec(), "first-fit", {}, drop_policy());
    Lcg lcg(7);
    Lcg ids(11);  // fresh ids past 2^40
    std::vector<std::uint64_t> live;
    std::uint64_t served = 0;
    for (std::uint64_t i = 0; served < events; ++i) {
      const Time t = static_cast<Time>(i);
      if (live.size() == kActive) {
        // A random live session departs.
        const std::size_t victim = lcg.below(live.size());
        dispatcher.end_session(live[victim], t);
        live[victim] = live.back();
        live.pop_back();
        ++served;
      }
      const std::uint64_t id = ids.next() | kHugeId;
      EXPECT_NE(dispatcher.start_session(id, 0.05 + 0.01 * (i % 20), t), kNoServer);
      live.push_back(id);
      ++served;
    }
    EXPECT_EQ(dispatcher.fault_stats().total_dropped_events(), 0u);
    return std::vector<std::size_t>{dispatcher.sessions().slot_count(),
                                    dispatcher.sessions().capacity(),
                                    dispatcher.bins().assignment_history().size()};
  };
  const std::vector<std::size_t> once = run(20000);
  const std::vector<std::size_t> tenfold = run(200000);
  EXPECT_EQ(once[0], kActive);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_LE(tenfold[i], once[i]) << "table " << i;
  }
}

// Sheds, crashes and flaky rentals move sessions in and out of the table
// on every path; the table must agree with the packer after every event.
TEST(DispatcherSessionTableTest, TableAgreesWithThePackerOnEveryPath) {
  FaultPolicy policy = drop_policy();
  policy.max_fleet_servers = 3;
  policy.rental_failure_rate = 0.2;
  policy.max_rental_retries = 1;
  GameServerDispatcher dispatcher(spec(), "first-fit", {}, policy);
  Lcg lcg(3);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(i % 2 == 0 ? lcg.next() : kHugeId + i);
  for (int step = 0; step < 4000; ++step) {
    const Time t = static_cast<Time>(step);
    const std::uint64_t id = ids[lcg.below(ids.size())];
    switch (lcg.below(5)) {
      case 0:
      case 1:
        (void)dispatcher.start_session(id, 0.1 * static_cast<double>(1 + lcg.below(6)), t);
        break;
      case 2:
      case 3:
        dispatcher.end_session(id, t);
        break;
      default: {
        const std::vector<BinId> open = dispatcher.bins().open_bins();
        if (!open.empty()) (void)dispatcher.fail_server(open[lcg.below(open.size())], t);
      }
    }
    dispatcher.sessions().audit(dispatcher.bins());
    for (const std::uint64_t session : ids) {
      const std::optional<ActiveSession> found = dispatcher.find_session(session);
      if (found) {
        EXPECT_TRUE(dispatcher.bins().is_open(found->server));
      }
    }
  }
  const DispatcherFaultStats& stats = dispatcher.fault_stats();
  EXPECT_GT(stats.sessions_shed, 0u);
  EXPECT_GT(stats.sessions_redispatched, 0u);
  EXPECT_GT(stats.sessions_rejected_rental + stats.sessions_rejected_cap, 0u);
}

// ---- checkpoints ------------------------------------------------------------

/// Sessions in slots 0 and 2 (slot 1 was freed).
void run_prefix(GameServerDispatcher& dispatcher) {
  (void)dispatcher.start_session(kHugeId, 0.25, 0.0);
  (void)dispatcher.start_session(5, 0.25, 1.0);
  (void)dispatcher.start_session(kLargestId, 0.5, 2.0);
  dispatcher.end_session(5, 3.0);
}

/// run_prefix's save_state() bytes. The session table is their tail:
/// u64 count | (u64 slot, u64 id) per session, 40 bytes here.
std::vector<std::uint8_t> saved_state() {
  GameServerDispatcher dispatcher(spec(), "first-fit", {}, drop_policy());
  run_prefix(dispatcher);
  ByteWriter out;
  dispatcher.save_state(out);
  return out.take();
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t value) {
  ByteWriter word;
  word.u64(value);
  std::copy(word.data().begin(), word.data().end(), bytes.begin() + static_cast<std::ptrdiff_t>(at));
}

GameServerDispatcher restore(const std::vector<std::uint8_t>& bytes) {
  ByteReader in(bytes);
  return GameServerDispatcher::from_state(in);
}

TEST(DispatcherSessionTableTest, CheckpointRoundTripContinuesInTheSameSlots) {
  const std::vector<std::uint8_t> saved = saved_state();
  GameServerDispatcher restored = restore(saved);
  ASSERT_TRUE(restored.find_session(kLargestId).has_value());
  EXPECT_EQ(restored.find_session(kLargestId)->gpu_fraction, 0.5);
  EXPECT_FALSE(restored.find_session(5).has_value());
  restored.sessions().audit(restored.bins());
  ByteWriter again;
  restored.save_state(again);
  EXPECT_EQ(again.data(), saved);

  // The next session takes freed slot 1, in the restored dispatcher as in
  // one that never stopped.
  GameServerDispatcher uninterrupted(spec(), "first-fit", {}, drop_policy());
  run_prefix(uninterrupted);
  for (GameServerDispatcher* dispatcher : {&restored, &uninterrupted}) {
    (void)dispatcher->start_session(77, 0.25, 4.0);
    EXPECT_EQ(dispatcher->sessions().slot(dispatcher->sessions().find(77)), 1u);
  }
  ByteWriter a;
  ByteWriter b;
  restored.save_state(a);
  uninterrupted.save_state(b);
  EXPECT_EQ(a.data(), b.data());
}

TEST(DispatcherSessionTableTest, CheckpointWithABadSessionTableIsRefused) {
  const std::vector<std::uint8_t> saved = saved_state();
  const std::size_t last_slot = saved.size() - 16;
  const std::size_t last_id = saved.size() - 8;
  const std::size_t first_id = saved.size() - 24;
  struct Damage {
    const char* what;
    std::size_t at;
    std::uint64_t value;
  };
  for (const Damage& damage : {Damage{"repeated id", last_id, kHugeId},
                               Damage{"slot not held", last_slot, 1},
                               Damage{"slot past the packer", last_slot, 1u << 30},
                               Damage{"reserved id", last_id, kNoItem},
                               Damage{"reserved first id", first_id, kNoItem}}) {
    SCOPED_TRACE(damage.what);
    std::vector<std::uint8_t> bytes = saved;
    put_u64(bytes, damage.at, damage.value);
    EXPECT_THROW((void)restore(bytes), CorruptionError);
  }
  // A count that disagrees with the packer's sessions.
  std::vector<std::uint8_t> bytes = saved;
  put_u64(bytes, saved.size() - 40, 3);
  EXPECT_THROW((void)restore(bytes), CorruptionError);
}

}  // namespace
}  // namespace dbp
