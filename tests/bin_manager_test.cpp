#include "algo/bin_manager.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/binary_io.hpp"
#include "core/error.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

TEST(BinManagerTest, OpenAssignsSequentialIds) {
  BinManager manager(unit_model());
  EXPECT_EQ(manager.id_of(manager.open_bin(0.0)), 0u);
  EXPECT_EQ(manager.id_of(manager.open_bin(1.0)), 1u);
  EXPECT_EQ(manager.open_count(), 2u);
  EXPECT_EQ(manager.total_bins_opened(), 2u);
}

TEST(BinManagerTest, PlaceUpdatesLevelAndResidual) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  const BinId bin = manager.id_of(slot);
  manager.place({0, 0.0, 0.3}, slot);
  EXPECT_DOUBLE_EQ(manager.level(bin), 0.3);
  EXPECT_DOUBLE_EQ(manager.residual(bin), 0.7);
  EXPECT_DOUBLE_EQ(manager.residual(slot), 0.7);
  manager.place({1, 0.0, 0.5}, slot);
  EXPECT_NEAR(manager.level(bin), 0.8, 1e-15);
  EXPECT_EQ(manager.level(slot), manager.level(bin));
  EXPECT_EQ(manager.item_count(bin), 2u);
  EXPECT_EQ(manager.active_item_count(), 2u);
}

TEST(BinManagerTest, PlaceRejectsOverflow) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.8}, slot);
  EXPECT_THROW(manager.place({1, 0.0, 0.3}, slot), PreconditionError);
  EXPECT_EQ(manager.item_count(manager.id_of(slot)), 1u);  // unchanged after failure
}

TEST(BinManagerTest, PlaceAllowsExactFill) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.5}, slot);
  EXPECT_NO_THROW(manager.place({1, 0.0, 0.5}, slot));
  EXPECT_NEAR(manager.level(slot), 1.0, 1e-15);
}

TEST(BinManagerTest, PlaceRejectsDuplicateItem) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.1}, slot);
  EXPECT_THROW(manager.place({0, 0.0, 0.1}, slot), PreconditionError);
}

TEST(BinManagerTest, PlaceRejectsUnknownOrClosedBin) {
  BinManager manager(unit_model());
  EXPECT_THROW(manager.place({0, 0.0, 0.1}, BinSlot{0}), PreconditionError);
  const BinSlot slot = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.1}, slot);
  manager.remove(0, 1.0);  // closes the bin and frees its slot
  EXPECT_THROW(manager.place({1, 1.0, 0.1}, slot), PreconditionError);
  EXPECT_FALSE(manager.fits(0.1, slot));
}

TEST(BinManagerTest, RemoveClosesEmptyBin) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  const BinId bin = manager.id_of(slot);
  manager.place({0, 0.0, 0.4}, slot);
  manager.place({1, 0.0, 0.4}, slot);
  const DepartureOutcome first = manager.remove(0, 2.0);
  EXPECT_EQ(first.bin, bin);
  EXPECT_EQ(first.slot, slot);
  EXPECT_FALSE(first.bin_closed);
  EXPECT_TRUE(manager.is_open(bin));
  const DepartureOutcome second = manager.remove(1, 3.0);
  EXPECT_TRUE(second.bin_closed);
  EXPECT_EQ(second.slot, slot);
  EXPECT_FALSE(manager.is_open(bin));
  EXPECT_EQ(manager.open_count(), 0u);
  EXPECT_DOUBLE_EQ(manager.usage(bin).opened, 0.0);
  EXPECT_DOUBLE_EQ(manager.usage(bin).closed, 3.0);
}

TEST(BinManagerTest, RemoveUnknownItemThrows) {
  BinManager manager(unit_model());
  EXPECT_THROW(manager.remove(42, 0.0), PreconditionError);
}

TEST(BinManagerTest, LevelResetsExactlyOnClose) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  const BinId bin = manager.id_of(slot);
  for (ItemId i = 0; i < 1000; ++i) manager.place({i, 0.0, 1e-3}, slot);
  for (ItemId i = 0; i < 1000; ++i) manager.remove(i, 1.0);
  EXPECT_EQ(manager.level(bin), 0.0);  // exact zero, no fp residue
  // The slot's next bin starts from an exact zero too.
  EXPECT_EQ(manager.open_bin(2.0), slot);
  EXPECT_EQ(manager.level(slot), 0.0);
}

TEST(BinManagerTest, FitsIsToleranceAware) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  const BinId bin = manager.id_of(slot);
  for (ItemId i = 0; i < 1000; ++i) manager.place({i, 0.0, 1e-3}, slot);
  // Bin is full up to fp noise; another milli-item must not fit.
  EXPECT_FALSE(manager.fits(1e-3, bin));
  EXPECT_FALSE(manager.fits(1e-3, slot));
  EXPECT_TRUE(manager.fits(1e-3 / 2, bin) ==
              manager.model().fits(5e-4, manager.residual(bin)));
}

TEST(BinManagerTest, OpenBinsListsAscending) {
  BinManager manager(unit_model());
  const BinId a = manager.id_of(manager.open_bin(0.0));
  const BinSlot b_slot = manager.open_bin(0.0);
  const BinId c = manager.id_of(manager.open_bin(0.0));
  manager.place({0, 0.0, 0.1}, b_slot);
  manager.remove(0, 1.0);  // closes b
  const auto open = manager.open_bins();
  ASSERT_EQ(open.size(), 2u);
  EXPECT_EQ(open[0], a);
  EXPECT_EQ(open[1], c);
}

// The open bins form a list in opening order. Bins closed out of that order,
// bins opened after them, and a restore into a fresh manager (which rebuilds
// the list from the open flags) must all keep the walk equal to the census.
TEST(BinManagerTest, OpenBinListFollowsClosesOpensAndRestore) {
  const auto walked = [](const BinManager& manager) {
    std::vector<BinId> open;
    manager.for_each_open_bin(
        [&](BinSlot slot) { open.push_back(manager.id_of(slot)); });
    return open;
  };
  const auto census = [](const BinManager& manager) {
    std::vector<BinId> open;
    for (BinId bin = 0; bin < manager.total_bins_opened(); ++bin) {
      if (manager.is_open(bin)) open.push_back(bin);
    }
    return open;
  };
  const auto expect_list = [&](const BinManager& manager,
                               const std::vector<BinId>& expected) {
    EXPECT_EQ(walked(manager), expected);
    EXPECT_EQ(manager.open_bins(), expected);
    EXPECT_EQ(census(manager), expected);
    EXPECT_EQ(manager.open_count(), expected.size());
    manager.audit();  // checks the list itself in DBP_AUDIT builds
  };
  const auto open_with_item = [](BinManager& manager, ItemId id, Time t) {
    manager.place({id, t, 0.5}, manager.open_bin(t));
  };

  BinManager manager(unit_model());
  for (ItemId i = 0; i < 6; ++i) open_with_item(manager, i, static_cast<Time>(i));
  manager.remove(3, 10.0);  // a middle bin,
  manager.remove(5, 11.0);  // the newest,
  manager.remove(0, 12.0);  // and the oldest
  expect_list(manager, {1, 2, 4});
  open_with_item(manager, 6, 13.0);
  open_with_item(manager, 7, 14.0);
  manager.remove(6, 15.0);
  expect_list(manager, {1, 2, 4, 7});

  ByteWriter out;
  manager.save_state(out);
  BinManager restored(unit_model());
  ByteReader in(out.data());
  restored.restore_state(in);
  expect_list(restored, {1, 2, 4, 7});

  // Both lists keep working after the restore.
  for (BinManager* m : {&manager, &restored}) {
    m->remove(1, 16.0);
    m->remove(7, 16.0);
    open_with_item(*m, 8, 17.0);
    expect_list(*m, {2, 4, 8});
  }
  manager.remove(2, 18.0);
  manager.remove(4, 18.0);
  manager.remove(8, 18.0);
  expect_list(manager, {});
  open_with_item(manager, 9, 19.0);
  expect_list(manager, {9});
}

TEST(BinManagerTest, ActiveSizeIsValidForAnyIdAndNeverGrowsTheTable) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  manager.place({3, 0.0, 0.25}, slot);
  EXPECT_EQ(manager.active_size(3), 0.25);
  EXPECT_FALSE(manager.active_size(2).has_value());  // a slot never used
  EXPECT_FALSE(manager.active_size(1u << 30).has_value());
  EXPECT_FALSE(manager.active_size(kNoItem).has_value());
  EXPECT_EQ(manager.assignment_history().size(), 4u);  // no growth
  manager.remove(3, 1.0);
  EXPECT_FALSE(manager.active_size(3).has_value());  // departed
}

TEST(BinManagerTest, PlaceRefusesTheReservedItemId) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.25}, slot);
  EXPECT_THROW(manager.place({kNoItem, 0.0, 0.25}, slot), PreconditionError);
  EXPECT_EQ(manager.item_count(manager.id_of(slot)), 1u);
  EXPECT_EQ(manager.active_size(0), 0.25);  // the table was not cleared
  EXPECT_EQ(manager.assignment_history().size(), 1u);
}

TEST(BinManagerTest, AssignmentHistorySurvivesDeparture) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  const BinId bin = manager.id_of(slot);
  manager.place({7, 0.0, 0.1}, slot);
  manager.remove(7, 1.0);
  manager.place({8, 2.0, 0.1}, manager.open_bin(2.0));  // the same slot, bin 1
  ASSERT_TRUE(manager.assignment_of(7).has_value());
  EXPECT_EQ(*manager.assignment_of(7), bin);
  EXPECT_EQ(*manager.assignment_of(8), bin + 1);
  EXPECT_FALSE(manager.assignment_of(9).has_value());
}

TEST(BinManagerTest, ItemsInBin) {
  BinManager manager(unit_model());
  const BinSlot a = manager.open_bin(0.0);
  const BinSlot b = manager.open_bin(0.0);
  manager.place({2, 0.0, 0.1}, a);
  manager.place({0, 0.0, 0.1}, a);
  manager.place({1, 0.0, 0.1}, b);
  const auto in_a = manager.items_in(manager.id_of(a));
  ASSERT_EQ(in_a.size(), 2u);
  EXPECT_EQ(in_a[0], 0u);  // sorted
  EXPECT_EQ(in_a[1], 2u);
}

TEST(BinManagerTest, ResetClearsEverything) {
  BinManager manager(unit_model());
  const BinSlot slot = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.1}, slot);
  manager.reset();
  EXPECT_EQ(manager.total_bins_opened(), 0u);
  EXPECT_EQ(manager.slot_count(), 0u);
  EXPECT_EQ(manager.open_count(), 0u);
  EXPECT_EQ(manager.active_item_count(), 0u);
  EXPECT_FALSE(manager.assignment_of(0).has_value());
}

TEST(BinManagerTest, UsageOfOpenBinIsUnbounded) {
  BinManager manager(unit_model());
  const BinId bin = manager.id_of(manager.open_bin(5.0));
  EXPECT_FALSE(manager.usage(bin).is_closed());
  EXPECT_DOUBLE_EQ(manager.usage(bin).opened, 5.0);
}

// A bin opens into the lowest free slot, and its id stays the next in
// opening order: slots follow the most bins open at once, ids every bin.
TEST(BinManagerTest, OpeningBinTakesTheLowestFreeSlot) {
  BinManager manager(unit_model());
  std::vector<BinSlot> slots;
  for (ItemId i = 0; i < 4; ++i) {
    slots.push_back(manager.open_bin(0.0));
    manager.place({i, 0.0, 0.5}, slots.back());
    EXPECT_EQ(slots.back(), BinSlot(i));
  }
  manager.remove(2, 1.0);
  manager.remove(0, 1.0);
  EXPECT_EQ(manager.slot_of(0), std::nullopt);
  EXPECT_EQ(manager.slot_of(3), slots[3]);
  const BinSlot first = manager.open_bin(2.0);
  const BinSlot second = manager.open_bin(2.0);
  const BinSlot third = manager.open_bin(2.0);
  EXPECT_EQ(first, BinSlot{0});
  EXPECT_EQ(second, BinSlot{2});
  EXPECT_EQ(third, BinSlot{4});
  EXPECT_EQ(manager.id_of(first), 4u);
  EXPECT_EQ(manager.id_of(second), 5u);
  EXPECT_EQ(manager.id_of(third), 6u);
  EXPECT_EQ(manager.slot_count(), 5u);
  EXPECT_EQ(manager.total_bins_opened(), 7u);
  // The open-bin walk follows opening order, not slot order.
  std::vector<BinId> walked;
  manager.for_each_open_bin([&](BinSlot slot) { walked.push_back(manager.id_of(slot)); });
  EXPECT_EQ(walked, (std::vector<BinId>{1, 3, 4, 5, 6}));
  manager.audit();
}

// A restored manager names the same slots, hands out the same next slots
// and serializes byte for byte like the manager it was saved from, though
// its slot table only reaches the highest occupied slot.
TEST(BinManagerTest, RestoreKeepsSlotsAndTheNextSlotChoice) {
  BinManager manager(unit_model());
  for (ItemId i = 0; i < 6; ++i) manager.place({i, 0.0, 0.5}, manager.open_bin(0.0));
  for (const ItemId i : {ItemId{0}, ItemId{2}, ItemId{5}}) manager.remove(i, 1.0);
  ByteWriter saved;
  manager.save_state(saved);
  BinManager restored(unit_model());
  ByteReader in(saved.data());
  restored.restore_state(in);
  EXPECT_TRUE(in.done());
  EXPECT_EQ(restored.slot_count(), 5u);  // slots 1, 3 and 4 held; 5 was free
  EXPECT_EQ(manager.slot_count(), 6u);
  for (BinManager* m : {&manager, &restored}) {
    EXPECT_EQ(m->slot_of(1), BinSlot{1});
    EXPECT_EQ(m->slot_of(4), BinSlot{4});
    EXPECT_EQ(m->open_bin(2.0), BinSlot{0});
    EXPECT_EQ(m->open_bin(2.0), BinSlot{2});
    EXPECT_EQ(m->open_bin(2.0), BinSlot{5});
    m->place({0, 2.0, 0.25}, BinSlot{5});
  }
  ByteWriter a;
  ByteWriter b;
  manager.save_state(a);
  restored.save_state(b);
  EXPECT_EQ(a.data(), b.data());
}

// The snapshot holds every usage record but state for the open bins only:
// closing bins adds 16 bytes per bin (its opened and closed times).
TEST(BinManagerTest, SnapshotGrowsByTheUsageRecordPerClosedBin) {
  const auto snapshot_bytes = [](std::size_t closed_bins) {
    BinManager manager(unit_model());
    const BinSlot kept = manager.open_bin(0.0);
    manager.place({0, 0.0, 0.5}, kept);
    for (std::size_t i = 0; i < closed_bins; ++i) {
      manager.place({1, 1.0, 0.5}, manager.open_bin(1.0));
      manager.remove(1, 2.0);
    }
    EXPECT_EQ(manager.slot_count(), 2u);
    ByteWriter out;
    manager.save_state(out);
    return out.size();
  };
  EXPECT_EQ(snapshot_bytes(1000) - snapshot_bytes(10), 990u * 16u);
}

TEST(BinManagerTest, RestoreRefusesASlotBeyondItsBinId) {
  BinManager manager(unit_model());
  manager.place({0, 0.0, 0.5}, manager.open_bin(0.0));
  ByteWriter saved;
  manager.save_state(saved);
  std::vector<std::uint8_t> bytes = saved.data();
  // model (24) | record count (8) | record (16) | open count (8) | slot
  const std::size_t slot_at = 24 + 8 + 16 + 8;
  ASSERT_EQ(bytes[slot_at], 0u);
  bytes[slot_at] = 1;  // bin 0 can only ever have held slot 0
  BinManager restored(unit_model());
  ByteReader in(bytes);
  EXPECT_THROW(restored.restore_state(in), CorruptionError);
}

}  // namespace
}  // namespace dbp
