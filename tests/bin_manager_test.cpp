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
  EXPECT_EQ(manager.open_bin(0.0), 0u);
  EXPECT_EQ(manager.open_bin(1.0), 1u);
  EXPECT_EQ(manager.open_count(), 2u);
  EXPECT_EQ(manager.total_bins_opened(), 2u);
}

TEST(BinManagerTest, PlaceUpdatesLevelAndResidual) {
  BinManager manager(unit_model());
  const BinId bin = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.3}, bin);
  EXPECT_DOUBLE_EQ(manager.level(bin), 0.3);
  EXPECT_DOUBLE_EQ(manager.residual(bin), 0.7);
  manager.place({1, 0.0, 0.5}, bin);
  EXPECT_NEAR(manager.level(bin), 0.8, 1e-15);
  EXPECT_EQ(manager.item_count(bin), 2u);
  EXPECT_EQ(manager.active_item_count(), 2u);
}

TEST(BinManagerTest, PlaceRejectsOverflow) {
  BinManager manager(unit_model());
  const BinId bin = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.8}, bin);
  EXPECT_THROW(manager.place({1, 0.0, 0.3}, bin), PreconditionError);
  EXPECT_EQ(manager.item_count(bin), 1u);  // unchanged after failure
}

TEST(BinManagerTest, PlaceAllowsExactFill) {
  BinManager manager(unit_model());
  const BinId bin = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.5}, bin);
  EXPECT_NO_THROW(manager.place({1, 0.0, 0.5}, bin));
  EXPECT_NEAR(manager.level(bin), 1.0, 1e-15);
}

TEST(BinManagerTest, PlaceRejectsDuplicateItem) {
  BinManager manager(unit_model());
  const BinId bin = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.1}, bin);
  EXPECT_THROW(manager.place({0, 0.0, 0.1}, bin), PreconditionError);
}

TEST(BinManagerTest, PlaceRejectsUnknownOrClosedBin) {
  BinManager manager(unit_model());
  EXPECT_THROW(manager.place({0, 0.0, 0.1}, 0), PreconditionError);
  const BinId bin = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.1}, bin);
  manager.remove(0, 1.0);  // closes the bin
  EXPECT_THROW(manager.place({1, 1.0, 0.1}, bin), PreconditionError);
}

TEST(BinManagerTest, RemoveClosesEmptyBin) {
  BinManager manager(unit_model());
  const BinId bin = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.4}, bin);
  manager.place({1, 0.0, 0.4}, bin);
  const DepartureOutcome first = manager.remove(0, 2.0);
  EXPECT_EQ(first.bin, bin);
  EXPECT_FALSE(first.bin_closed);
  EXPECT_TRUE(manager.is_open(bin));
  const DepartureOutcome second = manager.remove(1, 3.0);
  EXPECT_TRUE(second.bin_closed);
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
  const BinId bin = manager.open_bin(0.0);
  for (ItemId i = 0; i < 1000; ++i) manager.place({i, 0.0, 1e-3}, bin);
  for (ItemId i = 0; i < 1000; ++i) manager.remove(i, 1.0);
  EXPECT_EQ(manager.level(bin), 0.0);  // exact zero, no fp residue
}

TEST(BinManagerTest, FitsIsToleranceAware) {
  BinManager manager(unit_model());
  const BinId bin = manager.open_bin(0.0);
  for (ItemId i = 0; i < 1000; ++i) manager.place({i, 0.0, 1e-3}, bin);
  // Bin is full up to fp noise; another milli-item must not fit.
  EXPECT_FALSE(manager.fits(1e-3, bin));
  EXPECT_TRUE(manager.fits(1e-3 / 2, bin) ==
              manager.model().fits(5e-4, manager.residual(bin)));
}

TEST(BinManagerTest, OpenBinsListsAscending) {
  BinManager manager(unit_model());
  const BinId a = manager.open_bin(0.0);
  const BinId b = manager.open_bin(0.0);
  const BinId c = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.1}, b);
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
    manager.for_each_open_bin([&open](BinId bin) { open.push_back(bin); });
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
  const BinId bin = manager.open_bin(0.0);
  manager.place({3, 0.0, 0.25}, bin);
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
  const BinId bin = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.25}, bin);
  EXPECT_THROW(manager.place({kNoItem, 0.0, 0.25}, bin), PreconditionError);
  EXPECT_EQ(manager.item_count(bin), 1u);
  EXPECT_EQ(manager.active_size(0), 0.25);  // the table was not cleared
  EXPECT_EQ(manager.assignment_history().size(), 1u);
}

TEST(BinManagerTest, AssignmentHistorySurvivesDeparture) {
  BinManager manager(unit_model());
  const BinId bin = manager.open_bin(0.0);
  manager.place({7, 0.0, 0.1}, bin);
  manager.remove(7, 1.0);
  ASSERT_TRUE(manager.assignment_of(7).has_value());
  EXPECT_EQ(*manager.assignment_of(7), bin);
  EXPECT_FALSE(manager.assignment_of(8).has_value());
}

TEST(BinManagerTest, ItemsInBin) {
  BinManager manager(unit_model());
  const BinId a = manager.open_bin(0.0);
  const BinId b = manager.open_bin(0.0);
  manager.place({2, 0.0, 0.1}, a);
  manager.place({0, 0.0, 0.1}, a);
  manager.place({1, 0.0, 0.1}, b);
  const auto in_a = manager.items_in(a);
  ASSERT_EQ(in_a.size(), 2u);
  EXPECT_EQ(in_a[0], 0u);  // sorted
  EXPECT_EQ(in_a[1], 2u);
}

TEST(BinManagerTest, ResetClearsEverything) {
  BinManager manager(unit_model());
  const BinId bin = manager.open_bin(0.0);
  manager.place({0, 0.0, 0.1}, bin);
  manager.reset();
  EXPECT_EQ(manager.total_bins_opened(), 0u);
  EXPECT_EQ(manager.open_count(), 0u);
  EXPECT_EQ(manager.active_item_count(), 0u);
  EXPECT_FALSE(manager.assignment_of(0).has_value());
}

TEST(BinManagerTest, UsageOfOpenBinIsUnbounded) {
  BinManager manager(unit_model());
  const BinId bin = manager.open_bin(5.0);
  EXPECT_FALSE(manager.usage(bin).is_closed());
  EXPECT_DOUBLE_EQ(manager.usage(bin).opened, 5.0);
}

}  // namespace
}  // namespace dbp
