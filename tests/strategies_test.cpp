#include "algo/strategies.hpp"

#include <gtest/gtest.h>

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

// Slot `i`. These tests register bin i into slot i unless they say
// otherwise.
BinSlot slot(int i) { return static_cast<BinSlot>(i); }
std::optional<BinSlot> at(int i) { return slot(i); }

template <typename Strategy>
void add(Strategy& strategy, int i, double residual) {
  strategy.on_bin_registered(slot(i), static_cast<BinId>(i), residual);
}

// Registers bins 0..n-1 with given residuals.
template <typename Strategy>
Strategy with_bins(std::initializer_list<double> residuals) {
  Strategy strategy(unit_model());
  int i = 0;
  for (double r : residuals) add(strategy, i++, r);
  return strategy;
}

TEST(FirstFitStrategyTest, PicksEarliestFittingBin) {
  auto s = with_bins<FirstFitStrategy>({0.1, 0.5, 0.9});
  EXPECT_EQ(s.select(0.4), at(1));
  EXPECT_EQ(s.select(0.05), at(0));
  EXPECT_EQ(s.select(0.8), at(2));
  EXPECT_EQ(s.select(0.95), std::nullopt);
}

TEST(FirstFitStrategyTest, TracksResidualChanges) {
  auto s = with_bins<FirstFitStrategy>({0.5, 0.5});
  s.on_residual_changed(slot(0), 0.1);
  EXPECT_EQ(s.select(0.3), at(1));
  s.on_residual_changed(slot(0), 0.6);
  EXPECT_EQ(s.select(0.3), at(0));
}

TEST(FirstFitStrategyTest, ClosedBinNeverSelected) {
  auto s = with_bins<FirstFitStrategy>({0.9, 0.9});
  s.on_bin_closed(slot(0));
  EXPECT_EQ(s.select(0.5), at(1));
  EXPECT_THROW(s.on_bin_closed(slot(0)), PreconditionError);  // double close
}

// A closed bin's slot registered again before the tree compacts leaves a
// dead position that still names the slot; neither that position nor the
// compaction may let the slot's new bin jump ahead of earlier-opened bins.
template <typename Strategy>
void expect_slot_reuse_keeps_opening_order(bool first) {
  Strategy s(unit_model());
  const auto pick = [first](int earliest, int latest) {
    return at(first ? earliest : latest);
  };
  s.on_bin_registered(slot(0), 0, 0.9);
  s.on_bin_registered(slot(1), 1, 0.9);
  s.on_bin_registered(slot(2), 2, 0.9);  // 3 positions of 4
  s.on_bin_closed(slot(0));
  s.on_bin_registered(slot(0), 3, 0.9);  // position 3; position 0 is dead
  EXPECT_EQ(s.select(0.5), pick(1, 0));
  s.on_residual_changed(slot(0), 0.6);
  s.on_bin_closed(slot(1));
  EXPECT_EQ(s.select(0.5), pick(2, 0));
  s.on_residual_changed(slot(2), 0.1);
  EXPECT_EQ(s.select(0.5), at(0));
  s.on_residual_changed(slot(2), 0.9);
  // The tree is full with two of four positions live: this compacts, and
  // only positions 2 and 3 survive, in that order.
  s.on_bin_registered(slot(1), 4, 0.9);
  EXPECT_EQ(s.select(0.5), pick(2, 1));
  s.on_residual_changed(slot(2), 0.1);
  s.on_residual_changed(slot(1), 0.1);
  EXPECT_EQ(s.select(0.5), at(0));
  s.on_residual_changed(slot(1), 0.9);
  EXPECT_EQ(s.select(0.5), pick(0, 1));
}

TEST(FirstFitStrategyTest, SlotReusedBeforeCompactionKeepsOpeningOrder) {
  expect_slot_reuse_keeps_opening_order<FirstFitStrategy>(true);
}

TEST(LastFitStrategyTest, SlotReusedBeforeCompactionKeepsOpeningOrder) {
  expect_slot_reuse_keeps_opening_order<LastFitStrategy>(false);
}

// Ties break toward the earliest-opened bin, whatever its slot.
TEST(BestFitStrategyTest, TieBreaksByOpeningOrderNotSlot) {
  BestFitStrategy best(unit_model());
  WorstFitStrategy worst(unit_model());
  for (FitStrategy* s :
       {static_cast<FitStrategy*>(&best), static_cast<FitStrategy*>(&worst)}) {
    s->on_bin_registered(slot(1), 7, 0.5);
    s->on_bin_registered(slot(2), 8, 0.5);
    s->on_bin_registered(slot(0), 9, 0.5);
    EXPECT_EQ(s->select(0.5), at(1));
    s->on_bin_closed(slot(1));
    EXPECT_EQ(s->select(0.5), at(2));
  }
}

TEST(LastFitStrategyTest, PicksLatestFittingBin) {
  auto s = with_bins<LastFitStrategy>({0.9, 0.5, 0.1});
  EXPECT_EQ(s.select(0.4), at(1));
  EXPECT_EQ(s.select(0.05), at(2));
  EXPECT_EQ(s.select(0.8), at(0));
  EXPECT_EQ(s.select(0.95), std::nullopt);
}

TEST(BestFitStrategyTest, PicksSmallestSufficientResidual) {
  auto s = with_bins<BestFitStrategy>({0.9, 0.3, 0.5});
  EXPECT_EQ(s.select(0.3), at(1));
  EXPECT_EQ(s.select(0.4), at(2));
  EXPECT_EQ(s.select(0.6), at(0));
  EXPECT_EQ(s.select(0.91), std::nullopt);
}

TEST(BestFitStrategyTest, TieBreaksTowardEarliestBin) {
  auto s = with_bins<BestFitStrategy>({0.5, 0.5, 0.5});
  EXPECT_EQ(s.select(0.5), at(0));
}

TEST(BestFitStrategyTest, ResidualUpdateMovesBinInOrder) {
  auto s = with_bins<BestFitStrategy>({0.9, 0.4});
  s.on_residual_changed(slot(0), 0.2);
  EXPECT_EQ(s.select(0.2), at(0));
  EXPECT_EQ(s.select(0.3), at(1));
}

TEST(BestFitStrategyTest, CloseRemovesFromIndex) {
  auto s = with_bins<BestFitStrategy>({0.4, 0.9});
  s.on_bin_closed(slot(0));
  EXPECT_EQ(s.select(0.2), at(1));
}

TEST(WorstFitStrategyTest, PicksLargestResidual) {
  auto s = with_bins<WorstFitStrategy>({0.3, 0.9, 0.5});
  EXPECT_EQ(s.select(0.2), at(1));
  s.on_residual_changed(slot(1), 0.1);
  EXPECT_EQ(s.select(0.2), at(2));
}

TEST(WorstFitStrategyTest, DeclinesWhenEvenLargestDoesNotFit) {
  auto s = with_bins<WorstFitStrategy>({0.3, 0.4});
  EXPECT_EQ(s.select(0.5), std::nullopt);
}

TEST(WorstFitStrategyTest, TieBreaksTowardEarliestBin) {
  auto s = with_bins<WorstFitStrategy>({0.5, 0.5});
  EXPECT_EQ(s.select(0.1), at(0));
}

TEST(NextFitStrategyTest, OnlyCurrentBinIsCandidate) {
  NextFitStrategy s(unit_model());
  add(s, 0, 1.0);
  EXPECT_EQ(s.select(0.6), at(0));
  s.on_residual_changed(slot(0), 0.4);
  // 0.5 does not fit bin 0 -> strategy declines and retires bin 0 forever.
  EXPECT_EQ(s.select(0.5), std::nullopt);
  add(s, 1, 1.0);
  EXPECT_EQ(s.select(0.5), at(1));
  // Bin 0 is never revisited even though 0.1 would fit it.
  s.on_residual_changed(slot(1), 0.05);
  EXPECT_EQ(s.select(0.1), std::nullopt);
}

TEST(NextFitStrategyTest, IsNotAnyFit) {
  NextFitStrategy s(unit_model());
  EXPECT_FALSE(s.any_fit_contract());
  FirstFitStrategy ff(unit_model());
  EXPECT_TRUE(ff.any_fit_contract());
}

TEST(NextFitStrategyTest, CurrentCloseResetsCandidate) {
  NextFitStrategy s(unit_model());
  add(s, 0, 1.0);
  s.on_bin_closed(slot(0));
  EXPECT_EQ(s.select(0.1), std::nullopt);
}

TEST(RandomFitStrategyTest, OnlyFittingBinsAreChosen) {
  RandomFitStrategy s(unit_model(), 123);
  add(s, 0, 0.1);
  add(s, 1, 0.9);
  add(s, 2, 0.05);
  for (int trial = 0; trial < 50; ++trial) {
    EXPECT_EQ(s.select(0.5), at(1));
  }
}

TEST(RandomFitStrategyTest, UniformishOverCandidates) {
  RandomFitStrategy s(unit_model(), 99);
  add(s, 0, 0.9);
  add(s, 1, 0.9);
  int count0 = 0;
  const int trials = 2000;
  for (int trial = 0; trial < trials; ++trial) {
    if (s.select(0.5) == at(0)) ++count0;
  }
  EXPECT_GT(count0, trials / 2 - 200);
  EXPECT_LT(count0, trials / 2 + 200);
}

TEST(RandomFitStrategyTest, ClosedBinLeavesPool) {
  RandomFitStrategy s(unit_model(), 5);
  add(s, 0, 0.9);
  add(s, 1, 0.9);
  s.on_bin_closed(slot(0));
  for (int trial = 0; trial < 20; ++trial) {
    EXPECT_EQ(s.select(0.5), at(1));
  }
  s.on_bin_closed(slot(1));
  EXPECT_EQ(s.select(0.5), std::nullopt);
}

TEST(MoveToFrontStrategyTest, RecencyOrderDrivesSelection) {
  MoveToFrontStrategy s(unit_model());
  add(s, 0, 0.9);
  add(s, 1, 0.9);  // front: 1, 0
  EXPECT_EQ(s.select(0.5), at(1));
  s.on_residual_changed(slot(1), 0.1);
  EXPECT_EQ(s.select(0.5), at(0));  // 1 no longer fits
  // 0 moved to front; restore 1's room and 0 stays preferred.
  s.on_residual_changed(slot(1), 0.9);
  EXPECT_EQ(s.select(0.5), at(0));
}

TEST(MoveToFrontStrategyTest, CloseRemovesFromList) {
  MoveToFrontStrategy s(unit_model());
  add(s, 0, 0.9);
  add(s, 1, 0.9);
  s.on_bin_closed(slot(1));
  EXPECT_EQ(s.select(0.5), at(0));
}

TEST(StrategyNamesTest, AllDistinct) {
  EXPECT_EQ(FirstFitStrategy(unit_model()).name(), "first-fit");
  EXPECT_EQ(BestFitStrategy(unit_model()).name(), "best-fit");
  EXPECT_EQ(WorstFitStrategy(unit_model()).name(), "worst-fit");
  EXPECT_EQ(NextFitStrategy(unit_model()).name(), "next-fit");
  EXPECT_EQ(LastFitStrategy(unit_model()).name(), "last-fit");
  EXPECT_EQ(RandomFitStrategy(unit_model(), 0).name(), "random-fit");
  EXPECT_EQ(MoveToFrontStrategy(unit_model()).name(), "move-to-front-fit");
}

}  // namespace
}  // namespace dbp
