#include "exec/parallel_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "exec/worker_budget.hpp"

namespace dbp {
namespace {

TEST(SweepTest, MapsInOrder) {
  std::vector<int> jobs;
  for (int i = 0; i < 100; ++i) jobs.push_back(i);
  const auto results = parallel_map(jobs, [](int x) { return x * x; });
  ASSERT_EQ(results.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
}

TEST(SweepTest, EmptyJobList) {
  const std::vector<int> jobs;
  const auto results = parallel_map(jobs, [](int x) { return x; });
  EXPECT_TRUE(results.empty());
}

TEST(SweepTest, AllJobsRunExactlyOnce) {
  std::vector<int> jobs(500, 1);
  std::atomic<int> counter{0};
  (void)parallel_map(jobs, [&](int x) {
    counter.fetch_add(x);
    return 0;
  });
  EXPECT_EQ(counter.load(), 500);
}

TEST(SweepTest, ExceptionIsRethrown) {
  std::vector<int> jobs{1, 2, 3, 4, 5};
  EXPECT_THROW((void)parallel_map(jobs,
                                  [](int x) -> int {
                                    if (x == 3) throw std::runtime_error("boom");
                                    return x;
                                  }),
               std::runtime_error);
}

// The parallel_map contract: move-constructible is enough. No default
// constructor, so a regression to default-constructed result slots fails
// to compile.
struct MoveOnlyTagged {
  explicit MoveOnlyTagged(int v) : value(v) {}
  MoveOnlyTagged(const MoveOnlyTagged&) = delete;
  MoveOnlyTagged& operator=(const MoveOnlyTagged&) = delete;
  MoveOnlyTagged(MoveOnlyTagged&&) = default;
  MoveOnlyTagged& operator=(MoveOnlyTagged&&) = default;
  int value;
};

TEST(SweepTest, NonDefaultConstructibleResultType) {
  static_assert(!std::is_default_constructible_v<MoveOnlyTagged>);
  std::vector<int> jobs{1, 2, 3, 4};
  const auto results =
      parallel_map(jobs, [](int x) { return MoveOnlyTagged(x * 10); });
  ASSERT_EQ(results.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].value, (i + 1) * 10);
  }
}

TEST(SweepTest, ExceptionCancelsRemainingJobs) {
  // Job 0 throws; every later job burns ~1ms before finishing. With the
  // cancellation flag checked at iteration start, at most the jobs already
  // claimed by a worker when the flag flips can still run — far fewer than
  // the full sweep (sequentially: exactly one job runs).
  std::vector<int> jobs(400);
  for (int i = 0; i < 400; ++i) jobs[static_cast<std::size_t>(i)] = i;
  std::atomic<int> executed{0};
  EXPECT_THROW(
      (void)parallel_map(jobs,
                         [&](int x) -> int {
                           executed.fetch_add(1);
                           if (x == 0) throw std::runtime_error("boom");
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(1));
                           return x;
                         }),
      std::runtime_error);
  EXPECT_LT(executed.load(), 400);
}

TEST(SweepTest, NonTrivialResultType) {
  std::vector<int> jobs{1, 2, 3};
  const auto results = parallel_map(jobs, [](int x) {
    return std::vector<int>(static_cast<std::size_t>(x), x);
  });
  EXPECT_EQ(results[2].size(), 3u);
}

TEST(SweepTest, WorkerCountPositive) {
  EXPECT_GE(exec::WorkerBudget::effective(), 1);
}

}  // namespace
}  // namespace dbp
