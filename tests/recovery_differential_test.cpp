// Recovery differential: for every snapshot-capable algorithm and several
// chaos-style workloads, interrupt a durable run (a strict DurableDispatcher
// fed the instance's events) at many cut points, run the full recovery
// protocol (checkpoint load + journal replay), finish the stream, and
// require the result to be bit-identical to an uninterrupted run — the
// durability layer's core guarantee, exercised end to end.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "core/binary_io.hpp"
#include "durability/recovery.hpp"
#include "gaming/dispatcher.hpp"
#include "recovered_sessions.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "workload/random_instance.hpp"

namespace dbp {
namespace {

const CostModel kModel{1.0, 1.0, 1e-9};

class RecoveryDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("dbp_recovery_differential.") + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] durability::DurabilityConfig config(
      const std::string& name) const {
    durability::DurabilityConfig config;
    config.dir = dir_ + "/" + name;
    config.checkpoint_every = 16;
    return config;
  }

  std::string dir_;
};

/// A packing run made durable: a strict dispatcher (default FaultPolicy)
/// whose spec bills exactly kModel, fed arrivals and departures as session
/// starts and ends.
const ServerSpec kRunSpec{1.0, 60.0};

/// Feeds events [from, to) and records the server each start_session
/// returned in `assignment`, by item id: the dispatcher does not remember
/// which server a departed session used.
void feed_events(durability::DurableDispatcher& durable,
                 const Instance& instance, const std::vector<Event>& events,
                 std::size_t from, std::size_t to,
                 std::vector<BinId>& assignment) {
  for (std::size_t i = from; i < to; ++i) {
    const Item& item = instance.item(events[i].item);
    if (events[i].kind == EventKind::kArrival) {
      assignment[static_cast<std::size_t>(item.id)] =
          durable.start_session(item.id, item.size, item.arrival);
    } else {
      durable.end_session(item.id, item.departure);
    }
  }
}

void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.total_cost_from_bins, b.total_cost_from_bins);
  EXPECT_EQ(a.max_open_bins, b.max_open_bins);
  EXPECT_EQ(a.bins_opened, b.bins_opened);
  EXPECT_EQ(a.assignment, b.assignment);
  ASSERT_EQ(a.bin_usage.size(), b.bin_usage.size());
  for (std::size_t i = 0; i < a.bin_usage.size(); ++i) {
    EXPECT_EQ(a.bin_usage[i].opened, b.bin_usage[i].opened);
    EXPECT_EQ(a.bin_usage[i].closed, b.bin_usage[i].closed);
  }
}

/// Interrupt at `cut`, recover, finish, compare bit-exact to `reference`.
void run_cut(const durability::DurabilityConfig& config,
             const Instance& instance, const std::vector<Event>& events,
             const std::string& algorithm, const PackerOptions& options,
             const SimulationResult& reference, std::size_t cut) {
  SCOPED_TRACE("cut=" + std::to_string(cut));
  std::filesystem::remove_all(config.dir);
  std::vector<BinId> assignment(instance.size(), kNoBin);
  {
    durability::DurableDispatcher durable(config, kRunSpec, algorithm, options,
                                          FaultPolicy{});
    feed_events(durable, instance, events, 0, cut, assignment);
  }
  durability::RecoveryManager manager(config);
  durability::RecoveredState state = manager.recover();
  ASSERT_NE(state.dispatcher, nullptr);
  ASSERT_EQ(state.report.next_seq, cut);
  expect_recovered_sessions(state.dispatcher->dispatcher(), instance, events,
                            cut, assignment);
  feed_events(*state.dispatcher, instance, events, cut, events.size(),
              assignment);

  const GameServerDispatcher& recovered = state.dispatcher->dispatcher();
  EXPECT_EQ(recovered.algorithm(), algorithm);
  const CostModel billed = recovered.spec().to_cost_model();
  EXPECT_EQ(billed.bin_capacity, kModel.bin_capacity);
  EXPECT_EQ(billed.cost_rate, kModel.cost_rate);
  EXPECT_EQ(billed.fit_tolerance, kModel.fit_tolerance);
  SimulationResult result;
  result.packing_period = instance.packing_period();
  detail::finalize_bin_accounting(result, recovered.bins());
  result.assignment = assignment;
  expect_identical(reference, result);
}

/// Chaos-style workloads in the spirit of fault_sim_test: steady Poisson,
/// simultaneous-arrival bursts, and exactly-representable dyadic sizes.
std::vector<Instance> chaos_instances() {
  std::vector<Instance> instances;
  {
    RandomInstanceConfig config;
    config.item_count = 60;
    instances.push_back(generate_random_instance(config, 11));
  }
  {
    RandomInstanceConfig config;
    config.item_count = 60;
    config.arrival.kind = ArrivalModel::Kind::kBursts;
    config.arrival.burst_size = 12;
    config.arrival.burst_gap = 0.75;
    instances.push_back(generate_random_instance(config, 12));
  }
  {
    RandomInstanceConfig config;
    config.item_count = 60;
    config.size.kind = SizeModel::Kind::kDyadic;
    config.size.min_exponent = 1;
    config.size.max_exponent = 5;
    instances.push_back(generate_random_instance(config, 13));
  }
  return instances;
}

TEST_F(RecoveryDifferentialTest, EveryAlgorithmRecoversAtManyCutPoints) {
  PackerOptions options;
  options.seed = 5;
  options.known_mu = 16.0;
  const std::vector<Instance> instances = chaos_instances();

  for (const std::string& name : all_algorithm_names()) {
    if (!make_packer(name, kModel, options)->snapshot_supported()) continue;
    for (std::size_t w = 0; w < instances.size(); ++w) {
      SCOPED_TRACE(name + " workload=" + std::to_string(w));
      const Instance& instance = instances[w];
      const std::vector<Event> events = build_event_sequence(instance);
      const SimulationResult reference =
          simulate(instance, name, kModel, options);
      // Cuts around the checkpoint cadence (16): on a checkpoint, just
      // after one (journal replay of 1), mid-interval, and the extremes.
      for (const std::size_t cut :
           {std::size_t{0}, std::size_t{1}, std::size_t{16}, std::size_t{17},
            std::size_t{40}, events.size() - 1, events.size()}) {
        run_cut(config(name), instance, events, name, options, reference, cut);
      }
    }
  }
}

TEST_F(RecoveryDifferentialTest, DispatcherChaosRecoversAtEveryStride) {
  // Session churn plus periodic server crashes and rental failures: the
  // full fault-machinery state must survive recovery at every cut point.
  const ServerSpec spec{1.0, 1.0};
  FaultPolicy policy;
  policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  policy.rental_failure_rate = 0.1;
  policy.max_rental_retries = 2;

  struct Op {
    enum class Kind : std::uint8_t { kStart, kEnd, kFail } kind = Kind::kStart;
    std::uint64_t session = 0;
    double size = 0.0;
    Time time = 0.0;
  };
  std::vector<Op> ops;
  for (std::uint64_t i = 0; i < 48; ++i) {
    const Time t = static_cast<Time>(i);
    ops.push_back({Op::Kind::kStart, i, (i % 3 == 0) ? 0.7 : 0.35, t});
    if (i >= 3) ops.push_back({Op::Kind::kEnd, i - 3, 0.0, t + 0.5});
    if (i % 9 == 8) ops.push_back({Op::Kind::kFail, 0, 0.0, t + 0.75});
  }
  const auto apply = [&](auto& dispatcher, const BinManager& bins,
                         std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const Op& op = ops[i];
      switch (op.kind) {
        case Op::Kind::kStart:
          (void)dispatcher.start_session(op.session, op.size, op.time);
          break;
        case Op::Kind::kEnd:
          dispatcher.end_session(op.session, op.time);
          break;
        case Op::Kind::kFail: {
          // Deterministic live target: the lowest open server id, or a
          // bogus id (counted as an anomaly) when the fleet is empty.
          const std::vector<BinId> open = bins.open_bins();
          (void)dispatcher.fail_server(
              open.empty() ? BinId{1'000'000'007} : open.front(), op.time);
          break;
        }
      }
    }
  };

  GameServerDispatcher reference(spec, "first-fit", {}, policy);
  apply(reference, reference.bins(), 0, ops.size());
  ByteWriter want;
  reference.save_state(want);

  for (std::size_t cut = 0; cut <= ops.size(); cut += 7) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const durability::DurabilityConfig cfg = config("dispatch");
    std::filesystem::remove_all(cfg.dir);
    {
      durability::DurableDispatcher durable(cfg, spec, "first-fit", {},
                                            policy);
      apply(durable, durable.dispatcher().bins(), 0, cut);
    }
    durability::RecoveryManager manager(cfg);
    durability::RecoveredState state = manager.recover();
    ASSERT_NE(state.dispatcher, nullptr);
    ASSERT_EQ(state.report.next_seq, cut);
    apply(*state.dispatcher, state.dispatcher->dispatcher().bins(), cut,
          ops.size());
    EXPECT_TRUE(state.dispatcher->dispatcher().fault_stats() ==
                reference.fault_stats());
    ByteWriter got;
    state.dispatcher->dispatcher().save_state(got);
    EXPECT_EQ(got.data(), want.data());
  }
}

}  // namespace
}  // namespace dbp
