// Unit tests for the durability subsystem: journal framing and torn-tail
// repair, atomic checkpoints, packer snapshot round-trips, the dispatcher
// retry/backoff state surviving checkpoint/restore exactly, and recovery of
// packing runs driven through a strict DurableDispatcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "core/binary_io.hpp"
#include "core/crc32.hpp"
#include "core/error.hpp"
#include "durability/checkpoint.hpp"
#include "durability/file_io.hpp"
#include "durability/journal.hpp"
#include "durability/recovery.hpp"
#include "gaming/dispatcher.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "recovered_sessions.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "workload/random_instance.hpp"

namespace dbp {
namespace {

const CostModel kModel{1.0, 1.0, 1e-9};

/// Per-test scratch directory under the system temp root, wiped on both
/// sides of the test so reruns never see stale durability files.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("dbp_durability_test.") + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

std::vector<durability::JournalEvent> sample_events(std::size_t count) {
  constexpr durability::JournalEventKind kKinds[] = {
      durability::JournalEventKind::kStartSession,
      durability::JournalEventKind::kEndSession,
      durability::JournalEventKind::kFailServer};
  std::vector<durability::JournalEvent> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    events[i].seq = i;
    events[i].kind = kKinds[i % 3];
    events[i].time = 0.25 * static_cast<double>(i);
    events[i].subject = 1000 + i;
    events[i].size = 0.125;
  }
  return events;
}

void write_journal(const std::string& path,
                   const std::vector<durability::JournalEvent>& events,
                   std::uint64_t stream_id = 7) {
  durability::JournalWriter writer(path, stream_id);
  for (const durability::JournalEvent& event : events) writer.append(event);
  writer.flush();
}

void rewrite_file(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void flip_byte(const std::string& path, std::uint64_t at) {
  std::vector<std::uint8_t> bytes = durability::detail::read_file(path);
  ASSERT_LT(at, bytes.size());
  bytes[static_cast<std::size_t>(at)] ^= 0x40U;
  rewrite_file(path, bytes);
}

// ---- journal -------------------------------------------------------------

TEST_F(DurabilityTest, JournalRoundTripsEventsExactly) {
  const auto events = sample_events(9);
  write_journal(path("j"), events, 42);
  const durability::JournalScan scan = durability::scan_journal(path("j"));
  EXPECT_EQ(scan.stream_id, 42u);
  EXPECT_EQ(scan.events, events);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, durability::detail::file_size(path("j")));
}

// The record layout, pinned: u32 payload length, u32 CRC-32 of the
// payload, then seq, kind, time, subject and size, all little-endian. The
// bytes were computed independently (Python's struct and zlib.crc32).
TEST_F(DurabilityTest, JournalRecordEncodesToPinnedBytes) {
  durability::JournalEvent event;
  event.seq = 0x0102030405060708ULL;
  event.kind = durability::JournalEventKind::kEndSession;
  event.time = 1.5;
  event.subject = 42;
  event.size = 0.25;
  write_journal(path("j"), {event});
  const std::vector<std::uint8_t> bytes = durability::detail::read_file(path("j"));
  const std::vector<std::uint8_t> record(
      bytes.begin() + static_cast<long>(durability::kJournalHeaderBytes), bytes.end());
  const std::vector<std::uint8_t> expected{
      0x21, 0x00, 0x00, 0x00, 0x55, 0x0a, 0x9c, 0xe1, 0x08, 0x07, 0x06,
      0x05, 0x04, 0x03, 0x02, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0xf8, 0x3f, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f};
  EXPECT_EQ(record, expected);
}

TEST_F(DurabilityTest, TornTailTruncationAtEveryByte) {
  // Exhaustive: cut the file at every possible byte. Below the header the
  // scan must refuse; everywhere else it must yield exactly the records
  // that fit, and truncate_journal must repair to a clean journal.
  const auto events = sample_events(5);
  write_journal(path("full"), events);
  const std::vector<std::uint8_t> bytes =
      durability::detail::read_file(path("full"));
  ASSERT_EQ((bytes.size() - durability::kJournalHeaderBytes) % 5, 0u);
  const std::size_t record = (bytes.size() - durability::kJournalHeaderBytes) / 5;

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    if (cut < durability::kJournalHeaderBytes) {
      EXPECT_THROW((void)durability::scan_journal_bytes(prefix),
                   CorruptionError)
          << "cut=" << cut;
      continue;
    }
    const durability::JournalScan scan = durability::scan_journal_bytes(prefix);
    const std::size_t whole = (cut - durability::kJournalHeaderBytes) / record;
    ASSERT_EQ(scan.events.size(), whole) << "cut=" << cut;
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(scan.events[i], events[i]);
    }
    EXPECT_EQ(scan.valid_bytes,
              durability::kJournalHeaderBytes + whole * record);
    EXPECT_EQ(scan.torn_tail, cut > scan.valid_bytes) << "cut=" << cut;

    // Repair: write the cut file, truncate the tail, rescan clean.
    std::ofstream out(path("cut"), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(cut));
    out.close();
    durability::truncate_journal(path("cut"), scan);
    const durability::JournalScan repaired =
        durability::scan_journal(path("cut"));
    EXPECT_FALSE(repaired.torn_tail);
    EXPECT_EQ(repaired.events, scan.events);
  }
}

TEST_F(DurabilityTest, JournalRecordCorruptionEndsValidPrefix) {
  const auto events = sample_events(6);
  write_journal(path("j"), events);
  const std::size_t record =
      (durability::detail::file_size(path("j")) -
       durability::kJournalHeaderBytes) /
      6;
  // Damage record 3's payload: records 0-2 stay, the rest is a torn tail.
  flip_byte(path("j"), durability::kJournalHeaderBytes + 3 * record + 10);
  const durability::JournalScan scan = durability::scan_journal(path("j"));
  ASSERT_EQ(scan.events.size(), 3u);
  EXPECT_TRUE(scan.torn_tail);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(scan.events[i], events[i]);
}

TEST_F(DurabilityTest, JournalHeaderCorruptionIsRefused) {
  write_journal(path("j"), sample_events(3));
  flip_byte(path("j"), 9);  // inside the header's stream-id field
  EXPECT_THROW((void)durability::scan_journal(path("j")), CorruptionError);
}

TEST_F(DurabilityTest, JournalSequenceBreakIsRefusedNotTruncated) {
  // Remove a middle record: every remaining record is CRC-valid, but the
  // seq order breaks — that cannot be a crash artifact, so the whole file
  // is refused rather than silently accepting the prefix.
  const auto events = sample_events(5);
  write_journal(path("j"), events);
  std::vector<std::uint8_t> bytes = durability::detail::read_file(path("j"));
  const std::size_t record = (bytes.size() - durability::kJournalHeaderBytes) / 5;
  const auto start =
      static_cast<long>(durability::kJournalHeaderBytes + 2 * record);
  bytes.erase(bytes.begin() + start,
              bytes.begin() + start + static_cast<long>(record));
  EXPECT_THROW((void)durability::scan_journal_bytes(bytes), CorruptionError);
}

// ---- checkpoints ---------------------------------------------------------

TEST_F(DurabilityTest, CheckpointRoundTripsAtomically) {
  durability::CheckpointData data;
  data.stream_id = 11;
  data.next_seq = 640;
  data.payload = {1, 2, 3, 250, 251};
  const std::string written = durability::write_checkpoint(dir_, data);
  EXPECT_EQ(written, dir_ + "/" + durability::checkpoint_file_name(640));

  const durability::CheckpointData loaded = durability::load_checkpoint(written);
  EXPECT_EQ(loaded.stream_id, 11u);
  EXPECT_EQ(loaded.next_seq, 640u);
  EXPECT_EQ(loaded.payload, data.payload);

  // No temp residue: the write went temp -> fsync -> rename.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp");
  }
}

TEST_F(DurabilityTest, CheckpointCorruptionIsRefused) {
  durability::CheckpointData data;
  data.stream_id = 1;
  data.next_seq = 5;
  data.payload = std::vector<std::uint8_t>(64, 0xAB);
  const std::string written = durability::write_checkpoint(dir_, data);
  flip_byte(written, durability::detail::file_size(written) - 3);
  EXPECT_THROW((void)durability::load_checkpoint(written), CorruptionError);
}

TEST_F(DurabilityTest, CheckpointStaleNameIsRefused) {
  // A checkpoint copied under a different seq's name (stale-header
  // impersonation) must be detected by the name/header cross-check.
  durability::CheckpointData data;
  data.stream_id = 1;
  data.next_seq = 5;
  data.payload = {9, 9, 9};
  const std::string written = durability::write_checkpoint(dir_, data);
  const std::string impostor =
      dir_ + "/" + durability::checkpoint_file_name(6);
  std::filesystem::copy_file(written, impostor);
  EXPECT_THROW((void)durability::load_checkpoint(impostor), CorruptionError);
  EXPECT_NO_THROW((void)durability::load_checkpoint(written));
}

TEST_F(DurabilityTest, PruneKeepsNewestCheckpointsAndDropsTmp) {
  for (std::uint64_t seq : {10, 20, 30, 40}) {
    durability::CheckpointData data;
    data.stream_id = 1;
    data.next_seq = seq;
    data.payload = {1};
    (void)durability::write_checkpoint(dir_, data);
  }
  { std::ofstream stale(path("ckpt-zzz.dbpc.tmp")); stale << "junk"; }
  durability::prune_checkpoints(dir_, 2);
  const auto entries = durability::list_checkpoints(dir_);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].next_seq, 40u);
  EXPECT_EQ(entries[1].next_seq, 30u);
  EXPECT_FALSE(std::filesystem::exists(path("ckpt-zzz.dbpc.tmp")));
}

// ---- binary io -----------------------------------------------------------

TEST(ByteIoTest, RoundTripsEveryFieldKindBitExactly) {
  ByteWriter out;
  out.u8(0xFE);
  out.u32(0xDEADBEEFU);
  out.u64(0x0123456789ABCDEFULL);
  out.f64(-0.0);
  out.f64(std::numeric_limits<double>::quiet_NaN());
  out.boolean(true);
  out.str("packing");
  ByteReader in(out.data());
  EXPECT_EQ(in.u8(), 0xFEu);
  EXPECT_EQ(in.u32(), 0xDEADBEEFU);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFULL);
  const double neg_zero = in.f64();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(neg_zero),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_TRUE(std::isnan(in.f64()));
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.str(), "packing");
  EXPECT_NO_THROW(in.expect_done());
}

TEST(ByteIoTest, ReaderRefusesOverrunAndTrailingBytes) {
  ByteWriter out;
  out.u32(7);
  ByteReader short_read(out.data());
  EXPECT_THROW((void)short_read.u64(), CorruptionError);

  ByteReader trailing(out.data());
  (void)trailing.u8();
  EXPECT_THROW(trailing.expect_done(), CorruptionError);

  ByteWriter bad_str;
  bad_str.u64(1'000'000);  // claims a megabyte that is not there
  ByteReader reader(bad_str.data());
  EXPECT_THROW((void)reader.str(), CorruptionError);
}

// ---- packer snapshots ----------------------------------------------------

std::vector<std::uint8_t> snapshot_of(const Packer& packer) {
  ByteWriter out;
  packer.save_snapshot(out);
  return out.take();
}

/// Differential over every snapshot-capable algorithm: snapshot mid-run,
/// restore into a fresh packer, finish both, and require identical final
/// snapshots (which cover the full decision state, not just the bins).
TEST(PackerSnapshotTest, MidRunRestoreContinuesBitIdentically) {
  RandomInstanceConfig config;
  config.item_count = 120;
  const Instance instance = generate_random_instance(config, 17);
  const std::vector<Event> events = build_event_sequence(instance);
  PackerOptions options;
  options.seed = 3;
  options.known_mu = 16.0;

  for (const std::string& name : all_algorithm_names()) {
    SCOPED_TRACE(name);
    auto original = make_packer(name, kModel, options);
    if (!original->snapshot_supported()) continue;

    const std::size_t split = events.size() / 2;
    const auto feed = [&](Packer& packer, std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        const Item& item = instance.item(events[i].item);
        if (events[i].kind == EventKind::kArrival) {
          (void)packer.on_arrival({item.id, item.arrival, item.size});
        } else {
          packer.on_departure(item.id, item.departure);
        }
      }
    };
    feed(*original, 0, split);
    const std::vector<std::uint8_t> mid = snapshot_of(*original);

    auto restored = make_packer(name, kModel, options);
    ByteReader in(mid);
    restored->restore_snapshot(in);
    EXPECT_EQ(snapshot_of(*restored), mid);

    feed(*original, split, events.size());
    feed(*restored, split, events.size());
    EXPECT_EQ(snapshot_of(*restored), snapshot_of(*original));
    EXPECT_EQ(restored->bins().open_count(), 0u);
  }
}

TEST(PackerSnapshotTest, ClairvoyantPackersDeclineSnapshots) {
  auto packer = make_packer("align-departures-fit", kModel);
  EXPECT_FALSE(packer->snapshot_supported());
  ByteWriter out;
  EXPECT_THROW(packer->save_snapshot(out), PreconditionError);
}

// ---- dispatcher retry/backoff round-trip (satellite: bounded-retry fix) --

/// Drives rentals that consume the rental RNG: every full-size session
/// needs a fresh server, and with rental_failure_rate > 0 each rental draws
/// a random attempt pattern and accumulates backoff_minutes.
void run_rental_burst(GameServerDispatcher& dispatcher, std::uint64_t base_id,
                      Time base_time, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const Time t = base_time + static_cast<Time>(i);
    (void)dispatcher.start_session(base_id + i, 1.0, t);
    dispatcher.end_session(base_id + i, t + 0.5);
  }
}

TEST(DispatcherRetryStateTest, BackoffAccumulatorsRoundTripExactly) {
  const ServerSpec spec{1.0, 1.0};
  FaultPolicy policy;
  policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  policy.rental_failure_rate = 0.5;
  policy.max_rental_retries = 2;
  policy.backoff_base_minutes = 0.5;

  GameServerDispatcher original(spec, "first-fit", {}, policy);
  run_rental_burst(original, 1, 0.0, 24);
  const DispatcherFaultStats mid_stats = original.fault_stats();
  // The pinned seed must actually exercise the retry machinery, otherwise
  // this test proves nothing about the accumulators.
  ASSERT_GT(mid_stats.rental_attempts_failed, 0u);
  ASSERT_GT(mid_stats.backoff_minutes, 0.0);

  ByteWriter out;
  original.save_state(out);
  const std::vector<std::uint8_t> mid = out.take();

  ByteReader in(mid);
  GameServerDispatcher restored = GameServerDispatcher::from_state(in);

  // Exact round-trip: counters and the accumulated backoff double, ==.
  EXPECT_EQ(restored.fault_stats().rental_attempts_failed,
            mid_stats.rental_attempts_failed);
  EXPECT_EQ(restored.fault_stats().sessions_rejected_rental,
            mid_stats.sessions_rejected_rental);
  EXPECT_EQ(restored.fault_stats().backoff_minutes, mid_stats.backoff_minutes);
  EXPECT_TRUE(restored.fault_stats() == mid_stats);

  // Continuation: both halves must see the same rental outcomes from here.
  run_rental_burst(original, 100, 100.0, 12);
  run_rental_burst(restored, 100, 100.0, 12);
  EXPECT_TRUE(original.fault_stats() == restored.fault_stats());
  ByteWriter end_a;
  original.save_state(end_a);
  ByteWriter end_b;
  restored.save_state(end_b);
  EXPECT_EQ(end_a.data(), end_b.data());
}

/// Pinned counter-example against the naive alternative: restoring only the
/// policy seed (instead of the RNG *position*) would make a recovered
/// dispatcher replay rental outcomes from the beginning of the stream. The
/// suffix behavior of a restored dispatcher must differ from a freshly
/// seeded one for the pinned seed.
TEST(DispatcherRetryStateTest, RestoredRngPositionDiffersFromNaiveReseed) {
  const ServerSpec spec{1.0, 1.0};
  FaultPolicy policy;
  policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  policy.rental_failure_rate = 0.5;
  policy.max_rental_retries = 2;

  GameServerDispatcher original(spec, "first-fit", {}, policy);
  run_rental_burst(original, 1, 0.0, 24);
  ByteWriter out;
  original.save_state(out);
  const std::vector<std::uint8_t> mid = out.take();

  ByteReader in(mid);
  GameServerDispatcher restored = GameServerDispatcher::from_state(in);
  GameServerDispatcher reseeded(spec, "first-fit", {}, policy);

  const std::uint64_t restored_before =
      restored.fault_stats().rental_attempts_failed;
  run_rental_burst(restored, 100, 100.0, 12);
  run_rental_burst(reseeded, 100, 100.0, 12);
  const std::uint64_t restored_suffix_failures =
      restored.fault_stats().rental_attempts_failed - restored_before;
  const std::uint64_t reseeded_failures =
      reseeded.fault_stats().rental_attempts_failed;
  // The fresh dispatcher starts its rental RNG at position 0 and draws the
  // prefix's outcome pattern, not the suffix's.
  EXPECT_NE(restored_suffix_failures, reseeded_failures);
}

/// save_state() begins with the dispatcher's identity: str algorithm |
/// f64 capacity | f64 price | packer options (f64 mff_k, f64 known_mu,
/// u64 harmonic classes, u64 seed) | fault policy (u8 anomaly action,
/// f64 rental failure rate, ...). from_state must refuse, as corruption,
/// every identity the dispatcher cannot be built from.
TEST(DispatcherStateTest, FactoryRefusesAStateNamingAnUnbuildableDispatcher) {
  GameServerDispatcher original(ServerSpec{1.0, 1.0}, "first-fit");
  (void)original.start_session(1, 0.5, 0.0);
  ByteWriter out;
  original.save_state(out);
  const std::vector<std::uint8_t> saved = out.take();
  {
    ByteReader in(saved);
    const GameServerDispatcher restored = GameServerDispatcher::from_state(in);
    EXPECT_TRUE(in.done());
    ByteWriter again;
    restored.save_state(again);
    EXPECT_EQ(again.data(), saved);
  }

  const std::size_t name_end = 8 + std::string("first-fit").size();
  const auto renamed = [&](const std::string& algorithm) {
    ByteWriter bytes;
    bytes.str(algorithm);
    bytes.bytes(std::span(saved).subspan(name_end));
    return bytes.take();
  };
  const auto with_f64 = [&](std::size_t at, double value) {
    ByteWriter word;
    word.f64(value);
    std::vector<std::uint8_t> bytes = saved;
    std::copy(word.data().begin(), word.data().end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(at));
    return bytes;
  };
  const std::size_t capacity_at = name_end;
  const std::size_t price_at = capacity_at + 8;
  const std::size_t failure_rate_at = price_at + 8 + 32 + 1;
  const std::vector<std::pair<const char*, std::vector<std::uint8_t>>> damages =
      {
          {"unknown algorithm", renamed("no-such-packer")},
          {"algorithm without snapshots", renamed("align-departures-fit")},
          {"zero capacity", with_f64(capacity_at, 0.0)},
          {"negative capacity", with_f64(capacity_at, -1.0)},
          {"zero price", with_f64(price_at, 0.0)},
          {"failure rate above 1", with_f64(failure_rate_at, 1.5)},
          {"NaN failure rate",
           with_f64(failure_rate_at, std::numeric_limits<double>::quiet_NaN())},
      };
  for (const auto& [what, bytes] : damages) {
    SCOPED_TRACE(what);
    ByteReader in(bytes);
    EXPECT_THROW((void)GameServerDispatcher::from_state(in), CorruptionError);
  }
}

// ---- durable dispatcher + recovery ---------------------------------------

durability::DurabilityConfig make_config(const std::string& dir,
                                         std::uint64_t every = 16) {
  durability::DurabilityConfig config;
  config.dir = dir;
  config.checkpoint_every = every;
  return config;
}

/// A packing run made durable: a strict dispatcher (default FaultPolicy)
/// whose spec bills exactly kModel, fed arrivals and departures as session
/// starts and ends.
const ServerSpec kRunSpec{1.0, 60.0};

durability::DurableDispatcher durable_run(
    const durability::DurabilityConfig& config, const std::string& algorithm) {
  return durability::DurableDispatcher(config, kRunSpec, algorithm, {},
                                       FaultPolicy{});
}

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

/// The run's SimulationResult with the placements feed_events recorded,
/// after checking that the dispatcher runs the requested algorithm under
/// exactly kModel.
SimulationResult result_of(const durability::DurableDispatcher& durable,
                           const Instance& instance,
                           const std::string& algorithm,
                           const std::vector<BinId>& assignment) {
  EXPECT_EQ(durable.dispatcher().algorithm(), algorithm);
  const CostModel billed = durable.dispatcher().spec().to_cost_model();
  EXPECT_EQ(billed.bin_capacity, kModel.bin_capacity);
  EXPECT_EQ(billed.cost_rate, kModel.cost_rate);
  EXPECT_EQ(billed.fit_tolerance, kModel.fit_tolerance);
  SimulationResult result;
  result.packing_period = instance.packing_period();
  detail::finalize_bin_accounting(result, durable.dispatcher().bins());
  result.assignment = assignment;
  return result;
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

TEST_F(DurabilityTest, StrictDispatcherCleanPathMatchesSimulate) {
  RandomInstanceConfig config;
  config.item_count = 100;
  const Instance instance = generate_random_instance(config, 23);
  const std::vector<Event> events = build_event_sequence(instance);
  std::vector<BinId> assignment(instance.size(), kNoBin);
  const SimulationResult reference = simulate(instance, "first-fit", kModel);

  durability::DurableDispatcher durable =
      durable_run(make_config(path("run")), "first-fit");
  feed_events(durable, instance, events, 0, events.size(), assignment);
  expect_identical(reference,
                   result_of(durable, instance, "first-fit", assignment));
}

TEST_F(DurabilityTest, RecoveryResumesInterruptedRunBitIdentically) {
  RandomInstanceConfig config;
  config.item_count = 100;
  const Instance instance = generate_random_instance(config, 29);
  const std::vector<Event> events = build_event_sequence(instance);
  std::vector<BinId> assignment(instance.size(), kNoBin);
  const SimulationResult reference = simulate(instance, "first-fit", kModel);

  // Apply a strict prefix, flush (the WAL durability point), then drop the
  // wrapper without any shutdown — the journal tail is what a SIGKILL
  // would have left.
  const std::size_t cut = events.size() / 3;
  {
    durability::DurableDispatcher durable =
        durable_run(make_config(path("run")), "first-fit");
    feed_events(durable, instance, events, 0, cut, assignment);
  }

  obs::MetricsRegistry metrics;
  obs::ObsScope scope(nullptr, &metrics);
  durability::RecoveryManager manager(make_config(path("run")));
  durability::RecoveredState state = manager.recover();
  ASSERT_NE(state.dispatcher, nullptr);
  EXPECT_EQ(state.report.next_seq, cut);
  EXPECT_EQ(state.report.replayed_events + state.report.checkpoint_seq, cut);
  EXPECT_EQ(metrics.counter_value("recovery.replayed_events"),
            std::optional<std::uint64_t>(state.report.replayed_events));
  expect_recovered_sessions(state.dispatcher->dispatcher(), instance, events,
                            cut, assignment);

  feed_events(*state.dispatcher, instance, events, cut, events.size(),
              assignment);
  expect_identical(reference,
                   result_of(*state.dispatcher, instance, "first-fit",
                             assignment));
}

TEST_F(DurabilityTest, RecoveryFallsBackWhenNewestCheckpointIsCorrupt) {
  RandomInstanceConfig config;
  config.item_count = 120;
  const Instance instance = generate_random_instance(config, 31);
  const std::vector<Event> events = build_event_sequence(instance);
  std::vector<BinId> assignment(instance.size(), kNoBin);
  const SimulationResult reference = simulate(instance, "first-fit", kModel);
  {
    durability::DurableDispatcher durable =
        durable_run(make_config(path("run")), "first-fit");
    feed_events(durable, instance, events, 0, events.size(), assignment);
  }
  const auto entries = durability::list_checkpoints(path("run"));
  ASSERT_GE(entries.size(), 2u);
  flip_byte(entries.front().path,
            durability::detail::file_size(entries.front().path) - 1);

  durability::RecoveryManager manager(make_config(path("run")));
  durability::RecoveredState state = manager.recover();
  ASSERT_NE(state.dispatcher, nullptr);
  EXPECT_GE(state.report.checkpoints_skipped, 1u);
  EXPECT_LT(state.report.checkpoint_seq, entries.front().next_seq);
  expect_recovered_sessions(state.dispatcher->dispatcher(), instance, events,
                            state.report.next_seq, assignment);
  feed_events(*state.dispatcher, instance, events, state.report.next_seq,
              events.size(), assignment);
  expect_identical(reference,
                   result_of(*state.dispatcher, instance, "first-fit",
                             assignment));
}

TEST_F(DurabilityTest, RecoveryFallsBackPastANewestCheckpointThatDoesNotDecode) {
  // The newest checkpoint passes its CRC, but its payload cannot rebuild a
  // dispatcher. Recovery must skip it like any other unusable checkpoint.
  RandomInstanceConfig config;
  config.item_count = 120;
  const Instance instance = generate_random_instance(config, 41);
  const std::vector<Event> events = build_event_sequence(instance);
  std::vector<BinId> assignment(instance.size(), kNoBin);
  const SimulationResult reference = simulate(instance, "first-fit", kModel);
  const std::vector<std::function<void(std::vector<std::uint8_t>&)>> damages =
      {
          [](std::vector<std::uint8_t>& payload) {
            payload.resize(payload.size() / 2);
          },
          [](std::vector<std::uint8_t>& payload) {
            // The payload names its algorithm first: rename it to a name no
            // factory knows.
            const std::string known = "first-fit";
            const std::string unknown = "no-such-x";
            ASSERT_EQ(known.size(), unknown.size());
            const auto at = std::search(payload.begin(), payload.end(),
                                        known.begin(), known.end());
            ASSERT_NE(at, payload.end());
            std::copy(unknown.begin(), unknown.end(), at);
          },
      };
  for (std::size_t d = 0; d < damages.size(); ++d) {
    SCOPED_TRACE("damage " + std::to_string(d));
    const std::string dir = path("run" + std::to_string(d));
    {
      durability::DurableDispatcher durable =
          durable_run(make_config(dir), "first-fit");
      feed_events(durable, instance, events, 0, events.size(), assignment);
    }
    const auto entries = durability::list_checkpoints(dir);
    ASSERT_GE(entries.size(), 2u);
    durability::CheckpointData newest =
        durability::load_checkpoint(entries.front().path);
    damages[d](newest.payload);
    (void)durability::write_checkpoint(dir, newest);
    ASSERT_NO_THROW((void)durability::load_checkpoint(entries.front().path));

    durability::RecoveryManager manager(make_config(dir));
    durability::RecoveredState state = manager.recover();
    ASSERT_NE(state.dispatcher, nullptr);
    EXPECT_GE(state.report.checkpoints_skipped, 1u);
    EXPECT_LT(state.report.checkpoint_seq, entries.front().next_seq);
    expect_recovered_sessions(state.dispatcher->dispatcher(), instance, events,
                              state.report.next_seq, assignment);
    feed_events(*state.dispatcher, instance, events, state.report.next_seq,
                events.size(), assignment);
    expect_identical(reference,
                     result_of(*state.dispatcher, instance, "first-fit",
                             assignment));
  }
}

TEST_F(DurabilityTest, OverlongCheckpointNamesAreIgnored) {
  // All digits, but more of them than a u64 holds: like any other name that
  // does not match ckpt-<seq>.dbpc, neither live checkpointing (which lists
  // the directory to prune it) nor recovery may trip over it.
  const std::string stray = "ckpt-99999999999999999999999.dbpc";
  RandomInstanceConfig config;
  config.item_count = 60;
  const Instance instance = generate_random_instance(config, 37);
  const std::vector<Event> events = build_event_sequence(instance);
  std::vector<BinId> assignment(instance.size(), kNoBin);
  const SimulationResult reference = simulate(instance, "first-fit", kModel);

  const std::size_t cut = events.size() / 2;
  ASSERT_GT(cut, 16u);  // crosses at least one due checkpoint
  {
    durability::DurableDispatcher durable =
        durable_run(make_config(path("run")), "first-fit");
    { std::ofstream junk(path("run/" + stray)); junk << "junk"; }
    feed_events(durable, instance, events, 0, cut, assignment);
  }
  EXPECT_TRUE(std::filesystem::exists(path("run/" + stray)));
  const auto entries = durability::list_checkpoints(path("run"));
  ASSERT_FALSE(entries.empty());
  for (const durability::CheckpointEntry& entry : entries) {
    EXPECT_NE(std::filesystem::path(entry.path).filename().string(), stray);
  }

  durability::RecoveryManager manager(make_config(path("run")));
  durability::RecoveredState state = manager.recover();
  ASSERT_NE(state.dispatcher, nullptr);
  EXPECT_EQ(state.report.checkpoints_skipped, 0u);
  EXPECT_EQ(state.report.next_seq, cut);
  expect_recovered_sessions(state.dispatcher->dispatcher(), instance, events,
                            cut, assignment);
  feed_events(*state.dispatcher, instance, events, cut, events.size(),
              assignment);
  expect_identical(reference,
                   result_of(*state.dispatcher, instance, "first-fit",
                             assignment));
}

TEST_F(DurabilityTest, PreviousFormatDirectoryIsRefusedUntouched) {
  // Version 1 wrote a payload mode byte and simulation event kinds; version
  // 2 wrote the dispatcher's session table; version 3 wrote adaptive-mff's
  // own pool map; version 4 handed the packer session ids instead of slots
  // and had no (slot, id) table; version 5 wrote the spec, algorithm,
  // options and policy ahead of a save_state that named them again;
  // version 6 wrote every bin ever opened, with the packers' per-bin state
  // indexed by bin id instead of by slot. A directory whose headers still
  // say any of these versions (here with a half-written record at the
  // journal's end) must be refused before recovery truncates or rewrites
  // any of its files. The journal records did not change in versions 3 to
  // 7, but the journal's version moves with the checkpoint's: recovery
  // repairs a torn journal tail before it reads any checkpoint.
  for (const std::uint32_t old_version : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(old_version);
    const std::string dir = path("run-v" + std::to_string(old_version));
    {
      durability::DurableDispatcher durable = durable_run(make_config(dir), "first-fit");
      for (std::uint64_t i = 0; i < 40; ++i) {
        (void)durable.start_session(i, 0.25, static_cast<Time>(i));
        if (i >= 3) durable.end_session(i - 3, static_cast<Time>(i));
      }
    }
    const auto set_version = [old_version](std::vector<std::uint8_t>& bytes) {
      ByteWriter version;
      version.u32(old_version);
      std::copy(version.data().begin(), version.data().end(), bytes.begin() + 4);
    };
    const std::string journal = dir + "/" + durability::kJournalFileName;
    {
      std::vector<std::uint8_t> bytes = durability::detail::read_file(journal);
      set_version(bytes);
      ByteWriter crc;  // the journal header's CRC covers its version field
      crc.u32(crc32(std::span(bytes).first(16)));
      std::copy(crc.data().begin(), crc.data().end(), bytes.begin() + 16);
      bytes.insert(bytes.end(), {0x25, 0x00, 0x00});  // torn record length
      rewrite_file(journal, bytes);
    }
    const auto entries = durability::list_checkpoints(dir);
    ASSERT_GE(entries.size(), 2u);
    for (const durability::CheckpointEntry& entry : entries) {
      std::vector<std::uint8_t> bytes = durability::detail::read_file(entry.path);
      set_version(bytes);
      rewrite_file(entry.path, bytes);
    }

    const auto contents = [&] {
      std::map<std::string, std::vector<std::uint8_t>> files;
      for (const auto& file : std::filesystem::directory_iterator(dir)) {
        files[file.path().string()] =
            durability::detail::read_file(file.path().string());
      }
      return files;
    };
    const auto before = contents();
    durability::RecoveryManager manager(make_config(dir));
    EXPECT_THROW((void)manager.recover(), CorruptionError);
    EXPECT_EQ(contents(), before);
  }
}

TEST_F(DurabilityTest, RecoveryRefusesDirectoryWithoutUsableCheckpoint) {
  // An existing directory with no checkpoint at all (the bootstrap-crash
  // residue) is refused as corruption; a directory that cannot even be
  // listed is an I/O error, not a recovery verdict.
  std::filesystem::create_directories(path("nothing"));
  durability::RecoveryManager empty(make_config(path("nothing")));
  EXPECT_THROW((void)empty.recover(), CorruptionError);
  durability::RecoveryManager missing(make_config(path("no-such-dir")));
  EXPECT_THROW((void)missing.recover(), IoError);

  // All checkpoints damaged -> typed refusal, never a fabricated state.
  {
    durability::DurableDispatcher durable =
        durable_run(make_config(path("run")), "first-fit");
    (void)durable.start_session(0, 0.5, 0.0);
  }
  for (const auto& entry : durability::list_checkpoints(path("run"))) {
    flip_byte(entry.path, durability::detail::file_size(entry.path) / 2);
  }
  durability::RecoveryManager manager(make_config(path("run")));
  EXPECT_THROW((void)manager.recover(), CorruptionError);
}

TEST_F(DurabilityTest, DurableDispatcherRejectsClairvoyantAlgorithms) {
  EXPECT_THROW((void)durable_run(make_config(path("run")),
                                 "align-departures-fit"),
               PreconditionError);
}

TEST_F(DurabilityTest, DurableDispatcherSurvivesRecoveryWithFaultState) {
  const ServerSpec spec{1.0, 1.0};
  FaultPolicy policy;
  policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  policy.rental_failure_rate = 0.25;
  policy.max_rental_retries = 2;

  // Reference: one uninterrupted plain dispatcher over the same ops.
  GameServerDispatcher reference(spec, "first-fit", {}, policy);
  const auto drive = [](auto& dispatcher, std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const Time t = static_cast<Time>(i);
      (void)dispatcher.start_session(i, 0.6, t);
      if (i >= 2) dispatcher.end_session(i - 2, t + 0.25);
    }
  };
  drive(reference, 0, 40);

  const std::size_t cut = 23;
  {
    durability::DurableDispatcher durable(make_config(path("d"), 8), spec,
                                          "first-fit", {}, policy);
    drive(durable, 0, cut);
  }
  durability::RecoveryManager manager(make_config(path("d"), 8));
  durability::RecoveredState state = manager.recover();
  ASSERT_NE(state.dispatcher, nullptr);
  drive(*state.dispatcher, cut, 40);

  EXPECT_TRUE(state.dispatcher->dispatcher().fault_stats() ==
              reference.fault_stats());
  ByteWriter got;
  state.dispatcher->dispatcher().save_state(got);
  ByteWriter want;
  reference.save_state(want);
  EXPECT_EQ(got.data(), want.data());
}

}  // namespace
}  // namespace dbp
