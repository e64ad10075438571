// dbp_crashtest — crash-consistency harness for the durability subsystem.
//
// For every workload class it runs a reference (uninterrupted) packing run,
// then forks children that replay the same event stream through a
// DurableDispatcher and SIGKILL themselves at a randomized byte offset
// inside the journal/checkpoint write path (durability::WriteCrashHook). A
// packing run is made durable as a strict dispatcher whose server spec
// bills exactly the run's cost model.
// The parent recovers each crashed directory, re-feeds the not-yet-durable
// suffix of the input, and requires the final state to be bit-identical to
// the reference — exact == on every SimulationResult field, and exact
// save_state byte equality for the dispatcher. The dispatcher does not
// remember which server a departed session used, so a run's assignment is
// the servers its start_session calls returned: the child streams each one
// to the parent over a pipe, and every session still active after recovery
// must sit on the server its start returned.
//
// A second battery injects deliberate corruption (journal bit flips and
// truncation, checkpoint bit flips, stale checkpoint names, corrupt
// headers): every case must end in either a typed CorruptionError or a
// bit-identical recovery — a silently wrong result is the only failure.
//
// Every run directory the harness names under --dir is cleared before the
// run that uses it and removed when that run ends, on the exception path
// too, so a failed run cannot fail the next one. Nothing else under a
// given --dir is touched; without --dir the harness uses, and removes, a
// fresh directory of its own under the system temp directory.
//
// Usage:
//   dbp_crashtest [--quick] [--trials=N] [--items=N] [--seed=S]
//                 [--workloads=uniform,dyadic,discrete,bursts]
//                 [--algorithm=first-fit] [--checkpoint-every=N]
//                 [--dir=BASE] [--trace-out=FILE] [--metrics]
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "core/binary_io.hpp"
#include "core/error.hpp"
#include "core/strfmt.hpp"
#include "durability/crash_hook.hpp"
#include "durability/checkpoint.hpp"
#include "durability/file_io.hpp"
#include "durability/journal.hpp"
#include "durability/recovery.hpp"
#include "gaming/dispatcher.hpp"
#include "obs_cli.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "workload/random_instance.hpp"
#include "workload/rng.hpp"

namespace {

using namespace dbp;

constexpr const char* kUsage =
    "usage: dbp_crashtest [--quick] [--trials=N] [--items=N] [--seed=S]\n"
    "                     [--workloads=uniform,dyadic,discrete,bursts]\n"
    "                     [--algorithm=NAME] [--checkpoint-every=N]\n"
    "                     [--dir=BASE] [--trace-out=FILE] [--metrics]\n";

/// A directory the harness names itself: cleared on construction, so what
/// an earlier, interrupted run left there (a journal it would refuse to
/// overwrite) cannot fail this one, and removed on destruction, also during
/// unwinding. Forked children leave through std::_Exit or SIGKILL, so only
/// the parent ever runs the destructor.
class RunDir {
 public:
  explicit RunDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
  }
  ~RunDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

RandomInstanceConfig workload_config(const std::string& name,
                                     std::size_t items) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 20.0;
  config.duration.max_length = 8.0;
  if (name == "uniform") {
    config.size.min_fraction = 0.02;
    config.size.max_fraction = 0.5;
  } else if (name == "dyadic") {
    config.size.kind = SizeModel::Kind::kDyadic;
    config.size.min_exponent = 1;
    config.size.max_exponent = 6;
  } else if (name == "discrete") {
    config.size.kind = SizeModel::Kind::kDiscrete;
    config.size.fractions = {0.125, 0.25, 0.375, 0.5};
    config.size.weights = {4.0, 3.0, 2.0, 1.0};
  } else if (name == "bursts") {
    config.arrival.kind = ArrivalModel::Kind::kBursts;
    config.arrival.burst_size = 16;
    config.arrival.burst_gap = 0.5;
    config.size.min_fraction = 0.05;
    config.size.max_fraction = 0.4;
  } else {
    DBP_REQUIRE(false, "unknown workload '" + name +
                           "' (expected uniform, dyadic, discrete, or "
                           "bursts)\n" +
                           std::string(kUsage));
  }
  return config;
}

// --------------------------------------------------------------------------
// Bit-exact comparison. Every double is compared with ==: a recovered run
// must be indistinguishable from one that never crashed, not merely close.

std::optional<std::string> diff_results(const SimulationResult& ref,
                                        const SimulationResult& got) {
  if (got.total_cost != ref.total_cost) {
    return strfmt("total_cost %.17g != %.17g", got.total_cost, ref.total_cost);
  }
  if (got.total_cost_from_bins != ref.total_cost_from_bins) {
    return strfmt("total_cost_from_bins %.17g != %.17g",
                  got.total_cost_from_bins, ref.total_cost_from_bins);
  }
  if (got.max_open_bins != ref.max_open_bins) return "max_open_bins differs";
  if (got.bins_opened != ref.bins_opened) return "bins_opened differs";
  if (!(got.packing_period == ref.packing_period)) {
    return "packing_period differs";
  }
  if (got.bin_usage.size() != ref.bin_usage.size()) {
    return "bin_usage length differs";
  }
  for (std::size_t i = 0; i < ref.bin_usage.size(); ++i) {
    if (got.bin_usage[i].id != ref.bin_usage[i].id ||
        got.bin_usage[i].opened != ref.bin_usage[i].opened ||
        got.bin_usage[i].closed != ref.bin_usage[i].closed) {
      return strfmt("bin_usage[%zu] differs", i);
    }
  }
  if (got.assignment != ref.assignment) return "assignment differs";
  return std::nullopt;
}

// --------------------------------------------------------------------------
// Simulation-mode plumbing: a strict dispatcher (default FaultPolicy) whose
// spec bills exactly kRunModel, fed the instance's arrivals and departures
// as session starts and ends.

const CostModel kRunModel{1.0, 1.0, 1e-9};
const ServerSpec kRunSpec{1.0, 60.0};

durability::DurableDispatcher durable_run(
    const durability::DurabilityConfig& config, const std::string& algorithm,
    const PackerOptions& options) {
  return durability::DurableDispatcher(config, kRunSpec, algorithm, options,
                                       FaultPolicy{});
}

/// The server each start_session returned, by item id; kNoBin until known.
using Placements = std::vector<BinId>;

/// Writes one (item, server) placement record to the parent's pipe. Plain
/// write(2), not durability::detail::write_all: these bytes must not count
/// toward the crash hook's kill threshold.
void send_placement(int fd, std::uint64_t item, BinId server) {
  const std::uint64_t record[2] = {item, server};
  const auto* bytes = reinterpret_cast<const char*>(record);
  std::size_t sent = 0;
  while (sent < sizeof(record)) {
    const ssize_t n = ::write(fd, bytes + sent, sizeof(record) - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) std::_Exit(4);
    sent += static_cast<std::size_t>(n);
  }
}

/// Feeds events [from_seq, end) and records each start's server in
/// `placements`, and in the pipe `placement_fd` when it is open.
void feed_run(durability::DurableDispatcher& durable, const Instance& instance,
              const std::vector<Event>& events, std::uint64_t from_seq,
              Placements& placements, int placement_fd = -1) {
  for (std::uint64_t i = from_seq; i < events.size(); ++i) {
    const Item& item = instance.item(events[i].item);
    if (events[i].kind == EventKind::kArrival) {
      const BinId server =
          durable.start_session(item.id, item.size, item.arrival);
      placements[static_cast<std::size_t>(item.id)] = server;
      if (placement_fd >= 0) send_placement(placement_fd, item.id, server);
    } else {
      durable.end_session(item.id, item.departure);
    }
  }
}

/// Checks `placements` against a dispatcher recovered at `next_seq`:
/// exactly the sessions started and not ended before `next_seq` are
/// active, each on the server its start returned. A crash in the checkpoint
/// written after a start leaves that start applied but unreported; it is
/// the last event applied, so its session is active, and its server is
/// read back here.
std::optional<std::string> reconcile_placements(
    const GameServerDispatcher& dispatcher, const Instance& instance,
    const std::vector<Event>& events, std::uint64_t next_seq,
    Placements& placements) {
  std::vector<bool> active(instance.size(), false);
  for (std::uint64_t i = 0; i < next_seq; ++i) {
    active[static_cast<std::size_t>(events[i].item)] =
        events[i].kind == EventKind::kArrival;
  }
  for (const Item& item : instance.items()) {
    const auto index = static_cast<std::size_t>(item.id);
    const std::optional<ActiveSession> session = dispatcher.find_session(item.id);
    if (active[index] != session.has_value()) {
      return strfmt("session %zu is %s after recovery", index,
                    active[index] ? "missing" : "unexpectedly active");
    }
    if (!session) continue;
    if (placements[index] == kNoBin) {
      placements[index] = session->server;
    } else if (placements[index] != session->server) {
      return strfmt("recovered session %zu sits on server %llu, its start "
                    "returned %llu",
                    index, static_cast<unsigned long long>(session->server),
                    static_cast<unsigned long long>(placements[index]));
    }
  }
  return std::nullopt;
}

/// Checks that a finished durable run used `algorithm` under exactly
/// kRunModel, then compares its SimulationResult, with `placements` as its
/// assignment, bit-exactly to `ref`.
std::optional<std::string> diff_run(const durability::DurableDispatcher& durable,
                                    const Instance& instance,
                                    const std::string& algorithm,
                                    const SimulationResult& ref,
                                    const Placements& placements) {
  const GameServerDispatcher& dispatcher = durable.dispatcher();
  if (dispatcher.algorithm() != algorithm) return "algorithm name differs";
  const CostModel billed = dispatcher.spec().to_cost_model();
  if (billed.bin_capacity != kRunModel.bin_capacity ||
      billed.cost_rate != kRunModel.cost_rate ||
      billed.fit_tolerance != kRunModel.fit_tolerance) {
    return "server spec does not bill the run's cost model";
  }
  DBP_CHECK(dispatcher.bins().open_count() == 0,
            "bins remain open after the last departure");
  SimulationResult result;
  result.packing_period = instance.packing_period();
  detail::finalize_bin_accounting(result, dispatcher.bins());
  result.assignment = placements;
  return diff_results(ref, result);
}

/// Runs the full stream durably with a byte-counting hook; verifies the
/// clean durable path against the plain simulator and returns the total
/// number of bytes the durability layer writes (the kill-offset range).
std::uint64_t measure_clean_run(const durability::DurabilityConfig& config,
                                const Instance& instance,
                                const std::vector<Event>& events,
                                const std::string& algorithm,
                                const PackerOptions& options,
                                const SimulationResult& reference) {
  std::uint64_t total = 0;
  durability::set_write_crash_hook(
      [&total](std::string_view, std::uint64_t, std::size_t length) {
        total += length;
        return std::optional<std::size_t>{};
      });
  durability::DurableDispatcher durable = durable_run(config, algorithm, options);
  Placements placements(instance.size(), kNoBin);
  feed_run(durable, instance, events, 0, placements);
  durable.flush();
  durability::set_write_crash_hook({});
  if (auto why = diff_run(durable, instance, algorithm, reference, placements)) {
    throw InvariantError("clean durable run diverged from simulate(): " + *why);
  }
  return total;
}

/// Installs the SIGKILL-at-threshold hook (child side).
void install_kill_hook(std::uint64_t threshold) {
  // Owned by the hook: the child process dies inside it, never returns.
  auto written = std::make_shared<std::uint64_t>(0);
  durability::set_write_crash_hook(
      [written, threshold](std::string_view, std::uint64_t,
                           std::size_t length) -> std::optional<std::size_t> {
        if (*written + length <= threshold) {
          *written += length;
          return std::nullopt;
        }
        return static_cast<std::size_t>(threshold - *written);
      });
}

/// Forks a child that feeds the whole stream and dies at `threshold` bytes
/// of durable writes, streaming every placement it returned into
/// `placements`. Returns true when the child exited 0 or was SIGKILLed.
bool run_crashing_child(const durability::DurabilityConfig& config,
                        const Instance& instance,
                        const std::vector<Event>& events,
                        const std::string& algorithm,
                        const PackerOptions& options, std::uint64_t threshold,
                        Placements& placements) {
  int pipe_fds[2] = {-1, -1};
  DBP_REQUIRE(::pipe(pipe_fds) == 0, "pipe failed");
  const pid_t pid = ::fork();
  DBP_REQUIRE(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(pipe_fds[0]);
    try {
      durability::DurableDispatcher durable =
          durable_run(config, algorithm, options);
      install_kill_hook(threshold);
      feed_run(durable, instance, events, 0, placements, pipe_fds[1]);
      durable.flush();
    } catch (...) {
      std::_Exit(3);
    }
    std::_Exit(0);
  }
  // Read to EOF (the child's exit or kill closes the write end) before
  // waiting, so a full pipe can never stall the child.
  ::close(pipe_fds[1]);
  std::vector<std::uint8_t> stream;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::read(pipe_fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    stream.insert(stream.end(), buffer, buffer + n);
  }
  ::close(pipe_fds[0]);
  for (std::size_t at = 0; at + 16 <= stream.size(); at += 16) {
    std::uint64_t record[2];
    std::memcpy(record, stream.data() + at, sizeof(record));
    DBP_REQUIRE(record[0] < placements.size(), "placement of an unknown item");
    placements[static_cast<std::size_t>(record[0])] = record[1];
  }
  int status = 0;
  DBP_REQUIRE(::waitpid(pid, &status, 0) == pid, "waitpid failed");
  const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  const bool sigkilled = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  return clean_exit || sigkilled;
}

struct TrialTally {
  std::size_t trials = 0;
  std::size_t crashed = 0;     ///< child died mid-stream (vs ran to the end)
  std::size_t torn_tails = 0;  ///< recoveries that truncated a torn tail
  std::uint64_t replayed = 0;  ///< journal events replayed across recoveries
  std::uint64_t refed = 0;     ///< input events re-fed after recovery
};

/// One randomized SIGKILL trial: crash a child, recover in the parent,
/// re-feed the lost suffix and demand a bit-identical result. Returns an
/// error description on mismatch.
std::optional<std::string> sim_trial(const durability::DurabilityConfig& config,
                                     const Instance& instance,
                                     const std::vector<Event>& events,
                                     const std::string& algorithm,
                                     const PackerOptions& options,
                                     const SimulationResult& reference,
                                     std::uint64_t threshold,
                                     TrialTally& tally) {
  ++tally.trials;
  Placements placements(instance.size(), kNoBin);
  if (!run_crashing_child(config, instance, events, algorithm, options,
                          threshold, placements)) {
    return "child failed with an unexpected status";
  }
  durability::RecoveryManager manager(config);
  durability::RecoveredState state = manager.recover();
  if (state.report.next_seq > events.size()) {
    return "recovered next_seq beyond the input stream";
  }
  if (state.report.next_seq < events.size()) ++tally.crashed;
  if (state.report.torn_tail) ++tally.torn_tails;
  tally.replayed += state.report.replayed_events;
  tally.refed += events.size() - state.report.next_seq;
  if (auto why = reconcile_placements(state.dispatcher->dispatcher(), instance,
                                      events, state.report.next_seq,
                                      placements)) {
    return why;
  }
  feed_run(*state.dispatcher, instance, events, state.report.next_seq,
           placements);
  state.dispatcher->flush();
  return diff_run(*state.dispatcher, instance, algorithm, reference,
                  placements);
}

// --------------------------------------------------------------------------
// Dispatcher-mode plumbing: session starts/ends from the same instances,
// plus periodic server-failure injections, under a fault policy with a
// nonzero rental failure rate — so the retry/backoff accumulators and the
// rental RNG position are all exercised across the crash boundary.

struct DispatchOp {
  enum class Kind : std::uint8_t { kStart, kEnd, kFail };
  Kind kind = Kind::kStart;
  std::uint64_t session = 0;
  double size = 0.0;
  Time time = 0.0;
};

std::vector<DispatchOp> build_script(const Instance& instance,
                                     std::size_t fail_every) {
  std::vector<DispatchOp> ops;
  std::size_t counter = 0;
  for (const Event& event : build_event_sequence(instance)) {
    const Item& item = instance.item(event.item);
    DispatchOp op;
    op.session = item.id;
    if (event.kind == EventKind::kArrival) {
      op.kind = DispatchOp::Kind::kStart;
      op.size = item.size;
      op.time = item.arrival;
    } else {
      op.kind = DispatchOp::Kind::kEnd;
      op.time = item.departure;
    }
    ops.push_back(op);
    if (++counter % fail_every == 0) {
      DispatchOp fail;
      fail.kind = DispatchOp::Kind::kFail;
      fail.time = op.time;
      ops.push_back(fail);
    }
  }
  return ops;
}

const BinManager& bins_of(const GameServerDispatcher& d) { return d.bins(); }
const BinManager& bins_of(const durability::DurableDispatcher& d) {
  return d.dispatcher().bins();
}

/// Applies script ops [from, end). The kFail target is computed from live
/// state (lowest open server, or a bogus id when the fleet is empty) — the
/// same deterministic rule in the reference, the child, and the re-feed.
template <typename Dispatcher>
void apply_ops(Dispatcher& dispatcher, const std::vector<DispatchOp>& ops,
               std::size_t from) {
  constexpr BinId kBogusServer = 1'000'000'007ULL;
  for (std::size_t i = from; i < ops.size(); ++i) {
    const DispatchOp& op = ops[i];
    switch (op.kind) {
      case DispatchOp::Kind::kStart:
        (void)dispatcher.start_session(op.session, op.size, op.time);
        break;
      case DispatchOp::Kind::kEnd:
        dispatcher.end_session(op.session, op.time);
        break;
      case DispatchOp::Kind::kFail: {
        const std::vector<BinId> open = bins_of(dispatcher).open_bins();
        (void)dispatcher.fail_server(open.empty() ? kBogusServer : open.front(),
                                     op.time);
        break;
      }
    }
  }
}

std::vector<std::uint8_t> dispatcher_state_bytes(
    const GameServerDispatcher& dispatcher) {
  ByteWriter out;
  dispatcher.save_state(out);
  return out.take();
}

std::optional<std::string> dispatch_trial(
    const durability::DurabilityConfig& config, const ServerSpec& spec,
    const std::string& algorithm, const PackerOptions& options,
    const FaultPolicy& policy, const std::vector<DispatchOp>& ops,
    const std::vector<std::uint8_t>& reference_state,
    const DispatcherFaultStats& reference_stats, std::uint64_t threshold,
    TrialTally& tally) {
  ++tally.trials;
  const pid_t pid = ::fork();
  DBP_REQUIRE(pid >= 0, "fork failed");
  if (pid == 0) {
    try {
      durability::DurableDispatcher durable(config, spec, algorithm, options,
                                            policy);
      install_kill_hook(threshold);
      apply_ops(durable, ops, 0);
      durable.flush();
    } catch (...) {
      std::_Exit(3);
    }
    std::_Exit(0);
  }
  int status = 0;
  DBP_REQUIRE(::waitpid(pid, &status, 0) == pid, "waitpid failed");
  const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  const bool sigkilled = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  if (!clean_exit && !sigkilled) {
    return "child failed with an unexpected status";
  }

  durability::RecoveryManager manager(config);
  durability::RecoveredState state = manager.recover();
  if (state.report.next_seq > ops.size()) {
    return "recovered next_seq beyond the script";
  }
  if (state.report.next_seq < ops.size()) ++tally.crashed;
  if (state.report.torn_tail) ++tally.torn_tails;
  tally.replayed += state.report.replayed_events;
  tally.refed += ops.size() - state.report.next_seq;
  apply_ops(*state.dispatcher, ops,
            static_cast<std::size_t>(state.report.next_seq));
  state.dispatcher->flush();
  if (!(state.dispatcher->dispatcher().fault_stats() == reference_stats)) {
    return "dispatcher fault stats diverged (retry/backoff state)";
  }
  if (dispatcher_state_bytes(state.dispatcher->dispatcher()) !=
      reference_state) {
    return "dispatcher state bytes diverged";
  }
  return std::nullopt;
}

// --------------------------------------------------------------------------
// Corruption injection. Every scenario must end in a typed CorruptionError
// or a bit-identical recovery; anything else is a silent-wrong-answer bug.

void flip_bit(const std::string& path, std::uint64_t byte, unsigned bit) {
  std::vector<std::uint8_t> bytes = durability::detail::read_file(path);
  DBP_REQUIRE(byte < bytes.size(), "flip offset out of range");
  bytes[static_cast<std::size_t>(byte)] ^=
      static_cast<std::uint8_t>(1U << (bit & 7U));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DBP_REQUIRE(out.is_open(), "cannot rewrite " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  DBP_REQUIRE(out.good(), "rewrite failed for " + path);
}

/// Populates `dir` with a full durable run of the stream (several
/// checkpoints plus the complete journal) and returns its placements.
Placements populate_dir(const durability::DurabilityConfig& config,
                        const Instance& instance,
                        const std::vector<Event>& events,
                        const std::string& algorithm,
                        const PackerOptions& options) {
  durability::DurableDispatcher durable = durable_run(config, algorithm, options);
  Placements placements(instance.size(), kNoBin);
  feed_run(durable, instance, events, 0, placements);
  durable.flush();
  return placements;
}

/// Attempts recovery of a (possibly corrupted) directory that
/// populate_dir() filled with `placements`. Returns nullopt on a graceful
/// outcome — CorruptionError, or a recovery whose re-fed result is
/// bit-identical — and a description of any silent mismatch.
std::optional<std::string> recover_and_check(
    const durability::DurabilityConfig& config, const Instance& instance,
    const std::vector<Event>& events, const std::string& algorithm,
    const SimulationResult& reference, Placements placements,
    bool* out_recovered = nullptr, std::size_t* out_skipped = nullptr) {
  try {
    durability::RecoveryManager manager(config);
    durability::RecoveredState state = manager.recover();
    if (state.report.next_seq > events.size()) {
      return "recovered next_seq beyond the input stream";
    }
    if (out_recovered != nullptr) *out_recovered = true;
    if (out_skipped != nullptr) *out_skipped = state.report.checkpoints_skipped;
    if (auto why = reconcile_placements(state.dispatcher->dispatcher(),
                                        instance, events,
                                        state.report.next_seq, placements)) {
      return "silent corruption: " + *why;
    }
    feed_run(*state.dispatcher, instance, events, state.report.next_seq,
             placements);
    state.dispatcher->flush();
    if (auto why = diff_run(*state.dispatcher, instance, algorithm, reference,
                            placements)) {
      return "silent corruption: " + *why;
    }
  } catch (const CorruptionError&) {
    if (out_recovered != nullptr) *out_recovered = false;
  }
  return std::nullopt;
}

struct CorruptionOutcome {
  std::size_t cases = 0;
  std::size_t recovered = 0;
  std::size_t refused = 0;
};

std::optional<std::string> corruption_battery(
    const std::string& base_dir, const Instance& instance,
    const std::vector<Event>& events, const std::string& algorithm,
    const PackerOptions& options, const SimulationResult& reference, Rng& rng,
    CorruptionOutcome& outcome) {
  std::size_t case_id = 0;
  const auto case_dir = [&](const std::string& label) {
    return base_dir + "/corrupt-" + label + "-" + std::to_string(case_id);
  };
  const auto config_in = [](const RunDir& dir) {
    durability::DurabilityConfig config;
    config.dir = dir.path();
    config.checkpoint_every = 32;
    config.keep_checkpoints = 2;
    return config;
  };
  const auto finish_case = [&](const std::optional<std::string>& error,
                               bool recovered) -> std::optional<std::string> {
    if (error) return error;
    ++outcome.cases;
    if (recovered) {
      ++outcome.recovered;
    } else {
      ++outcome.refused;
    }
    return std::nullopt;
  };

  // 1. Journal bit flips past the header: torn tail or checkpoint fallback.
  for (int i = 0; i < 4; ++i) {
    ++case_id;
    const RunDir dir(case_dir("jflip"));
    const durability::DurabilityConfig config = config_in(dir);
    const Placements placements =
        populate_dir(config, instance, events, algorithm, options);
    const std::string journal =
        config.dir + "/" + durability::kJournalFileName;
    const std::uint64_t size = durability::detail::file_size(journal);
    DBP_REQUIRE(size > durability::kJournalHeaderBytes, "journal too small");
    const std::uint64_t byte = rng.uniform_int(
        durability::kJournalHeaderBytes, size - 1);
    flip_bit(journal, byte, static_cast<unsigned>(rng.uniform_int(0, 7)));
    bool recovered = false;
    if (auto err = finish_case(
            recover_and_check(config, instance, events, algorithm, reference,
                              placements, &recovered),
            recovered)) {
      return "journal bit flip: " + *err;
    }
  }

  // 2. Journal truncation at a random byte (including mid-record).
  for (int i = 0; i < 4; ++i) {
    ++case_id;
    const RunDir dir(case_dir("jtrunc"));
    const durability::DurabilityConfig config = config_in(dir);
    const Placements placements =
        populate_dir(config, instance, events, algorithm, options);
    const std::string journal =
        config.dir + "/" + durability::kJournalFileName;
    const std::uint64_t size = durability::detail::file_size(journal);
    durability::detail::truncate_file(
        journal, rng.uniform_int(durability::kJournalHeaderBytes, size));
    bool recovered = false;
    if (auto err = finish_case(
            recover_and_check(config, instance, events, algorithm, reference,
                              placements, &recovered),
            recovered)) {
      return "journal truncation: " + *err;
    }
  }

  // 3. Stale checkpoint name: a copied checkpoint impersonating another seq
  //    must be detected (name/header disagreement) and skipped.
  {
    ++case_id;
    const RunDir dir(case_dir("stale"));
    const durability::DurabilityConfig config = config_in(dir);
    const Placements placements =
        populate_dir(config, instance, events, algorithm, options);
    const auto entries = durability::list_checkpoints(config.dir);
    DBP_REQUIRE(!entries.empty(), "populate left no checkpoints");
    const std::vector<std::uint8_t> bytes =
        durability::detail::read_file(entries.front().path);
    const std::string impostor =
        config.dir + "/" +
        durability::checkpoint_file_name(entries.front().next_seq + 1);
    std::ofstream out(impostor, std::ios::binary);
    DBP_REQUIRE(out.is_open(), "cannot write impostor checkpoint");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    bool recovered = false;
    std::size_t skipped = 0;
    auto err = recover_and_check(config, instance, events, algorithm,
                                 reference, placements, &recovered, &skipped);
    if (!err && recovered && skipped == 0) {
      err = "impostor checkpoint was not skipped";
    }
    if (!err && !recovered) err = "stale name refused instead of falling back";
    if (auto final_err = finish_case(err, recovered)) {
      return "stale checkpoint name: " + *final_err;
    }
  }

  // 4. Newest checkpoint corrupted: CRC must reject it and recovery must
  //    fall back to the previous checkpoint, then replay further.
  for (int i = 0; i < 4; ++i) {
    ++case_id;
    const RunDir dir(case_dir("cflip"));
    const durability::DurabilityConfig config = config_in(dir);
    const Placements placements =
        populate_dir(config, instance, events, algorithm, options);
    const auto entries = durability::list_checkpoints(config.dir);
    DBP_REQUIRE(entries.size() >= 2, "need two checkpoints for fallback");
    const std::uint64_t size =
        durability::detail::file_size(entries.front().path);
    flip_bit(entries.front().path, rng.uniform_int(0, size - 1),
             static_cast<unsigned>(rng.uniform_int(0, 7)));
    bool recovered = false;
    std::size_t skipped = 0;
    auto err = recover_and_check(config, instance, events, algorithm,
                                 reference, placements, &recovered, &skipped);
    if (!err && recovered && skipped == 0) {
      err = "corrupt newest checkpoint was not skipped";
    }
    if (!err && !recovered) {
      err = "no fallback to the previous checkpoint";
    }
    if (auto final_err = finish_case(err, recovered)) {
      return "checkpoint bit flip: " + *final_err;
    }
  }

  // 5. Every checkpoint corrupted: recovery must refuse with
  //    CorruptionError, never fabricate a state.
  {
    ++case_id;
    const RunDir dir(case_dir("allbad"));
    const durability::DurabilityConfig config = config_in(dir);
    const Placements placements =
        populate_dir(config, instance, events, algorithm, options);
    for (const auto& entry : durability::list_checkpoints(config.dir)) {
      const std::uint64_t size = durability::detail::file_size(entry.path);
      flip_bit(entry.path, rng.uniform_int(0, size - 1),
               static_cast<unsigned>(rng.uniform_int(0, 7)));
    }
    bool recovered = false;
    auto err = recover_and_check(config, instance, events, algorithm,
                                 reference, placements, &recovered);
    if (!err && recovered) {
      err = "recovery accepted a directory with only corrupt checkpoints";
    }
    if (auto final_err = finish_case(err, recovered)) {
      return "all checkpoints corrupt: " + *final_err;
    }
  }

  // 6. Corrupt journal header: no safe prefix exists; refuse.
  {
    ++case_id;
    const RunDir dir(case_dir("jheader"));
    const durability::DurabilityConfig config = config_in(dir);
    const Placements placements =
        populate_dir(config, instance, events, algorithm, options);
    const std::string journal =
        config.dir + "/" + durability::kJournalFileName;
    flip_bit(journal, rng.uniform_int(0, durability::kJournalHeaderBytes - 1),
             static_cast<unsigned>(rng.uniform_int(0, 7)));
    bool recovered = false;
    auto err = recover_and_check(config, instance, events, algorithm,
                                 reference, placements, &recovered);
    if (!err && recovered) {
      err = "recovery accepted a journal with a corrupt header";
    }
    if (auto final_err = finish_case(err, recovered)) {
      return "journal header flip: " + *final_err;
    }
  }

  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbp;
  try {
    const cli::Args args(argc, argv,
                         {"quick", "trials", "items", "seed", "workloads",
                          "algorithm", "checkpoint-every", "dir", "trace-out",
                          "metrics"},
                         kUsage);
    cli::ObsSession obs_session(args);
    const bool quick = args.has("quick");
    const std::uint64_t trials =
        args.get_u64("trials", quick ? 12 : 120);
    const std::size_t items = args.get_u64("items", quick ? 120 : 240);
    const std::uint64_t seed = args.get_u64("seed", 1);
    const std::vector<std::string> workloads = args.get_list(
        "workloads", {"uniform", "dyadic", "discrete", "bursts"});
    const std::string algorithm = args.get("algorithm", "first-fit");
    const std::uint64_t checkpoint_every = args.get_u64("checkpoint-every", 64);

    // Without --dir the whole base directory is the harness's own.
    std::optional<RunDir> own_base;
    if (!args.has("dir")) {
      own_base.emplace((std::filesystem::temp_directory_path() /
                        ("dbp_crashtest." + std::to_string(::getpid())))
                           .string());
    }
    const std::string base_dir = own_base ? own_base->path() : args.get("dir", "");
    std::filesystem::create_directories(base_dir);

    Rng rng(seed ^ 0xC4A5585ULL);
    std::size_t failures = 0;

    // ---- Simulation-mode SIGKILL battery, per workload class.
    for (const std::string& workload : workloads) {
      const Instance instance =
          generate_random_instance(workload_config(workload, items), seed);
      const std::vector<Event> events = build_event_sequence(instance);
      PackerOptions options;
      options.seed = seed;
      const SimulationResult reference =
          simulate(instance, algorithm, kRunModel, options);

      std::uint64_t total_bytes = 0;
      {
        const RunDir dir(base_dir + "/probe-" + workload);
        durability::DurabilityConfig probe;
        probe.dir = dir.path();
        probe.checkpoint_every = checkpoint_every;
        total_bytes = measure_clean_run(probe, instance, events, algorithm,
                                        options, reference);
      }

      TrialTally tally;
      for (std::uint64_t t = 0; t < trials; ++t) {
        const RunDir dir(base_dir + "/" + workload + "-" + std::to_string(t));
        durability::DurabilityConfig config;
        config.dir = dir.path();
        config.checkpoint_every = checkpoint_every;
        // +5% headroom so some children run to completion (clean-exit path).
        const std::uint64_t threshold =
            rng.uniform_int(0, total_bytes + total_bytes / 20);
        if (auto why = sim_trial(config, instance, events, algorithm, options,
                                 reference, threshold, tally)) {
          std::cerr << strfmt("FAIL [%s trial %llu threshold %llu]: %s\n",
                              workload.c_str(),
                              static_cast<unsigned long long>(t),
                              static_cast<unsigned long long>(threshold),
                              why->c_str());
          ++failures;
        }
      }
      std::cout << strfmt(
          "%-8s %4zu kill points | crashed %4zu | torn tails %3zu | "
          "replayed %6llu | re-fed %6llu | %s\n",
          workload.c_str(), tally.trials, tally.crashed, tally.torn_tails,
          static_cast<unsigned long long>(tally.replayed),
          static_cast<unsigned long long>(tally.refed),
          failures == 0 ? "all bit-identical" : "FAILURES");
    }

    // ---- Dispatcher-mode SIGKILL battery (retry/backoff + rental RNG).
    {
      const Instance instance =
          generate_random_instance(workload_config("uniform", items), seed + 7);
      const std::vector<DispatchOp> ops = build_script(instance, 53);
      const ServerSpec spec{1.0, 1.0};
      PackerOptions options;
      options.seed = seed;
      FaultPolicy policy;
      policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
      policy.rental_failure_rate = 0.05;
      policy.max_rental_retries = 3;

      GameServerDispatcher reference(spec, algorithm, options, policy);
      apply_ops(reference, ops, 0);
      const std::vector<std::uint8_t> reference_state =
          dispatcher_state_bytes(reference);
      const DispatcherFaultStats reference_stats = reference.fault_stats();

      // Clean durable differential + byte budget measurement.
      std::uint64_t total_bytes = 0;
      durability::set_write_crash_hook(
          [&total_bytes](std::string_view, std::uint64_t, std::size_t length) {
            total_bytes += length;
            return std::optional<std::size_t>{};
          });
      {
        const RunDir dir(base_dir + "/probe-dispatch");
        durability::DurabilityConfig probe;
        probe.dir = dir.path();
        probe.checkpoint_every = checkpoint_every;
        durability::DurableDispatcher durable(probe, spec, algorithm, options,
                                              policy);
        apply_ops(durable, ops, 0);
        durable.flush();
        durability::set_write_crash_hook({});
        DBP_CHECK(dispatcher_state_bytes(durable.dispatcher()) ==
                      reference_state,
                  "clean durable dispatcher diverged from the plain one");
      }

      TrialTally tally;
      for (std::uint64_t t = 0; t < trials; ++t) {
        const RunDir dir(base_dir + "/dispatch-" + std::to_string(t));
        durability::DurabilityConfig config;
        config.dir = dir.path();
        config.checkpoint_every = checkpoint_every;
        const std::uint64_t threshold =
            rng.uniform_int(0, total_bytes + total_bytes / 20);
        if (auto why = dispatch_trial(config, spec, algorithm, options, policy,
                                      ops, reference_state, reference_stats,
                                      threshold, tally)) {
          std::cerr << strfmt("FAIL [dispatch trial %llu threshold %llu]: %s\n",
                              static_cast<unsigned long long>(t),
                              static_cast<unsigned long long>(threshold),
                              why->c_str());
          ++failures;
        }
      }
      std::cout << strfmt(
          "%-8s %4zu kill points | crashed %4zu | torn tails %3zu | "
          "replayed %6llu | re-fed %6llu | %s\n",
          "dispatch", tally.trials, tally.crashed, tally.torn_tails,
          static_cast<unsigned long long>(tally.replayed),
          static_cast<unsigned long long>(tally.refed),
          failures == 0 ? "all bit-identical" : "FAILURES");
    }

    // ---- Corruption-injection battery.
    {
      const Instance instance =
          generate_random_instance(workload_config("uniform", items), seed + 3);
      const std::vector<Event> events = build_event_sequence(instance);
      PackerOptions options;
      options.seed = seed;
      const SimulationResult reference =
          simulate(instance, algorithm, kRunModel, options);
      CorruptionOutcome outcome;
      if (auto why =
              corruption_battery(base_dir, instance, events, algorithm,
                                 options, reference, rng, outcome)) {
        std::cerr << "FAIL [corruption]: " << *why << "\n";
        ++failures;
      }
      std::cout << strfmt(
          "corrupt  %4zu injections  | recovered %2zu | refused (typed) %2zu "
          "| %s\n",
          outcome.cases, outcome.recovered, outcome.refused,
          failures == 0 ? "no silent wrong answers" : "FAILURES");
    }

    obs_session.finish();
    if (failures != 0) {
      std::cerr << "dbp_crashtest: " << failures << " failure(s)\n";
      return 2;
    }
    std::cout << "dbp_crashtest: OK\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "dbp_crashtest: " << error.what() << "\n";
    return 1;
  }
}
