// dbp_crashtest — crash-consistency harness for the durability subsystem.
//
// Every stream class is an op script (session starts, ends and server
// failures) with the dispatcher that runs it: a server spec and a fault
// policy. The packing classes are strict dispatchers whose spec bills
// exactly the run's cost model, fed a random instance's arrivals and
// departures as session starts and ends; the dispatch class adds server
// failures and a flaky provider, so the retry/backoff accumulators and the
// rental RNG position cross the crash boundary too.
//
// A probe per class runs the script through a plain GameServerDispatcher,
// the reference, and records what every op returned, the final save_state
// bytes and the fault stats. A clean durable run must match the reference,
// and for a packing class the reference's bins and returned servers must
// equal simulate()'s SimulationResult. Then every trial forks a child that
// feeds the script through a DurableDispatcher and SIGKILLs itself at a
// randomized byte offset inside the journal/checkpoint write path
// (durability::WriteCrashHook), streaming (op index, return value) over a
// pipe for every call it finished. The parent recovers the directory and
// requires, bit for bit:
//   * the recovered state to equal the reference's after ops [0, next_seq);
//   * every streamed op to lie below next_seq and its value to equal the
//     reference's;
//   * after re-feeding ops [next_seq, end), every return, the final state
//     bytes and the fault stats to equal the reference's.
//
// A corruption battery damages fully populated directories (journal bit
// flips and truncation, checkpoint bit flips, stale checkpoint names,
// corrupt headers): every case must end in a typed CorruptionError or a
// recovery that passes the same checks — a silently wrong result is the
// only failure.
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

  [[nodiscard]] durability::DurabilityConfig config(
      std::uint64_t checkpoint_every) const {
    durability::DurabilityConfig config;
    config.dir = path_;
    config.checkpoint_every = checkpoint_every;
    return config;
  }

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
// Stream classes and the reference run.

struct Op {
  enum class Kind : std::uint8_t { kStart, kEnd, kFail };
  Kind kind = Kind::kStart;
  std::uint64_t session = 0;
  double size = 0.0;
  Time time = 0.0;
};

/// What a class feeds and the dispatcher that runs it.
struct StreamClass {
  std::string name;
  std::vector<Op> ops;
  ServerSpec spec;
  std::string algorithm;
  PackerOptions options;
  FaultPolicy policy;
  /// The instance whose simulate() the reference must equal; set for the
  /// packing classes only.
  std::optional<Instance> instance;
};

/// The instance's arrivals and departures as session starts and ends, with
/// a server failure after every `fail_every`-th of them (none for 0).
std::vector<Op> build_script(const Instance& instance, std::size_t fail_every) {
  std::vector<Op> ops;
  std::size_t counter = 0;
  for (const Event& event : build_event_sequence(instance)) {
    const Item& item = instance.item(event.item);
    if (event.kind == EventKind::kArrival) {
      ops.push_back(Op{Op::Kind::kStart, item.id, item.size, item.arrival});
    } else {
      ops.push_back(Op{Op::Kind::kEnd, item.id, 0.0, item.departure});
    }
    if (fail_every != 0 && ++counter % fail_every == 0) {
      ops.push_back(Op{Op::Kind::kFail, 0, 0.0, ops.back().time});
    }
  }
  return ops;
}

/// A packing run made durable: a strict dispatcher (default FaultPolicy)
/// whose ServerSpec{1, 60} bills exactly CostModel{1, 1, 1e-9}.
StreamClass packing_class(const std::string& workload, std::size_t items,
                          std::uint64_t seed, const std::string& algorithm,
                          const PackerOptions& options) {
  Instance instance =
      generate_random_instance(workload_config(workload, items), seed);
  std::vector<Op> ops = build_script(instance, 0);
  return StreamClass{workload,  std::move(ops), ServerSpec{1.0, 60.0},
                     algorithm, options,        FaultPolicy{},
                     std::move(instance)};
}

/// Session churn with a server failure every 53 ops, under a policy that
/// drops anomalies and fails 5% of rentals with 3 retries.
StreamClass dispatch_class(std::size_t items, std::uint64_t seed,
                           const std::string& algorithm,
                           const PackerOptions& options) {
  const Instance instance =
      generate_random_instance(workload_config("uniform", items), seed + 7);
  FaultPolicy policy;
  policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  policy.rental_failure_rate = 0.05;
  policy.max_rental_retries = 3;
  return StreamClass{"dispatch", build_script(instance, 53),
                     ServerSpec{1.0, 1.0}, algorithm, options, policy,
                     std::nullopt};
}

const GameServerDispatcher& plain(const GameServerDispatcher& dispatcher) {
  return dispatcher;
}
const GameServerDispatcher& plain(
    const durability::DurableDispatcher& durable) {
  return durable.dispatcher();
}

/// Applies one op and returns what the call returned (0 for an end). A
/// failure targets the lowest open server, or a bogus id when the fleet is
/// empty: the same rule from live state in the reference, the child and the
/// re-feed.
template <typename Dispatcher>
std::uint64_t apply_op(Dispatcher& dispatcher, const Op& op) {
  constexpr BinId kBogusServer = 1'000'000'007ULL;
  if (op.kind == Op::Kind::kStart) {
    return dispatcher.start_session(op.session, op.size, op.time);
  }
  if (op.kind == Op::Kind::kEnd) {
    dispatcher.end_session(op.session, op.time);
    return 0;
  }
  const std::vector<BinId> open = plain(dispatcher).bins().open_bins();
  return dispatcher.fail_server(open.empty() ? kBogusServer : open.front(),
                                op.time);
}

std::vector<std::uint8_t> state_bytes(const GameServerDispatcher& dispatcher) {
  ByteWriter out;
  dispatcher.save_state(out);
  return out.take();
}

GameServerDispatcher plain_dispatcher(const StreamClass& cls) {
  return GameServerDispatcher(cls.spec, cls.algorithm, cls.options,
                              cls.policy);
}

durability::DurableDispatcher durable_dispatcher(
    const StreamClass& cls, const durability::DurabilityConfig& config) {
  return durability::DurableDispatcher(config, cls.spec, cls.algorithm,
                                       cls.options, cls.policy);
}

/// What the uninterrupted plain dispatcher did with the whole script.
struct Reference {
  std::vector<std::uint64_t> returns;  ///< per op
  std::vector<std::uint8_t> state;     ///< save_state after the last op
  DispatcherFaultStats stats;
};

/// Every double is compared with ==: the reference dispatcher must bill
/// exactly what simulate() bills, not merely close to it.
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

/// Runs the script through the plain dispatcher. For a packing class its
/// bins, with the servers its starts returned as the assignment, must
/// equal simulate()'s SimulationResult (InvariantError otherwise).
Reference run_reference(const StreamClass& cls) {
  GameServerDispatcher dispatcher = plain_dispatcher(cls);
  Reference ref;
  for (const Op& op : cls.ops) ref.returns.push_back(apply_op(dispatcher, op));
  ref.state = state_bytes(dispatcher);
  ref.stats = dispatcher.fault_stats();
  if (cls.instance) {
    const Instance& instance = *cls.instance;
    SimulationResult result;
    result.packing_period = instance.packing_period();
    detail::finalize_bin_accounting(result, dispatcher.bins());
    result.assignment.assign(instance.size(), kNoBin);
    for (std::size_t i = 0; i < cls.ops.size(); ++i) {
      if (cls.ops[i].kind == Op::Kind::kStart) {
        result.assignment[static_cast<std::size_t>(cls.ops[i].session)] =
            ref.returns[i];
      }
    }
    const SimulationResult simulated = simulate(
        instance, cls.algorithm, cls.spec.to_cost_model(), cls.options);
    if (auto why = diff_results(simulated, result)) {
      throw InvariantError("reference dispatcher diverged from simulate(): " +
                           *why);
    }
  }
  return ref;
}

/// The reference's save_state bytes after ops [0, count).
std::vector<std::uint8_t> reference_state_after(const StreamClass& cls,
                                                std::uint64_t count) {
  GameServerDispatcher dispatcher = plain_dispatcher(cls);
  for (std::uint64_t i = 0; i < count; ++i) {
    (void)apply_op(dispatcher, cls.ops[i]);
  }
  return state_bytes(dispatcher);
}

/// Feeds ops [from, end) and requires every return, then the final fault
/// stats and state bytes, to equal the reference's.
std::optional<std::string> feed_rest(durability::DurableDispatcher& durable,
                                     const StreamClass& cls,
                                     const Reference& ref, std::uint64_t from) {
  for (std::uint64_t i = from; i < cls.ops.size(); ++i) {
    const std::uint64_t got = apply_op(durable, cls.ops[i]);
    if (got != ref.returns[i]) {
      return strfmt("op %llu returned %llu, the reference %llu",
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(ref.returns[i]));
    }
  }
  if (!(durable.dispatcher().fault_stats() == ref.stats)) {
    return "dispatcher fault stats diverged (retry/backoff state)";
  }
  if (state_bytes(durable.dispatcher()) != ref.state) {
    return "dispatcher state bytes diverged";
  }
  return std::nullopt;
}

/// Runs the whole script through a fresh durable dispatcher in `config.dir`
/// with a byte-counting hook, requires it to match the reference, and
/// returns the total number of bytes the durability layer wrote (the
/// kill-offset range).
std::uint64_t measure_clean_run(const StreamClass& cls, const Reference& ref,
                                const durability::DurabilityConfig& config) {
  std::uint64_t total = 0;
  durability::set_write_crash_hook(
      [&total](std::string_view, std::uint64_t, std::size_t length) {
        total += length;
        return std::optional<std::size_t>{};
      });
  durability::DurableDispatcher durable = durable_dispatcher(cls, config);
  const std::optional<std::string> why = feed_rest(durable, cls, ref, 0);
  durability::set_write_crash_hook({});
  if (why) {
    throw InvariantError("clean durable run diverged from the reference: " +
                         *why);
  }
  return total;
}

// --------------------------------------------------------------------------
// The crash trial.

/// A call the child finished: its op index and what it returned.
struct Ack {
  std::uint64_t op = 0;
  std::uint64_t value = 0;
};

/// Checks a recovered directory against the reference: the state at the
/// recovery point, every acknowledged return, then the re-fed rest of the
/// script. Returns a description of the first mismatch.
std::optional<std::string> check_recovery(const StreamClass& cls,
                                          const Reference& ref,
                                          durability::RecoveredState& state,
                                          const std::vector<Ack>& acks) {
  const std::uint64_t next_seq = state.report.next_seq;
  if (next_seq > cls.ops.size()) return "recovered next_seq beyond the script";
  if (state_bytes(state.dispatcher->dispatcher()) !=
      reference_state_after(cls, next_seq)) {
    return strfmt("recovered state differs from the reference after ops "
                  "[0, %llu)",
                  static_cast<unsigned long long>(next_seq));
  }
  for (const Ack& ack : acks) {
    if (ack.op >= next_seq) {
      return strfmt("op %llu returned to its caller but was not recovered "
                    "(next_seq %llu)",
                    static_cast<unsigned long long>(ack.op),
                    static_cast<unsigned long long>(next_seq));
    }
    if (ack.value != ref.returns[ack.op]) {
      return strfmt("op %llu returned %llu before the crash, the reference "
                    "%llu",
                    static_cast<unsigned long long>(ack.op),
                    static_cast<unsigned long long>(ack.value),
                    static_cast<unsigned long long>(ref.returns[ack.op]));
    }
  }
  return feed_rest(*state.dispatcher, cls, ref, next_seq);
}

/// Writes one ack to the parent's pipe. Plain write(2), not
/// durability::detail::write_all: these bytes must not count toward the
/// crash hook's kill threshold.
void send_ack(int fd, const Ack& ack) {
  const std::uint64_t record[2] = {ack.op, ack.value};
  const auto* bytes = reinterpret_cast<const char*>(record);
  std::size_t sent = 0;
  while (sent < sizeof(record)) {
    const ssize_t n = ::write(fd, bytes + sent, sizeof(record) - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) std::_Exit(4);
    sent += static_cast<std::size_t>(n);
  }
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

/// Forks a child that feeds the whole script durably and dies at
/// `threshold` bytes of durable writes, and returns the acks it streamed;
/// std::nullopt when the child neither exited 0 nor was SIGKILLed.
std::optional<std::vector<Ack>> run_crashing_child(
    const StreamClass& cls, const durability::DurabilityConfig& config,
    std::uint64_t threshold) {
  int pipe_fds[2] = {-1, -1};
  DBP_REQUIRE(::pipe(pipe_fds) == 0, "pipe failed");
  const pid_t pid = ::fork();
  DBP_REQUIRE(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(pipe_fds[0]);
    try {
      durability::DurableDispatcher durable = durable_dispatcher(cls, config);
      install_kill_hook(threshold);
      for (std::uint64_t i = 0; i < cls.ops.size(); ++i) {
        send_ack(pipe_fds[1], Ack{i, apply_op(durable, cls.ops[i])});
      }
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
  std::vector<Ack> acks;
  for (std::size_t at = 0; at + 16 <= stream.size(); at += 16) {
    std::uint64_t record[2];
    std::memcpy(record, stream.data() + at, sizeof(record));
    DBP_REQUIRE(record[0] < cls.ops.size(), "ack of an op outside the script");
    acks.push_back(Ack{record[0], record[1]});
  }
  int status = 0;
  DBP_REQUIRE(::waitpid(pid, &status, 0) == pid, "waitpid failed");
  const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  const bool sigkilled = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  if (!clean_exit && !sigkilled) return std::nullopt;
  return acks;
}

struct TrialTally {
  std::size_t trials = 0;
  std::size_t crashed = 0;     ///< child died mid-stream (vs ran to the end)
  std::size_t torn_tails = 0;  ///< recoveries that truncated a torn tail
  std::uint64_t replayed = 0;  ///< journal events replayed across recoveries
  std::uint64_t refed = 0;     ///< input events re-fed after recovery
};

/// One randomized SIGKILL trial: crash a child, recover in the parent and
/// check the recovery against the reference. Returns an error description
/// on mismatch.
std::optional<std::string> crash_trial(const StreamClass& cls,
                                       const Reference& ref,
                                       const durability::DurabilityConfig& config,
                                       std::uint64_t threshold,
                                       TrialTally& tally) {
  ++tally.trials;
  const std::optional<std::vector<Ack>> acks =
      run_crashing_child(cls, config, threshold);
  if (!acks) return "child failed with an unexpected status";
  durability::RecoveredState state =
      durability::RecoveryManager(config).recover();
  if (auto why = check_recovery(cls, ref, state, *acks)) return why;
  const durability::RecoveryReport& report = state.report;
  if (report.next_seq < cls.ops.size()) ++tally.crashed;
  if (report.torn_tail) ++tally.torn_tails;
  tally.replayed += report.replayed_events;
  tally.refed += cls.ops.size() - report.next_seq;
  return std::nullopt;
}

// --------------------------------------------------------------------------
// Corruption injection. Every case must end in a typed CorruptionError or a
// recovery that passes check_recovery; anything else is a silent wrong
// answer.

void flip_random_bit(const std::string& path, std::uint64_t first,
                     std::uint64_t last, Rng& rng) {
  std::vector<std::uint8_t> bytes = durability::detail::read_file(path);
  DBP_REQUIRE(first <= last && last < bytes.size(), "flip range out of file");
  const std::uint64_t byte = rng.uniform_int(first, last);
  const std::uint64_t bit = rng.uniform_int(0, 7);
  bytes[static_cast<std::size_t>(byte)] ^= static_cast<std::uint8_t>(1U << bit);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DBP_REQUIRE(out.is_open(), "cannot rewrite " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  DBP_REQUIRE(out.good(), "rewrite failed for " + path);
}

std::string journal_in(const std::string& dir) {
  return dir + "/" + durability::kJournalFileName;
}

enum class Expect {
  kAny,       ///< a refusal or a recovery
  kFallBack,  ///< a recovery that skipped at least one checkpoint
  kRefuse,    ///< a CorruptionError
};

struct Damage {
  const char* label;  ///< run directories are corrupt-<label>-<case>
  const char* what;
  int repeats;
  Expect expect;
  void (*apply)(const std::string& dir, Rng& rng);
};

constexpr Damage kDamages[] = {
    // Past the header: a torn tail, or a checkpoint ahead of the journal's
    // valid prefix to fall back past.
    {"jflip", "journal bit flip", 4, Expect::kAny,
     [](const std::string& dir, Rng& rng) {
       const std::string journal = journal_in(dir);
       flip_random_bit(journal, durability::kJournalHeaderBytes,
                       durability::detail::file_size(journal) - 1, rng);
     }},
    // At a random byte, mid-record included.
    {"jtrunc", "journal truncation", 4, Expect::kAny,
     [](const std::string& dir, Rng& rng) {
       const std::string journal = journal_in(dir);
       durability::detail::truncate_file(
           journal, rng.uniform_int(durability::kJournalHeaderBytes,
                                    durability::detail::file_size(journal)));
     }},
    // A copied checkpoint impersonating a newer seq: the name/header
    // cross-check must skip it.
    {"stale", "stale checkpoint name", 1, Expect::kFallBack,
     [](const std::string& dir, Rng&) {
       const auto entries = durability::list_checkpoints(dir);
       DBP_REQUIRE(!entries.empty(), "populate left no checkpoints");
       std::filesystem::copy_file(
           entries.front().path,
           dir + "/" +
               durability::checkpoint_file_name(entries.front().next_seq + 1));
     }},
    // The newest checkpoint damaged: its CRC must reject it, and recovery
    // must fall back to the previous one and replay further.
    {"cflip", "checkpoint bit flip", 4, Expect::kFallBack,
     [](const std::string& dir, Rng& rng) {
       const auto entries = durability::list_checkpoints(dir);
       DBP_REQUIRE(entries.size() >= 2, "need two checkpoints for fallback");
       flip_random_bit(entries.front().path, 0,
                       durability::detail::file_size(entries.front().path) - 1,
                       rng);
     }},
    // Nothing valid to recover to: refuse, never fabricate a state.
    {"allbad", "all checkpoints corrupt", 1, Expect::kRefuse,
     [](const std::string& dir, Rng& rng) {
       for (const auto& entry : durability::list_checkpoints(dir)) {
         flip_random_bit(entry.path, 0,
                         durability::detail::file_size(entry.path) - 1, rng);
       }
     }},
    // No safe journal prefix exists.
    {"jheader", "journal header flip", 1, Expect::kRefuse,
     [](const std::string& dir, Rng& rng) {
       flip_random_bit(journal_in(dir), 0,
                       durability::kJournalHeaderBytes - 1, rng);
     }},
};

struct CorruptionOutcome {
  std::size_t cases = 0;
  std::size_t recovered = 0;
  std::size_t refused = 0;
};

/// Populates a directory with a clean durable run of the whole script
/// (several checkpoints plus the complete journal), damages it, and
/// requires the expected outcome.
std::optional<std::string> corruption_case(const StreamClass& cls,
                                           const Reference& ref,
                                           const Damage& damage,
                                           const std::string& path, Rng& rng,
                                           CorruptionOutcome& outcome) {
  const RunDir dir(path);
  const durability::DurabilityConfig config = dir.config(32);
  {
    durability::DurableDispatcher durable = durable_dispatcher(cls, config);
    if (auto why = feed_rest(durable, cls, ref, 0)) {
      throw InvariantError("clean durable run diverged from the reference: " +
                           *why);
    }
  }
  damage.apply(config.dir, rng);
  std::optional<durability::RecoveredState> state;
  try {
    state.emplace(durability::RecoveryManager(config).recover());
  } catch (const CorruptionError&) {
  }
  if (state) {
    if (auto why = check_recovery(cls, ref, *state, {})) {
      return "silent corruption: " + *why;
    }
  }
  if (damage.expect == Expect::kRefuse && state) {
    return "recovery accepted the damaged directory";
  }
  if (damage.expect == Expect::kFallBack) {
    if (!state) return "refused instead of falling back to an older checkpoint";
    if (state->report.checkpoints_skipped == 0) {
      return "the damaged checkpoint was not skipped";
    }
  }
  ++outcome.cases;
  if (state) {
    ++outcome.recovered;
  } else {
    ++outcome.refused;
  }
  return std::nullopt;
}

std::optional<std::string> corruption_battery(const std::string& base_dir,
                                              const StreamClass& cls,
                                              const Reference& ref, Rng& rng,
                                              CorruptionOutcome& outcome) {
  std::size_t case_id = 0;
  for (const Damage& damage : kDamages) {
    for (int i = 0; i < damage.repeats; ++i) {
      ++case_id;
      const std::string path = base_dir + "/corrupt-" + damage.label + "-" +
                               std::to_string(case_id);
      if (auto why = corruption_case(cls, ref, damage, path, rng, outcome)) {
        return std::string(damage.what) + ": " + *why;
      }
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
    PackerOptions options;
    options.seed = seed;

    // Without --dir the whole base directory is the harness's own.
    std::optional<RunDir> own_base;
    std::string base_dir = args.get("dir", "");
    if (!args.has("dir")) {
      base_dir = (std::filesystem::temp_directory_path() /
                  ("dbp_crashtest." + std::to_string(::getpid())))
                     .string();
      own_base.emplace(base_dir);
    }
    std::filesystem::create_directories(base_dir);

    Rng rng(seed ^ 0xC4A5585ULL);
    std::size_t failures = 0;

    // ---- SIGKILL battery, per stream class.
    std::vector<StreamClass> classes;
    for (const std::string& workload : workloads) {
      classes.push_back(
          packing_class(workload, items, seed, algorithm, options));
    }
    classes.push_back(dispatch_class(items, seed, algorithm, options));
    for (const StreamClass& cls : classes) {
      const Reference ref = run_reference(cls);
      std::uint64_t total_bytes = 0;
      {
        const RunDir dir(base_dir + "/probe-" + cls.name);
        total_bytes = measure_clean_run(cls, ref, dir.config(checkpoint_every));
      }
      TrialTally tally;
      for (std::uint64_t t = 0; t < trials; ++t) {
        const RunDir dir(base_dir + "/" + cls.name + "-" + std::to_string(t));
        // +5% headroom so some children run to completion (clean-exit path).
        const std::uint64_t threshold =
            rng.uniform_int(0, total_bytes + total_bytes / 20);
        if (auto why = crash_trial(cls, ref, dir.config(checkpoint_every),
                                   threshold, tally)) {
          std::cerr << strfmt("FAIL [%s trial %llu threshold %llu]: %s\n",
                              cls.name.c_str(),
                              static_cast<unsigned long long>(t),
                              static_cast<unsigned long long>(threshold),
                              why->c_str());
          ++failures;
        }
      }
      std::cout << strfmt(
          "%-8s %4zu kill points | crashed %4zu | torn tails %3zu | "
          "replayed %6llu | re-fed %6llu | %s\n",
          cls.name.c_str(), tally.trials, tally.crashed, tally.torn_tails,
          static_cast<unsigned long long>(tally.replayed),
          static_cast<unsigned long long>(tally.refed),
          failures == 0 ? "all bit-identical" : "FAILURES");
    }

    // ---- Corruption-injection battery.
    {
      const StreamClass cls =
          packing_class("uniform", items, seed + 3, algorithm, options);
      const Reference ref = run_reference(cls);
      CorruptionOutcome outcome;
      if (auto why = corruption_battery(base_dir, cls, ref, rng, outcome)) {
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
