#include "durability/recovery.hpp"

#include <filesystem>
#include <utility>
#include <vector>

#include "core/binary_io.hpp"
#include "core/error.hpp"
#include "durability/checkpoint.hpp"
#include "obs/obs.hpp"

namespace dbp::durability {

namespace {

std::string journal_path(const DurabilityConfig& config) {
  return config.dir + "/" + kJournalFileName;
}

void write_packer_options(ByteWriter& out, const PackerOptions& options) {
  out.f64(options.mff_k);
  out.f64(options.known_mu);
  out.u64(static_cast<std::uint64_t>(options.harmonic_classes));
  out.u64(options.seed);
}

PackerOptions read_packer_options(ByteReader& in) {
  PackerOptions options;
  options.mff_k = in.f64();
  options.known_mu = in.f64();
  const std::uint64_t classes = in.u64();
  if (classes > 1'000'000) {
    throw CorruptionError("implausible harmonic class count in checkpoint");
  }
  options.harmonic_classes = static_cast<int>(classes);
  options.seed = in.u64();
  return options;
}

}  // namespace

void DurabilityConfig::validate() const {
  DBP_REQUIRE(!dir.empty(), "durability directory must be set");
  DBP_REQUIRE(keep_checkpoints >= 1, "must keep at least one checkpoint");
  DBP_REQUIRE(flush_every >= 1, "flush cadence must be at least 1");
}

// ---------------------------------------------------------------------------
// DurableDispatcher

DurableDispatcher::DurableDispatcher(const DurabilityConfig& config,
                                     const ServerSpec& spec,
                                     const std::string& algorithm,
                                     const PackerOptions& options,
                                     const FaultPolicy& policy)
    : DurableDispatcher(RecoveredTag{}, config, spec, algorithm, options,
                        policy) {
  config_.validate();
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) throw IoError("cannot create durability directory: " + config_.dir);
  // Checkpoint 0 before the journal exists: recovery can always fall back
  // to "nothing happened yet" even if the very first record never lands.
  checkpoint_now();
  journal_ = std::make_unique<JournalWriter>(journal_path(config_),
                                             config_.stream_id);
}

DurableDispatcher::DurableDispatcher(RecoveredTag, DurabilityConfig config,
                                     ServerSpec spec, std::string algorithm,
                                     PackerOptions options, FaultPolicy policy)
    : config_(std::move(config)),
      spec_(spec),
      algorithm_(std::move(algorithm)),
      options_(options),
      policy_(policy),
      dispatcher_(spec_, algorithm_, options_, policy_) {
  DBP_REQUIRE(dispatcher_.snapshot_supported(),
              "algorithm cannot run durably (no snapshot support): " +
                  algorithm_);
}

BinId DurableDispatcher::start_session(std::uint64_t session_id,
                                       double gpu_fraction, Time now_minutes) {
  journal_event(JournalEventKind::kStartSession, now_minutes, session_id,
                gpu_fraction);
  const BinId server =
      dispatcher_.start_session(session_id, gpu_fraction, now_minutes);
  maybe_checkpoint();
  return server;
}

void DurableDispatcher::end_session(std::uint64_t session_id,
                                    Time now_minutes) {
  journal_event(JournalEventKind::kEndSession, now_minutes, session_id, 0.0);
  dispatcher_.end_session(session_id, now_minutes);
  maybe_checkpoint();
}

std::size_t DurableDispatcher::fail_server(BinId server, Time now_minutes) {
  journal_event(JournalEventKind::kFailServer, now_minutes, server, 0.0);
  const std::size_t redispatched =
      dispatcher_.fail_server(server, now_minutes);
  maybe_checkpoint();
  return redispatched;
}

void DurableDispatcher::checkpoint_now() {
  // The journal must be durable through the checkpoint's position before
  // the checkpoint lands, or a crash right after the rename could leave a
  // checkpoint that claims events the journal never recorded. (Checkpoint 0
  // is written before the journal exists, at next_seq 0.)
  if (journal_) flush();
  ByteWriter out;
  out.f64(spec_.gpu_capacity);
  out.f64(spec_.price_per_hour);
  out.str(algorithm_);
  write_packer_options(out, options_);
  write_fault_policy(out, policy_);
  dispatcher_.save_state(out);
  CheckpointData data;
  data.stream_id = config_.stream_id;
  data.next_seq = next_seq_;
  data.payload = out.take();
  write_checkpoint(config_.dir, data);
  prune_checkpoints(config_.dir, config_.keep_checkpoints);
}

void DurableDispatcher::flush() {
  journal_->flush();
  unflushed_ = 0;
}

void DurableDispatcher::journal_event(JournalEventKind kind, Time time,
                                      std::uint64_t subject, double size) {
  journal_->append(JournalEvent{next_seq_, kind, time, subject, size});
  if (++unflushed_ >= config_.flush_every) flush();
  ++next_seq_;
}

void DurableDispatcher::maybe_checkpoint() {
  if (config_.checkpoint_every > 0 &&
      next_seq_ % config_.checkpoint_every == 0) {
    checkpoint_now();
  }
}

void DurableDispatcher::apply_replayed(const JournalEvent& event) {
  // Under AnomalyAction::kThrow a rejected event raises DispatchError AFTER
  // the rejection counter advanced — the observable state change. The
  // original caller already saw the throw; replay only needs the state.
  try {
    switch (event.kind) {
      case JournalEventKind::kStartSession:
        (void)dispatcher_.start_session(event.subject, event.size, event.time);
        break;
      case JournalEventKind::kEndSession:
        dispatcher_.end_session(event.subject, event.time);
        break;
      case JournalEventKind::kFailServer:
        (void)dispatcher_.fail_server(event.subject, event.time);
        break;
    }
  } catch (const DispatchError&) {
    // Replayed rejection; the counters advanced exactly as they did live.
  }
}

// ---------------------------------------------------------------------------
// RecoveryManager

RecoveryManager::RecoveryManager(DurabilityConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

RecoveredState RecoveryManager::recover() {
  const std::vector<CheckpointEntry> entries = list_checkpoints(config_.dir);
  if (entries.empty()) {
    throw CorruptionError("no checkpoints in durability directory: " +
                          config_.dir);
  }

  // Journal repair first: the checkpoint choice depends on how far the
  // journal's valid prefix reaches. A missing journal is only consistent
  // with a crash in the bootstrap window (checkpoint 0 written, journal not
  // yet created) — or with external damage, which the seq-coverage check
  // below converts into an error or a full re-feed from seq 0.
  const std::string path = journal_path(config_);
  JournalScan scan;
  const bool journal_exists = std::filesystem::exists(path);
  if (journal_exists) {
    scan = scan_journal(path);  // header corruption throws: nothing to replay
    if (scan.stream_id != config_.stream_id) {
      throw CorruptionError("journal belongs to a different stream: " + path);
    }
    if (scan.torn_tail) truncate_journal(path, scan);
  }
  if (!scan.events.empty() && scan.events.front().seq != 0) {
    throw CorruptionError("journal does not start at seq 0");
  }
  const std::uint64_t journal_next =
      scan.events.empty() ? 0 : scan.events.back().seq + 1;

  // Newest checkpoint that loads, decodes and restores, AND whose position
  // the journal covers, wins. Unusable ones are skipped (counted), never
  // trusted; a valid checkpoint ahead of the journal's valid prefix is
  // equally unusable — replaying into it is impossible, so recovery falls
  // back past it too. (WAL flushes the journal before every checkpoint, so
  // a crash cannot produce that state; mid-journal corruption can.)
  RecoveredState state;
  std::uint64_t checkpoint_seq = 0;
  std::size_t skipped = 0;
  for (const CheckpointEntry& entry : entries) {
    try {
      const CheckpointData checkpoint = load_checkpoint(entry.path);
      if (checkpoint.stream_id != config_.stream_id) {
        throw CorruptionError("checkpoint belongs to a different stream: " +
                              entry.path);
      }
      if (checkpoint.next_seq > journal_next) {
        throw CorruptionError(
            "checkpoint at seq " + std::to_string(checkpoint.next_seq) +
            " is ahead of the journal's valid prefix (seq " +
            std::to_string(journal_next) + "): " + entry.path);
      }
      // Rebuild the dispatcher from the payload's own parameters.
      ByteReader in(checkpoint.payload);
      ServerSpec spec;
      spec.gpu_capacity = in.f64();
      spec.price_per_hour = in.f64();
      std::string algorithm = in.str();
      const PackerOptions options = read_packer_options(in);
      const FaultPolicy policy = read_fault_policy(in);
      std::unique_ptr<DurableDispatcher> restored;
      try {
        restored.reset(new DurableDispatcher(DurableDispatcher::RecoveredTag{},
                                             config_, spec,
                                             std::move(algorithm), options,
                                             policy));
      } catch (const PreconditionError& error) {
        throw CorruptionError(
            std::string("checkpoint names a dispatcher that cannot be "
                        "built (") +
            error.what() + "): " + entry.path);
      }
      restored->dispatcher_.restore_state(in);
      in.expect_done();
      state.dispatcher = std::move(restored);
      checkpoint_seq = checkpoint.next_seq;
      break;
    } catch (const CorruptionError&) {
      ++skipped;
    }
  }
  if (!state.dispatcher) {
    throw CorruptionError("no usable checkpoint in " + config_.dir +
                          "; nothing safe to recover to");
  }

  // Deterministic suffix replay: the events the checkpoint has not seen.
  DurableDispatcher& durable = *state.dispatcher;
  std::uint64_t replayed = 0;
  for (const JournalEvent& event : scan.events) {
    if (event.seq < checkpoint_seq) continue;
    durable.apply_replayed(event);
    ++replayed;
  }

  durable.journal_ =
      journal_exists
          ? std::make_unique<JournalWriter>(path, config_.stream_id,
                                            scan.valid_bytes)
          : std::make_unique<JournalWriter>(path, config_.stream_id);
  durable.next_seq_ = journal_next;

  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("recovery.replayed_events").add(replayed);
    metrics->counter("recovery.runs").add();
  }

  state.report.checkpoint_seq = checkpoint_seq;
  state.report.checkpoints_skipped = skipped;
  state.report.replayed_events = replayed;
  state.report.next_seq = journal_next;
  state.report.torn_tail = scan.torn_tail;
  return state;
}

}  // namespace dbp::durability
