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

/// Checkpoints retained after a new one lands: the previous one is the
/// fallback when the newest is damaged.
constexpr std::size_t kCheckpointsKept = 2;

std::string journal_path(const DurabilityConfig& config) {
  return config.dir + "/" + kJournalFileName;
}

}  // namespace

void DurabilityConfig::validate() const {
  DBP_REQUIRE(!dir.empty(), "durability directory must be set");
}

// ---------------------------------------------------------------------------
// DurableDispatcher

DurableDispatcher::DurableDispatcher(const DurabilityConfig& config,
                                     const ServerSpec& spec,
                                     const std::string& algorithm,
                                     const PackerOptions& options,
                                     const FaultPolicy& policy)
    : config_(config), dispatcher_(spec, algorithm, options, policy) {
  DBP_REQUIRE(dispatcher_.snapshot_supported(),
              "algorithm cannot run durably (no snapshot support): " +
                  algorithm);
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

DurableDispatcher::DurableDispatcher(DurabilityConfig config,
                                     GameServerDispatcher dispatcher)
    : config_(std::move(config)), dispatcher_(std::move(dispatcher)) {}

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
  // Every journaled event was flushed before it was applied, so the journal
  // is durable through the checkpoint's position before the checkpoint
  // lands: a crash right after the rename cannot leave a checkpoint that
  // claims events the journal never recorded. (Checkpoint 0 is written
  // before the journal exists, at next_seq 0.)
  ByteWriter out;
  dispatcher_.save_state(out);
  CheckpointData data;
  data.stream_id = config_.stream_id;
  data.next_seq = next_seq_;
  data.payload = out.take();
  write_checkpoint(config_.dir, data);
  prune_checkpoints(config_.dir, kCheckpointsKept);
}

void DurableDispatcher::journal_event(JournalEventKind kind, Time time,
                                      std::uint64_t subject, double size) {
  journal_->append(JournalEvent{next_seq_, kind, time, subject, size});
  journal_->flush();
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
      // The payload is the dispatcher's save_state(): it names what to build.
      ByteReader in(checkpoint.payload);
      GameServerDispatcher dispatcher = GameServerDispatcher::from_state(in);
      in.expect_done();
      state.dispatcher.reset(
          new DurableDispatcher(config_, std::move(dispatcher)));
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
      journal_exists ? std::make_unique<JournalWriter>(path, scan)
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
