// The durable dispatcher and crash recovery (docs/durability.md Sections 4-5).
//
// DurableDispatcher implements write-ahead logging over the cloud-gaming
// dispatcher: every input event is journaled and flushed *before* it is
// applied, and the dispatcher's save_state() is written atomically as a
// checkpoint every `checkpoint_every` events. A plain packing run is a
// strict dispatcher (default FaultPolicy) whose ServerSpec bills the run's
// CostModel (ServerSpec{1.0, 60.0} is CostModel{1.0, 1.0, 1e-9}), fed the
// instance's arrivals and departures as session starts and ends. The
// RecoveryManager inverts that: truncate the journal's torn tail, rebuild
// the dispatcher from the newest checkpoint that validates (falling back
// across corrupt ones), replay the journal suffix, and hand back a
// dispatcher that continues the interrupted stream — bit-identically to a
// run that never crashed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "algo/factory.hpp"
#include "core/types.hpp"
#include "durability/journal.hpp"
#include "gaming/dispatcher.hpp"

namespace dbp::durability {

struct DurabilityConfig {
  /// Directory holding `journal.dbpj` and `ckpt-*.dbpc`. Created on demand.
  std::string dir;
  /// Events between automatic checkpoints (0 = only checkpoint 0).
  std::uint64_t checkpoint_every = 64;
  /// Stream identity stamped into journal + checkpoints so files from a
  /// different run cannot be mixed silently.
  std::uint64_t stream_id = 0xD0B9D0B9ULL;

  void validate() const;
};

inline constexpr const char* kJournalFileName = "journal.dbpj";

/// How recovery went. `next_seq` is where the caller resumes feeding events.
struct RecoveryReport {
  std::uint64_t checkpoint_seq = 0;      ///< next_seq of the checkpoint used
  std::size_t checkpoints_skipped = 0;   ///< newer-but-unusable checkpoints
  std::uint64_t replayed_events = 0;     ///< journal suffix length applied
  std::uint64_t next_seq = 0;            ///< first seq not yet applied
  bool torn_tail = false;                ///< journal had a truncated tail
};

/// Crash-durable facade over GameServerDispatcher. Construction writes
/// checkpoint 0; every event is journaled and flushed before it is applied
/// (strict write-ahead logging), so the dispatcher's visible behavior
/// (return values, throw behavior, stats) is exactly GameServerDispatcher's.
/// A checkpoint is the dispatcher's save_state() bytes; the newest two are
/// kept. Requires an algorithm whose packer supports snapshots (all online
/// algorithms; not the clairvoyant ones).
class DurableDispatcher {
 public:
  DurableDispatcher(const DurabilityConfig& config, const ServerSpec& spec,
                    const std::string& algorithm, const PackerOptions& options,
                    const FaultPolicy& policy);

  BinId start_session(std::uint64_t session_id, double gpu_fraction,
                      Time now_minutes);
  void end_session(std::uint64_t session_id, Time now_minutes);
  std::size_t fail_server(BinId server, Time now_minutes);

  [[nodiscard]] const GameServerDispatcher& dispatcher() const noexcept {
    return dispatcher_;
  }

 private:
  friend class RecoveryManager;
  /// Recovery's: wraps the dispatcher GameServerDispatcher::from_state built.
  /// No checkpoint, no journal; recovery replays and reopens the journal.
  DurableDispatcher(DurabilityConfig config, GameServerDispatcher dispatcher);

  /// Writes a checkpoint at the current position and prunes older ones.
  void checkpoint_now();
  /// WAL step: append + flush, then advance the seq.
  void journal_event(JournalEventKind kind, Time time, std::uint64_t subject,
                     double size);
  void maybe_checkpoint();
  /// Replay-side application: reproduces the original call, swallowing the
  /// DispatchError a kThrow policy would re-raise (the original caller
  /// already observed it; the state change — counters — is what replays).
  void apply_replayed(const JournalEvent& event);

  DurabilityConfig config_;
  /// Null until checkpoint 0 has landed (and while recovery is replaying).
  std::unique_ptr<JournalWriter> journal_;
  std::uint64_t next_seq_ = 0;
  GameServerDispatcher dispatcher_;
};

/// Loads the newest valid checkpoint, repairs the journal, replays the
/// suffix and returns a dispatcher ready to continue the stream.
struct RecoveredState {
  std::unique_ptr<DurableDispatcher> dispatcher;
  RecoveryReport report;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(DurabilityConfig config);

  /// Throws CorruptionError when no checkpoint validates (nothing safe to
  /// recover to — callers must treat the directory as lost, never guess).
  [[nodiscard]] RecoveredState recover();

 private:
  DurabilityConfig config_;
};

}  // namespace dbp::durability
