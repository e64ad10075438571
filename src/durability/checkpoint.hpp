// Atomic checkpoint files (docs/durability.md Section 3).
//
// Layout of ckpt-<seq>.dbpc:
//   "DBPC" | u32 version | u64 stream_id | u64 next_seq
//   | u64 payload_len | u32 crc32(payload) | payload bytes
//
// A checkpoint's payload is the dispatcher's save_state() *after* applying
// all events with seq < next_seq. Writes go to a temp file, fsync, then an
// atomic rename plus directory fsync — a reader either sees a whole
// checkpoint or none, never a partial one under its final name. Validation
// failures throw CorruptionError so recovery can fall back to an older
// checkpoint instead of trusting damaged bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dbp::durability {

inline constexpr std::uint32_t kCheckpointMagic = 0x43504244U;  // "DBPC" LE
inline constexpr std::uint32_t kCheckpointVersion = 7;

struct CheckpointData {
  std::uint64_t stream_id = 0;
  /// First journal seq NOT reflected in the payload: replay starts here.
  std::uint64_t next_seq = 0;
  std::vector<std::uint8_t> payload;
};

/// One checkpoint file found in a durability directory.
struct CheckpointEntry {
  std::uint64_t next_seq = 0;
  std::string path;
};

/// Canonical file name for a checkpoint at `next_seq` (zero-padded so the
/// lexicographic and numeric orders agree).
[[nodiscard]] std::string checkpoint_file_name(std::uint64_t next_seq);

/// Writes `data` into `dir` via write-temp -> fsync -> rename -> dir fsync.
/// Returns the final path. Counts toward the `checkpoint.bytes` metric.
std::string write_checkpoint(const std::string& dir, const CheckpointData& data);

/// Checkpoints in `dir`, sorted newest (highest next_seq) first. Files that
/// do not match ckpt-<digits>.dbpc with the digits fitting a u64 are
/// ignored; a leftover .tmp from a mid-write crash is skipped here and
/// cleaned by prune.
[[nodiscard]] std::vector<CheckpointEntry> list_checkpoints(
    const std::string& dir);

/// Loads and fully validates one checkpoint file; throws CorruptionError on
/// any mismatch (magic, version, CRC, truncation, name/seq disagreement).
[[nodiscard]] CheckpointData load_checkpoint(const std::string& path);

/// Deletes all but the newest `keep` checkpoints plus any stale .tmp files.
void prune_checkpoints(const std::string& dir, std::size_t keep);

}  // namespace dbp::durability
