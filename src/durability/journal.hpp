// Write-ahead event journal (docs/durability.md Section 2).
//
// Layout:
//   header   "DBPJ" | u32 version | u64 stream_id | u32 crc32(first 16 bytes)
//   record*  u32 payload_len | u32 crc32(payload) | payload
//   payload  u64 seq | u8 kind | f64 time | u64 subject | f64 size
//
// Events are journaled *before* they are applied (write-ahead), buffered in
// memory and made durable at explicit flush points (write + fsync). The
// reader accepts the longest valid prefix: a crash can only truncate the
// tail, so the first record that fails framing or CRC ends the valid region
// and everything after it is a torn tail to be cut off — never deserialized.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/binary_io.hpp"
#include "core/types.hpp"
#include "durability/file_io.hpp"

namespace dbp::durability {

inline constexpr std::uint32_t kJournalMagic = 0x4A504244U;  // "DBPJ" LE
inline constexpr std::uint32_t kJournalVersion = 7;
inline constexpr std::size_t kJournalHeaderBytes = 20;
/// Framing sanity bound: no event payload is remotely this large, so a
/// length field beyond it is torn garbage, not a record.
inline constexpr std::uint32_t kMaxRecordPayloadBytes = 1 << 20;

/// What happened, to whom: the dispatcher's three inputs. A packing run
/// journals its arrivals and departures as session starts and ends.
enum class JournalEventKind : std::uint8_t {
  kStartSession = 1,  ///< subject = session id, size = GPU fraction
  kEndSession = 2,    ///< subject = session id
  kFailServer = 3,    ///< subject = server id
};

struct JournalEvent {
  std::uint64_t seq = 0;  ///< dense, starts at the stream's first event
  JournalEventKind kind = JournalEventKind::kStartSession;
  Time time = 0.0;
  std::uint64_t subject = 0;
  double size = 0.0;

  friend bool operator==(const JournalEvent&, const JournalEvent&) = default;
};

struct JournalScan;

/// Append-side of the journal. Buffers encoded records in memory; flush()
/// writes the buffer and fsyncs, which is the WAL durability point. The
/// destructor does NOT flush — the owner decides what is durable.
class JournalWriter {
 public:
  /// Creates `path` (which must not already contain data) and writes the
  /// header. The header itself is flushed immediately.
  JournalWriter(const std::string& path, std::uint64_t stream_id);

  /// Reopens the journal `scan` read from `path` for appending after its
  /// valid prefix (the file is truncated there first).
  JournalWriter(const std::string& path, const JournalScan& scan);

  void append(const JournalEvent& event);

  /// Durability point: writes buffered records and fsyncs. No-op when the
  /// buffer is empty. Counts toward the `journal.flushes` metric.
  void flush();

 private:
  detail::FileHandle file_;
  ByteWriter buffer_;  ///< encoded records not yet flushed
  std::uint64_t offset_ = 0;  ///< durable bytes: where the next flush writes
};

/// Result of scanning a journal file.
struct JournalScan {
  std::uint64_t stream_id = 0;
  std::vector<JournalEvent> events;  ///< the valid prefix, in order
  std::uint64_t valid_bytes = 0;     ///< header + all valid records
  bool torn_tail = false;            ///< bytes beyond the valid prefix exist
};

/// Decodes the longest valid prefix of `bytes`. Throws CorruptionError when
/// the *header* is missing, version-skewed or CRC-corrupt (there is no safe
/// prefix to accept), and when a CRC-valid record breaks the dense seq
/// order (valid framing with impossible content is not a crash artifact).
/// Record-level damage is not an error: the scan stops there and reports
/// torn_tail.
[[nodiscard]] JournalScan scan_journal_bytes(
    std::span<const std::uint8_t> bytes);

/// read_file + scan_journal_bytes.
[[nodiscard]] JournalScan scan_journal(const std::string& path);

/// Cuts a torn tail off: truncates `path` to `scan.valid_bytes`.
void truncate_journal(const std::string& path, const JournalScan& scan);

}  // namespace dbp::durability
