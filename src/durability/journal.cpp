#include "durability/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include "core/binary_io.hpp"
#include "core/crc32.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace dbp::durability {

namespace {

std::vector<std::uint8_t> encode_header(std::uint64_t stream_id) {
  ByteWriter out;
  out.u32(kJournalMagic);
  out.u32(kJournalVersion);
  out.u64(stream_id);
  out.u32(crc32(std::span(out.data()).first(16)));
  return out.take();
}

/// One record's payload: seq, kind, time, subject, size.
constexpr std::uint32_t kRecordPayloadBytes = 8 + 1 + 8 + 8 + 8;

bool valid_kind(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(JournalEventKind::kStartSession) &&
         kind <= static_cast<std::uint8_t>(JournalEventKind::kFailServer);
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path, std::uint64_t stream_id)
    : file_(path, O_WRONLY | O_CREAT | O_EXCL) {
  const std::vector<std::uint8_t> header = encode_header(stream_id);
  detail::write_all(file_.fd(), "journal", 0, header);
  detail::sync_fd(file_.fd());
  offset_ = header.size();
}

JournalWriter::JournalWriter(const std::string& path, const JournalScan& scan)
    : file_(path, O_WRONLY) {
  DBP_REQUIRE(scan.valid_bytes >= kJournalHeaderBytes,
              "resume offset precedes the journal header");
  if (::ftruncate(file_.fd(), static_cast<off_t>(scan.valid_bytes)) != 0 ||
      ::lseek(file_.fd(), static_cast<off_t>(scan.valid_bytes), SEEK_SET) < 0) {
    throw IoError("cannot position journal for append: " + path);
  }
  detail::sync_fd(file_.fd());
  offset_ = scan.valid_bytes;
}

void JournalWriter::append(const JournalEvent& event) {
  // Encoded in place: the CRC is patched in over the payload bytes already
  // in the buffer, so once the buffer holds one flush's worth an append
  // allocates nothing.
  const std::size_t start = buffer_.size();
  buffer_.u32(kRecordPayloadBytes);
  buffer_.u32(0);
  buffer_.u64(event.seq);
  buffer_.u8(static_cast<std::uint8_t>(event.kind));
  buffer_.f64(event.time);
  buffer_.u64(event.subject);
  buffer_.f64(event.size);
  buffer_.patch_u32(start + 4, crc32(std::span(buffer_.data()).subspan(start + 8)));
}

void JournalWriter::flush() {
  if (buffer_.size() == 0) return;
  detail::write_all(file_.fd(), "journal", offset_, buffer_.data());
  detail::sync_fd(file_.fd());
  offset_ += buffer_.size();
  buffer_.clear();
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("journal.flushes").add();
    metrics->gauge("journal.bytes").set(static_cast<double>(offset_));
  }
}

JournalScan scan_journal_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kJournalHeaderBytes) {
    throw CorruptionError("journal shorter than its header");
  }
  ByteReader header(bytes.first(kJournalHeaderBytes));
  if (header.u32() != kJournalMagic) {
    throw CorruptionError("journal magic mismatch (not a DBPJ file)");
  }
  const std::uint32_t version = header.u32();
  if (version != kJournalVersion) {
    throw CorruptionError("unsupported journal version " +
                          std::to_string(version));
  }
  JournalScan scan;
  scan.stream_id = header.u64();
  if (header.u32() != crc32(bytes.first(16))) {
    throw CorruptionError("journal header CRC mismatch");
  }

  std::size_t offset = kJournalHeaderBytes;
  bool have_seq = false;
  std::uint64_t expect_seq = 0;
  while (offset < bytes.size()) {
    // Anything that fails from here on is a torn tail: crashes truncate,
    // they do not rewrite, so damage always sits at the end of the file.
    if (bytes.size() - offset < 8) break;
    ByteReader frame(bytes.subspan(offset, 8));
    const std::uint32_t length = frame.u32();
    const std::uint32_t expected_crc = frame.u32();
    if (length > kMaxRecordPayloadBytes) break;
    if (bytes.size() - offset - 8 < length) break;
    const auto payload = bytes.subspan(offset + 8, length);
    if (crc32(payload) != expected_crc) break;
    ByteReader reader(payload);
    JournalEvent event;
    event.seq = reader.u64();
    const std::uint8_t kind = reader.u8();
    event.time = reader.f64();
    event.subject = reader.u64();
    event.size = reader.f64();
    if (!reader.done() || !valid_kind(kind)) break;
    event.kind = static_cast<JournalEventKind>(kind);
    // A CRC-valid record with a seq break is not a crash artifact — crashes
    // cannot reorder flushed records. Refuse the whole file.
    if (have_seq && event.seq != expect_seq) {
      throw CorruptionError("journal sequence break at seq " +
                            std::to_string(event.seq));
    }
    have_seq = true;
    expect_seq = event.seq + 1;
    scan.events.push_back(event);
    offset += 8 + length;
  }
  scan.valid_bytes = offset;
  scan.torn_tail = offset < bytes.size();
  return scan;
}

JournalScan scan_journal(const std::string& path) {
  return scan_journal_bytes(detail::read_file(path));
}

void truncate_journal(const std::string& path, const JournalScan& scan) {
  detail::truncate_file(path, scan.valid_bytes);
}

}  // namespace dbp::durability
