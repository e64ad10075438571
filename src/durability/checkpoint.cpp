#include "durability/checkpoint.hpp"

#include <fcntl.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string_view>

#include "core/binary_io.hpp"
#include "core/crc32.hpp"
#include "core/error.hpp"
#include "core/strfmt.hpp"
#include "durability/file_io.hpp"
#include "obs/obs.hpp"

namespace dbp::durability {

namespace {

constexpr std::string_view kPrefix = "ckpt-";
constexpr std::string_view kSuffix = ".dbpc";

}  // namespace

std::string checkpoint_file_name(std::uint64_t next_seq) {
  return strfmt("%s%020llu%s", kPrefix.data(),
                static_cast<unsigned long long>(next_seq), kSuffix.data());
}

std::string write_checkpoint(const std::string& dir, const CheckpointData& data) {
  ByteWriter out;
  out.u32(kCheckpointMagic);
  out.u32(kCheckpointVersion);
  out.u64(data.stream_id);
  out.u64(data.next_seq);
  out.u64(data.payload.size());
  out.u32(crc32(data.payload));
  out.bytes(data.payload);

  const std::string final_path = dir + "/" + checkpoint_file_name(data.next_seq);
  const std::string tmp_path = final_path + ".tmp";
  {
    detail::FileHandle file(tmp_path, O_WRONLY | O_CREAT | O_TRUNC);
    detail::write_all(file.fd(), "checkpoint", 0, out.data());
    detail::sync_fd(file.fd());
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    throw IoError("cannot rename checkpoint into place: " + final_path);
  }
  detail::sync_dir(dir);
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("checkpoint.writes").add();
    metrics->gauge("checkpoint.bytes").set(static_cast<double>(out.size()));
  }
  return final_path;
}

std::vector<CheckpointEntry> list_checkpoints(const std::string& dir) {
  std::vector<CheckpointEntry> entries;
  std::error_code ec;
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = item.path().filename().string();
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        !name.starts_with(kPrefix) || !name.ends_with(kSuffix)) {
      continue;
    }
    // Digits only, and within u64: anything else (a sign, a stray letter,
    // more digits than a u64 holds) is not a checkpoint name.
    const char* digits_end = name.data() + name.size() - kSuffix.size();
    std::uint64_t next_seq = 0;
    const auto [end, error] =
        std::from_chars(name.data() + kPrefix.size(), digits_end, next_seq);
    if (error != std::errc{} || end != digits_end) continue;
    entries.push_back(CheckpointEntry{next_seq, item.path().string()});
  }
  if (ec) throw IoError("cannot list checkpoint directory: " + dir);
  // directory_iterator order is filesystem-dependent; sort for determinism.
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) {
              return a.next_seq > b.next_seq;
            });
  return entries;
}

CheckpointData load_checkpoint(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = detail::read_file(path);
  } catch (const IoError& error) {
    throw CorruptionError(std::string("checkpoint unreadable: ") + error.what());
  }
  constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4;
  if (bytes.size() < kHeaderBytes) {
    throw CorruptionError("checkpoint shorter than its header: " + path);
  }
  ByteReader in(bytes);
  if (in.u32() != kCheckpointMagic) {
    throw CorruptionError("checkpoint magic mismatch: " + path);
  }
  const std::uint32_t version = in.u32();
  if (version != kCheckpointVersion) {
    throw CorruptionError("unsupported checkpoint version " +
                          std::to_string(version) + ": " + path);
  }
  CheckpointData data;
  data.stream_id = in.u64();
  data.next_seq = in.u64();
  const std::uint64_t payload_len = in.u64();
  const std::uint32_t expected_crc = in.u32();
  if (in.remaining() != payload_len) {
    throw CorruptionError("checkpoint payload length mismatch: " + path);
  }
  data.payload.assign(bytes.begin() + kHeaderBytes, bytes.end());
  if (crc32(data.payload) != expected_crc) {
    throw CorruptionError("checkpoint payload CRC mismatch: " + path);
  }
  // The name encodes next_seq; a renamed/stale file must not impersonate
  // another position in the stream.
  const std::string expected_name = checkpoint_file_name(data.next_seq);
  const std::string actual_name =
      std::filesystem::path(path).filename().string();
  if (actual_name != expected_name) {
    throw CorruptionError("checkpoint name disagrees with its header: " + path);
  }
  return data;
}

void prune_checkpoints(const std::string& dir, std::size_t keep) {
  const std::vector<CheckpointEntry> entries = list_checkpoints(dir);
  for (std::size_t i = keep; i < entries.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(entries[i].path, ec);  // best-effort cleanup
  }
  std::vector<std::string> stale_tmp;
  std::error_code ec;
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = item.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      stale_tmp.push_back(item.path().string());
    }
  }
  if (ec) throw IoError("cannot list checkpoint directory: " + dir);
  std::sort(stale_tmp.begin(), stale_tmp.end());
  for (const std::string& path : stale_tmp) {
    std::error_code remove_ec;
    std::filesystem::remove(path, remove_ec);
  }
}

}  // namespace dbp::durability
