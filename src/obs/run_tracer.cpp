#include "obs/run_tracer.hpp"

#include <locale>
#include <ostream>
#include <sstream>

#include "core/error.hpp"

namespace dbp::obs {

namespace {

/// Round-trippable, locale-independent double formatting (matches the
/// BENCH_perf.json emitter).
std::string json_number(double value) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(17);
  out << value;
  return out.str();
}

/// Minimal JSON string escaping; labels are ASCII identifiers in practice.
std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kRunBegin: return "run_begin";
    case TraceKind::kRunEnd: return "run_end";
    case TraceKind::kArrival: return "arrival";
    case TraceKind::kDeparture: return "departure";
    case TraceKind::kBinOpen: return "bin_open";
    case TraceKind::kBinClose: return "bin_close";
    case TraceKind::kFaultCrash: return "fault_crash";
    case TraceKind::kFaultAnomaly: return "fault_anomaly";
    case TraceKind::kRedispatch: return "redispatch";
    case TraceKind::kOptPhase: return "opt_phase";
    case TraceKind::kDispatchReject: return "dispatch_reject";
    case TraceKind::kSessionShed: return "session_shed";
    case TraceKind::kServerFail: return "server_fail";
    case TraceKind::kEpochMark: return "epoch_mark";
    case TraceKind::kShardSnapshot: return "shard_snapshot";
  }
  return "unknown";
}

RunTracer::RunTracer(std::size_t capacity) : capacity_(capacity) {
  DBP_REQUIRE(capacity_ > 0, "trace ring capacity must be positive");
}

void RunTracer::record(TraceRecord record) {
  // Stamp the thread's shard attribution (obs.hpp) unless the emitter set
  // one explicitly. Outside engine shard scopes this is kNoShard and the
  // field is omitted from the export, so non-engine traces are unchanged.
  if (record.shard == kNoShard) record.shard = current_shard();
  const std::lock_guard<std::mutex> lock(mutex_);
  record.seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  // Full: overwrite the oldest slot and advance the ring start.
  ring_[first_] = std::move(record);
  first_ = (first_ + 1) % capacity_;
  ++dropped_;
}

std::size_t RunTracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t RunTracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::uint64_t RunTracer::total_recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::vector<TraceRecord> RunTracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(first_ + i) % ring_.size()]);
  }
  return out;
}

void RunTracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  first_ = 0;
  dropped_ = 0;
}

void RunTracer::export_jsonl(std::ostream& out, bool include_timings) const {
  const std::vector<TraceRecord> records = snapshot();
  std::uint64_t dropped_count = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dropped_count = dropped_;
  }
  out << "{\"kind\": \"trace_meta\", \"schema\": \"dbp-trace/1\", \"records\": "
      << records.size() << ", \"dropped\": " << dropped_count
      << ", \"capacity\": " << capacity_ << "}\n";
  for (const TraceRecord& r : records) {
    out << "{\"seq\": " << r.seq << ", \"kind\": \"" << to_string(r.kind)
        << "\", \"t\": " << json_number(r.time);
    if (r.item != kNoItem) out << ", \"item\": " << r.item;
    if (r.bin != kNoBin) out << ", \"bin\": " << r.bin;
    if (r.size >= 0.0) out << ", \"size\": " << json_number(r.size);
    if (r.count != kNoCount) out << ", \"count\": " << r.count;
    if (include_timings && r.ms >= 0.0) out << ", \"ms\": " << json_number(r.ms);
    if (r.shard != kNoShard) out << ", \"shard\": " << r.shard;
    if (!r.label.empty()) out << ", \"label\": " << json_string(r.label);
    out << "}\n";
  }
}

}  // namespace dbp::obs
