#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <span>
#include <stdexcept>

#include "core/crc32.hpp"
#include "engine/engine.hpp"
#include "engine/router.hpp"
#include "gaming/dispatcher.hpp"
#include "net/wire_protocol.hpp"
#include "opt/bin_count.hpp"
#include "opt/opt_total.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"

namespace servebench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The engine a default `dbp_serve --shards=N` builds (tools/dbp_serve.cpp).
dbp::engine::EngineConfig served_config(std::size_t shards) {
  dbp::engine::EngineConfig config;
  config.shard_count = shards;
  config.spec = dbp::ServerSpec{1.0, 6.0};
  return config;
}

/// Decode timing covers at most this many requests per framing; the mean
/// is a property of the message mix and settles long before that.
constexpr std::size_t kDecodeSample = std::size_t{1} << 16;

/// Opens a span only when tracing; the untraced reference replay never
/// reads a clock.
class Scoped {
 public:
  Scoped(Spans* spans, const char* name, std::uint32_t parent = 0)
      : spans_(spans), id_(spans != nullptr ? spans->begin(name, parent) : 0) {}
  ~Scoped() {
    if (spans_ != nullptr) spans_->end(id_, count_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  void set_count(std::uint64_t count) { count_ = count; }
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Spans* spans_;
  std::uint32_t id_;
  std::uint64_t count_ = 1;
};

}  // namespace

std::uint32_t Spans::begin(std::string name, std::uint32_t parent) {
  Span span;
  span.parent = parent;
  span.name = std::move(name);
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return static_cast<std::uint32_t>(spans_.size());
}

void Spans::end(std::uint32_t id, std::uint64_t count) {
  Span& span = spans_.at(id - 1);
  span.end_ns = now_ns();
  span.count = count;
}

double Spans::total_ns(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += static_cast<double>(span.end_ns - span.start_ns);
  }
  return total;
}

std::uint64_t Spans::total_count(const std::string& name) const {
  std::uint64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.count;
  }
  return total;
}

std::vector<double> Spans::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(static_cast<double>(span.end_ns - span.start_ns));
  }
  return out;
}

void Spans::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i + 1
        << ",\"parent\":" << span.parent << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"count\":" << span.count << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

Expected replay_engine(const Plan& plan, Spans* spans) {
  const dbp::engine::EngineConfig config = served_config(plan.spec.shards);
  dbp::engine::ShardedDispatchEngine eng(config);
  dbp::BinCountOracle oracle(config.spec.to_cost_model(), config.bin_count,
                             config.oracle_memo_limit);
  const Scoped root(spans, "replay.engine");

  const std::vector<Step>& steps = plan.steps;
  std::size_t pending = 0;
  const auto drain = [&] {
    if (pending == 0) return;
    Scoped span(spans, "engine.drain", root.id());
    span.set_count(pending);
    eng.drain();
    pending = 0;
  };
  for (std::size_t i = 0; i < steps.size();) {
    switch (steps[i].kind) {
      case Step::Kind::kSubmit: {
        std::size_t j = i;
        while (j < steps.size() && steps[j].kind == Step::Kind::kSubmit) ++j;
        {
          Scoped span(spans, "engine.submit", root.id());
          span.set_count(j - i);
          for (std::size_t k = i; k < j; ++k) eng.submit(plan.events[steps[k].event]);
        }
        pending += j - i;
        i = j;
        continue;
      }
      case Step::Kind::kEpoch: {
        // The server's epoch pumps the ring itself; draining first splits
        // that apply work out of the epoch row without changing results.
        drain();
        {
          const Scoped span(spans, "engine.advance_epoch", root.id());
          eng.advance_epoch(steps[i].time);
        }
        if (spans != nullptr) {
          const Scoped span(spans, "opt.count_rle", root.id());
          (void)oracle.count_rle(eng.merged_snapshot_rle());
        }
        break;
      }
      case Step::Kind::kQuery:
        drain();
        break;
      case Step::Kind::kMalformed:
        break;
    }
    ++i;
  }

  Expected expected;
  expected.bill_dollars = eng.rental_cost_dollars(plan.final_horizon);
  const dbp::engine::StreamingOptBounds bounds = eng.opt_bounds();
  expected.lower_dollars = bounds.lower_dollars;
  expected.upper_dollars = bounds.upper_dollars;
  expected.segments = bounds.segments;
  expected.exact_segments = bounds.exact_segments;
  expected.events_applied = eng.events_applied();
  expected.epochs = plan.epochs;
  expected.faults = eng.merged_fault_stats();
  expected.oracle_hits = eng.oracle_hits();
  expected.oracle_misses = eng.oracle_misses();
  expected.submit_backoffs = eng.submit_backoffs();
  return expected;
}

void replay_layers(const Plan& plan, Spans& spans) {
  const std::uint32_t root = spans.begin("replay.layers");
  const std::size_t sample = std::min(plan.steps.size(), kDecodeSample);

  // Wire decode, both framings, over the same request prefix. Encoding
  // happens before the span opens.
  for (const Framing framing : {Framing::kBinary, Framing::kJson}) {
    std::vector<std::uint8_t> bytes;
    std::vector<std::size_t> ends;
    for (std::size_t i = 0; i < sample; ++i) {
      const std::vector<std::uint8_t> one = encode(plan, plan.steps[i], framing);
      bytes.insert(bytes.end(), one.begin(), one.end());
      ends.push_back(bytes.size());
    }
    std::size_t rejected = 0;
    const std::uint32_t id = spans.begin(
        framing == Framing::kBinary ? "net.decode_binary" : "net.decode_json", root);
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
      const std::span<const std::uint8_t> frame(bytes.data() + begin, end - begin);
      begin = end;
      dbp::net::DecodeResult decoded;
      if (framing == Framing::kBinary) {
        dbp::net::FrameHeader header;
        const dbp::net::WireError error = dbp::net::decode_frame_header(
            frame.first(dbp::net::kFrameHeaderBytes), header);
        const std::span<const std::uint8_t> payload =
            frame.subspan(dbp::net::kFrameHeaderBytes);
        if (error != dbp::net::WireError::kNone ||
            dbp::crc32(payload) != header.payload_crc) {
          ++rejected;
          continue;
        }
        decoded = dbp::net::decode_request(payload);
      } else {
        decoded = dbp::net::decode_json_request(std::string_view(
            reinterpret_cast<const char*>(frame.data()), frame.size() - 1));
      }
      if (decoded.error != dbp::net::WireError::kNone) ++rejected;
    }
    spans.end(id, ends.size());
    // Only injected malformed requests may fail to decode.
    if (rejected > static_cast<std::size_t>(std::count_if(
                       plan.steps.begin(), plan.steps.begin() + static_cast<std::ptrdiff_t>(sample),
                       [](const Step& s) { return s.kind == Step::Kind::kMalformed; }))) {
      throw std::runtime_error("in-process decode rejected a generated request");
    }
  }

  // The dispatcher alone: one GameServerDispatcher per shard, fed that
  // shard's sent events in order, exactly as a drain applies them.
  const dbp::engine::EngineConfig config = served_config(plan.spec.shards);
  const dbp::engine::HashShardRouter router;
  for (std::size_t shard = 0; shard < config.shard_count; ++shard) {
    std::vector<const dbp::engine::SessionEvent*> mine;
    for (const Step& step : plan.steps) {
      if (step.kind != Step::Kind::kSubmit) continue;
      const dbp::engine::SessionEvent& event = plan.events[step.event];
      if (router.shard_for(event.route_key, config.shard_count) == shard) {
        mine.push_back(&event);
      }
    }
    dbp::GameServerDispatcher dispatcher(config.spec, config.algorithm,
                                         config.packer_options, config.fault_policy);
    const std::uint32_t id = spans.begin("gaming.dispatch", root);
    for (const dbp::engine::SessionEvent* event : mine) {
      if (event->kind == dbp::engine::SessionEvent::Kind::kStart) {
        (void)dispatcher.start_session(event->session_id, event->gpu_fraction,
                                       event->time_minutes);
      } else {
        dispatcher.end_session(event->session_id, event->time_minutes);
      }
    }
    spans.end(id, mine.size());
  }

  // The packer loop alone over the pass instance.
  {
    const std::vector<dbp::Event> events = dbp::build_event_sequence(plan.instance);
    const std::unique_ptr<dbp::Packer> packer =
        dbp::make_packer(config.algorithm, config.spec.to_cost_model());
    packer->reserve_hint(plan.instance.size());
    const std::uint32_t id = spans.begin("algo.replay_events", root);
    dbp::replay_events(plan.instance, events, *packer);
    spans.end(id, events.size());
  }
  spans.end(root);
}

BatchBounds batch_opt_total(const Plan& plan, std::size_t items, Spans* spans) {
  dbp::Instance prefix;
  const std::size_t n = std::min(items, plan.instance.size());
  prefix.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    const dbp::Item& item = plan.instance.item(id);
    prefix.add(item.arrival, item.departure, item.size);
  }
  const dbp::engine::EngineConfig config = served_config(plan.spec.shards);
  dbp::OptTotalOptions options;
  options.bin_count = config.bin_count;
  const Scoped span(spans, "opt.estimate_opt_total");
  const dbp::OptTotalResult result =
      dbp::estimate_opt_total(prefix, config.spec.to_cost_model(), options);
  return BatchBounds{result.lower_cost, result.upper_cost};
}

}  // namespace servebench
