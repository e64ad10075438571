#include "plan.hpp"

#include <array>
#include <stdexcept>

#include "core/binary_io.hpp"
#include "engine/router.hpp"
#include "net/wire_protocol.hpp"
#include "sim/event.hpp"
#include "workload/random_instance.hpp"

namespace servebench {

namespace {

// Why each workload exists is recorded in servebench/README.md. Sizes are
// chosen so one pass of each takes a fraction of a default run on a 4-core
// x86 box; a run repeats passes until its measuring time is spent.
const std::array<WorkloadSpec, 3> kWorkloads = {{
    {"tiers_bulk_binary", Framing::kBinary, 1, /*dyadic=*/true,
     /*open=*/false, 0.0, /*pass=*/1024 * 1024, /*ack=*/0, /*epoch=*/1024,
     /*warmup=*/16 * 1024},
    {"opt_dense_epochs", Framing::kBinary, 1, /*dyadic=*/false,
     /*open=*/false, 0.0, /*pass=*/2000, /*ack=*/0, /*epoch=*/1,
     /*warmup=*/200, /*stream_per_pass=*/true},
    {"mixed_json_openloop", Framing::kJson, 2, /*dyadic=*/false,
     /*open=*/true, /*rate=*/100000.0, /*pass=*/128 * 2048, /*ack=*/256,
     /*epoch=*/2048, /*warmup=*/2 * 2048, /*stream_per_pass=*/true},
}};

dbp::Instance generate(const WorkloadSpec& spec, std::uint64_t seed) {
  // The arrival/duration shape of tools/dbp_client's generated streams:
  // ~150 sessions active in steady state.
  dbp::RandomInstanceConfig config;
  config.item_count = spec.pass_events / 2;
  config.arrival.rate = 50.0;
  config.duration.max_length = 6.0;
  config.size.min_fraction = 0.05;
  config.size.max_fraction = 0.5;
  if (spec.dyadic_sizes) config.size.kind = dbp::SizeModel::Kind::kDyadic;
  return dbp::generate_random_instance(config, seed);
}

}  // namespace

std::uint64_t pass_seed(std::uint64_t seed, int pass) {
  if (pass == 0) return seed;
  // splitmix64 of (seed, pass): distinct, well-spread stream seeds.
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(pass) * 0x9E3779B97F4A7C15ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

const WorkloadSpec& find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::vector<std::uint8_t> encode(const Plan& plan, const Step& step,
                                 Framing framing) {
  dbp::net::WireRequest request;
  switch (step.kind) {
    case Step::Kind::kSubmit:
      request.verb = dbp::net::WireVerb::kSubmit;
      request.event = plan.events[step.event];
      break;
    case Step::Kind::kEpoch:
      request.verb = dbp::net::WireVerb::kEpoch;
      request.time_minutes = step.time;
      break;
    case Step::Kind::kQuery:
      request.verb = dbp::net::WireVerb::kQuery;
      request.time_minutes = step.time;
      break;
    case Step::Kind::kMalformed: {
      // A well-framed request with an unknown verb: the server rejects it
      // and keeps the connection (a recoverable WireError).
      if (framing == Framing::kJson) {
        const std::string line = "{\"verb\":\"frobnicate\"}\n";
        return {line.begin(), line.end()};
      }
      const std::array<std::uint8_t, 1> payload = {0x63};
      dbp::ByteWriter frame;
      dbp::net::append_frame(frame, payload);
      return frame.take();
    }
  }
  if (framing == Framing::kJson) {
    std::string line = dbp::net::encode_json_request(request);
    line += '\n';
    return {line.begin(), line.end()};
  }
  return dbp::net::encode_request_frame(request);
}

Plan build_plan(const WorkloadSpec& spec, std::uint64_t seed, Inject inject) {
  Plan plan;
  plan.spec = spec;
  plan.instance = generate(spec, seed);
  for (const dbp::Event& event : dbp::build_event_sequence(plan.instance)) {
    if (event.kind == dbp::EventKind::kArrival) {
      plan.events.push_back(dbp::engine::start_event(
          event.item, plan.instance.item(event.item).size, event.time));
    } else {
      plan.events.push_back(dbp::engine::end_event(event.item, event.time));
    }
  }

  const std::size_t n = plan.events.size();
  const std::size_t conns = spec.shards;
  const dbp::engine::HashShardRouter router;
  std::size_t drop_index = n;
  if (inject == Inject::kDrop) {
    drop_index = n / 2;
    while (drop_index < n &&
           plan.events[drop_index].kind != dbp::engine::SessionEvent::Kind::kStart) {
      ++drop_index;
    }
  }

  std::vector<std::size_t> since_ack(conns, 0);
  std::size_t submits = 0;
  bool barrier_next = false;
  const auto push = [&](Step step) {
    step.released_events = submits;
    step.barrier = step.barrier || barrier_next;
    barrier_next = false;
    if (step.kind == Step::Kind::kQuery) {
      ++plan.queries;
      since_ack[step.conn] = 0;
      // Closed loop: one round in flight at a time.
      if (!spec.open_loop) barrier_next = true;
    }
    if (step.kind == Step::Kind::kEpoch) ++plan.epochs;
    plan.steps.push_back(step);
  };
  const auto query = [&](std::uint32_t conn, double horizon) {
    Step step;
    step.kind = Step::Kind::kQuery;
    step.conn = conn;
    step.time = horizon;
    push(step);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const dbp::engine::SessionEvent& event = plan.events[i];
    const auto conn = static_cast<std::uint32_t>(
        conns == 1 ? 0 : router.shard_for(event.route_key, conns));
    if (i != drop_index) {
      if (submits == spec.warmup_events) plan.warmup_steps = plan.steps.size();
      ++submits;
      Step step;
      step.kind = Step::Kind::kSubmit;
      step.conn = conn;
      step.event = i;
      push(step);
      ++since_ack[conn];
    }
    if (inject == Inject::kMalformed && i == n / 2) {
      Step step;
      step.kind = Step::Kind::kMalformed;
      push(step);
    }
    if (spec.ack_every != 0 && since_ack[conn] == spec.ack_every) {
      query(conn, event.time_minutes);
    }
    if ((i + 1) % spec.epoch_every == 0 || i + 1 == n) {
      // With several connections the epoch waits until every connection
      // has acked its events, and the next event waits for the epoch's own
      // ack: each epoch then snapshots exactly the events before it, so
      // the served answer is deterministic and checkable.
      if (conns > 1) {
        for (std::uint32_t c = 0; c < conns; ++c) {
          if (since_ack[c] > 0) query(c, event.time_minutes);
        }
      }
      Step epoch;
      epoch.kind = Step::Kind::kEpoch;
      epoch.time = event.time_minutes;
      epoch.barrier = conns > 1;
      push(epoch);
      query(0, event.time_minutes);
      if (conns > 1) barrier_next = true;
    }
  }
  plan.timed_events = submits - spec.warmup_events;
  plan.final_horizon = plan.events.back().time_minutes;

  plan.wire.assign(conns, {});
  for (Step& step : plan.steps) {
    std::vector<std::uint8_t>& out = plan.wire[step.conn];
    const std::vector<std::uint8_t> bytes = encode(plan, step, spec.framing);
    out.insert(out.end(), bytes.begin(), bytes.end());
    step.bytes_end = out.size();
  }
  return plan;
}

}  // namespace servebench
