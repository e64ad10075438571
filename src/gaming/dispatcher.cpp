#include "gaming/dispatcher.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <utility>

#include "core/audit.hpp"
#include "core/binary_io.hpp"
#include "core/error.hpp"
#include "core/strfmt.hpp"
#include "obs/obs.hpp"
#include "opt/rle.hpp"

namespace dbp {

CostModel ServerSpec::to_cost_model() const {
  // Trace time is in minutes; bill at the per-minute equivalent rate.
  return CostModel{gpu_capacity, price_per_hour / 60.0, 1e-9 * gpu_capacity};
}

GameServerDispatcher::GameServerDispatcher(ServerSpec spec,
                                           const std::string& algorithm,
                                           const PackerOptions& options,
                                           const FaultPolicy& policy)
    : spec_(spec), algorithm_(algorithm), options_(options), policy_(policy),
      rental_rng_(policy.seed) {
  DBP_REQUIRE(spec.gpu_capacity > 0.0, "server GPU capacity must be positive");
  DBP_REQUIRE(spec.price_per_hour > 0.0, "server price must be positive");
  policy_.validate();
  packer_ = make_packer(algorithm, spec.to_cost_model(), options);
}

void GameServerDispatcher::reject(DispatchErrorKind kind, std::uint64_t& counter,
                                  const std::string& message) {
  ++counter;
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord record;
    record.time = last_event_time_;
    record.kind = obs::TraceKind::kDispatchReject;
    record.label = to_string(kind);
    tracer->record(std::move(record));
  }
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter(std::string("dispatcher.rejected.") + to_string(kind)).add();
  }
  if (policy_.on_anomaly == FaultPolicy::AnomalyAction::kThrow) {
    throw DispatchError(kind, message);
  }
}

namespace {

/// The session degraded mode sheds next for an arrival of `gpu_fraction`:
/// lowest GPU fraction strictly below the arrival's, ties to the lowest
/// session id. Candidates come from the bins, never from orphans that are
/// mid-re-dispatch.
std::optional<ShedVictim> next_victim(const BinManager& bins,
                                      const SessionTable& sessions,
                                      double gpu_fraction) {
  std::optional<ShedVictim> victim;
  bins.for_each_open_bin([&](BinSlot bin) {
    bins.for_each_resident(bin, [&](ItemId slot, double size) {
      if (size >= gpu_fraction) return;
      const std::uint64_t session = sessions.id_of(slot);
      if (!victim || size < victim->size ||
          (size == victim->size && session < victim->session)) {
        victim = ShedVictim{session, slot, size};
      }
    });
  });
  return victim;
}

}  // namespace

bool GameServerDispatcher::cap_blocks(const Packer& packer,
                                      double gpu_fraction) const {
  return packer.would_open_bin(gpu_fraction) &&
         packer.bins().open_count() >= policy_.max_fleet_servers;
}

std::vector<ShedVictim> GameServerDispatcher::trial_shed(
    double gpu_fraction, Time now_minutes) const {
  // Nothing smaller to shed needs no copy of the packer.
  if (!next_victim(packer_->bins(), sessions_, gpu_fraction)) return {};
  // Otherwise only a trial run tells: whether a departure lets the packer
  // place the arrival without a new server is the packer's own rule. A
  // packer that cannot be copied (the clairvoyant baselines, which refuse
  // every online arrival anyway) never sheds.
  if (!packer_->snapshot_supported()) return {};
  // The trial's departures are not events: nothing traces or counts them.
  const obs::ObsScope quiet(nullptr, nullptr);
  ByteWriter image;
  packer_->save_snapshot(image);
  const std::unique_ptr<Packer> trial =
      make_packer(algorithm_, spec_.to_cost_model(), options_);
  ByteReader reader(image.data());
  trial->restore_snapshot(reader);
  // The session table is left alone: slots keep their ids while other
  // sessions leave.
  std::vector<ShedVictim> victims;
  while (cap_blocks(*trial, gpu_fraction)) {
    const std::optional<ShedVictim> victim =
        next_victim(trial->bins(), sessions_, gpu_fraction);
    if (!victim) return {};
    trial->on_departure(victim->slot, now_minutes);
    victims.push_back(*victim);
  }
  return victims;
}

void GameServerDispatcher::shed_for(double gpu_fraction, Time now_minutes) {
  const std::vector<ShedVictim> victims = trial_shed(gpu_fraction, now_minutes);
  if (victims.empty()) return;
  for (const ShedVictim& victim : victims) {
    packer_->on_departure(victim.slot, now_minutes);
    sessions_.erase(sessions_.find(victim.session));
    ++stats_.sessions_shed;
    if (obs::RunTracer* tracer = obs::tracer()) {
      obs::TraceRecord record;
      record.time = now_minutes;
      record.kind = obs::TraceKind::kSessionShed;
      record.item = victim.session;
      record.size = victim.size;
      tracer->record(std::move(record));
    }
    if (obs::MetricsRegistry* metrics = obs::metrics()) {
      metrics->counter("dispatcher.sessions_shed").add();
    }
  }
  DBP_CHECK(!cap_blocks(*packer_, gpu_fraction),
            "shedding what the trial shed left the arrival blocked by the cap");
}

bool GameServerDispatcher::needs_rental(double gpu_fraction) const {
  // The packer answers by its own rule: Next Fit and the size-classed
  // packers rent a server even when some other open server has room.
  return (policy_.max_fleet_servers > 0 || policy_.rental_failure_rate > 0.0) &&
         packer_->would_open_bin(gpu_fraction);
}

bool GameServerDispatcher::admit_rental(std::uint64_t session_id,
                                        double gpu_fraction, Time now_minutes) {
  if (policy_.max_fleet_servers > 0 &&
      active_servers() >= policy_.max_fleet_servers) {
    shed_for(gpu_fraction, now_minutes);
    if (cap_blocks(*packer_, gpu_fraction)) {
      reject(DispatchErrorKind::kFleetCapExceeded, stats_.sessions_rejected_cap,
             strfmt("session %llu rejected: fleet cap of %zu servers hit and "
                    "shedding could not make room",
                    static_cast<unsigned long long>(session_id),
                    policy_.max_fleet_servers));
      return false;
    }
  }
  if (packer_->would_open_bin(gpu_fraction) && policy_.rental_failure_rate > 0.0) {
    // Bounded retry with exponential backoff against a flaky provider.
    bool rented = false;
    for (int attempt = 0; attempt <= policy_.max_rental_retries; ++attempt) {
      if (!rental_rng_.bernoulli(policy_.rental_failure_rate)) {
        rented = true;
        break;
      }
      ++stats_.rental_attempts_failed;
      if (attempt < policy_.max_rental_retries) {
        stats_.backoff_minutes +=
            policy_.backoff_base_minutes * std::pow(2.0, attempt);
      }
    }
    if (!rented) {
      reject(DispatchErrorKind::kRentalFailed, stats_.sessions_rejected_rental,
             strfmt("session %llu rejected: %d rental attempts failed",
                    static_cast<unsigned long long>(session_id),
                    policy_.max_rental_retries + 1));
      return false;
    }
  }
  return true;
}

BinId GameServerDispatcher::place(ItemId slot, double gpu_fraction,
                                  Time now_minutes) {
  const BinId server =
      packer_->on_arrival(ArrivingItem{slot, now_minutes, gpu_fraction});
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("dispatcher.sessions_placed").add();
  }
  return server;
}

BinId GameServerDispatcher::start_session(std::uint64_t session_id,
                                          double gpu_fraction, Time now_minutes) {
  SessionTable::Probe probe = sessions_.find(session_id);
  if (const std::optional<DispatchErrorKind> refusal =
          check_start(last_event_time_, session_id, gpu_fraction, now_minutes,
                      packer_->model(), probe.found)) {
    const auto id = static_cast<unsigned long long>(session_id);
    switch (*refusal) {
      case DispatchErrorKind::kTimeOrderViolation:
        reject(*refusal, stats_.time_order_violations,
               strfmt("session %llu: start at t=%g violates the "
                      "non-decreasing-time contract (clock at t=%g)",
                      id, now_minutes, last_event_time_));
        break;
      case DispatchErrorKind::kInvalidSize:
        reject(*refusal, stats_.invalid_sizes,
               strfmt("session %llu: invalid GPU fraction %g (capacity %g)", id,
                      gpu_fraction, spec_.gpu_capacity));
        break;
      case DispatchErrorKind::kInvalidSessionId:
        reject(*refusal, stats_.invalid_session_ids,
               strfmt("session %llu is reserved: invalid session id", id));
        break;
      default:
        reject(*refusal, stats_.duplicate_starts,
               strfmt("session %llu is already active: duplicate start_session", id));
    }
    return kNoServer;
  }
  last_event_time_ = now_minutes;
  if (needs_rental(gpu_fraction)) {
    if (!admit_rental(session_id, gpu_fraction, now_minutes)) return kNoServer;
    probe = sessions_.find(session_id);  // shedding may have moved entries
  }
  const ItemId slot = sessions_.insert(probe, session_id);
  BinId server = kNoServer;
  try {
    server = place(slot, gpu_fraction, now_minutes);
  } catch (...) {
    // The packer refused (a clairvoyant one refuses every online arrival):
    // no session was started, so none may stay in the table.
    sessions_.erase(sessions_.find(session_id));
    throw;
  }
#if DBP_AUDIT_ENABLED
  sessions_.audit_session(session_id, packer_->bins());
#endif
  return server;
}

void GameServerDispatcher::end_session(std::uint64_t session_id, Time now_minutes) {
  const SessionTable::Probe probe = sessions_.find(session_id);
  if (const std::optional<DispatchErrorKind> refusal =
          check_end(last_event_time_, now_minutes, probe.found)) {
    const auto id = static_cast<unsigned long long>(session_id);
    if (*refusal == DispatchErrorKind::kTimeOrderViolation) {
      reject(*refusal, stats_.time_order_violations,
             strfmt("session %llu: end at t=%g violates the "
                    "non-decreasing-time contract (clock at t=%g)",
                    id, now_minutes, last_event_time_));
    } else {
      reject(*refusal, stats_.unknown_ends,
             strfmt("session %llu is not active: unknown end_session", id));
    }
    return;
  }
  last_event_time_ = now_minutes;
  const ItemId slot = sessions_.slot(probe);
  sessions_.erase(probe);
  packer_->on_departure(slot, now_minutes);
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("dispatcher.sessions_ended").add();
  }
#if DBP_AUDIT_ENABLED
  sessions_.audit_session(session_id, packer_->bins());
#endif
}

std::size_t GameServerDispatcher::fail_server(BinId server, Time now_minutes) {
  if (breaks_clock(last_event_time_, now_minutes)) {
    reject(DispatchErrorKind::kTimeOrderViolation, stats_.time_order_violations,
           strfmt("fail_server(%llu) at t=%g violates the "
                  "non-decreasing-time contract (clock at t=%g)",
                  static_cast<unsigned long long>(server), now_minutes,
                  last_event_time_));
    return 0;
  }
  const BinManager& bins = packer_->bins();
  const std::optional<BinSlot> server_slot =
      server < bins.total_bins_opened() ? bins.slot_of(server) : std::nullopt;
  if (!server_slot) {
    reject(DispatchErrorKind::kUnknownServer, stats_.unknown_servers,
           strfmt("server %llu is not an active server",
                  static_cast<unsigned long long>(server)));
    return 0;
  }
  last_event_time_ = now_minutes;
  // The crash ends the rental now: every resident session departs, which
  // closes the server's usage record at the crash time. Each orphan's size
  // is read first, while it is still resident; it keeps its slot.
  struct Orphan {
    std::uint64_t session;
    ItemId slot;
    double size;
  };
  std::vector<Orphan> orphans;
  bins.for_each_resident(*server_slot, [&](ItemId slot, double size) {
    orphans.push_back(Orphan{sessions_.id_of(slot), slot, size});
  });
  std::sort(orphans.begin(), orphans.end(),
            [](const Orphan& a, const Orphan& b) { return a.session < b.session; });
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord record;
    record.time = now_minutes;
    record.kind = obs::TraceKind::kServerFail;
    record.bin = server;
    record.count = orphans.size();
    tracer->record(std::move(record));
  }
  for (const Orphan& orphan : orphans) {
    packer_->on_departure(orphan.slot, now_minutes);
  }
  ++stats_.servers_crashed;
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("dispatcher.servers_crashed").add();
  }
  // Re-dispatch the orphans as fresh arrivals (ascending session id — the
  // order is deterministic). Re-dispatch rejections never throw: the
  // orphan is dropped and counted instead, since the caller reporting the
  // crash is not at fault.
  const FaultPolicy::AnomalyAction saved = policy_.on_anomaly;
  policy_.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  std::size_t redispatched = 0;
  for (const Orphan& orphan : orphans) {
    if (needs_rental(orphan.size) &&
        !admit_rental(orphan.session, orphan.size, now_minutes)) {
      sessions_.erase(sessions_.find(orphan.session));
      ++stats_.sessions_lost_on_crash;
      continue;
    }
    place(orphan.slot, orphan.size, now_minutes);
    ++redispatched;
    ++stats_.sessions_redispatched;
  }
  policy_.on_anomaly = saved;
#if DBP_AUDIT_ENABLED
  for (const Orphan& orphan : orphans) {
    sessions_.audit_session(orphan.session, packer_->bins());
  }
#endif
  return redispatched;
}

namespace {

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
    throw CorruptionError("implausible harmonic class count in saved state");
  }
  options.harmonic_classes = static_cast<int>(classes);
  options.seed = in.u64();
  return options;
}

}  // namespace

void GameServerDispatcher::save_state(ByteWriter& out) const {
  out.str(algorithm_);
  out.f64(spec_.gpu_capacity);
  out.f64(spec_.price_per_hour);
  write_packer_options(out, options_);
  write_fault_policy(out, policy_);
  packer_->save_snapshot(out);
  // RLE size-multiset cross-check (opt/rle.hpp): a compact semantic summary
  // of the packer's residents. from_state re-derives it from the restored
  // packer and refuses a state whose two halves disagree.
  std::vector<double> sizes(active_sessions());
  active_sizes_desc(sizes);
  const std::vector<SizeRun> runs = rle_from_sorted(sizes);
  out.u64(runs.size());
  for (const SizeRun& run : runs) {
    out.f64(run.size);
    out.u64(run.count);
  }
  out.u64(stats_.duplicate_starts);
  out.u64(stats_.unknown_ends);
  out.u64(stats_.unknown_servers);
  out.u64(stats_.time_order_violations);
  out.u64(stats_.invalid_sizes);
  out.u64(stats_.invalid_session_ids);
  out.u64(stats_.rental_attempts_failed);
  out.u64(stats_.sessions_rejected_rental);
  out.u64(stats_.sessions_rejected_cap);
  out.u64(stats_.sessions_shed);
  out.u64(stats_.sessions_redispatched);
  out.u64(stats_.sessions_lost_on_crash);
  out.u64(stats_.servers_crashed);
  out.f64(stats_.backoff_minutes);
  out.str(rental_rng_.save_state());
  out.f64(last_event_time_);
  out.u64(sessions_.size());
  sessions_.for_each([&out](ItemId slot, std::uint64_t id) {
    out.u64(slot);
    out.u64(id);
  });
}

GameServerDispatcher GameServerDispatcher::from_state(ByteReader& in) {
  const std::string algorithm = in.str();
  ServerSpec spec;
  spec.gpu_capacity = in.f64();
  spec.price_per_hour = in.f64();
  const PackerOptions options = read_packer_options(in);
  const FaultPolicy policy = read_fault_policy(in);
  GameServerDispatcher dispatcher = [&] {
    try {
      return GameServerDispatcher(spec, algorithm, options, policy);
    } catch (const PreconditionError& error) {
      throw CorruptionError(
          std::string("saved state names a dispatcher that cannot be built (") +
          error.what() + ")");
    }
  }();
  if (!dispatcher.snapshot_supported()) {
    throw CorruptionError("saved state names an algorithm without snapshots: " +
                          algorithm);
  }
  dispatcher.packer_->restore_snapshot(in);
  // Recompute the RLE active-size multiset from the restored packer and
  // require it to match the persisted runs bit-for-bit.
  std::vector<double> active_sizes(dispatcher.active_sessions());
  dispatcher.active_sizes_desc(active_sizes);
  const std::vector<SizeRun> recomputed = rle_from_sorted(active_sizes);
  rle_validate(recomputed, dispatcher.packer_->model());
  const std::uint64_t run_count = in.u64();
  if (run_count != recomputed.size()) {
    throw CorruptionError("RLE cross-check run count mismatch");
  }
  for (const SizeRun& run : recomputed) {
    if (in.f64() != run.size || in.u64() != run.count) {
      throw CorruptionError("RLE cross-check multiset mismatch");
    }
  }
  DispatcherFaultStats& stats = dispatcher.stats_;
  stats.duplicate_starts = in.u64();
  stats.unknown_ends = in.u64();
  stats.unknown_servers = in.u64();
  stats.time_order_violations = in.u64();
  stats.invalid_sizes = in.u64();
  stats.invalid_session_ids = in.u64();
  stats.rental_attempts_failed = in.u64();
  stats.sessions_rejected_rental = in.u64();
  stats.sessions_rejected_cap = in.u64();
  stats.sessions_shed = in.u64();
  stats.sessions_redispatched = in.u64();
  stats.sessions_lost_on_crash = in.u64();
  stats.servers_crashed = in.u64();
  stats.backoff_minutes = in.f64();
  dispatcher.rental_rng_.load_state(in.str());
  dispatcher.last_event_time_ = in.f64();
  // The session table: one (slot, id) pair per active packer item, slots
  // strictly ascending, ids distinct and never the reserved 2^64-1.
  const BinManager& bins = dispatcher.packer_->bins();
  SessionTable& sessions = dispatcher.sessions_;
  const std::uint64_t count = in.u64();
  if (count != bins.active_item_count()) {
    throw CorruptionError("session table size differs from the packer's sessions");
  }
  ItemId lowest_next = 0;  // the smallest slot the next pair may name
  for (std::uint64_t i = 0; i < count; ++i) {
    const ItemId slot = in.u64();
    const std::uint64_t id = in.u64();
    if (id == kNoItem) {
      throw CorruptionError("session table holds the reserved id 2^64-1");
    }
    if (slot < lowest_next) {
      throw CorruptionError("session table slots are not strictly ascending");
    }
    lowest_next = slot + 1;
    if (!bins.active_size(slot).has_value()) {
      throw CorruptionError("session table names a slot the packer does not hold");
    }
    const SessionTable::Probe probe = sessions.find(id);
    if (probe.found) throw CorruptionError("session table repeats a session id");
    sessions.restore(probe, id, slot);
  }
  sessions.finish_restore();
  return dispatcher;
}

std::size_t GameServerDispatcher::active_servers() const {
  return packer_->bins().open_count();
}

std::size_t GameServerDispatcher::servers_ever_rented() const {
  return packer_->bins().total_bins_opened();
}

std::size_t GameServerDispatcher::active_sessions() const {
  return packer_->bins().active_item_count();
}

std::optional<ActiveSession> GameServerDispatcher::find_session(
    std::uint64_t session_id) const {
  const SessionTable::Probe probe = sessions_.find(session_id);
  if (!probe.found) return std::nullopt;
  const BinManager& bins = packer_->bins();
  const ItemId slot = sessions_.slot(probe);
  return ActiveSession{*bins.assignment_of(slot), *bins.active_size(slot)};
}

void GameServerDispatcher::active_sizes(std::span<double> out) const {
  const BinManager& bins = packer_->bins();
  DBP_REQUIRE(out.size() == bins.active_item_count(),
              "active_sizes span must cover exactly the active sessions");
  std::size_t i = 0;
  bins.for_each_open_bin([&](BinSlot bin) {
    bins.for_each_resident(bin, [&](ItemId, double size) { out[i++] = size; });
  });
}

void GameServerDispatcher::active_sizes_desc(std::span<double> out) const {
  active_sizes(out);
  std::sort(out.begin(), out.end(), std::greater<>());
}

double GameServerDispatcher::rental_cost_dollars(Time now_minutes) const {
  // "Bill accrued by `now_minutes`": each rental contributes its overlap
  // with (-inf, now]. The probe time is allowed to be earlier than the
  // event clock (read-only probes between events), so two clamps are
  // load-bearing: a rental that opens after the probe contributes zero —
  // never negative minutes — and a closed rental probed mid-life is
  // truncated at the probe time instead of billing its full length.
  double minutes = 0.0;
  for (const BinUsageRecord& record : packer_->bins().usage_records()) {
    const Time end = std::min(record.closed, now_minutes);  // closed = +inf while open
    minutes += std::max(0.0, end - record.opened);
  }
  return minutes * spec_.price_per_hour / 60.0;
}

DispatchComparison compare_dispatch_algorithms(
    const CloudGamingTrace& trace, const std::vector<std::string>& algorithms,
    const ServerSpec& spec) {
  const CostModel model = spec.to_cost_model();
  const InstanceEvaluation evaluation =
      evaluate_algorithms(trace.instance, algorithms, model);

  DispatchComparison comparison;
  comparison.metrics = evaluation.metrics;
  comparison.optimal_dollars_lower = evaluation.opt.lower_cost;
  comparison.optimal_dollars_upper = evaluation.opt.upper_cost;
  comparison.reports.reserve(evaluation.algorithms.size());
  for (const AlgorithmEvaluation& eval : evaluation.algorithms) {
    DispatchReport report;
    report.algorithm = eval.algorithm;
    report.total_dollars = eval.total_cost;
    report.server_hours = eval.total_cost / spec.price_per_hour;
    report.servers_rented = eval.bins_opened;
    report.peak_servers = eval.max_open_bins;
    const double gpu_minutes_rented =
        report.server_hours * 60.0 * spec.gpu_capacity;
    report.utilization = evaluation.metrics.total_demand / gpu_minutes_rented;
    report.overspend = eval.ratio;
    comparison.reports.push_back(std::move(report));
  }
  return comparison;
}

}  // namespace dbp
