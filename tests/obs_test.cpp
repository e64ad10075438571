#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/run_tracer.hpp"

namespace dbp::obs {
namespace {

// ---- MetricsRegistry ----

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry registry;
  registry.counter("events").add();
  registry.counter("events").add(41);
  EXPECT_EQ(registry.counter_value("events"), 42u);
  EXPECT_EQ(registry.counter_value("never-touched"), std::nullopt);
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  MetricsRegistry registry;
  registry.gauge("open_bins").set(3.0);
  registry.gauge("open_bins").set(7.0);
  EXPECT_EQ(registry.gauge_value("open_bins"), 7.0);
  EXPECT_EQ(registry.gauge_value("missing"), std::nullopt);
}

TEST(MetricsRegistryTest, TimerAggregates) {
  MetricsRegistry registry;
  registry.timer("phase").record_ms(2.0);
  registry.timer("phase").record_ms(6.0);
  registry.timer("phase").record_ms(4.0);
  const auto stats = registry.timer_stats("phase");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->count, 3u);
  EXPECT_DOUBLE_EQ(stats->total_ms, 12.0);
  EXPECT_DOUBLE_EQ(stats->min_ms, 2.0);
  EXPECT_DOUBLE_EQ(stats->max_ms, 6.0);
  EXPECT_DOUBLE_EQ(stats->mean_ms(), 4.0);
  EXPECT_EQ(registry.timer_stats("missing"), std::nullopt);
}

TEST(MetricsRegistryTest, ReferencesAreStable) {
  MetricsRegistry registry;
  Counter& first = registry.counter("a");
  // Force more storage to be allocated; `first` must stay valid.
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler." + std::to_string(i)).add();
  }
  EXPECT_EQ(&first, &registry.counter("a"));
  first.add(5);
  EXPECT_EQ(registry.counter_value("a"), 5u);
}

TEST(MetricsRegistryTest, ConcurrentCountersAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < kIncrements; ++i) registry.counter("hits").add();
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(registry.counter_value("hits"),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, WriteTextSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("zz.last").add(2);
  registry.counter("aa.first").add(1);
  registry.gauge("mid.gauge").set(1.5);
  registry.timer("mid.timer").record_ms(3.0);
  std::ostringstream out;
  registry.write_text(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("aa.first"), std::string::npos);
  EXPECT_NE(text.find("zz.last"), std::string::npos);
  EXPECT_NE(text.find("mid.gauge"), std::string::npos);
  EXPECT_NE(text.find("mid.timer"), std::string::npos);
  EXPECT_LT(text.find("aa.first"), text.find("zz.last"));
}

// ---- RunTracer ----

TEST(RunTracerTest, RingDropsOldestAndKeepsSequence) {
  RunTracer tracer(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    TraceRecord record;
    record.kind = TraceKind::kArrival;
    record.count = i;
    tracer.record(std::move(record));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_EQ(tracer.total_recorded(), 6u);
  const std::vector<TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 2);  // 0 and 1 were evicted
    EXPECT_EQ(records[i].count, i + 2);
  }
}

TEST(RunTracerTest, ClearKeepsNumbering) {
  RunTracer tracer(8);
  tracer.record(TraceRecord{});
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  tracer.record(TraceRecord{});
  EXPECT_EQ(tracer.snapshot().front().seq, 1u);
}

TEST(RunTracerTest, ExportEmitsHeaderAndOmitsAbsentFields) {
  RunTracer tracer(8);
  TraceRecord arrival;
  arrival.time = 1.5;
  arrival.kind = TraceKind::kArrival;
  arrival.item = 3;
  arrival.bin = 2;
  arrival.size = 0.25;
  arrival.count = 4;
  tracer.record(std::move(arrival));
  TraceRecord phase;
  phase.kind = TraceKind::kOptPhase;
  phase.ms = 12.5;
  phase.label = "sweep";
  tracer.record(std::move(phase));

  std::ostringstream out;
  tracer.export_jsonl(out);
  std::istringstream lines(out.str());
  std::string header, first, second;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_NE(header.find("\"kind\": \"trace_meta\""), std::string::npos);
  EXPECT_NE(header.find("\"schema\": \"dbp-trace/1\""), std::string::npos);
  EXPECT_NE(header.find("\"records\": 2"), std::string::npos);
  EXPECT_NE(first.find("\"kind\": \"arrival\""), std::string::npos);
  EXPECT_NE(first.find("\"item\": 3"), std::string::npos);
  EXPECT_NE(first.find("\"bin\": 2"), std::string::npos);
  EXPECT_NE(first.find("\"count\": 4"), std::string::npos);
  EXPECT_EQ(first.find("\"ms\""), std::string::npos);
  EXPECT_EQ(first.find("\"label\""), std::string::npos);
  EXPECT_NE(second.find("\"kind\": \"opt_phase\""), std::string::npos);
  EXPECT_NE(second.find("\"ms\": 12.5"), std::string::npos);
  EXPECT_NE(second.find("\"label\": \"sweep\""), std::string::npos);
  EXPECT_EQ(second.find("\"item\""), std::string::npos);
}

TEST(RunTracerTest, ExportWithoutTimingsStripsMsOnly) {
  RunTracer tracer(8);
  TraceRecord phase;
  phase.kind = TraceKind::kOptPhase;
  phase.ms = 3.25;
  phase.label = "evaluate";
  phase.count = 10;
  tracer.record(std::move(phase));
  std::ostringstream with, without;
  tracer.export_jsonl(with, /*include_timings=*/true);
  tracer.export_jsonl(without, /*include_timings=*/false);
  EXPECT_NE(with.str().find("\"ms\""), std::string::npos);
  EXPECT_EQ(without.str().find("\"ms\""), std::string::npos);
  EXPECT_NE(without.str().find("\"count\": 10"), std::string::npos);
}

TEST(RunTracerTest, LabelsAreEscaped) {
  RunTracer tracer(4);
  TraceRecord record;
  record.kind = TraceKind::kFaultAnomaly;
  record.label = "quote\"back\\slash\nnewline";
  tracer.record(std::move(record));
  std::ostringstream out;
  tracer.export_jsonl(out);
  EXPECT_NE(out.str().find("quote\\\"back\\\\slash\\nnewline"),
            std::string::npos);
}

// ---- ObsScope / context ----

TEST(ObsScopeTest, InstallsAndRestores) {
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
  RunTracer outer_tracer(8);
  MetricsRegistry outer_metrics;
  {
    ObsScope outer(&outer_tracer, &outer_metrics);
    EXPECT_EQ(tracer(), &outer_tracer);
    EXPECT_EQ(metrics(), &outer_metrics);
    {
      ObsScope inner(nullptr, nullptr);  // scopes nest and shadow
      EXPECT_EQ(tracer(), nullptr);
      EXPECT_EQ(metrics(), nullptr);
    }
    EXPECT_EQ(tracer(), &outer_tracer);
  }
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
}

TEST(ObsScopeTest, WorkerThreadsDoNotInheritScope) {
  RunTracer tracer_obj(8);
  ObsScope scope(&tracer_obj, nullptr);
  RunTracer* seen = &tracer_obj;
  std::thread worker([&seen] { seen = tracer(); });
  worker.join();
  EXPECT_EQ(seen, nullptr);
  EXPECT_EQ(tracer(), &tracer_obj);
}

TEST(ObsScopeTest, EmittersNoOpWithoutScope) {
  // Must not crash, allocate a tracer, or record anywhere.
  trace_arrival(1.0, 0, 0.5, 0, 1);
  trace_departure(2.0, 0, 0);
  SUCCEED();
}

}  // namespace
}  // namespace dbp::obs
