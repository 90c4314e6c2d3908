#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/strategies.hpp"
#include "replay/replay_engine.hpp"
#include "replay/workloads.hpp"

namespace jupiter {
namespace {

using obs::Labels;
using obs::MetricKind;
using obs::MetricsSnapshot;
using obs::Registry;
using obs::Visibility;

// ---------------------------------------------------------------- registry

TEST(MetricKeyTest, SortsLabelsAndRendersCanonically) {
  EXPECT_EQ(obs::metric_key("x", {}), "x");
  EXPECT_EQ(obs::metric_key("x", {{"b", "2"}, {"a", "1"}}), "x{a=1,b=2}");
  // Label order never matters: both spellings name one metric instance.
  Registry reg;
  reg.counter("hits", {{"zone", "3"}, {"kind", "spot"}}).inc();
  reg.counter("hits", {{"kind", "spot"}, {"zone", "3"}}).inc(2);
  EXPECT_EQ(reg.snapshot().counter("hits{kind=spot,zone=3}"), 3u);
}

TEST(RegistryTest, EnumerationIsSorted) {
  Registry reg;
  reg.counter("zeta").inc();
  reg.gauge("alpha").set(1.0);
  reg.counter("mid", {{"l", "1"}}).inc();
  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.rows.size(), 3u);
  EXPECT_EQ(snap.rows[0].key, "alpha");
  EXPECT_EQ(snap.rows[1].key, "mid{l=1}");
  EXPECT_EQ(snap.rows[2].key, "zeta");
}

TEST(RegistryTest, KindCollisionThrows) {
  Registry reg;
  reg.counter("x").inc();
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x", 0, 1, 4), std::invalid_argument);
  // Same name, same kind: returns the same instance.
  reg.counter("x").inc();
  EXPECT_EQ(reg.snapshot().counter("x"), 2u);
}

TEST(RegistryTest, HistogramCarriesMomentsAndBins) {
  Registry reg;
  auto& h = reg.histogram("lat", 0.0, 10.0, 10);
  h.observe(1.5);
  h.observe(2.5);
  h.observe(9.5);
  MetricsSnapshot snap = reg.snapshot();
  const MetricsSnapshot::Row* row = snap.find("lat");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->kind, MetricKind::kHistogram);
  EXPECT_EQ(row->count, 3u);
  EXPECT_DOUBLE_EQ(row->sum, 13.5);
  EXPECT_DOUBLE_EQ(row->min, 1.5);
  EXPECT_DOUBLE_EQ(row->max, 9.5);
  ASSERT_EQ(row->bins.size(), 10u);
  EXPECT_EQ(row->bins[1], 1u);
  EXPECT_EQ(row->bins[2], 1u);
  EXPECT_EQ(row->bins[9], 1u);
}

TEST(RegistryTest, VolatileMetricsExcludedFromSnapshots) {
  Registry reg;
  reg.counter("det").inc();
  reg.histogram("wall_ns", 0, 1e9, 8, {}, Visibility::kVolatile).observe(5e5);
  MetricsSnapshot def = reg.snapshot();
  EXPECT_NE(def.find("det"), nullptr);
  EXPECT_EQ(def.find("wall_ns"), nullptr);
  EXPECT_EQ(def.to_csv().find("wall_ns"), std::string::npos);
  // Explicit opt-in sees them.
  MetricsSnapshot all = reg.snapshot(/*include_volatile=*/true);
  EXPECT_NE(all.find("wall_ns"), nullptr);
}

TEST(RegistryTest, SnapshotDiff) {
  Registry reg;
  reg.counter("c").inc(10);
  reg.gauge("g").set(1.0);
  MetricsSnapshot before = reg.snapshot();
  reg.counter("c").inc(5);
  reg.gauge("g").set(7.5);
  reg.counter("fresh").inc();
  MetricsSnapshot after = reg.snapshot();
  MetricsSnapshot d = MetricsSnapshot::diff(before, after);
  EXPECT_EQ(d.counter("c"), 5u);
  EXPECT_DOUBLE_EQ(d.gauge("g"), 7.5);  // gauges keep the after value
  EXPECT_EQ(d.counter("fresh"), 1u);
}

TEST(RegistryTest, CsvAndJsonShape) {
  Registry reg;
  reg.counter("a", {{"k", "v"}}).inc(3);
  reg.gauge("b").set(0.1);
  std::string csv = reg.to_csv();
  EXPECT_EQ(csv.find("key,kind,count,value,sum,min,max"), 0u);
  EXPECT_NE(csv.find("a{k=v},counter,3"), std::string::npos);
  std::string json = reg.to_json();
  EXPECT_NE(json.find("\"a{k=v}\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

// ------------------------------------------------------------------- trace

TEST(TraceTest, ChromeJsonShape) {
  obs::MemoryTraceSink sink;
  sink.instant(SimTime(10), obs::TraceTrack::kMarket, "oob", "market",
               {{"zone", "3"}});
  sink.span(SimTime(20), 300, obs::TraceTrack::kReplay, "interval", "replay",
            {{"nodes", 5}});
  sink.counter(SimTime(20), obs::TraceTrack::kReplay, "avail",
               {{"ppm", 999000}});
  std::string json = sink.chrome_json();
  // Sim seconds map to trace microseconds.
  EXPECT_NE(json.find("\"ph\": \"i\", \"ts\": 10000000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\", \"ts\": 20000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 300000000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Track metadata names every subsystem row.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"replay\"}"), std::string::npos);
  // String args are escaped and attached.
  EXPECT_NE(json.find("\"zone\": \"3\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\": 5"), std::string::npos);
}

TEST(TraceTest, EscapesControlAndQuoteCharacters) {
  obs::MemoryTraceSink sink;
  sink.instant(SimTime(0), obs::TraceTrack::kCore, "na\"me", "",
               {{"k", "line1\nline2"}});
  std::string json = sink.chrome_json();
  EXPECT_NE(json.find("na\\\"me"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_EQ(json.find("line1\nline2"), std::string::npos);
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, RetainsAllBelowCapacity) {
  obs::FlightRecorder fr(8);
  fr.note(SimTime(1), "a", "one");
  fr.note(SimTime(2), "b", "two");
  EXPECT_EQ(fr.retained(), 2u);
  EXPECT_EQ(fr.total(), 2u);
  auto es = fr.entries();
  ASSERT_EQ(es.size(), 2u);
  EXPECT_EQ(es[0].seq, 1u);
  EXPECT_EQ(es[0].tag, "a");
  EXPECT_EQ(es[1].text, "two");
}

TEST(FlightRecorderTest, EvictsOldestWhenFull) {
  obs::FlightRecorder fr(4);
  for (int i = 1; i <= 10; ++i) {
    fr.note(SimTime(i), "t", "event " + std::to_string(i));
  }
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.retained(), 4u);
  EXPECT_EQ(fr.total(), 10u);
  auto es = fr.entries();
  ASSERT_EQ(es.size(), 4u);
  // Oldest first, and only the newest four survive.
  EXPECT_EQ(es[0].seq, 7u);
  EXPECT_EQ(es[3].seq, 10u);
  EXPECT_EQ(es[3].text, "event 10");

  std::ostringstream ss;
  fr.dump(ss);
  EXPECT_NE(ss.str().find("4 of 10"), std::string::npos);
  EXPECT_NE(ss.str().find("6 older evicted"), std::string::npos);
}

TEST(FlightRecorderTest, RenderStampsSeqTimeAndTag) {
  obs::FlightRecorder fr(4);
  fr.note(SimTime(3723), "paxos", "leader elected");
  auto lines = fr.render();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "#1 " + SimTime(3723).str() + " [paxos] leader elected");
}

// ----------------------------------------------------------- ambient scope

TEST(ObsContextTest, NullByDefaultAndRestoredByScope) {
  EXPECT_EQ(obs::current(), nullptr);
  EXPECT_EQ(obs::metrics(), nullptr);
  Registry reg;
  obs::ObsContext ctx;
  ctx.metrics = &reg;
  {
    obs::ContextScope scope(&ctx);
    EXPECT_EQ(obs::current(), &ctx);
    EXPECT_EQ(obs::metrics(), &reg);
    EXPECT_EQ(obs::trace(), nullptr);  // absent sinks stay null
    {
      obs::ContextScope inner(nullptr);  // nesting restores the outer
      EXPECT_EQ(obs::current(), nullptr);
    }
    EXPECT_EQ(obs::current(), &ctx);
  }
  EXPECT_EQ(obs::current(), nullptr);
  // note() with no recorder is a safe no-op.
  obs::note(SimTime(1), "t", "dropped on the floor");
}

TEST(ObsContextTest, WallHistogramIsVolatile) {
  Registry reg;
  obs::ObsContext ctx;
  ctx.metrics = &reg;
  obs::ContextScope scope(&ctx);
  {
    obs::WallScope ws(obs::wall_histogram("test.wall_ns"));
  }
  EXPECT_EQ(reg.snapshot().find("test.wall_ns"), nullptr);
  // Bind the snapshot: find() returns a pointer into its rows, which would
  // dangle past the full-expression on a temporary.
  MetricsSnapshot with_volatile = reg.snapshot(/*include_volatile=*/true);
  const MetricsSnapshot::Row* row = with_volatile.find("test.wall_ns");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 1u);  // the scope observed exactly once
}

// ----------------------------------------------- end-to-end byte identity

struct InstrumentedRun {
  std::string metrics_json;
  std::string trace_json;
  std::vector<std::string> recorder_lines;
  ReplayResult result;
  MetricsSnapshot metrics;
  TransientCache::Stats cache_stats;
};

InstrumentedRun instrumented_replay() {
  Scenario sc =
      make_scenario(InstanceKind::kM1Small, /*train_weeks=*/2,
                    /*replay_weeks=*/1, /*seed=*/77);
  ServiceSpec spec = ServiceSpec::lock_service();
  // The full stack: metrics registry, trace sink and flight recorder.
  Registry reg;
  obs::MemoryTraceSink trace;
  obs::FlightRecorder recorder(512);
  obs::ObsContext ctx;
  ctx.metrics = &reg;
  ctx.trace = &trace;
  ctx.recorder = &recorder;
  obs::ContextScope scope(&ctx);
  JupiterStrategy strategy(sc.book, spec, sc.history_start,
                           {.horizon_minutes = 60, .max_nodes = 9});
  ReplayConfig cfg = make_replay_config(sc, spec, 12 * kHour);
  InstrumentedRun out;
  out.result = replay_strategy(sc.book, strategy, cfg);
  out.metrics_json = reg.to_json();
  out.trace_json = trace.chrome_json();
  out.recorder_lines = recorder.render();
  out.metrics = reg.snapshot();
  out.cache_stats = strategy.cache_stats();
  return out;
}

TEST(ObsDeterminismTest, SameSeedRunsAreByteIdentical) {
  InstrumentedRun a = instrumented_replay();
  InstrumentedRun b = instrumented_replay();
  EXPECT_EQ(a.result.cost.micros(), b.result.cost.micros());
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.recorder_lines, b.recorder_lines);
  // And the instrumentation actually fired.
  EXPECT_NE(a.metrics_json.find("core.decisions"), std::string::npos);
  EXPECT_NE(a.metrics_json.find("replay.intervals"), std::string::npos);
  EXPECT_NE(a.trace_json.find("bid_decision"), std::string::npos);
  EXPECT_FALSE(a.recorder_lines.empty());
}

TEST(ObsDeterminismTest, InstrumentationDoesNotPerturbDecisions) {
  // The same replay with observability off must produce identical results —
  // the zero-cost-when-disabled path and the instrumented path may not
  // diverge in simulation outcomes.
  Scenario sc =
      make_scenario(InstanceKind::kM1Small, 2, 1, /*seed=*/77);
  ServiceSpec spec = ServiceSpec::lock_service();
  JupiterStrategy strategy(sc.book, spec, sc.history_start,
                           {.horizon_minutes = 60, .max_nodes = 9});
  ReplayConfig cfg = make_replay_config(sc, spec, 12 * kHour);
  ReplayResult bare = replay_strategy(sc.book, strategy, cfg);

  InstrumentedRun instr = instrumented_replay();
  EXPECT_EQ(bare.cost.micros(), instr.result.cost.micros());
  EXPECT_EQ(bare.downtime, instr.result.downtime);
  EXPECT_EQ(bare.decisions, instr.result.decisions);
  EXPECT_EQ(bare.out_of_bid_events, instr.result.out_of_bid_events);
  EXPECT_EQ(bare.instances_launched, instr.result.instances_launched);
  // The registry's view of the transient cache agrees with the accessor.
  EXPECT_EQ(instr.metrics.gauge("core.cache_hits"),
            static_cast<double>(instr.cache_stats.hits));
  EXPECT_EQ(instr.metrics.gauge("core.cache_misses"),
            static_cast<double>(instr.cache_stats.misses));
}

}  // namespace
}  // namespace jupiter
