// Tests for the observability layer: tracer span nesting and serialization,
// instant args, metrics instruments (bucket edges and quantile estimation in
// particular), series bounds, flight-recorder rings fed by spans
// (wraparound, reuse after thread exit, crash dump),
// concurrent emission, and the allocation-free disabled path.

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "support/crash.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

// The crash-dump death test re-raises a real SIGABRT; TSan's runtime
// intercepts it and reports instead of dying cleanly, so skip there.
#if defined(__SANITIZE_THREAD__)
#define MLSI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MLSI_TSAN 1
#endif
#endif

// ---------------------------------------------------------------------------
// Global allocation counter: the disabled-path contract is "one relaxed
// atomic load, no allocation", and DisabledPathDoesNotAllocate proves the
// second half by replacing global new/delete for the whole test binary.

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms must be replaced too: libstdc++'s temporary buffers
// (stable_sort in Tracer::to_json) allocate through them, and under ASan a
// nothrow-new allocation released by our free-based operator delete would
// be flagged as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mlsi::obs {
namespace {

/// The obs singletons are process-wide; every test leaves them disabled and
/// empty so ordering between tests cannot matter.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { clean(); }
  void TearDown() override { clean(); }

  static void clean() {
    Tracer::instance().disable();
    Tracer::instance().reset();
    Metrics::instance().disable();
    Metrics::instance().reset();
    FlightRecorder::instance().disable();
    FlightRecorder::instance().reset();
  }
};

TEST_F(ObsTest, DisabledByDefaultAndTogglable) {
  EXPECT_FALSE(trace_enabled());
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(flight_recorder_enabled());
  Tracer::instance().enable();
  Metrics::instance().enable();
  FlightRecorder::instance().enable();
  EXPECT_TRUE(trace_enabled());
  EXPECT_TRUE(metrics_enabled());
  EXPECT_TRUE(flight_recorder_enabled());
}

TEST_F(ObsTest, SpanNestingIsReflectedInTimestamps) {
  Tracer::instance().enable();
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
      trace_instant("marker");
    }
  }
  Tracer::instance().disable();
  ASSERT_EQ(Tracer::instance().event_count(), 3u);

  const auto doc = json::parse(Tracer::instance().to_json());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const json::Array& events = doc->as_array();
  ASSERT_EQ(events.size(), 3u);

  const json::Value* outer = nullptr;
  const json::Value* inner = nullptr;
  const json::Value* marker = nullptr;
  for (const json::Value& ev : events) {
    const std::string& name = ev.find("name")->as_string();
    if (name == "outer") outer = &ev;
    if (name == "inner") inner = &ev;
    if (name == "marker") marker = &ev;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(marker, nullptr);

  // Chrome trace-event essentials on every record.
  for (const json::Value& ev : events) {
    EXPECT_NE(ev.find("ph"), nullptr);
    EXPECT_NE(ev.find("ts"), nullptr);
    EXPECT_NE(ev.find("pid"), nullptr);
    EXPECT_NE(ev.find("tid"), nullptr);
    EXPECT_EQ(ev.find("cat")->as_string(), "mlsi");
  }
  EXPECT_EQ(outer->find("ph")->as_string(), "X");
  EXPECT_EQ(marker->find("ph")->as_string(), "i");

  // The inner span (and the instant) lie inside the outer span's interval.
  const double outer_ts = outer->find("ts")->as_number();
  const double outer_end = outer_ts + outer->find("dur")->as_number();
  const double inner_ts = inner->find("ts")->as_number();
  const double inner_end = inner_ts + inner->find("dur")->as_number();
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_GE(marker->find("ts")->as_number(), inner_ts);
  EXPECT_LE(marker->find("ts")->as_number(), inner_end);
}

TEST_F(ObsTest, SpansNotRecordedWhileDisabled) {
  { TraceSpan span("ignored"); }
  trace_instant("also ignored");
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  // A span that *starts* while disabled stays unrecorded even if tracing
  // turns on before it ends (start_us_ was never armed).
  {
    TraceSpan span("straddler");
    Tracer::instance().enable();
  }
  Tracer::instance().disable();
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST_F(ObsTest, HistogramBucketEdgesAreUpperInclusive) {
  Metrics::instance().enable();
  Histogram& h = metrics().histogram("test.hist", {1.0, 2.0, 5.0});
  // counts[i] holds v <= edges[i]; the last bucket is the +inf overflow.
  h.observe(0.5);   // -> bucket 0
  h.observe(1.0);   // boundary: still bucket 0
  h.observe(1.001); // -> bucket 1
  h.observe(2.0);   // boundary: bucket 1
  h.observe(5.0);   // boundary: bucket 2
  h.observe(5.1);   // overflow bucket
  h.observe(1e9);   // overflow bucket
  const std::vector<long> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 2);
  EXPECT_EQ(h.count(), 7);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.1 + 1e9, 1e-6);
  // The edge list is fixed at first creation; a later lookup with different
  // edges returns the same instrument.
  Histogram& again = metrics().histogram("test.hist", {42.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.edges().size(), 3u);
}

TEST_F(ObsTest, MetricsSnapshotShape) {
  Metrics::instance().enable();
  metrics().counter("test.counter").add(3);
  metrics().gauge("test.gauge").set(1.5);
  // Not "test.hist": instruments never die, and the bucket-edges test
  // already created that name with three edges.
  metrics().histogram("test.snap_hist", {1.0}).observe(0.5);
  metrics().series("test.series").record_at(0.25, 7.0);

  const json::Value snap = Metrics::instance().snapshot();
  EXPECT_EQ(snap.find("schema")->as_int(), kMetricsSchemaVersion);
  EXPECT_EQ(snap.find("counters")->find("test.counter")->as_number(), 3.0);
  EXPECT_EQ(snap.find("gauges")->find("test.gauge")->as_number(), 1.5);
  const json::Value* hist = snap.find("histograms")->find("test.snap_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("edges")->as_array().size(), 1u);
  EXPECT_EQ(hist->find("counts")->as_array().size(), 2u);
  EXPECT_EQ(hist->find("count")->as_number(), 1.0);
  // Schema v2: every histogram snapshot carries ordered quantiles.
  const json::Value* q = hist->find("quantiles");
  ASSERT_NE(q, nullptr);
  ASSERT_NE(q->find("p50"), nullptr);
  ASSERT_NE(q->find("p95"), nullptr);
  ASSERT_NE(q->find("p99"), nullptr);
  EXPECT_LE(q->find("p50")->as_number(), q->find("p95")->as_number());
  EXPECT_LE(q->find("p95")->as_number(), q->find("p99")->as_number());
  const json::Value* series = snap.find("series")->find("test.series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->as_array().size(), 1u);
  EXPECT_EQ(series->as_array()[0].as_array()[0].as_number(), 0.25);
  EXPECT_EQ(series->as_array()[0].as_array()[1].as_number(), 7.0);

  // reset() zeroes in place: cached references stay valid.
  Counter& c = metrics().counter("test.counter");
  Metrics::instance().reset();
  EXPECT_EQ(c.value(), 0);
  c.add();
  EXPECT_EQ(metrics().counter("test.counter").value(), 1);
}

TEST_F(ObsTest, EstimateQuantileKnownDistributions) {
  // Uniform: 10 per finite bucket over edges {10,...,100}, empty overflow.
  // Linear interpolation within the rank bucket makes these exact.
  const std::vector<double> edges{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  const std::vector<long> uniform{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 0};
  EXPECT_DOUBLE_EQ(estimate_quantile(edges, uniform, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(estimate_quantile(edges, uniform, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(estimate_quantile(edges, uniform, 0.99), 99.0);

  // Everything in one bucket: the answer interpolates inside (20, 30].
  const std::vector<long> spike{0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(estimate_quantile(edges, spike, 0.5), 25.0);
  EXPECT_GT(estimate_quantile(edges, spike, 0.99), 25.0);
  EXPECT_LE(estimate_quantile(edges, spike, 0.99), 30.0);

  // Mass in the +inf overflow bucket clamps to the last finite edge.
  const std::vector<long> overflow{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5};
  EXPECT_DOUBLE_EQ(estimate_quantile(edges, overflow, 0.5), 100.0);

  // No observations: 0, not NaN.
  const std::vector<long> empty(11, 0);
  EXPECT_DOUBLE_EQ(estimate_quantile(edges, empty, 0.5), 0.0);

  // Histogram::quantile agrees with the free function over its counts.
  Metrics::instance().enable();
  Histogram& h = metrics().histogram("test.quant_hist", {10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST_F(ObsTest, SnapshotUnderConcurrentMutation) {
  // snapshot_json() must stay well-formed (and TSan-clean — scripts/check.sh
  // runs this binary under -DMLSI_SANITIZE=thread) while workers hammer the
  // same instruments. The stats endpoint does exactly this on a live daemon.
  Metrics::instance().enable();
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        metrics().counter("test.mut_counter").add();
        metrics().gauge("test.mut_gauge").set(static_cast<double>(i));
        metrics().histogram("test.mut_hist", {10.0, 100.0, 1000.0})
            .observe(static_cast<double>(i % 2000));
      }
    });
  }
  for (int n = 0; n < 50; ++n) {
    const auto doc = json::parse(Metrics::instance().snapshot_json());
    ASSERT_TRUE(doc.ok()) << doc.status().to_string();
    const json::Value* hist =
        doc->find("histograms")->find("test.mut_hist");
    if (hist == nullptr) continue;  // first snapshots may precede creation
    const json::Value* q = hist->find("quantiles");
    ASSERT_NE(q, nullptr);
    // Quantiles computed from a mid-mutation snapshot must still be
    // ordered: the estimate ranks against the loaded counts themselves.
    EXPECT_LE(q->find("p50")->as_number(), q->find("p95")->as_number());
    EXPECT_LE(q->find("p95")->as_number(), q->find("p99")->as_number());
  }
  stop.store(true);
  for (auto& w : workers) w.join();
}

TEST_F(ObsTest, SeriesTracksLastValue) {
  Series& s = metrics().series("test.timeline");
  EXPECT_TRUE(s.empty());
  s.record(4.0);
  s.record(2.0);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.last_value(), 2.0);
  ASSERT_EQ(s.points().size(), 2u);
  EXPECT_LE(s.points()[0].first, s.points()[1].first);
}

TEST_F(ObsTest, SeriesKeepsItsMostRecentPoints) {
  Series& s = metrics().series("test.capped");
  constexpr std::size_t kExtra = 100;
  for (std::size_t i = 0; i < Series::kMaxPoints + kExtra; ++i) {
    s.record_at(static_cast<double>(i), static_cast<double>(i));
  }
  const auto points = s.points();
  ASSERT_EQ(points.size(), Series::kMaxPoints);
  std::size_t out_of_place = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto expected = static_cast<double>(kExtra + i);
    if (points[i].first != expected || points[i].second != expected) {
      ++out_of_place;
    }
  }
  EXPECT_EQ(out_of_place, 0u) << "the last kMaxPoints points, in order";
  EXPECT_EQ(s.last_value(),
            static_cast<double>(Series::kMaxPoints + kExtra - 1));
}

TEST_F(ObsTest, InstantArgsBecomeChromeArgsObject) {
  Tracer::instance().enable();
  trace_instant("milp.incumbent", {{"obj", json::Value{12.5}},
                                   {"engine", json::Value{"milp"}}});
  trace_instant("milp.prune", {{"reason", json::Value{"bound"}},
                               {"bound", json::Value{}}});
  trace_instant("plain");
  Tracer::instance().disable();
  trace_instant("after_close", {{"x", json::Value{1}}});  // dropped

  const auto doc = json::parse(Tracer::instance().to_json());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const json::Array& events = doc->as_array();
  ASSERT_EQ(events.size(), 3u);
  for (const json::Value& ev : events) {
    EXPECT_EQ(ev.find("ph")->as_string(), "i");
    const std::string& name = ev.find("name")->as_string();
    const json::Value* args = ev.find("args");
    if (name == "milp.incumbent") {
      ASSERT_NE(args, nullptr);
      ASSERT_TRUE(args->is_object());
      EXPECT_EQ(args->find("obj")->as_number(), 12.5);
      EXPECT_EQ(args->find("engine")->as_string(), "milp");
    } else if (name == "milp.prune") {
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->find("reason")->as_string(), "bound");
      EXPECT_TRUE(args->find("bound")->is_null());
    } else {
      EXPECT_EQ(name, "plain");
      EXPECT_EQ(args, nullptr) << "an instant without args has no member";
    }
  }
}

TEST_F(ObsTest, ConcurrentEmissionKeepsEveryEvent) {
  // Raw threads (not the pool) so each emitter is guaranteed to be a
  // distinct thread with its own ordinal and trace buffer. Run under
  // -DMLSI_SANITIZE=thread in scripts/check.sh.
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 200;
  constexpr int kTicksPerThread = kEventsPerThread / 50;
  Tracer::instance().enable();
  Metrics::instance().enable();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        TraceSpan span("worker.event");
        metrics().counter("test.concurrent").add();
        metrics().histogram("test.concurrent_hist", {10.0, 100.0})
            .observe(static_cast<double>(i));
        if (i % 50 == 0 && trace_enabled()) {
          trace_instant("tick", {{"i", json::Value{i}}});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Tracer::instance().disable();

  constexpr auto kEvents =
      static_cast<std::size_t>(kThreads * (kEventsPerThread + kTicksPerThread));
  EXPECT_EQ(Tracer::instance().event_count(), kEvents);
  EXPECT_GE(Tracer::instance().distinct_threads(), 2);
  EXPECT_EQ(metrics().counter("test.concurrent").value(),
            kThreads * kEventsPerThread);
  EXPECT_EQ(metrics().histogram("test.concurrent_hist", {}).count(),
            kThreads * kEventsPerThread);

  // The merged trace must still be valid JSON with per-thread tids.
  const auto doc = json::parse(Tracer::instance().to_json());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_array().size(), kEvents);
}

TEST_F(ObsTest, TracerSurvivesEmitterThreadExit) {
  Tracer::instance().enable();
  std::thread emitter([] { TraceSpan span("short.lived"); });
  emitter.join();
  Tracer::instance().disable();
  // The emitting thread is gone; its buffer (shared with the registry)
  // still holds the event — this is what lets the CLI write the trace
  // after the CP search's pool joined.
  EXPECT_EQ(Tracer::instance().event_count(), 1u);
  EXPECT_NE(Tracer::instance().to_json().find("short.lived"),
            std::string::npos);
}

TEST_F(ObsTest, FlightRecorderWraparoundKeepsNewestRecords) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.enable();
  // Overfill this thread's ring 3x: first two capacities under one name,
  // the final capacity under another. Only the final capacity survives.
  // Each span writes two records ('B' and 'E').
  for (std::size_t i = 0; i < FlightRecorder::kRecordsPerThread; ++i) {
    TraceSpan span("wrap.old");
  }
  for (std::size_t i = 0; i < FlightRecorder::kRecordsPerThread / 2; ++i) {
    TraceSpan span("wrap.new");
  }
  rec.disable();
  EXPECT_EQ(rec.record_count(), FlightRecorder::kRecordsPerThread);

  const std::string path = ::testing::TempDir() + "obs_fr_wrap.jsonl";
  ASSERT_TRUE(rec.dump(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  double prev_ts = -1.0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    EXPECT_EQ(doc->find("name")->as_string(), "wrap.new");
    EXPECT_EQ(doc->find("ph")->as_string(), lines % 2 == 0 ? "B" : "E");
    ++lines;
    // Single ring, dumped oldest-first: timestamps never go backwards.
    const double ts = doc->find("ts")->as_number();
    EXPECT_GE(ts, prev_ts);
    prev_ts = ts;
  }
  EXPECT_EQ(lines, FlightRecorder::kRecordsPerThread);
}

TEST_F(ObsTest, FlightRecorderSanitizesAndTruncatesNames) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.enable();
  // Control chars, quotes and backslashes would corrupt the JSONL dump a
  // signal handler writes without an escaper; they must be rewritten at
  // record time. Over-long names truncate to the fixed record field.
  { TraceSpan span("bad\"name\\with\ncontrol"); }
  const std::string long_name(200, 'x');
  { TraceSpan span(long_name.c_str()); }
  rec.disable();

  const std::string path = ::testing::TempDir() + "obs_fr_names.jsonl";
  ASSERT_TRUE(rec.dump(path).ok());
  std::ifstream in(path);
  std::vector<std::string> names;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    names.push_back(doc->find("name")->as_string());
  }
  ASSERT_EQ(names.size(), 4u);  // a 'B' and an 'E' per span
  EXPECT_EQ(names[0], "bad_name_with_control");
  EXPECT_EQ(names[1], "bad_name_with_control");
  EXPECT_EQ(names[2], std::string(sizeof(FrRecord{}.name) - 1, 'x'));
  EXPECT_EQ(names[3], names[2]);
}

TEST_F(ObsTest, FlightRecorderReusesTheRingsOfExitedThreads) {
  // A thread hands its ring back when it exits, so a process that keeps
  // starting threads (one per socket connection, a pool per split solve)
  // keeps recording long after kMaxThreads of them have come and gone.
  FlightRecorder& rec = FlightRecorder::instance();
  rec.enable();
  constexpr int kThreads = 200;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([i] {
      const std::string name = cat("reuse.t", i);
      TraceSpan span(name.c_str());
    }).join();
  }
  rec.disable();

  const std::string path = ::testing::TempDir() + "obs_fr_reuse.jsonl";
  ASSERT_TRUE(rec.dump(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string last = cat("reuse.t", kThreads - 1);
  std::size_t last_records = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    if (doc->find("name")->as_string() == last) ++last_records;
  }
  EXPECT_EQ(last_records, 2u) << "the last thread's 'B' and 'E'";
}

#if !defined(MLSI_TSAN)
TEST_F(ObsTest, CrashHandlerDumpsFlightRecorder) {
  // The child arms the crash handler exactly like mlsi_serve --flight-rec
  // and aborts mid-span; the parent then validates the JSONL the
  // async-signal-safe dump left behind. SA_RESETHAND + re-raise keeps the
  // abort fatal, which is what EXPECT_DEATH requires.
  const std::string path = ::testing::TempDir() + "obs_fr_crash.jsonl";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        FlightRecorder& rec = FlightRecorder::instance();
        rec.enable();
        if (!rec.set_dump_path(path)) std::_Exit(3);
        support::install_crash_handler(
            [] { FlightRecorder::instance().dump_signal_safe(); });
        TraceSpan wedged("crash.wedged_solve");
        { TraceSpan last("crash.last_words"); }
        std::abort();
      },
      "");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash handler left no dump at " << path;
  bool saw_open_span = false;
  bool saw_closed_span = false;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    const std::string& name = doc->find("name")->as_string();
    if (name == "crash.wedged_solve" &&
        doc->find("ph")->as_string() == "B") {
      saw_open_span = true;  // the still-open span at crash time
    }
    if (name == "crash.last_words" && doc->find("ph")->as_string() == "E") {
      saw_closed_span = true;
    }
  }
  EXPECT_TRUE(saw_open_span);
  EXPECT_TRUE(saw_closed_span);
}
#endif  // !MLSI_TSAN

TEST_F(ObsTest, DisabledPathDoesNotAllocate) {
  // Warm up thread-locals and the lazy monotonic epoch first.
  support::thread_ordinal();
  support::monotonic_us();

  const auto hot_sites = [](int i) {
    TraceSpan span("hot.site");
    TraceSpan labelled("hot.labelled", [i] { return cat("hot.labelled:", i); });
    trace_instant("hot.marker");
    if (trace_enabled()) {
      trace_instant("hot.args", {{"x", json::Value{i}}});
    }
    if (metrics_enabled()) {
      metrics().counter("never").add();
    }
  };
  long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) hot_sites(i);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0)
      << "disabled obs sites must not allocate";

  // With only the recorder on (mlsi_serve's default), spans record their
  // static names and never build a trace label: still no allocation once
  // this thread's ring exists.
  FlightRecorder::instance().enable();
  hot_sites(0);
  before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) hot_sites(i);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0)
      << "recorder-only spans must not allocate";
}

}  // namespace
}  // namespace mlsi::obs
