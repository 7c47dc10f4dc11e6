// Tests for the observability layer: lock-free counter/histogram registry
// (correctness under concurrent writers) and the tracer's instant records
// (virtual-time ordering, thread-exit retirement, exporters).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/hv/cost_model.h"
#include "src/sim/simulation.h"
#include "src/trace/export.h"
#include "src/trace/span.h"
#include "src/trace/trace.h"

namespace hyperalloc::trace {
namespace {

constexpr size_t kDefaultCapacity = 1 << 16;  // mirrors trace.cc

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CounterRegistry::Global().ResetForTest();
    SpanTracer::Global().ResetForTest();
    SpanTracer::Global().SetEnabled(false);
    SpanTracer::Global().SetEventsEnabled(false);
    SpanTracer::Global().SetTimeSource(nullptr);
  }

  void TearDown() override {
    SpanTracer::Global().SetEnabled(false);
    SpanTracer::Global().SetEventsEnabled(false);
    SpanTracer::Global().SetTimeSource(nullptr);
    SpanTracer::Global().SetCapacity(kDefaultCapacity);
    SpanTracer::Global().Drain();
  }
};

[[maybe_unused]] uint64_t CounterValue(const std::string& name) {
  for (const auto& [n, v] : CounterRegistry::Global().Counters()) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

TEST_F(TraceTest, RegistryReturnsStableInstances) {
  Counter& a = CounterRegistry::Global().FindOrCreate("test.same");
  Counter& b = CounterRegistry::Global().FindOrCreate("test.same");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = CounterRegistry::Global().FindOrCreateHistogram("test.same");
  Histogram& h2 = CounterRegistry::Global().FindOrCreateHistogram("test.same");
  EXPECT_EQ(&h1, &h2);  // counters and histograms are separate namespaces
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);
}

TEST_F(TraceTest, CountersExactUnderEightThreads) {
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  Counter& counter = CounterRegistry::Global().FindOrCreate("test.mt");
  Histogram& hist =
      CounterRegistry::Global().FindOrCreateHistogram("test.mt_hist");
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add(1);
        HA_COUNT("test.mt_macro");  // no-op when HYPERALLOC_TRACE=0
        hist.Record(i % 7);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
#if HYPERALLOC_TRACE
  EXPECT_EQ(CounterValue("test.mt_macro"), kThreads * kPerThread);
#endif
  const Histogram::Snapshot snap = hist.Read();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // sum of i % 7 over 100000 iterations, times 8 threads.
  uint64_t per_thread_sum = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) {
    per_thread_sum += i % 7;
  }
  EXPECT_EQ(snap.sum, kThreads * per_thread_sum);
}

TEST_F(TraceTest, HistogramBuckets) {
  Histogram& hist =
      CounterRegistry::Global().FindOrCreateHistogram("test.buckets");
  hist.Record(0);     // bucket 0
  hist.Record(1);     // bucket 1: [1, 2)
  hist.Record(2);     // bucket 2: [2, 4)
  hist.Record(3);     // bucket 2
  hist.Record(1024);  // bucket 11: [1024, 2048)
  const Histogram::Snapshot snap = hist.Read();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1030u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 206.0);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[11], 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(11), 1024u);
}

#if HYPERALLOC_TRACE
TEST_F(TraceTest, MacroDeltaAndHistogram) {
  HA_COUNT_N("test.delta", 5);
  HA_COUNT_N("test.delta", 7);
  EXPECT_EQ(CounterValue("test.delta"), 12u);
  HA_HIST("test.hist_macro", 100);
  for (const auto& [name, snap] : CounterRegistry::Global().Histograms()) {
    if (name == "test.hist_macro") {
      EXPECT_EQ(snap.count, 1u);
      EXPECT_EQ(snap.sum, 100u);
    }
  }
}
#endif  // HYPERALLOC_TRACE

TEST_F(TraceTest, EventsOrderedByVirtualTime) {
  sim::Simulation sim;
  SpanTracer& tracer = SpanTracer::Global();
  tracer.SetTimeSource(&sim);
  tracer.SetEventsEnabled(true);
  tracer.EmitInstant(Category::kLLFree, Op::kGet, 10, 0);
  tracer.EmitInstant(Category::kLLFree, Op::kPut, 10, 0);  // same time
  sim.AdvanceClock(500);
  tracer.EmitInstant(Category::kMonitor, Op::kReclaimHard, 3, 1);
  sim.AdvanceClock(500);
  tracer.EmitInstant(Category::kEpt, Op::kUnmap, 7, 512);

  const std::vector<SpanRecord> events = tracer.Drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].begin_vns, 0u);
  EXPECT_EQ(events[0].op, Op::kGet);
  EXPECT_EQ(events[1].op, Op::kPut);  // seq breaks the t=0 tie
  EXPECT_EQ(events[2].begin_vns, 500u);
  EXPECT_EQ(events[2].category, Category::kMonitor);
  EXPECT_EQ(events[3].begin_vns, 1000u);
  EXPECT_EQ(events[3].arg0, 7u);
  EXPECT_EQ(events[3].arg1, 512u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].begin_vns, events[i].begin_vns);
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_STREQ(Name(events[3].category), "ept");
  EXPECT_STREQ(Name(events[3].op), "unmap");
}

TEST_F(TraceTest, SeqGivesTotalOrderAcrossThreads) {
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kPerThread = 1000;
  SpanTracer& tracer = SpanTracer::Global();
  tracer.SetEventsEnabled(true);  // no time source: all events at t=0
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        tracer.EmitInstant(Category::kLLFree, Op::kGet, t, i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const std::vector<SpanRecord> events = tracer.Drain();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  // The global seq is a total order; the drain must respect it, and each
  // thread's own events must appear in emission order within it.
  std::vector<uint64_t> next(kThreads, 0);
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
    const uint64_t thread = events[i].arg0;
    ASSERT_LT(thread, kThreads);
    EXPECT_EQ(events[i].arg1, next[thread]++);
  }
  EXPECT_EQ(tracer.dropped_spans(), 0u);
}

TEST_F(TraceTest, ThreadExitRetiresBufferedEvents) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.SetEventsEnabled(true);
  std::thread worker([&tracer] {
    for (uint64_t i = 0; i < 5; ++i) {
      tracer.EmitInstant(Category::kBalloon, Op::kInflate, i, 0);
    }
  });
  worker.join();  // thread gone; its events moved to the retired list
  const std::vector<SpanRecord> events = tracer.Drain();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[4].arg0, 4u);
}

// Threads started one after another (the fleet engine starts its workers
// per pass) reuse the drained rings of exited threads: each starts empty,
// with its own full capacity and a zero drop count.
TEST_F(TraceTest, LaterThreadsReuseRetiredRings) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.SetCapacity(4);
  tracer.SetEventsEnabled(true);
  for (uint64_t pass = 0; pass < 3; ++pass) {
    std::thread worker([&tracer, pass] {
      // Pass 0 overflows its ring by two; later passes fit.
      for (uint64_t i = 0; i < (pass == 0 ? 6u : 3u); ++i) {
        tracer.EmitInstant(Category::kBalloon, Op::kInflate, pass, i);
      }
    });
    worker.join();
  }
  const std::vector<SpanRecord> events = tracer.Drain();
  ASSERT_EQ(events.size(), 4u + 3u + 3u);
  EXPECT_EQ(tracer.dropped_spans(), 2u);
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t pass = i < 4 ? 0 : (i < 7 ? 1 : 2);
    EXPECT_EQ(events[i].arg0, pass) << i;
    EXPECT_EQ(events[i].arg1, pass == 0 ? i : (i - 4) % 3) << i;
  }
}

TEST_F(TraceTest, DisabledTracerEmitsNothing) {
  EXPECT_FALSE(SpanTracer::Global().events_enabled());
  HA_TRACE_EVENT(Category::kLLFree, Op::kGet, 1, 2);
  EXPECT_TRUE(SpanTracer::Global().Drain().empty());
#if HYPERALLOC_TRACE
  // Counters stay live even while event tracing is off.
  HA_COUNT("test.while_disabled");
  EXPECT_EQ(CounterValue("test.while_disabled"), 1u);
#endif
}

TEST_F(TraceTest, ChargeTracedAdvancesClockAndRecords) {
  sim::Simulation sim;
  EXPECT_EQ(hv::ChargeTraced(&sim, "test.charge_ns", 2500), 2500u);
  EXPECT_EQ(sim.now(), 2500u);
  for (const auto& [name, snap] : CounterRegistry::Global().Histograms()) {
    if (name == "test.charge_ns") {
      EXPECT_EQ(snap.count, 1u);
      EXPECT_EQ(snap.sum, 2500u);
    }
  }
}

TEST_F(TraceTest, JsonExportHoldsCountersHistogramsAndEvents) {
  sim::Simulation sim;
  SpanTracer& tracer = SpanTracer::Global();
  tracer.SetTimeSource(&sim);
  tracer.SetEventsEnabled(true);
  CounterRegistry::Global().FindOrCreate("test.json_counter").Add(42);
  CounterRegistry::Global().FindOrCreateHistogram("test.json_hist").Record(8);
  sim.AdvanceClock(123);
  tracer.EmitInstant(Category::kMonitor, Op::kMadvise, 5, 2);

  const std::string path = ::testing::TempDir() + "/trace_test.json";
  WriteTraceArtifact(path);
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"test.json_counter\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"monitor\""), std::string::npos);
  EXPECT_NE(json.find("\"madvise\""), std::string::npos);
  EXPECT_NE(json.find("[123,\"monitor\",\"madvise\",5,2]"), std::string::npos)
      << json;
  EXPECT_TRUE(tracer.Drain().empty());  // the export drained the tracer
}

TEST_F(TraceTest, CsvArtifactWritesEventsAndCounters) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.SetEventsEnabled(true);
  CounterRegistry::Global().FindOrCreate("test.csv_counter").Add(1);
  tracer.EmitInstant(Category::kIommu, Op::kIotlbFlush, 9, 0);

  const std::string path = ::testing::TempDir() + "/trace_test.csv";
  WriteTraceArtifact(path);
  const std::string events_csv = ReadFile(path);
  EXPECT_NE(events_csv.find("time_ns,category,op,arg0,arg1"),
            std::string::npos);
  EXPECT_NE(events_csv.find("iommu,iotlb_flush,9,0"), std::string::npos);
  const std::string counters_csv = ReadFile(path + ".counters.csv");
  EXPECT_NE(counters_csv.find("test.csv_counter,1"), std::string::npos);
}

#if HYPERALLOC_TRACE
// One drain feeds every file of the artifact set: the JSON document holds
// the span as well as the instant recorded under it, and Perfetto shows
// both.
TEST_F(TraceTest, JsonArtifactHoldsSpansAndEvents) {
  sim::Simulation sim;
  SpanTracer& tracer = SpanTracer::Global();
  tracer.SetTimeSource(&sim);
  tracer.SetEnabled(true);
  tracer.SetEventsEnabled(true);
  uint64_t span_id = 0;
  {
    ScopedRoot root;
    Span span(Layer::kEpt, "ept.unmap_run");
    span_id = span.id();
    sim.AdvanceClock(40);
    HA_TRACE_EVENT(Category::kEpt, Op::kUnmap, 7, 1);
    sim.AdvanceClock(60);
  }

  const std::string path = ::testing::TempDir() + "/trace_test_both.json";
  WriteTraceArtifact(path);
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"ept.unmap_run\",0,100,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("[40,\"ept\",\"unmap\",7,1]"), std::string::npos)
      << json;
  const std::string spans_csv = ReadFile(path + ".spans.csv");
  EXPECT_NE(spans_csv.find(",ept,ept.unmap_run,0,100,"), std::string::npos)
      << spans_csv;
  EXPECT_NE(spans_csv.find(",0," + std::to_string(span_id) +
                           ",0,ept,unmap,40,40,"),
            std::string::npos)
      << spans_csv;
  const std::string perfetto = ReadFile(path + ".perfetto.json");
  EXPECT_NE(perfetto.find("\"ph\":\"X\""), std::string::npos) << perfetto;
  EXPECT_NE(perfetto.find("\"name\":\"unmap\",\"cat\":\"ept\",\"ph\":\"i\""),
            std::string::npos)
      << perfetto;
}
#endif  // HYPERALLOC_TRACE

// Regression: "a.b" and "a_b" both mangle to "hyperalloc_a_b"; without
// disambiguation one sample silently overwrites the other in the
// exposition. Collision groups get a stable per-name suffix.
TEST(PrometheusNameMapTest, CollisionsGetStableSuffixes) {
  const std::vector<std::string> names = {"pool.get", "pool_get",
                                          "monitor.resize"};
  const std::map<std::string, std::string> map = PrometheusNameMap(names);
  ASSERT_EQ(map.size(), 3u);
  // The unambiguous name keeps the plain mangled form.
  EXPECT_EQ(map.at("monitor.resize"), "hyperalloc_monitor_resize");
  // Both collision-group members are suffixed (neither silently claims
  // the plain form) and stay distinct.
  EXPECT_NE(map.at("pool.get"), map.at("pool_get"));
  EXPECT_NE(map.at("pool.get"), "hyperalloc_pool_get");
  EXPECT_NE(map.at("pool_get"), "hyperalloc_pool_get");
  EXPECT_EQ(map.at("pool.get").rfind("hyperalloc_pool_get_x", 0), 0u)
      << map.at("pool.get");
}

TEST(PrometheusNameMapTest, SuffixIndependentOfRegistrationOrder) {
  // A name's disambiguated form is a pure function of the name itself:
  // permuting or growing the input set never changes an existing form.
  const std::map<std::string, std::string> forward =
      PrometheusNameMap({"a.b", "a_b"});
  const std::map<std::string, std::string> reversed =
      PrometheusNameMap({"a_b", "a.b"});
  EXPECT_EQ(forward.at("a.b"), reversed.at("a.b"));
  EXPECT_EQ(forward.at("a_b"), reversed.at("a_b"));
  const std::map<std::string, std::string> grown =
      PrometheusNameMap({"a.b", "a_b", "other.metric"});
  EXPECT_EQ(forward.at("a.b"), grown.at("a.b"));
  EXPECT_EQ(grown.at("other.metric"), "hyperalloc_other_metric");
}

TEST(PrometheusNameMapTest, DuplicateInputsAndNoCollisions) {
  const std::map<std::string, std::string> map =
      PrometheusNameMap({"x.y", "x.y", "plain"});
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at("x.y"), "hyperalloc_x_y");
  EXPECT_EQ(map.at("plain"), "hyperalloc_plain");
}

}  // namespace
}  // namespace hyperalloc::trace
