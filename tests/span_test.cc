// Unit tests for the causal span tracer (src/trace/span.h): arming,
// nesting/parenting, cross-thread trace-id propagation, charge
// attribution and closure, ring overflow accounting, exporter golden
// round-trips, and the compile-out contract.
#include "src/trace/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"
#include "src/hv/cost_model.h"
#include "src/sim/simulation.h"
#include "src/trace/export.h"

namespace hyperalloc::trace {
namespace {

#if HYPERALLOC_TRACE

class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SpanTracer::Global().SetCapacity(1 << 12);  // also clears the rings
    SpanTracer::Global().ResetForTest();
    SpanTracer::Global().SetEnabled(true);
  }

  void TearDown() override {
    SpanTracer::Global().SetEnabled(false);
    SpanTracer::Global().Drain();
  }

  static const SpanRecord* Find(const std::vector<SpanRecord>& spans,
                                const std::string& name) {
    for (const SpanRecord& span : spans) {
      if (name == span.name) {
        return &span;
      }
    }
    return nullptr;
  }
};

TEST_F(SpanTest, DisarmedWithoutTraceIdOrWhenDisabled) {
  {
    // Enabled, but no trace id in scope (the workload-hot-path case).
    Span span(Layer::kLLFree, "test.no_context");
    EXPECT_FALSE(span.armed());
  }
  {
    ScopedRoot root;
    SpanTracer::Global().SetEnabled(false);
    // Tracer disabled mid-request: spans disarm even with an id in scope.
    Span span(Layer::kLLFree, "test.disabled");
    EXPECT_FALSE(span.armed());
    SpanTracer::Global().SetEnabled(true);
  }
  EXPECT_TRUE(SpanTracer::Global().Drain().empty());
}

TEST_F(SpanTest, NestingParentsAndVirtualClock) {
  sim::Simulation sim;
  SpanContext context;
  context.vm = 7;
  context.clock = &sim;
  ScopedContext scoped(context);
  ScopedRoot root;
  {
    Span outer(Layer::kMonitor, "test.outer");
    sim.AdvanceClock(100);
    {
      Span inner(Layer::kLLFree, "test.inner");
      EXPECT_EQ(Span::Current(), &inner);
      sim.AdvanceClock(40);
    }
    EXPECT_EQ(Span::Current(), &outer);
    sim.AdvanceClock(10);
  }
  EXPECT_EQ(Span::Current(), nullptr);

  const std::vector<SpanRecord> spans = SpanTracer::Global().Drain();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* outer = Find(spans, "test.outer");
  const SpanRecord* inner = Find(spans, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->trace_id, inner->trace_id);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(outer->vm, 7u);
  EXPECT_EQ(inner->vm, 7u);
  EXPECT_EQ(outer->virtual_ns(), 150u);
  EXPECT_EQ(inner->begin_vns, 100u);
  EXPECT_EQ(inner->virtual_ns(), 40u);
  // Drain sorts by (begin_vns, seq): outer began first.
  EXPECT_EQ(std::string(spans[0].name), "test.outer");
}

TEST_F(SpanTest, ChargeAttributionAndClosure) {
  sim::Simulation sim;
  SpanContext context;
  context.clock = &sim;
  ScopedContext scoped(context);
  ScopedRoot root;
  {
    Span request(Layer::kRequest, "test.request");
    {
      Span llfree(Layer::kLLFree, "test.llfree");
      hv::Charge(&sim, 388);           // innermost: llfree
      hv::ChargeTraced(&sim, "span_test.reclaim_ns", 229);
    }
    Span ept(Layer::kEpt, "test.ept");
    Span guest(Layer::kGuest, "test.guest");
    // Interleaved loop: explicit-target charges bypass the innermost
    // rule, so two alternating layers can share one slice.
    hv::ChargeSpan(&sim, &ept, 5200);
    hv::ChargeSpan(&sim, &guest, 300);
  }
  const std::vector<SpanRecord> spans = SpanTracer::Global().Drain();
  ASSERT_EQ(spans.size(), 4u);
  const SpanRecord* request = Find(spans, "test.request");
  const SpanRecord* llfree = Find(spans, "test.llfree");
  const SpanRecord* ept = Find(spans, "test.ept");
  const SpanRecord* guest = Find(spans, "test.guest");
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(llfree->charge_ns, 388u + 229u);
  EXPECT_EQ(ept->charge_ns, 5200u);
  EXPECT_EQ(guest->charge_ns, 300u);
  EXPECT_EQ(request->charge_ns, 0u);  // all time is in the children
  // Closure: every clock advance went through a Charge* helper inside
  // the tree, so the charges sum to the root's virtual duration.
  uint64_t charged = 0;
  for (const SpanRecord& span : spans) {
    charged += span.charge_ns;
  }
  EXPECT_EQ(charged, request->virtual_ns());
}

TEST_F(SpanTest, BuddyMonitorRequestChargesClose) {
  // The HyperAlloc monitor on a buddy guest charges its guest-mediated
  // hard reclaim, hypercall, unmap and guest-side return inside spans, so
  // each request's charges sum to its root's virtual duration.
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(kGiB));
  guest::GuestConfig config;
  config.memory_bytes = 256 * kMiB;
  config.dma32_bytes = 64 * kMiB;
  config.vfio = true;
  ASSERT_EQ(config.allocator, guest::AllocatorKind::kBuddy);
  guest::GuestVm vm(&sim, &host, config);
  core::HyperAllocMonitor monitor(&vm, core::HyperAllocConfig{});
  SpanContext context;
  context.clock = &sim;
  ScopedContext scoped(context);
  std::vector<FrameId> frames;
  for (int i = 0; i < 32; ++i) {
    const Result<FrameId> r = vm.Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok());
    vm.Touch(*r, kFramesPerHuge);
    frames.push_back(*r);
  }
  for (const FrameId f : frames) {
    vm.Free(f, kHugeOrder);
  }
  SpanTracer::Global().Drain();  // drop the install roots

  for (const uint64_t target : {64 * kMiB, 256 * kMiB}) {
    bool done = false;
    monitor.Request({.target_bytes = target,
                     .done = [&] { done = true; },
                     .on_outcome = {}});
    while (!done) {
      ASSERT_TRUE(sim.Step());
    }
    ASSERT_EQ(monitor.limit_bytes(), target);
  }
  const std::vector<SpanRecord> spans = SpanTracer::Global().Drain();
  const SpanRecord* reclaim = Find(spans, "guest.reclaim_huge");
  const SpanRecord* ret = Find(spans, "guest.return_huge");
  ASSERT_NE(reclaim, nullptr);
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(reclaim->layer, Layer::kGuest);
  EXPECT_GT(reclaim->charge_ns, 0u);
  EXPECT_GT(ret->charge_ns, 0u);
  unsigned roots = 0;
  for (const SpanRecord& root : spans) {
    if (root.parent_id != 0) {
      continue;
    }
    ASSERT_EQ(root.layer, Layer::kRequest);
    ++roots;
    uint64_t charged = 0;
    for (const SpanRecord& span : spans) {
      charged += span.trace_id == root.trace_id ? span.charge_ns : 0;
    }
    EXPECT_GT(root.virtual_ns(), 0u);
    EXPECT_EQ(charged, root.virtual_ns()) << root.name;
  }
  EXPECT_EQ(roots, 2u);
}

TEST_F(SpanTest, RequestSpanPropagatesAcrossThreads) {
  sim::Simulation sim;
  SpanContext vm_context;
  vm_context.vm = 3;
  vm_context.clock = &sim;
  ScopedContext scoped(vm_context);

  RequestSpan request;
  EXPECT_FALSE(request.active());
  EXPECT_EQ(request.context().trace_id, 0u);  // inactive: children disarm
  request.Start("request.inflate");
  ASSERT_TRUE(request.active());
  request.AddFrames(512);

  // A worker thread re-enters the request context — as the multi-VM
  // harness worker threads and async event-loop slices do.
  std::thread worker([&request, &sim] {
    ScopedContext slice(request.context());
    Span span(Layer::kEpt, "test.worker_unmap");
    ASSERT_TRUE(span.armed());
    hv::Charge(&sim, 1500);
  });
  worker.join();
  request.Finish();
  EXPECT_FALSE(request.active());
  request.Finish();  // idempotent

  const std::vector<SpanRecord> spans = SpanTracer::Global().Drain();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* root = Find(spans, "request.inflate");
  const SpanRecord* child = Find(spans, "test.worker_unmap");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(root->frames, 512u);
  EXPECT_EQ(child->trace_id, root->trace_id);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_EQ(child->vm, 3u);
  EXPECT_EQ(child->charge_ns, 1500u);
  EXPECT_EQ(root->virtual_ns(), 1500u);  // same virtual clock
}

TEST_F(SpanTest, FullRingCountsDroppedSpans) {
  SpanTracer::Global().SetCapacity(4);
  ScopedRoot root;
  for (int i = 0; i < 10; ++i) {
    Span span(Layer::kHostPool, "test.flood");
  }
  EXPECT_GT(SpanTracer::Global().dropped_spans(), 0u);
  EXPECT_LE(SpanTracer::Global().Drain().size(), 4u);
  SpanTracer::Global().SetCapacity(1 << 12);
}

std::string Slurp(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::vector<SpanRecord> EmitGoldenSpans(sim::Simulation* sim) {
  SpanContext context;
  context.vm = 2;
  context.clock = sim;
  ScopedContext scoped(context);
  ScopedRoot root;
  {
    Span outer(Layer::kMonitor, "golden.shrink");
    outer.AddFrames(512);
    sim->AdvanceClock(250);
    Span inner(Layer::kEpt, "golden.unmap");
    hv::Charge(sim, 750);
    inner.AddFrames(512);
    inner.AddHugeFrames(512);
  }
  return SpanTracer::Global().Drain();
}

TEST_F(SpanTest, SpansCsvGoldenRoundTrip) {
  sim::Simulation sim;
  const std::vector<SpanRecord> spans = EmitGoldenSpans(&sim);
  ASSERT_EQ(spans.size(), 2u);

  const std::string path = ::testing::TempDir() + "/golden.spans.csv";
  WriteSpansCsv(path, spans);
  std::ifstream file(path);
  std::string header;
  ASSERT_TRUE(std::getline(file, header));
  EXPECT_EQ(header,
            "trace_id,span_id,parent_id,vm,layer,name,begin_vns,end_vns,"
            "charge_ns,frames,huge_frames,faults,retries,begin_wall_ns,"
            "end_wall_ns");
  // Round-trip: each record reappears field-for-field in file order.
  for (const SpanRecord& span : spans) {
    std::string line;
    ASSERT_TRUE(std::getline(file, line));
    char expected[256];
    std::snprintf(
        expected, sizeof(expected),
        "%llu,%llu,%llu,%u,%s,%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,",
        static_cast<unsigned long long>(span.trace_id),
        static_cast<unsigned long long>(span.span_id),
        static_cast<unsigned long long>(span.parent_id), span.vm,
        Name(span.layer), span.name,
        static_cast<unsigned long long>(span.begin_vns),
        static_cast<unsigned long long>(span.end_vns),
        static_cast<unsigned long long>(span.charge_ns),
        static_cast<unsigned long long>(span.frames),
        static_cast<unsigned long long>(span.huge_frames),
        static_cast<unsigned long long>(span.faults),
        static_cast<unsigned long long>(span.retries));
    EXPECT_EQ(line.rfind(expected, 0), 0u) << line << " vs " << expected;
  }
  std::string extra;
  EXPECT_FALSE(std::getline(file, extra));
}

TEST_F(SpanTest, PerfettoJsonGolden) {
  sim::Simulation sim;
  const std::vector<SpanRecord> spans = EmitGoldenSpans(&sim);
  const SpanRecord* inner = Find(spans, "golden.unmap");
  ASSERT_NE(inner, nullptr);

  const std::string path = ::testing::TempDir() + "/golden.perfetto.json";
  WritePerfettoJson(path, spans);
  const std::string json = Slurp(path);
  // Track metadata: pid = vm, tid = layer.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"vm2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ept\""), std::string::npos);
  // Complete event for the inner span: begins at 250 virtual ns =
  // 0.250 µs, lasts 750 ns = 0.750 µs.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"golden.unmap\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.250"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.750"), std::string::npos);
  EXPECT_NE(json.find("\"charge_ns\":750"), std::string::npos);
  EXPECT_NE(json.find("\"frames\":512"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  const char parent[] = "\"parent_id\":";
  EXPECT_NE(json.find(parent + std::to_string(inner->parent_id)),
            std::string::npos);
}

TEST_F(SpanTest, PrometheusGolden) {
  sim::Simulation sim;
  // One histogram sample (via ChargeTraced) and the golden spans.
  {
    SpanContext context;
    context.clock = &sim;
    ScopedContext scoped(context);
    ScopedRoot root;
    Span span(Layer::kLLFree, "golden.reclaim");
    hv::ChargeTraced(&sim, "span_test.golden_ns", 1000);
  }
  SpanTracer::Global().Drain();

  const std::string path = ::testing::TempDir() + "/golden.prom";
  WritePrometheus(path);
  const std::string prom = Slurp(path);
  EXPECT_NE(prom.find("# TYPE hyperalloc_span_test_golden_ns histogram"),
            std::string::npos);
  // 1000 falls in the [512, 1024) power-of-2 bucket: le="1023".
  EXPECT_NE(prom.find("hyperalloc_span_test_golden_ns_bucket{le=\"1023\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("hyperalloc_span_test_golden_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("hyperalloc_span_test_golden_ns_sum 1000"),
            std::string::npos);
  EXPECT_NE(prom.find("hyperalloc_span_test_golden_ns_count 1"),
            std::string::npos);
}

#else  // !HYPERALLOC_TRACE

// The compile-out contract: the instrumentation types carry no state and
// no code — a Span on a hot path costs nothing when tracing is compiled
// out.
static_assert(sizeof(Span) <= 1, "Span must compile out to an empty type");
static_assert(sizeof(RequestSpan) <= 1,
              "RequestSpan must compile out to an empty type");
static_assert(sizeof(ScopedRoot) <= 1,
              "ScopedRoot must compile out to an empty type");
static_assert(sizeof(ScopedTrace) <= 1,
              "ScopedTrace must compile out to an empty type");
static_assert(sizeof(SpanContext) <= 1,
              "SpanContext must compile out to an empty type");

TEST(SpanCompileOut, EverythingIsInert) {
  Span span(Layer::kLLFree, "test.compiled_out");
  span.AddFrames(100);
  span.AddCharge(100);
  EXPECT_FALSE(span.armed());
  EXPECT_EQ(Span::Current(), nullptr);
  AttributeCharge(1000);

  RequestSpan request;
  request.Start("request.inflate");
  EXPECT_FALSE(request.active());
  request.Finish();

  // The always-compiled sink still works (exporters link either way),
  // it just never receives spans from the inert instrumentation.
  SpanTracer::Global().SetEnabled(true);
  EXPECT_TRUE(SpanTracer::Global().Drain().empty());
  SpanTracer::Global().SetEnabled(false);
}

#endif  // HYPERALLOC_TRACE

}  // namespace
}  // namespace hyperalloc::trace
