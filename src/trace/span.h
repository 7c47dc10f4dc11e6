// Causal span tracing with per-layer virtual-time attribution
// (DESIGN.md §4.8).
//
// One resize request ("where did the nanoseconds of this inflate go?")
// becomes a tree of spans: the request root (monitor / balloon /
// virtio-mem backend), per-slice spans, and leaf spans for the layers
// that actually spend the time — llfree state CAS work, EPT unmap runs,
// IOMMU unpin + IOTLB flushes, host-pool refills. Every cost-model
// charge (hv::ChargeTraced / hv::Charge) is attributed to the innermost
// open span on the charging thread, so summing `charge_ns` over a
// request's spans reproduces the cost model's total charge for that
// request exactly (the bench_runner "attribution" section and
// tools/ha_trace_tool build on this closure property).
//
// Identity and propagation: a 64-bit trace id lives in a thread-local
// SpanContext. Roots mint a fresh id (ScopedRoot / RequestSpan::Start);
// async continuations and worker threads re-enter the context with
// ScopedContext before opening child spans. A Span only *arms* when the
// tracer is enabled AND a trace id is in scope — hot paths outside a
// request (workload allocation storms) stay span-free.
//
// Records: spans go to the one tracer (SpanTracer, trace.h), into the
// same per-thread rings as the instant records of HA_TRACE_EVENT. An
// instant takes its VM, trace id and clock from the thread's SpanContext
// and is parented under the innermost open Span.
//
// Clocks: `begin_vns`/`end_vns` come from the per-context virtual clock
// (the owning simulation), falling back to the tracer's time source
// (SpanTracer::SetTimeSource); `begin_wall_ns`/`end_wall_ns` are
// steady_clock wall time, so exporters can show virtual/wall skew.
//
// Compile-out: with -DHYPERALLOC_TRACE=0 Span/ScopedContext/RequestSpan
// collapse to empty types (sizeof == 1, no members, no code) and
// AttributeCharge is a no-op — the same switch that compiles out the
// counter macros.
#pragma once

#include <cstdint>

#include "src/sim/simulation.h"
#include "src/trace/trace.h"

namespace hyperalloc::trace {

// Wall clock (steady), ns since an arbitrary epoch.
uint64_t WallNowNs();

#if HYPERALLOC_TRACE

// The per-thread request context spans propagate through. `clock` is the
// virtual-time source for spans opened under this context (a VM world's
// own simulation in the multi-VM harness).
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  uint32_t vm = 0;
  const sim::Simulation* clock = nullptr;
};

SpanContext& ThreadSpanContext();

// Saves/replaces/restores the thread context — used to re-enter a
// request's context in async slices and to seed worker threads with
// their VM id + virtual clock.
class ScopedContext {
 public:
  explicit ScopedContext(const SpanContext& context)
      : saved_(ThreadSpanContext()) {
    ThreadSpanContext() = context;
  }
  ~ScopedContext() { ThreadSpanContext() = saved_; }

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  SpanContext saved_;
};

// Starts a fresh trace (new trace id, no parent) in the current thread
// context, keeping the context's vm/clock. Used by entry points that are
// not resize requests: install hypercalls, auto-reclaim passes,
// free-page-reporting cycles.
class ScopedRoot {
 public:
  ScopedRoot() : saved_(ThreadSpanContext()) {
    SpanContext& context = ThreadSpanContext();
    context.trace_id =
        SpanTracer::Global().enabled() ? SpanTracer::Global().NewTraceId() : 0;
    context.parent_span = 0;
  }
  ~ScopedRoot() { ThreadSpanContext() = saved_; }

  ScopedRoot(const ScopedRoot&) = delete;
  ScopedRoot& operator=(const ScopedRoot&) = delete;

 private:
  SpanContext saved_;
};

// Joins the trace in scope or, when there is none, starts a fresh one as
// ScopedRoot does: for work that runs both inside traced callers and on
// its own (workload region grow/free, compile job steps).
class ScopedTrace {
 public:
  ScopedTrace() : saved_(ThreadSpanContext()) {
    SpanContext& context = ThreadSpanContext();
    if (context.trace_id == 0 && SpanTracer::Global().enabled()) {
      context.trace_id = SpanTracer::Global().NewTraceId();
      context.parent_span = 0;
    }
  }
  ~ScopedTrace() { ThreadSpanContext() = saved_; }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  SpanContext saved_;
};

// RAII span. Arms only when the tracer is enabled and a trace id is in
// scope; parents itself under the innermost open span on this thread
// (or the context's parent_span when it is the first). Charges made via
// AttributeCharge / hv::ChargeTraced while this span is innermost
// accumulate into charge_ns.
class Span {
 public:
  Span(Layer layer, const char* name) {
    SpanTracer& tracer = SpanTracer::Global();
    const SpanContext& context = ThreadSpanContext();
    if (!tracer.enabled() || context.trace_id == 0) {
      return;
    }
    armed_ = true;
    record_.trace_id = context.trace_id;
    record_.span_id = tracer.NewSpanId();
    record_.vm = context.vm;
    record_.layer = layer;
    record_.name = name;
    record_.begin_vns = VirtualNow();
    record_.begin_wall_ns = WallNowNs();
    Span*& innermost = Innermost();
    record_.parent_id =
        innermost != nullptr ? innermost->record_.span_id
                             : context.parent_span;
    prev_ = innermost;
    innermost = this;
  }

  ~Span() { Close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool armed() const { return armed_; }
  uint64_t id() const { return record_.span_id; }

  void AddFrames(uint64_t frames) { record_.frames += frames; }
  // `frames` must already be counted via AddFrames; this marks how many
  // of them moved as whole 2 MiB units (in base frames).
  void AddHugeFrames(uint64_t frames) { record_.huge_frames += frames; }
  void AddCharge(uint64_t ns) { record_.charge_ns += ns; }
  void AddFault(uint64_t n = 1) { record_.faults += n; }
  void AddRetry(uint64_t n = 1) { record_.retries += n; }

  // Ends the span (idempotent; the destructor calls it). Spans must
  // close LIFO — guaranteed by scoping.
  void Close() {
    if (!armed_ || closed_) {
      return;
    }
    closed_ = true;
    record_.end_vns = VirtualNow();
    record_.end_wall_ns = WallNowNs();
    Innermost() = prev_;
    SpanTracer::Global().Emit(record_);
  }

  // The innermost open span on this thread (charge-attribution target).
  static Span* Current() { return Innermost(); }

 private:
  static Span*& Innermost();

  static uint64_t VirtualNow() {
    const sim::Simulation* clock = ThreadSpanContext().clock;
    return clock != nullptr ? clock->now() : SpanTracer::Global().Now();
  }

  SpanRecord record_;
  Span* prev_ = nullptr;
  bool armed_ = false;
  bool closed_ = false;
};

// Attributes `ns` of cost-model charge to the innermost open span on
// this thread (no-op outside any span). Called by hv::ChargeTraced.
inline void AttributeCharge(uint64_t ns) {
  Span* span = Span::Current();
  if (span != nullptr) {
    span->AddCharge(ns);
  }
}

// Root span for an asynchronous resize request: Start() at Request(),
// Finish() when the request's `done` fires — possibly many event-loop
// slices later, which rules out plain RAII. Between the two, each slice
// re-enters the request with `ScopedContext sc(request_span.context())`
// so its spans join the tree.
class RequestSpan {
 public:
  void Start(const char* name) {
    if (active_) {
      return;
    }
    // The VM and clock are kept even while spans are off: the request's
    // slices re-enter them, and their instant records read them.
    const SpanContext& context = ThreadSpanContext();
    record_ = SpanRecord{};
    record_.vm = context.vm;
    clock_ = context.clock;
    SpanTracer& tracer = SpanTracer::Global();
    if (!tracer.enabled()) {
      return;
    }
    active_ = true;
    record_.trace_id = tracer.NewTraceId();
    record_.span_id = tracer.NewSpanId();
    record_.layer = Layer::kRequest;
    record_.name = name;
    record_.begin_vns = clock_ != nullptr ? clock_->now() : tracer.Now();
    record_.begin_wall_ns = WallNowNs();
  }

  void AddFrames(uint64_t frames) {
    if (active_) {
      record_.frames += frames;
    }
  }

  void AddHugeFrames(uint64_t frames) {
    if (active_) {
      record_.huge_frames += frames;
    }
  }

  void AddFault(uint64_t n = 1) {
    if (active_) {
      record_.faults += n;
    }
  }

  void AddRetry(uint64_t n = 1) {
    if (active_) {
      record_.retries += n;
    }
  }

  void Finish() {
    if (!active_) {
      return;
    }
    active_ = false;
    record_.end_vns =
        clock_ != nullptr ? clock_->now() : SpanTracer::Global().Now();
    record_.end_wall_ns = WallNowNs();
    SpanTracer::Global().Emit(record_);
  }

  bool active() const { return active_; }

  // The context request slices re-enter: children of the root span, on
  // the clock the request started on.
  SpanContext context() const {
    return SpanContext{.trace_id = active_ ? record_.trace_id : 0,
                       .parent_span = active_ ? record_.span_id : 0,
                       .vm = record_.vm,
                       .clock = clock_};
  }

 private:
  SpanRecord record_;
  const sim::Simulation* clock_ = nullptr;
  bool active_ = false;
};

#else  // !HYPERALLOC_TRACE

// Empty stand-ins: same API surface, no state, no code. The unit test
// static_asserts that these stay size <= 1.
struct SpanContext {};

inline SpanContext& ThreadSpanContext() {
  static SpanContext context;
  return context;
}

class ScopedContext {
 public:
  explicit ScopedContext(const SpanContext&) {}
};

// User-provided constructors and destructors keep -Wunused-variable
// quiet about RAII locals of these otherwise empty types.
class ScopedRoot {
 public:
  ScopedRoot() {}
  ~ScopedRoot() {}
};

class ScopedTrace {
 public:
  ScopedTrace() {}
  ~ScopedTrace() {}
};

class Span {
 public:
  Span(Layer, const char*) {}
  bool armed() const { return false; }
  uint64_t id() const { return 0; }
  void AddFrames(uint64_t) {}
  void AddHugeFrames(uint64_t) {}
  void AddCharge(uint64_t) {}
  void AddFault(uint64_t = 1) {}
  void AddRetry(uint64_t = 1) {}
  void Close() {}
  static Span* Current() { return nullptr; }
};

inline void AttributeCharge(uint64_t) {}

class RequestSpan {
 public:
  void Start(const char*) {}
  void AddFrames(uint64_t) {}
  void AddHugeFrames(uint64_t) {}
  void AddFault(uint64_t = 1) {}
  void AddRetry(uint64_t = 1) {}
  void Finish() {}
  bool active() const { return false; }
  SpanContext context() const { return {}; }
};

#endif  // HYPERALLOC_TRACE

}  // namespace hyperalloc::trace
