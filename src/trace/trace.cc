#include "src/trace/trace.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "src/trace/span.h"
#include "src/trace/span_ring.h"

namespace hyperalloc::trace {

unsigned ThreadShardIndex() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

// ----------------------------------------------------------------------
// CounterRegistry
// ----------------------------------------------------------------------

struct CounterRegistry::Impl {
  mutable std::mutex mu;
  // std::map: stable addresses for the cached references and sorted
  // iteration for the exporters.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

CounterRegistry& CounterRegistry::Global() {
  // Leaked singleton: counters may be touched from thread_local
  // destructors during shutdown.
  static CounterRegistry* global = new CounterRegistry;
  return *global;
}

CounterRegistry::Impl* CounterRegistry::impl() {
  static Impl* impl = new Impl;
  return impl;
}

const CounterRegistry::Impl* CounterRegistry::impl() const {
  return const_cast<CounterRegistry*>(this)->impl();
}

Counter& CounterRegistry::FindOrCreate(std::string_view name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->counters.find(name);
  if (it == i->counters.end()) {
    it = i->counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& CounterRegistry::FindOrCreateHistogram(std::string_view name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->histograms.find(name);
  if (it == i->histograms.end()) {
    it = i->histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, uint64_t>> CounterRegistry::Counters()
    const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(i->counters.size());
  for (const auto& [name, counter] : i->counters) {
    out.emplace_back(name, counter->Value());
  }
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
CounterRegistry::Histograms() const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(i->histograms.size());
  for (const auto& [name, histogram] : i->histograms) {
    out.emplace_back(name, histogram->Read());
  }
  return out;
}

void CounterRegistry::ResetForTest() {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  for (auto& [name, counter] : i->counters) {
    counter->Reset();
  }
  for (auto& [name, histogram] : i->histograms) {
    histogram->Reset();
  }
}

// ----------------------------------------------------------------------
// Tracing
// ----------------------------------------------------------------------

const char* Name(Category category) {
  switch (category) {
    case Category::kLLFree:
      return "llfree";
    case Category::kGuest:
      return "guest";
    case Category::kEpt:
      return "ept";
    case Category::kIommu:
      return "iommu";
    case Category::kBalloon:
      return "balloon";
    case Category::kVmem:
      return "vmem";
    case Category::kMonitor:
      return "monitor";
    case Category::kState:
      return "state";
    case Category::kFault:
      return "fault";
    case Category::kTelemetry:
      return "telemetry";
  }
  return "?";
}

const char* Name(Op op) {
  switch (op) {
    case Op::kGet:
      return "get";
    case Op::kGetFail:
      return "get_fail";
    case Op::kPut:
      return "put";
    case Op::kReserveTree:
      return "reserve_tree";
    case Op::kSteal:
      return "steal";
    case Op::kEvictedSet:
      return "evicted_set";
    case Op::kEvictedClear:
      return "evicted_clear";
    case Op::kReclaimSoft:
      return "reclaim_soft";
    case Op::kReclaimHard:
      return "reclaim_hard";
    case Op::kReturn:
      return "return";
    case Op::kInstall:
      return "install";
    case Op::kMap:
      return "map";
    case Op::kUnmap:
      return "unmap";
    case Op::kIotlbFlush:
      return "iotlb_flush";
    case Op::kFault4k:
      return "fault_4k";
    case Op::kFault2m:
      return "fault_2m";
    case Op::kInflate:
      return "inflate";
    case Op::kDeflate:
      return "deflate";
    case Op::kMadvise:
      return "madvise";
    case Op::kHypercall:
      return "hypercall";
    case Op::kTransition:
      return "transition";
    case Op::kScan:
      return "scan";
    case Op::kInject:
      return "inject";
    case Op::kRetry:
      return "retry";
    case Op::kRollback:
      return "rollback";
    case Op::kQuarantine:
      return "quarantine";
    case Op::kTimeout:
      return "timeout";
    case Op::kAlert:
      return "alert";
    case Op::kFlightDump:
      return "flight_dump";
  }
  return "?";
}

const char* Name(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "request";
    case Layer::kMonitor:
      return "monitor";
    case Layer::kBackend:
      return "backend";
    case Layer::kGuest:
      return "guest";
    case Layer::kLLFree:
      return "llfree";
    case Layer::kEpt:
      return "ept";
    case Layer::kIommu:
      return "iommu";
    case Layer::kHostPool:
      return "hostpool";
    case Layer::kTelemetry:
      return "telemetry";
  }
  return "?";
}

namespace {
constexpr size_t kDefaultSpanRingCapacity = 1 << 16;
}  // namespace

using SpanRing = RingCore<SpanRecord, std::atomic>;

struct SpanTracer::ThreadBuffer {
  SpanRing ring{kDefaultSpanRingCapacity};
  SpanTracer* owner = nullptr;
};

struct SpanTracer::Impl {
  mutable std::mutex mu;
  size_t capacity = kDefaultSpanRingCapacity;
  std::vector<ThreadBuffer*> live;
  std::vector<SpanRecord> retired;
  uint64_t retired_dropped = 0;
};

// RAII registration of the calling thread's ring; the destructor moves
// any remaining records into the retired list so traces survive thread
// exit (the multi-VM harness joins its workers before draining).
struct SpanThreadHandle {
  SpanTracer::ThreadBuffer buffer;

  ~SpanThreadHandle() {
    if (buffer.owner != nullptr) {
      buffer.owner->Retire(&buffer);
    }
  }
};

SpanTracer& SpanTracer::Global() {
  // Leaked singleton: must outlive every thread's SpanThreadHandle.
  static SpanTracer* global = new SpanTracer;
  return *global;
}

SpanTracer::Impl* SpanTracer::impl() {
  static Impl* impl = new Impl;
  return impl;
}

const SpanTracer::Impl* SpanTracer::impl() const {
  return const_cast<SpanTracer*>(this)->impl();
}

SpanTracer::ThreadBuffer& SpanTracer::LocalBuffer() {
  thread_local SpanThreadHandle handle;
  if (handle.buffer.owner == nullptr) {
    Register(&handle.buffer);
  }
  return handle.buffer;
}

void SpanTracer::Register(ThreadBuffer* buffer) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  buffer->ring.Rebuild(i->capacity);
  buffer->owner = this;
  i->live.push_back(buffer);
}

void SpanTracer::Retire(ThreadBuffer* buffer) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  buffer->ring.Drain(&i->retired);
  i->retired_dropped += buffer->ring.dropped();
  std::erase(i->live, buffer);
  buffer->owner = nullptr;
}

void SpanTracer::Emit(SpanRecord record) {
  record.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  LocalBuffer().ring.Push(record);
}

void SpanTracer::EmitInstant(Category category, Op op, uint64_t arg0,
                             uint64_t arg1) {
  SpanRecord record;
  record.category = category;
  record.op = op;
  record.name = Name(op);
  record.arg0 = arg0;
  record.arg1 = arg1;
#if HYPERALLOC_TRACE
  const SpanContext& context = ThreadSpanContext();
  const Span* parent = Span::Current();
  record.trace_id = context.trace_id;
  record.parent_id = parent != nullptr ? parent->id() : context.parent_span;
  record.vm = context.vm;
  record.begin_vns = context.clock != nullptr ? context.clock->now() : Now();
#else
  record.begin_vns = Now();
#endif
  record.end_vns = record.begin_vns;
  Emit(record);
}

std::vector<SpanRecord> SpanTracer::Drain() {
  Impl* i = impl();
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(i->mu);
    out.swap(i->retired);
    for (ThreadBuffer* buffer : i->live) {
      buffer->ring.Drain(&out);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.begin_vns != b.begin_vns) {
                return a.begin_vns < b.begin_vns;
              }
              return a.seq < b.seq;
            });
  return out;
}

uint64_t SpanTracer::dropped_spans() const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  uint64_t dropped = i->retired_dropped;
  for (const ThreadBuffer* buffer : i->live) {
    dropped += buffer->ring.dropped();
  }
  return dropped;
}

void SpanTracer::SetCapacity(size_t spans_per_thread) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  i->capacity = spans_per_thread;
  for (ThreadBuffer* buffer : i->live) {
    buffer->ring.Rebuild(spans_per_thread);
  }
}

void SpanTracer::ResetForTest() {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  i->retired.clear();
  i->retired_dropped = 0;
  for (ThreadBuffer* buffer : i->live) {
    buffer->ring.Rebuild(i->capacity);
  }
  seq_.store(0, std::memory_order_relaxed);
  next_trace_id_.store(1, std::memory_order_relaxed);
  next_span_id_.store(1, std::memory_order_relaxed);
}

}  // namespace hyperalloc::trace
