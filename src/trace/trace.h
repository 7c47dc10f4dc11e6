// Low-overhead observability: named monotonic counters, bucketed
// histograms, and the process-wide tracer.
//
// The paper's headline results (Figs. 4, 7–11) are operation-count × cost
// arguments — hypercalls, madvise batches, EPT/IOMMU faults, reclaim-state
// transitions. This layer makes those per-operation events first-class:
// every hot path bumps a counter (lock-free, relaxed, cache-line-padded
// shards) and optionally records an *instant* (HA_TRACE_EVENT) in the
// same per-thread ring the causal spans of span.h go to. One drain merges
// every ring and sorts by virtual time, giving a deterministic,
// time-ordered trace of a whole run: spans and instants together, each
// instant parented under the span that was open when it happened.
//
// Cost discipline:
//   * Compile time: building with -DHYPERALLOC_TRACE=0 turns every macro
//     below into a no-op; nothing is linked into the hot paths.
//   * Runtime: instants are additionally gated on
//     SpanTracer::events_enabled() (one relaxed bool load when off).
//     Counters are always live when compiled in — a relaxed fetch_add on
//     a thread-sharded cache line.
//
// Naming scheme (see README.md "Observability"): dotted lowercase
// "<layer>.<operation>[_<unit>]", e.g. "llfree.get", "balloon.madvise",
// "monitor.install_ns". Counter/histogram names passed to HA_COUNT /
// HA_HIST must be string literals: the macros cache the registry lookup
// in a function-local static, keyed by the expansion site.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/simulation.h"

// Compile-time switch; overridable from the build system
// (-DHYPERALLOC_TRACE=0 compiles all instrumentation out).
#ifndef HYPERALLOC_TRACE
#define HYPERALLOC_TRACE 1
#endif

namespace hyperalloc::trace {

// Number of cache-line-padded shards per counter/histogram. Threads are
// striped across shards to avoid false sharing under concurrent updates.
inline constexpr unsigned kShards = 8;

// Stable per-thread shard index. Inline: every HA_COUNT calls it.
inline unsigned ThreadShardIndex() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

// A named monotonic counter. Increments are lock-free relaxed atomics on
// a per-thread-stripe cache line; Value() sums the shards (approximate
// while writers are running, exact at quiescence).
class Counter {
 public:
  void Add(uint64_t delta) {
    shards_[ThreadShardIndex()].value.fetch_add(delta,
                                                std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kShards];
};

// A power-of-two bucketed histogram for latencies (ns) and sizes.
// Bucket 0 holds zeros; bucket b >= 1 holds values in [2^(b-1), 2^b).
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;  // 0 plus bit_width 1..64

  static unsigned BucketOf(uint64_t value) {
    return static_cast<unsigned>(std::bit_width(value));
  }
  // Inclusive lower bound of a bucket.
  static uint64_t BucketLowerBound(unsigned bucket) {
    return bucket == 0 ? 0 : 1ull << (bucket - 1);
  }

  void Record(uint64_t value) {
    Shard& shard = shards_[ThreadShardIndex()];
    shard.count[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  Snapshot Read() const {
    Snapshot snap;
    for (const Shard& shard : shards_) {
      snap.sum += shard.sum.load(std::memory_order_relaxed);
      for (unsigned b = 0; b < kBuckets; ++b) {
        const uint64_t n = shard.count[b].load(std::memory_order_relaxed);
        snap.buckets[b] += n;
        snap.count += n;
      }
    }
    return snap;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.sum.store(0, std::memory_order_relaxed);
      for (unsigned b = 0; b < kBuckets; ++b) {
        shard.count[b].store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count[kBuckets]{};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kShards];
};

// Process-wide registry of named counters and histograms. Registration
// (first lookup per call site) takes a mutex; the returned references are
// stable for the process lifetime, so the hot path never locks.
class CounterRegistry {
 public:
  static CounterRegistry& Global();

  Counter& FindOrCreate(std::string_view name);
  Histogram& FindOrCreateHistogram(std::string_view name);

  // Snapshots, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Counters() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> Histograms() const;

  // Zeroes every counter/histogram, keeping registrations (and thus the
  // references cached in function-local statics) valid.
  void ResetForTest();

 private:
  CounterRegistry() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

// ----------------------------------------------------------------------
// Tracing
// ----------------------------------------------------------------------

// What an instant record (HA_TRACE_EVENT) is about, and what happened.
enum class Category : uint8_t {
  kLLFree,   // guest page-frame allocator operations
  kGuest,    // guest VM memory accesses (EPT faults, touch)
  kEpt,      // second-stage page-table map/unmap
  kIommu,    // VFIO pinning and IOTLB flushes
  kBalloon,  // virtio-balloon queue operations
  kVmem,     // virtio-mem block (un)plug
  kMonitor,  // HyperAlloc monitor reclaim/return/install
  kState,    // reclaim-state (R array) transitions
  kFault,    // injected faults and their recovery (retry/rollback/...)
  kTelemetry,  // fleet telemetry pipeline (burn alerts, flight dumps)
};

enum class Op : uint8_t {
  kGet,
  kGetFail,
  kPut,
  kReserveTree,
  kSteal,
  kEvictedSet,
  kEvictedClear,
  kReclaimSoft,
  kReclaimHard,
  kReturn,
  kInstall,
  kMap,
  kUnmap,
  kIotlbFlush,
  kFault4k,
  kFault2m,
  kInflate,
  kDeflate,
  kMadvise,
  kHypercall,
  kTransition,
  kScan,
  kInject,      // a fault fired at an injection site
  kRetry,       // a failed operation is retried after backoff
  kRollback,    // partial work undone to restore a legal state
  kQuarantine,  // a frame (or the VM) entered fault quarantine
  kTimeout,     // a resize request hit its deadline
  kAlert,       // SLO burn-rate alert fired (telemetry)
  kFlightDump,  // flight recorder froze and dumped a postmortem bundle
};

const char* Name(Category category);
const char* Name(Op op);

// The layer a span accounts to — the tree levels of the de/inflation
// path (monitor -> backend -> llfree -> ept/iommu -> host pool).
enum class Layer : uint8_t {
  kRequest,   // resize-request roots and slices
  kMonitor,   // HyperAlloc monitor state work (reclaim/return/install)
  kBackend,   // virtio-balloon / virtio-mem driver + device work
  kGuest,     // guest-side allocator & migration work
  kLLFree,    // shared page-frame allocator operations
  kEpt,        // second-stage unmap/populate (madvise, TLB shootdown)
  kIommu,      // VFIO pin/unpin + IOTLB flushes
  kHostPool,   // sharded host frame pool slow paths
  kTelemetry,  // fleet telemetry markers (SLO burn-rate alerts)
};

const char* Name(Layer layer);
inline constexpr unsigned kNumLayers = 9;

// One closed span, or an instant record: a zero-length point in time
// with no span id of its own (an HA_TRACE_EVENT or a telemetry marker).
// `name` must be a string literal (stored by pointer).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;    // 0 = instant record
  uint64_t parent_id = 0;  // 0 = root
  uint64_t begin_vns = 0;  // virtual clock, ns
  uint64_t end_vns = 0;
  uint64_t begin_wall_ns = 0;
  uint64_t end_wall_ns = 0;
  uint64_t charge_ns = 0;  // cost-model ns attributed to this span
  uint64_t frames = 0;     // frames this span operated on
  // Huge/base split (DESIGN.md §4.14): of `frames`, how many moved as
  // whole 2 MiB units (counted in base frames, so huge_frames <= frames
  // and frames - huge_frames is the base-granular remainder).
  uint64_t huge_frames = 0;
  uint64_t faults = 0;     // injected faults observed under this span
  uint64_t retries = 0;    // retries (after backoff) under this span
  uint64_t seq = 0;        // global emission order (tie-break)
  uint64_t arg0 = 0;       // instants: operation-specific (usually a frame)
  uint64_t arg1 = 0;
  uint32_t vm = 0;
  Layer layer = Layer::kRequest;
  Category category = Category::kLLFree;  // instants only
  Op op = Op::kGet;                       // instants only
  const char* name = "";

  bool instant() const { return span_id == 0; }
  uint64_t virtual_ns() const { return end_vns - begin_vns; }
  uint64_t wall_ns() const { return end_wall_ns - begin_wall_ns; }
};

// The process-wide tracer: per-thread single-writer rings of SpanRecords
// (drainable while the writers run — see span_ring.h), a retired list
// for exited threads' records (their drained ring storage goes to the
// next thread that registers), and monotonic trace-/span-id generators.
// Spans and instants share the rings, the capacity, the drain and the
// dropped count; each kind has its own switch. Always compiled; the
// instrumentation (span.h types, HA_TRACE_EVENT) compiles out.
class SpanTracer {
 public:
  // Inline, so the off check of HA_TRACE_EVENT stays one relaxed load.
  static SpanTracer& Global() {
    // Leaked singleton: must outlive every thread's SpanThreadHandle.
    static SpanTracer* global = new SpanTracer;
    return *global;
  }

  // Records spans (span.h) and telemetry markers.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Records HA_TRACE_EVENT instants.
  bool events_enabled() const {
    return events_enabled_.load(std::memory_order_relaxed);
  }
  void SetEventsEnabled(bool on) {
    events_enabled_.store(on, std::memory_order_relaxed);
  }

  // Fallback virtual clock, read only when the thread's SpanContext
  // carries no clock of its own (single-simulation benches set it; unset,
  // it reads 0). The simulation must outlive emission.
  void SetTimeSource(const sim::Simulation* sim) {
    time_source_.store(sim, std::memory_order_relaxed);
  }

  sim::Time Now() const {
    const sim::Simulation* sim = time_source_.load(std::memory_order_relaxed);
    return sim == nullptr ? 0 : sim->now();
  }

  uint64_t NewTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Stamps `record.seq` and appends it to the calling thread's ring.
  void Emit(SpanRecord record);

  // Records an instant in the calling thread's SpanContext: its VM, its
  // trace, its clock (else the fallback clock), parented under the
  // innermost open span.
  void EmitInstant(Category category, Op op, uint64_t arg0, uint64_t arg1);

  // Collects every buffered record — live and retired — sorted by
  // (begin_vns, seq). Safe while writers run (they may keep appending;
  // a drain only misses records emitted after it started).
  std::vector<SpanRecord> Drain();

  // Records (spans and instants) dropped on full rings since the last
  // reset (cumulative, surviving Drain so exporters can report it).
  uint64_t dropped_spans() const;

  // Ring capacity (records per thread); resizes and clears existing
  // buffers. Quiescence only.
  void SetCapacity(size_t spans_per_thread);

  void ResetForTest();

 private:
  friend struct SpanThreadHandle;
  struct ThreadBuffer;

  SpanTracer() = default;
  ThreadBuffer& LocalBuffer();
  void Register(ThreadBuffer* buffer);
  void Retire(ThreadBuffer* buffer);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> events_enabled_{false};
  std::atomic<const sim::Simulation*> time_source_{nullptr};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

// Whether HA_TRACE_EVENT records anything: for callers that keep a
// per-entry loop only so each instant carries its own clock reading.
inline bool EventsOn() {
#if HYPERALLOC_TRACE
  return SpanTracer::Global().events_enabled();
#else
  return false;
#endif
}

// The event tracer's former name; perfbench still sets the fallback
// clock through it (`Tracer::Global().SetTimeSource`).
using Tracer = SpanTracer;

}  // namespace hyperalloc::trace

// ----------------------------------------------------------------------
// Instrumentation macros
// ----------------------------------------------------------------------
//
// `name` must be a string literal (the registry lookup is cached in a
// function-local static per expansion site).

#if HYPERALLOC_TRACE

#define HA_COUNT_N(name, delta)                                              \
  do {                                                                       \
    static ::hyperalloc::trace::Counter& ha_counter_ =                       \
        ::hyperalloc::trace::CounterRegistry::Global().FindOrCreate(name);   \
    ha_counter_.Add(delta);                                                  \
  } while (0)

#define HA_COUNT(name) HA_COUNT_N(name, 1)

#define HA_HIST(name, value)                                                 \
  do {                                                                       \
    static ::hyperalloc::trace::Histogram& ha_hist_ =                        \
        ::hyperalloc::trace::CounterRegistry::Global().FindOrCreateHistogram( \
            name);                                                           \
    ha_hist_.Record(value);                                                  \
  } while (0)

#define HA_TRACE_EVENT(category, op, arg0, arg1)                             \
  do {                                                                       \
    ::hyperalloc::trace::SpanTracer& ha_tracer_ =                            \
        ::hyperalloc::trace::SpanTracer::Global();                           \
    if (ha_tracer_.events_enabled()) {                                       \
      ha_tracer_.EmitInstant((category), (op), (arg0), (arg1));              \
    }                                                                        \
  } while (0)

#else  // !HYPERALLOC_TRACE

#define HA_COUNT_N(name, delta) \
  do {                          \
    (void)sizeof(delta);        \
  } while (0)
#define HA_COUNT(name) \
  do {                 \
  } while (0)
#define HA_HIST(name, value) \
  do {                       \
    (void)sizeof(value);     \
  } while (0)
#define HA_TRACE_EVENT(category, op, arg0, arg1) \
  do {                                           \
    (void)sizeof(arg0);                          \
    (void)sizeof(arg1);                          \
  } while (0)

#endif  // HYPERALLOC_TRACE
