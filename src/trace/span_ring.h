// Single-writer / single-drainer record ring buffer: the tracer's one
// per-thread ring (SpanTracer, src/trace/trace.h), holding spans and
// instant records alike.
//
// The ring is safe to drain *while the owning thread keeps emitting* —
// the exporter thread of a long-running process can stream records out
// without stopping the world. The price is drop-NEWEST semantics: when
// the ring is full the writer counts the record as dropped and keeps
// going (never stalls, never touches a slot the drainer may be reading).
//
// Protocol (indices are free-running uint64 positions, slot = pos % cap):
//   writer:  h = head(relaxed); t = tail(acquire);
//            full (h - t >= cap)? -> dropped++; else write slot,
//            then head = h + 1 (release store)
//   drainer: h = head(acquire); copy [tail, h); tail = h (release store)
// The release/acquire pair on `head` publishes the slot contents to the
// drainer; the release/acquire pair on `tail` returns slots to the
// writer only after the drainer has copied them out. A slot is therefore
// never accessed concurrently.
//
// The atomic and shared-slot types are template-template parameters
// instead of the hyperalloc::Atomic / hyperalloc::Shared seams:
// production code instantiates `RingCore<SpanRecord, std::atomic>` (one
// definition everywhere, no ODR hazard with model-check builds), while
// the model-check scenario in tests/model_check_test.cc instantiates
// `RingCore<uint64_t, check::Atomic, check::Shared>` — a distinct type —
// to explore writer-vs-drainer interleavings AND verify that the
// release/acquire protocol above really does order every slot access
// (each slot is a SharedT<Event>; the happens-before checker flags any
// unordered writer-write vs drainer-read). Members are protected so that
// scenario can also derive a deliberately broken drain (the lost-event
// mutant).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/shared.h"

namespace hyperalloc::trace {

template <typename Event, template <typename> class AtomicT,
          template <typename> class SharedT = PlainShared>
class RingCore {
 public:
  explicit RingCore(size_t capacity) : ring_(capacity) {}

  RingCore(const RingCore&) = delete;
  RingCore& operator=(const RingCore&) = delete;

  size_t capacity() const { return ring_.size(); }

  // Writer side (one thread). Returns false when the ring is full and
  // the event was counted as dropped instead of stored.
  bool Push(const Event& event) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    if (ring_.empty() || head - tail >= ring_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ring_[head % ring_.size()].write() = event;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Drainer side (one thread at a time; may run concurrently with the
  // writer). Appends every published event, oldest first, to `out`.
  void Drain(std::vector<Event>* out) {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    for (; tail != head; ++tail) {
      out->push_back(ring_[tail % ring_.size()].read());
    }
    tail_.store(tail, std::memory_order_release);
  }

  // Published-but-undrained events right now (approximate while the
  // writer runs).
  uint64_t size() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Re-creates the ring with a new capacity. Quiescence only (no
  // concurrent Push/Drain): pending events are discarded.
  void Rebuild(size_t capacity) {
    // SharedT is non-copyable; a fresh vector default-constructs the
    // slots (pending events are discarded either way).
    Adopt(std::vector<SharedT<Event>>(capacity));
  }

  // Hands the slot storage out, leaving a zero-capacity ring, so another
  // ring can Adopt it without allocating. Quiescence only: pending events
  // are discarded (drain first).
  std::vector<SharedT<Event>> TakeStorage() {
    std::vector<SharedT<Event>> storage = std::move(ring_);
    Adopt({});
    return storage;
  }

  // Re-creates the ring over `storage`, whose stale slots are never read
  // (the ring starts empty). Quiescence only.
  void Adopt(std::vector<SharedT<Event>> storage) {
    ring_ = std::move(storage);
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

 protected:
  std::vector<SharedT<Event>> ring_;
  AtomicT<uint64_t> head_{0};
  AtomicT<uint64_t> tail_{0};
  AtomicT<uint64_t> dropped_{0};
};

}  // namespace hyperalloc::trace
