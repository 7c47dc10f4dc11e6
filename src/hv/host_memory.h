// Host physical memory pool — the one data structure every VM on the
// host touches on its hot path. VMs (their EPTs) reserve frames when
// guest-physical memory is populated and release them when the hypervisor
// reclaims it; the multi-VM experiment (Fig. 11) reads aggregate usage.
//
// Scalability design (multi-VM scaling, DESIGN.md §4.7; one simulation
// thread per VM):
// admission control is *sharded*. The pool's free frames live in
// cache-line-padded per-shard credit lines plus one global reserve.
// TryReserve/Release on the hot path touch only the calling thread's
// shard; the global reserve is visited in kCreditBatch-sized refills and
// drains, and a slow-path rebalancer raids other shards' credits when the
// global reserve runs dry near the limit. Because every reserved frame is
// debited from a credit chain rooted at the construction-time total, the
// pool can never overcommit, no matter the interleaving.
//
// Statistics are exact: `used` is a single relaxed fetch_add/fetch_sub
// (wait-free; the *conditional* admission check is what the shards
// de-contend) and the peak high-water mark (Fig. 11 "peak memory
// demand") is maintained with a CAS-max loop.
//
// All state is hyperalloc::Atomic (src/base/atomic.h), so model-check
// builds can explore interleavings of this pool like the LLFree core.
// Mid-operation, frames "in hand" between two credit buckets are counted
// in neither: credits + used transiently *under*-promise, never
// over-promise (same argument as the LLFree step invariants); exact
// equality credits == total - used holds at quiescence
// (src/check/invariants.h: CheckHostMemoryQuiescent).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/base/atomic.h"
#include "src/base/check.h"
#include "src/base/shared.h"
#include "src/base/types.h"
#include "src/fault/fault.h"
#include "src/trace/span.h"

namespace hyperalloc::hv {

// One consistent view of the pool, in frames. `used + free == total`
// holds by construction; `peak >= used`.
struct MemorySnapshot {
  uint64_t total = 0;
  uint64_t used = 0;
  uint64_t free = 0;
  uint64_t peak = 0;
};

// Credit hysteresis (DESIGN.md §4.10): watermarks and a per-shard
// post-rebalance holdoff that keep steady-state traffic from bouncing
// credits between shards and the global reserve. All knobs are in
// frames / Release operations; the quiescent invariant
// credits == total - used is unaffected (hoarded credits stay counted).
struct CreditHysteresis {
  // Release drains a shard back to `drain_low` only once its credit
  // exceeds `drain_high` (the old policy was high = 2 batches,
  // low = 1 batch — too twitchy to absorb a reserve/release cycle).
  uint64_t drain_high = 4 * 512;  // 4 * kCreditBatch
  uint64_t drain_low = 2 * 512;   // 2 * kCreditBatch
  // After a shard rebalanced (raided other shards), its next
  // `rebalance_holdoff_ops` drain-eligible Releases skip draining
  // entirely: do not give back what was just raided.
  uint64_t rebalance_holdoff_ops = 64;
};

class HostMemory {
 public:
  // Frames moved between the global reserve and a shard per refill/drain
  // (512 frames = one 2 MiB huge frame's worth).
  static constexpr uint64_t kCreditBatch = 512;
  static constexpr unsigned kDefaultShards = 8;

  explicit HostMemory(uint64_t total_frames,
                      unsigned shards = kDefaultShards,
                      const CreditHysteresis& hysteresis = {})
      : total_(total_frames),
        num_shards_(shards == 0 ? 1 : shards),
        hysteresis_(hysteresis),
        shards_(std::make_unique<Shard[]>(num_shards_)) {
    HA_CHECK(hysteresis.drain_low <= hysteresis.drain_high);
    global_free_.store(total_frames, std::memory_order_relaxed);
  }

  uint64_t total_frames() const { return total_; }
  uint64_t used_frames() const {
    return used_.load(std::memory_order_acquire);
  }
  uint64_t free_frames() const { return total_ - used_frames(); }
  uint64_t used_bytes() const { return used_frames() * kFrameSize; }
  uint64_t peak_frames() const {
    return peak_.load(std::memory_order_acquire);
  }
  unsigned shards() const { return num_shards_; }

  // One consistent {total, used, free, peak} read instead of racy
  // multi-getter sampling. `peak` is clamped to >= `used` (the CAS-max
  // update trails the `used` increment by a few instructions).
  MemorySnapshot snapshot() const {
    MemorySnapshot s;
    s.total = total_;
    s.used = used_.load(std::memory_order_acquire);
    s.free = total_ - s.used;
    s.peak = peak_.load(std::memory_order_acquire);
    if (s.peak < s.used) {
      s.peak = s.used;
    }
    return s;
  }

  // Reserves `frames` from the calling thread's shard (batched refill
  // from the global reserve; cross-shard rebalance when that is dry).
  // Returns false — with nothing changed — iff fewer than `frames` are
  // free across the whole pool at some instant during the attempt.
  bool TryReserve(uint64_t frames) {
    return TryReserve(frames, ThisThreadShard());
  }

  // Explicit-shard variant (model-check scenarios and tests; also lets a
  // VM pin itself to a shard regardless of which thread runs it).
  bool TryReserve(uint64_t frames, unsigned shard) {
    if (frames == 0) {
      return true;
    }
    if (fault::Poll(fault_, fault::Site::kHostReserve).has_value()) {
      // Injected admission failure: indistinguishable from real
      // exhaustion by design (callers exercise their pressure paths).
      fault_injected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Shard& s = shards_[shard % num_shards_];
    if (!TakeCredit(s, frames)) {
      return false;
    }
    const uint64_t now =
        used_.fetch_add(frames, std::memory_order_acq_rel) + frames;
    // CAS-max high-water loop: lost races only ever lose to a *larger*
    // observed usage, so the peak is never under-reported.
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (peak < now && !peak_.compare_exchange_weak(
                             peak, now, std::memory_order_acq_rel,
                             std::memory_order_relaxed)) {
    }
    return true;
  }

  void Release(uint64_t frames) { Release(frames, ThisThreadShard()); }

  void Release(uint64_t frames, unsigned shard) {
    if (frames == 0) {
      return;
    }
    const uint64_t before =
        used_.fetch_sub(frames, std::memory_order_acq_rel);
    HA_CHECK(before >= frames);
    Shard& s = shards_[shard % num_shards_];
    const uint64_t credit =
        s.credit.fetch_add(frames, std::memory_order_acq_rel) + frames;
    // Hysteresis: drain back to the low watermark only once the credit
    // line exceeds the high one, and never within the holdoff window
    // after this shard rebalanced — a shard that just raided its peers
    // would otherwise hand the frames straight back to the global
    // reserve and re-raid on the next reserve (2.4M rebalances in a
    // 3.2M-operation, 4-thread reserve/release storm before this).
    const CreditHysteresis& hysteresis = hysteresis_.read();
    if (credit > hysteresis.drain_high) {
      const uint64_t op = s.ops.fetch_add(1, std::memory_order_relaxed) + 1;
      const uint64_t last =
          s.last_rebalance_op.load(std::memory_order_relaxed);
      if (last == 0 || op - last >= hysteresis.rebalance_holdoff_ops) {
        DrainShard(s, credit - hysteresis.drain_low);
      }
    }
  }

  // Arms deterministic fault injection on the admission path
  // (fault::Site::kHostReserve): a scheduled fault makes TryReserve
  // return false with nothing changed, as if the pool were exhausted.
  // Null disarms; the injector is not owned.
  void SetFaultInjector(fault::Injector* injector) { fault_ = injector; }
  uint64_t injected_faults() const {
    return fault_injected_.load(std::memory_order_relaxed);
  }

  // --- slow-path observability (tests, perfbench's pool probe) ---------
  uint64_t refills() const {
    return refills_.load(std::memory_order_relaxed);
  }
  uint64_t drains() const { return drains_.load(std::memory_order_relaxed); }
  uint64_t rebalances() const {
    return rebalances_.load(std::memory_order_relaxed);
  }
  // Raids avoided by the feasibility pre-scan (peers had no credit to
  // take, or peers plus the global reserve observably could not cover
  // the shortfall jointly).
  uint64_t rebalance_skips() const {
    return rebalance_skips_.load(std::memory_order_relaxed);
  }

  // Free frames currently parked in shard credit lines + the global
  // reserve. Quiescent (no in-flight reserve/release): exactly
  // total - used. Mid-operation: may transiently read low, never high.
  uint64_t DebugFreeCredits() const {
    uint64_t sum = global_free_.load(std::memory_order_acquire);
    for (unsigned i = 0; i < num_shards_; ++i) {
      sum += shards_[i].credit.load(std::memory_order_acquire);
    }
    return sum;
  }

  uint64_t DebugShardCredit(unsigned shard) const {
    return shards_[shard % num_shards_].credit.load(
        std::memory_order_acquire);
  }

  uint64_t DebugGlobalFree() const {
    return global_free_.load(std::memory_order_acquire);
  }

 private:
  struct alignas(64) Shard {
    Atomic<uint64_t> credit{0};  // free frames owned by this shard
    // Drain-eligible Release count and the value it had at this shard's
    // most recent rebalance (0 = never rebalanced); together they form
    // the holdoff window. Both are hysteresis bookkeeping, not part of
    // the credit chain.
    Atomic<uint64_t> ops{0};
    Atomic<uint64_t> last_rebalance_op{0};
  };

  // Debits `frames` from the shard's credit line, refilling from the
  // global reserve (and, failing that, raiding other shards) as needed.
  // On failure every partially-taken credit is returned to `s`.
  bool TakeCredit(Shard& s, uint64_t frames) {
    uint64_t credit = s.credit.load(std::memory_order_acquire);
    while (credit >= frames) {
      if (s.credit.compare_exchange_weak(credit, credit - frames,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return true;  // fast path: shard-local, no shared lines touched
      }
    }
    // Take what the shard has, then refill the shortfall.
    while (credit > 0 && !s.credit.compare_exchange_weak(
                             credit, 0, std::memory_order_acq_rel,
                             std::memory_order_acquire)) {
    }
    uint64_t have = credit;
    if (have >= frames) {
      // A concurrent Release refilled the shard while we were zeroing it.
      if (have > frames) {
        s.credit.fetch_add(have - frames, std::memory_order_acq_rel);
      }
      return true;
    }
    uint64_t need = frames - have;

    // Batched refill: pull the shortfall plus one credit batch so the
    // next reservations stay shard-local.
    const uint64_t take = TakeGlobal(need + kCreditBatch, need);
    if (take >= need) {
      refills_.fetch_add(1, std::memory_order_relaxed);
      // Slow paths only carry spans (the shard-local fast path above
      // stays span-free); they arm only inside a traced request, so
      // model-check scenarios and idle threads never pay for them.
      trace::Span refill_span(trace::Layer::kHostPool, "hostpool.refill");
      refill_span.AddFrames(take);
      const uint64_t extra = take - need;
      if (extra > 0) {
        s.credit.fetch_add(extra, std::memory_order_acq_rel);
      }
      return true;
    }
    have += take;
    need = frames - have;

    // Rebalance: the global reserve is dry; raid other shards' credit
    // lines. Near the capacity limit all free memory may be parked in
    // credits, and a reservation must still succeed if the *sum* covers
    // it. A load-only feasibility pre-scan first: the raid takes peer
    // credit partially and the last global look below covers whatever
    // remains, so feasibility is the *joint* sum of peer credit and the
    // global reserve (a concurrent drain may have parked part of the
    // free memory back there). Only when even that sum observably
    // cannot cover the shortfall — or the peers have nothing to take —
    // is the CAS raid (and its cache-line invalidations) skipped; the
    // observation is itself the "some instant" of the contract, exactly
    // as a fruitless raid loop would have been.
    uint64_t peer_sum = 0;
    for (unsigned i = 0; i < num_shards_; ++i) {
      if (&shards_[i] != &s) {
        peer_sum += shards_[i].credit.load(std::memory_order_acquire);
      }
    }
    const uint64_t global_seen =
        global_free_.load(std::memory_order_acquire);
    if (peer_sum > 0 && peer_sum + global_seen >= need) {
      rebalances_.fetch_add(1, std::memory_order_relaxed);
      s.last_rebalance_op.store(
          s.ops.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      trace::Span rebalance_span(trace::Layer::kHostPool,
                                 "hostpool.rebalance");
      for (unsigned i = 0; i < num_shards_ && need > 0; ++i) {
        Shard& other = shards_[i];
        if (&other == &s) {
          continue;
        }
        uint64_t c = other.credit.load(std::memory_order_acquire);
        while (c > 0) {
          const uint64_t grab = c < need ? c : need;
          if (other.credit.compare_exchange_weak(
                  c, c - grab, std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            have += grab;
            need -= grab;
            rebalance_span.AddFrames(grab);
            break;
          }
        }
      }
    } else {
      rebalance_skips_.fetch_add(1, std::memory_order_relaxed);
    }
    if (need == 0) {
      return true;
    }
    // One last look at the global reserve: a concurrent Release may have
    // drained credits there while we raided the shards.
    const uint64_t last = TakeGlobal(need, need);
    have += last;
    if (have >= frames) {
      const uint64_t extra = have - frames;
      if (extra > 0) {
        s.credit.fetch_add(extra, std::memory_order_acq_rel);
      }
      return true;
    }
    // Exhausted: give everything back to our shard (it stays free and
    // counted; nothing was reserved).
    if (have > 0) {
      s.credit.fetch_add(have, std::memory_order_acq_rel);
    }
    return false;
  }

  // Takes up to `want` frames from the global reserve, but only if at
  // least `min` are available; returns the number taken (0 or >= min).
  uint64_t TakeGlobal(uint64_t want, uint64_t min) {
    uint64_t free = global_free_.load(std::memory_order_acquire);
    while (free >= min && min > 0) {
      const uint64_t take = free < want ? free : want;
      if (global_free_.compare_exchange_weak(free, free - take,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        return take;
      }
    }
    return 0;
  }

  void DrainShard(Shard& s, uint64_t excess) {
    uint64_t credit = s.credit.load(std::memory_order_acquire);
    while (credit >= excess) {
      if (s.credit.compare_exchange_weak(credit, credit - excess,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        global_free_.fetch_add(excess, std::memory_order_acq_rel);
        drains_.fetch_add(1, std::memory_order_relaxed);
        trace::Span drain_span(trace::Layer::kHostPool, "hostpool.drain");
        drain_span.AddFrames(excess);
        return;
      }
    }
  }

  unsigned ThisThreadShard() const {
    // Round-robin shard assignment per OS thread. Plain std::atomic (not
    // the model-check seam): thread registration is not part of the
    // state under verification, and scenarios pass explicit shards.
    static std::atomic<unsigned> next_thread{0};
    thread_local const unsigned assigned =
        next_thread.fetch_add(1, std::memory_order_relaxed);
    return assigned % num_shards_;
  }

  uint64_t total_;
  unsigned num_shards_;
  // Fixed at construction, read from every Release: the checker verifies
  // no late reconfiguration races the hot path.
  Shared<CreditHysteresis> hysteresis_;
  std::unique_ptr<Shard[]> shards_;
  alignas(64) Atomic<uint64_t> global_free_{0};
  alignas(64) Atomic<uint64_t> used_{0};
  alignas(64) Atomic<uint64_t> peak_{0};
  Atomic<uint64_t> refills_{0};
  Atomic<uint64_t> drains_{0};
  Atomic<uint64_t> rebalances_{0};
  Atomic<uint64_t> rebalance_skips_{0};
  Atomic<uint64_t> fault_injected_{0};
  fault::Injector* fault_ = nullptr;
};

}  // namespace hyperalloc::hv
