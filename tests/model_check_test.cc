// Model-check scenarios for the lock-free core (src/check harness).
//
// This binary links ha_llfree_mc: the LLFree sources recompiled with
// hyperalloc::Atomic = check::Atomic, so every shared-memory access is a
// schedule point and the engine can explore thread interleavings
// systematically. The four core scenarios correspond to the races the
// HyperAlloc design must survive (paper §3.2/§4.2): concurrent get/put
// on one tree, put vs the hypervisor's reclaim scan, reservation steal
// vs drain, and balloon deflate racing guest allocation.
//
// Set HYPERALLOC_MC_ITERS to cap the per-scenario execution counts (used
// by scripts/check.sh for the sanitizer runs); the coverage test skips
// itself when capped below its target.

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/types.h"
#include "src/check/invariants.h"
#include "src/check/scheduler.h"
#include "src/check/shim.h"
#include "src/core/reclaim_states.h"
#include "src/fault/fault.h"
#include "src/hv/host_memory.h"
#include "src/llfree/frame_cache.h"
#include "src/llfree/llfree.h"
#include "src/trace/span_ring.h"
#include "src/trace/trace.h"

namespace hyperalloc::check {
namespace {

using core::ReclaimState;
using llfree::Config;
using llfree::LLFree;
using llfree::SharedState;

uint64_t ScaledIters(uint64_t def) {
  if (const char* env = std::getenv("HYPERALLOC_MC_ITERS")) {
    const uint64_t cap = std::strtoull(env, nullptr, 10);
    if (cap > 0 && cap < def) {
      return cap;
    }
  }
  return def;
}

// Shared context of one execution: the allocator state, a guest and a
// monitor view, and the oracles. Built fresh per explored schedule.
struct Ctx {
  SharedState state;
  LLFree guest;
  LLFree monitor;
  OwnershipOracle owner;
  core::ReclaimStateArray states;
  PinModel pins;
  // Scenario-local counters (model threads are sequentialized, so plain
  // ints are safe).
  int reclaimed = 0;
  int put_ok = 0;
  int held = 0;  // frames handed out by Gets and still owned

  Ctx(uint64_t frames, const Config& cfg)
      : state(frames, cfg),
        guest(&state),
        monitor(&state),
        owner(state),
        states(frames / kFramesPerHuge),
        pins(frames / kFramesPerHuge) {}
};

void GetAndHold(const std::shared_ptr<Ctx>& c, unsigned core,
                unsigned order, AllocType type,
                std::vector<std::pair<FrameId, unsigned>>* held) {
  const Result<FrameId> r = c->guest.Get(core, order, type);
  if (r.ok()) {
    c->owner.Acquire(*r, order);
    held->emplace_back(*r, order);
  }
}

void PutAll(const std::shared_ptr<Ctx>& c,
            std::vector<std::pair<FrameId, unsigned>>* held) {
  for (const auto& [frame, order] : *held) {
    c->owner.Release(frame, order);
    Require(!c->guest.Put(frame, order).has_value(),
            "put of an owned frame failed");
  }
  held->clear();
}

// --------------------------------------------------------------------
// Scenario 1: two guest threads get/put on a single tree, contending on
// the same reservation slot, the tree counter, and the bit field.
// --------------------------------------------------------------------
Scenario GetPutOneTree() {
  return [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerCore;
    cfg.cores = 1;
    cfg.areas_per_tree = 4;
    auto c = std::make_shared<Ctx>(2048, cfg);
    for (int t = 0; t < 2; ++t) {
      exec.Spawn([c, t] {
        std::vector<std::pair<FrameId, unsigned>> held;
        GetAndHold(c, 0, 0, AllocType::kMovable, &held);
        GetAndHold(c, 0, t == 0 ? 1u : 2u, AllocType::kMovable, &held);
        PutAll(c, &held);
      });
    }
    exec.OnStep([c] {
      CheckStepInvariants(c->state);
      c->owner();
    });
    exec.OnEnd([c] {
      CheckQuiescent(c->guest);
      Require(c->guest.FreeFrames() == 2048,
              "frames leaked after all puts");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 1b: the batched hot path (DESIGN.md §4.10) — two threads each
// claim an order-0 train via GetBatch and return it via PutBatch,
// racing on the tree counter, the reservation slots, and the
// word-at-a-time bitfield CAS. Conservation must hold at quiescence.
// --------------------------------------------------------------------
Scenario BatchGetPutOneTree() {
  return [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerCore;
    cfg.cores = 2;
    cfg.areas_per_tree = 4;
    auto c = std::make_shared<Ctx>(2048, cfg);
    for (unsigned t = 0; t < 2; ++t) {
      exec.Spawn([c, t] {
        std::vector<FrameId> frames;
        const unsigned got =
            c->guest.GetBatch(t, 0, 6, AllocType::kMovable, &frames);
        for (const FrameId frame : frames) {
          c->owner.Acquire(frame, 0);
        }
        for (const FrameId frame : frames) {
          c->owner.Release(frame, 0);
        }
        Require(c->guest.PutBatch(frames, 0) == got,
                "batched put freed fewer frames than the batch claimed");
      });
    }
    exec.OnStep([c] {
      CheckStepInvariants(c->state);
      c->owner();
    });
    exec.OnEnd([c] {
      CheckQuiescent(c->guest);
      Require(c->guest.FreeFrames() == 2048,
              "frames leaked after batched round trips");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 2: a guest put races the monitor's hard-reclaim scan. The
// scan may only take fully free huge frames, and every R transition it
// induces must be a legal edge of the Fig. 2 state machine.
// --------------------------------------------------------------------
Scenario PutVsReclaimScan() {
  return [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerType;
    cfg.areas_per_tree = 2;
    auto c = std::make_shared<Ctx>(1024, cfg);
    // Prefill: one base frame pins area 0 as partially used.
    const Result<FrameId> pre = c->guest.Get(0, 0, AllocType::kMovable);
    Require(pre.ok(), "prefill get failed");
    c->owner.Acquire(*pre, 0);
    auto oracle = std::make_shared<ReclaimTransitionOracle>(&c->states);

    exec.Spawn([c, frame = *pre] {
      c->owner.Release(frame, 0);
      Require(!c->guest.Put(frame, 0).has_value(), "put failed");
      std::vector<std::pair<FrameId, unsigned>> held;
      GetAndHold(c, 0, 0, AllocType::kMovable, &held);
      PutAll(c, &held);
    });
    exec.Spawn([c] {
      for (HugeId h = 0; h < c->state.num_areas(); ++h) {
        if (c->monitor.TryHardReclaim(h, /*allow_reserved=*/true)) {
          c->states.Set(h, ReclaimState::kHard);
          ++c->reclaimed;
        }
      }
    });
    exec.OnStep([c, oracle] {
      CheckStepInvariants(c->state);
      c->owner();
      (*oracle)();
    });
    exec.OnEnd([c] {
      CheckQuiescent(c->guest);
      Require(c->guest.FreeFrames() ==
                  1024 - static_cast<uint64_t>(c->reclaimed) *
                             kFramesPerHuge,
              "reclaimed-frame accounting drifted");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 3: the guest's reservation is attacked from two sides at
// once — a drain (the cache-purge reaction, §3.3) and the monitor
// stealing parked frames via hard reclaim — while the owner allocates.
// --------------------------------------------------------------------
Scenario StealVsDrain() {
  return [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerType;
    cfg.areas_per_tree = 2;
    auto c = std::make_shared<Ctx>(2048, cfg);
    // Establish an active reservation with a large local counter.
    const Result<FrameId> pre = c->guest.Get(0, 0, AllocType::kMovable);
    Require(pre.ok(), "prefill get failed");
    c->owner.Acquire(*pre, 0);

    exec.Spawn([c, frame = *pre] {
      std::vector<std::pair<FrameId, unsigned>> held;
      GetAndHold(c, 0, 0, AllocType::kMovable, &held);
      c->owner.Release(frame, 0);
      Require(!c->guest.Put(frame, 0).has_value(), "put failed");
      PutAll(c, &held);
    });
    exec.Spawn([c] { c->guest.DrainReservations(); });
    exec.Spawn([c] {
      for (HugeId h = c->state.num_areas(); h-- > 0;) {
        if (c->monitor.TryHardReclaim(h, /*allow_reserved=*/true)) {
          ++c->reclaimed;
        }
      }
    });
    exec.OnStep([c] {
      CheckStepInvariants(c->state);
      c->owner();
    });
    exec.OnEnd([c] {
      CheckQuiescent(c->guest);
      Require(c->guest.FreeFrames() ==
                  2048 - static_cast<uint64_t>(c->reclaimed) *
                             kFramesPerHuge,
              "steal/drain accounting drifted");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 4: balloon deflate (monitor returns hard-reclaimed frames,
// H -> S) racing guest allocation of those same frames. The install
// handshake must pin the backing before the guest's Get returns, and
// pin counts must never underflow.
// --------------------------------------------------------------------
Scenario DeflateVsGuestAlloc() {
  return [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerType;
    cfg.areas_per_tree = 2;
    auto c = std::make_shared<Ctx>(2048, cfg);
    // Setup (not model-checked): everything installed, then hard-reclaim
    // areas 1..3 — the inflated balloon.
    for (HugeId h = 0; h < c->state.num_areas(); ++h) {
      c->pins.Pin(h);
    }
    for (HugeId h = 1; h < c->state.num_areas(); ++h) {
      Require(c->monitor.TryHardReclaim(h), "setup hard reclaim failed");
      c->states.Set(h, ReclaimState::kHard);
      c->pins.Unpin(h);
    }
    auto oracle = std::make_shared<ReclaimTransitionOracle>(&c->states);
    // Raw capture: the handler is stored inside the Ctx itself, so a
    // shared_ptr capture would be a reference cycle (and a leak).
    c->guest.SetInstallHandler([ctx = c.get()](HugeId huge) {
      // Host-side install: back the frame, flip R, clear the hint.
      ctx->pins.Pin(huge);
      ctx->states.Set(huge, ReclaimState::kInstalled);
      Require(ctx->monitor.ClearEvicted(huge),
              "install: evicted hint already clear");
    });

    exec.Spawn([c] {  // Monitor: deflate two huge frames.
      for (HugeId h = 1; h <= 2; ++h) {
        // R <- S before the shared state frees the frame, as the
        // monitor's return slice does: the guest may allocate (and
        // install) the frame as soon as MarkReturned credits its tree.
        c->states.Set(h, ReclaimState::kSoft);
        Require(c->monitor.MarkReturned(h), "deflate return failed");
      }
    });
    exec.Spawn([c] {  // Guest: grab huge frames as they appear.
      std::vector<HugeId> taken;
      for (int attempt = 0; attempt < 2; ++attempt) {
        const Result<FrameId> r =
            c->guest.Get(0, kHugeOrder, AllocType::kHuge);
        if (!r.ok()) {
          continue;
        }
        const HugeId huge = FrameToHuge(*r);
        c->owner.AcquireHuge(huge);
        // DMA safety: memory handed to the guest must be host-backed.
        Require(c->pins.IsPinned(huge),
                "guest allocated an unbacked (unpinned) huge frame");
        taken.push_back(huge);
      }
      for (const HugeId huge : taken) {
        c->owner.ReleaseHuge(huge);
        Require(!c->guest.Put(HugeToFrame(huge), kHugeOrder).has_value(),
                "huge put failed");
      }
    });
    exec.OnStep([c, oracle] {
      CheckStepInvariants(c->state);
      c->owner();
      (*oracle)();
    });
    exec.OnEnd([c] { CheckQuiescent(c->guest); });
  };
}

// --------------------------------------------------------------------
// Scenario 5: the sharded host frame pool under concurrent admission.
// Two VMs (threads, each pinned to its shard) reserve and release
// against a pool that only fits both if the cross-shard rebalancer
// works; the credit-chain under-promise invariant is checked at every
// schedule point and exact conservation plus the CAS-max peak at the
// end. HostMemory is header-only, so this binary's check::Atomic shim
// instruments it just like the LLFree core.
// --------------------------------------------------------------------
Scenario HostPoolReserveRelease() {
  return [](Execution& exec) {
    constexpr uint64_t kBatch = hv::HostMemory::kCreditBatch;
    struct PoolCtx {
      hv::HostMemory pool{2 * kBatch, /*shards=*/2};
      uint64_t max_used = 0;  // model threads are sequentialized
    };
    auto c = std::make_shared<PoolCtx>();
    for (unsigned t = 0; t < 2; ++t) {
      exec.Spawn([c, t] {
        // Half the pool each: the second thread's refill finds the
        // global reserve dry and must raid the first shard's credit.
        if (c->pool.TryReserve(kBatch, t)) {
          c->max_used = std::max(c->max_used, c->pool.used_frames());
          c->pool.Release(kBatch, t);
        }
        // Sub-batch round: exercises the banked-credit fast path and the
        // drain-back-to-global on release.
        if (c->pool.TryReserve(kBatch / 2 + 1, t)) {
          c->max_used = std::max(c->max_used, c->pool.used_frames());
          c->pool.Release(kBatch / 2 + 1, t);
        }
      });
    }
    exec.OnStep([c] { CheckHostMemoryStep(c->pool); });
    exec.OnEnd([c] {
      CheckHostMemoryQuiescent(c->pool);
      Require(c->pool.used_frames() == 0,
              "everything released but used != 0");
      Require(c->pool.peak_frames() >= c->max_used,
              "peak below a usage level a thread observed (lost CAS-max "
              "update)");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 6: the span ring (src/trace/span_ring.h) under preemption —
// a writer emitting spans into a deliberately tiny ring while a drainer
// streams them out mid-flight. RingCore is instantiated with
// check::Atomic and check::Shared (a distinct type from the production
// RingCore<SpanRecord, std::atomic>, so no ODR hazard), making every
// head/tail access a schedule point and every slot access
// happens-before-checked. Oracle: every value the writer successfully
// pushed is drained exactly once, in order, and
// accepted + dropped == attempted — and no slot access races.
// --------------------------------------------------------------------
struct SpanRingCtx {
  trace::RingCore<uint64_t, Atomic, Shared> ring{2};
  std::vector<uint64_t> accepted;  // model threads are sequentialized
  std::vector<uint64_t> drained;
};

Scenario SpanRingWriterVsDrainer() {
  return [](Execution& exec) {
    auto c = std::make_shared<SpanRingCtx>();
    exec.Spawn([c] {  // writer: 3 spans against capacity 2 (forces the
                      // full-ring drop-newest path in some schedules)
      for (uint64_t value = 1; value <= 3; ++value) {
        if (c->ring.Push(value)) {
          c->accepted.push_back(value);
        }
      }
    });
    exec.Spawn([c] { c->ring.Drain(&c->drained); });
    exec.OnStep([c] {
      Require(c->ring.size() <= c->ring.capacity(),
              "ring published more events than its capacity");
    });
    exec.OnEnd([c] {
      c->ring.Drain(&c->drained);  // final sweep at quiescence
      Require(c->accepted.size() + c->ring.dropped() == 3,
              "accepted + dropped != attempted pushes");
      Require(c->drained == c->accepted,
              "lost span: drained events differ from the accepted "
              "sequence");
    });
  };
}

// --------------------------------------------------------------------
// Mutant: a drain that re-reads `head` AFTER the copy loop and stores
// *that* as the new tail — spans published between the copy and the
// re-read are marked consumed without ever being copied out. This is
// the lost-event bug the release/acquire protocol exists to prevent;
// the harness must find the interleaving in both modes. RingCore's
// members are protected precisely so this subclass can exist.
// --------------------------------------------------------------------
struct BrokenDrainRing : trace::RingCore<uint64_t, Atomic, Shared> {
  using RingCore::RingCore;

  void DrainBroken(std::vector<uint64_t>* out) {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    for (; tail != head; ++tail) {
      out->push_back(ring_[tail % ring_.size()].read());
    }
    // BUG (deliberate): acknowledging the *current* head instead of the
    // position the copy loop stopped at skips concurrent pushes.
    tail_.store(head_.load(std::memory_order_acquire),
                std::memory_order_release);
  }
};

Scenario SpanRingLostEventMutant() {
  return [](Execution& exec) {
    struct MutantCtx {
      BrokenDrainRing ring{4};
      std::vector<uint64_t> accepted;
      std::vector<uint64_t> drained;
    };
    auto c = std::make_shared<MutantCtx>();
    exec.Spawn([c] {
      for (uint64_t value = 1; value <= 2; ++value) {
        if (c->ring.Push(value)) {
          c->accepted.push_back(value);
        }
      }
    });
    exec.Spawn([c] { c->ring.DrainBroken(&c->drained); });
    exec.OnEnd([c] {
      c->ring.Drain(&c->drained);  // correct final sweep at quiescence
      Require(c->drained == c->accepted,
              "lost span: drained events differ from the accepted "
              "sequence");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 7 (fault schedule): the monitor's hard-reclaim scan runs
// under an injected EPT-unmap failure schedule (DESIGN.md §4.9). Every
// failed unmap is rolled back H -> S exactly as
// HyperAllocMonitor::RollbackFrame does, while a guest thread allocates
// concurrently. Oracle: whatever subset of unmaps the schedule fails,
// no frame is lost or double-freed — free-frame accounting balances at
// quiescence and every R transition stays legal.
// --------------------------------------------------------------------
Scenario FaultedReclaimRollsBack() {
  return [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerType;
    cfg.areas_per_tree = 2;
    auto c = std::make_shared<Ctx>(1024, cfg);
    fault::Plan plan;
    plan.seed = 42;
    plan.spec(fault::Site::kEptUnmap).steps = {0};  // first unmap fails
    auto injector = std::make_shared<fault::Injector>(plan);
    // Prefill: one base frame keeps area 0 partially used, so the guest
    // thread stays out of the reclaim scan's way.
    const Result<FrameId> pre = c->guest.Get(0, 0, AllocType::kMovable);
    Require(pre.ok(), "prefill get failed");
    c->owner.Acquire(*pre, 0);
    auto oracle = std::make_shared<ReclaimTransitionOracle>(&c->states);

    exec.Spawn([c, frame = *pre] {
      c->owner.Release(frame, 0);
      Require(!c->guest.Put(frame, 0).has_value(), "put failed");
      std::vector<std::pair<FrameId, unsigned>> held;
      GetAndHold(c, 0, 0, AllocType::kMovable, &held);
      PutAll(c, &held);
    });
    exec.Spawn([c, injector] {  // monitor: reclaim scan + fault recovery
      for (HugeId h = 0; h < c->state.num_areas(); ++h) {
        if (!c->monitor.TryHardReclaim(h, /*allow_reserved=*/true)) {
          continue;
        }
        c->states.Set(h, ReclaimState::kHard);
        ++c->reclaimed;
        if (injector->Poll(fault::Site::kEptUnmap).has_value()) {
          // The unmap failed: roll the frame back to soft-reclaimed
          // (HyperAllocMonitor::RollbackFrame's H -> S edge) and give
          // its accounting back.
          Require(c->monitor.MarkReturned(h), "rollback return failed");
          c->states.Set(h, ReclaimState::kSoft);
          --c->reclaimed;
        }
      }
    });
    exec.OnStep([c, oracle] {
      CheckStepInvariants(c->state);
      c->owner();
      (*oracle)();
    });
    exec.OnEnd([c] {
      CheckQuiescent(c->guest);
      Require(c->guest.FreeFrames() ==
                  1024 - static_cast<uint64_t>(c->reclaimed) *
                             kFramesPerHuge,
              "fault-rollback accounting drifted: frame lost or "
              "double-freed");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 8 (fault schedule): balloon-deflate-vs-alloc (scenario 4)
// with a failing EPT map inside the install handshake. The correct
// handler retries the map until it succeeds, so the DMA-safety oracle
// (only pinned frames reach the guest) must hold across every injected
// failure and interleaving.
// --------------------------------------------------------------------
std::shared_ptr<Ctx> DeflateSetup(Execution& exec,
                                  std::shared_ptr<fault::Injector>* out) {
  Config cfg;
  cfg.mode = Config::ReservationMode::kPerType;
  cfg.areas_per_tree = 2;
  auto c = std::make_shared<Ctx>(2048, cfg);
  for (HugeId h = 0; h < c->state.num_areas(); ++h) {
    c->pins.Pin(h);
  }
  for (HugeId h = 1; h < c->state.num_areas(); ++h) {
    Require(c->monitor.TryHardReclaim(h), "setup hard reclaim failed");
    c->states.Set(h, ReclaimState::kHard);
    c->pins.Unpin(h);
  }
  fault::Plan plan;
  plan.seed = 7;
  plan.spec(fault::Site::kEptMap).steps = {0};  // first install map fails
  *out = std::make_shared<fault::Injector>(plan);

  exec.Spawn([c] {  // monitor: deflate two huge frames (R <- S first)
    for (HugeId h = 1; h <= 2; ++h) {
      c->states.Set(h, ReclaimState::kSoft);
      Require(c->monitor.MarkReturned(h), "deflate return failed");
    }
  });
  exec.Spawn([c] {  // guest: grab huge frames as they appear
    for (int attempt = 0; attempt < 2; ++attempt) {
      const Result<FrameId> r = c->guest.Get(0, kHugeOrder, AllocType::kHuge);
      if (!r.ok()) {
        continue;
      }
      const HugeId huge = FrameToHuge(*r);
      c->owner.AcquireHuge(huge);
      Require(c->pins.IsPinned(huge),
              "guest allocated an unbacked (unpinned) huge frame");
      c->owner.ReleaseHuge(huge);
      Require(!c->guest.Put(HugeToFrame(huge), kHugeOrder).has_value(),
              "huge put failed");
    }
  });
  exec.OnStep([c] {
    CheckStepInvariants(c->state);
    c->owner();
  });
  exec.OnEnd([c] { CheckQuiescent(c->guest); });
  return c;
}

Scenario FaultedInstallRetries() {
  return [](Execution& exec) {
    std::shared_ptr<fault::Injector> injector;
    auto c = DeflateSetup(exec, &injector);
    c->guest.SetInstallHandler([ctx = c.get(), injector](HugeId huge) {
      // Bounded retry, as the real install path does: the map only
      // counts once it stops faulting, and the frame is pinned before
      // the allocation returns.
      unsigned attempts = 0;
      while (injector->Poll(fault::Site::kEptMap).has_value()) {
        Require(++attempts < 8, "install retries exhausted in model");
      }
      ctx->pins.Pin(huge);
      ctx->states.Set(huge, ReclaimState::kInstalled);
      Require(ctx->monitor.ClearEvicted(huge),
              "install: evicted hint already clear");
    });
  };
}

// --------------------------------------------------------------------
// Mutant: dropped rollback on a failed EPT map. The install handler
// sees the map fault but neither retries nor rolls the frame back — it
// clears the evicted hint and reports success, handing the guest a
// frame with no host backing. The DMA-safety oracle must catch this in
// both random and exhaustive modes.
// --------------------------------------------------------------------
Scenario DroppedRollbackOnFailedMapMutant() {
  return [](Execution& exec) {
    std::shared_ptr<fault::Injector> injector;
    auto c = DeflateSetup(exec, &injector);
    c->guest.SetInstallHandler([ctx = c.get(), injector](HugeId huge) {
      if (injector->Poll(fault::Site::kEptMap).has_value()) {
        // BUG (deliberate): the map failed, but the handler finishes the
        // install anyway instead of retrying or rolling back — the
        // frame is never pinned.
        ctx->states.Set(huge, ReclaimState::kInstalled);
        (void)ctx->monitor.ClearEvicted(huge);
        return;
      }
      ctx->pins.Pin(huge);
      ctx->states.Set(huge, ReclaimState::kInstalled);
      Require(ctx->monitor.ClearEvicted(huge),
              "install: evicted hint already clear");
    });
  };
}

// --------------------------------------------------------------------
// Mutant: ClaimBaseBatch's shortfall rollback dropped. The batched claim
// pre-charges the counter for `want` frames, then the word CAS discovers
// fewer free bits (a racing free has credited the counter but not yet
// cleared its bit) — the real code gives the difference back; this one
// does not, so the counter drifts below the bitfield's truth. The
// counter/bitfield mismatch must be caught in both modes.
// --------------------------------------------------------------------
struct LostBatchCtx {
  // One 8-frame area, frame 0 pre-allocated: counter + bitfield word.
  Atomic<uint64_t> free_count{7};
  Atomic<uint64_t> bits{1};
  uint64_t taken_mask = 0;  // model threads are sequentialized
  unsigned taken = 0;

  // The racing free: credit the counter FIRST, clear the bit second —
  // the same transient window LLFree's put leaves between the tree
  // counter and the area bitfield.
  void FreeFrameZero() {
    free_count.fetch_add(1, std::memory_order_acq_rel);
    bits.fetch_and(~1ull, std::memory_order_acq_rel);
  }

  // The buggy batched claim.
  unsigned ClaimUpTo(unsigned want_in) {
    uint64_t current = free_count.load(std::memory_order_acquire);
    unsigned want;
    do {
      want = static_cast<unsigned>(
          std::min<uint64_t>(current, uint64_t{want_in}));
      if (want == 0) {
        return 0;
      }
    } while (!free_count.compare_exchange_weak(
        current, current - want, std::memory_order_acq_rel,
        std::memory_order_acquire));
    uint64_t word = bits.load(std::memory_order_acquire);
    unsigned got;
    for (;;) {
      uint64_t claim = 0;
      uint64_t occupied = word | ~0xffull;  // 8-frame area
      got = 0;
      while (got < want) {
        const unsigned pos =
            static_cast<unsigned>(std::countr_one(occupied));
        if (pos >= 8) {
          break;
        }
        claim |= 1ull << pos;
        occupied |= 1ull << pos;
        ++got;
      }
      if (bits.compare_exchange_weak(word, word | claim,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        taken_mask |= claim;
        taken += got;
        break;
      }
    }
    // BUG (deliberate): when got < want, the (want - got) frames charged
    // off the counter were never claimed in the bitfield — the real
    // ClaimBaseBatch adds the shortfall back here.
    return got;
  }
};

Scenario LostBatchRollbackMutant() {
  return [](Execution& exec) {
    auto c = std::make_shared<LostBatchCtx>();
    exec.Spawn([c] { c->FreeFrameZero(); });
    exec.Spawn([c] { (void)c->ClaimUpTo(8); });
    exec.OnEnd([c] {
      // Return the claimed train correctly, then counter and bitfield
      // must agree again — unless a shortfall rollback was lost.
      if (c->taken > 0) {
        c->bits.fetch_and(~c->taken_mask, std::memory_order_acq_rel);
        c->free_count.fetch_add(c->taken, std::memory_order_acq_rel);
      }
      const uint64_t free_bits = 8 - static_cast<uint64_t>(std::popcount(
          c->bits.load(std::memory_order_acquire) & 0xffull));
      Require(c->free_count.load(std::memory_order_acquire) == free_bits,
              "lost batch rollback: counter drifted from the bitfield");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 9 (§4.14): compaction re-forms a splintered huge frame while
// a guest thread allocates and frees concurrently. The compactor thread
// follows the real daemon's protocol (guest::Compactor::TryCompactBlock
// over an LLFree zone): ClaimFreeInArea isolates the area's free
// frames, every straggler is migrated to a destination claimed from the
// allocator, and one batched put returns isolation + evacuated sources
// (GuestVm::ReleaseIsolatedRange). Conservation must hold on every
// schedule, and at quiescence the splintered area is whole again unless
// the racing guest (legally) steered a migration destination into it.
// --------------------------------------------------------------------
struct CompactionSetup {
  std::shared_ptr<Ctx> c;
  std::shared_ptr<std::vector<FrameId>> stragglers;
  HugeId area = 0;
};

CompactionSetup SplinterOneArea() {
  Config cfg;
  cfg.mode = Config::ReservationMode::kPerCore;
  cfg.cores = 2;
  cfg.areas_per_tree = 4;
  CompactionSetup s;
  s.c = std::make_shared<Ctx>(2048, cfg);
  s.stragglers = std::make_shared<std::vector<FrameId>>();

  // Single-threaded setup: claim a run, keep 3 stragglers in one area,
  // free the rest — the two-pass churn shape that splinters areas.
  std::vector<FrameId> run;
  s.c->guest.GetBatch(0, 0, 64, AllocType::kMovable, &run);
  Require(!run.empty(), "setup batch claimed nothing");
  s.area = FrameToHuge(run[0]);
  for (const FrameId f : run) {
    if (FrameToHuge(f) == s.area && s.stragglers->size() < 3) {
      s.stragglers->push_back(f);
      s.c->owner.Acquire(f, 0);
    } else {
      Require(!s.c->guest.Put(f, 0).has_value(), "setup put failed");
    }
  }
  Require(s.stragglers->size() == 3, "setup failed to place stragglers");
  return s;
}

void SpawnConcurrentGuest(Execution& exec,
                          const std::shared_ptr<Ctx>& c) {
  exec.Spawn([c] {
    std::vector<std::pair<FrameId, unsigned>> held;
    GetAndHold(c, 0, 0, AllocType::kMovable, &held);
    GetAndHold(c, 0, 0, AllocType::kMovable, &held);
    PutAll(c, &held);
  });
}

Scenario CompactionReformsHugeFrame() {
  return [](Execution& exec) {
    CompactionSetup s = SplinterOneArea();
    auto c = s.c;
    auto dest_in_area = std::make_shared<bool>(false);

    exec.Spawn([c, s, dest_in_area] {
      std::vector<FrameId> isolated;
      (void)c->guest.ClaimFreeInArea(s.area, &isolated);
      for (const FrameId f : isolated) {
        c->owner.Acquire(f, 0);
      }
      for (const FrameId src : *s.stragglers) {
        const Result<FrameId> dest =
            c->guest.Get(1, 0, AllocType::kMovable);
        Require(dest.ok(), "no destination for migration");
        c->owner.Acquire(*dest, 0);
        if (FrameToHuge(*dest) == s.area) {
          // The guest freed a frame into the area after the isolation
          // claim and the allocator handed it out as a destination —
          // legal, but the area then cannot end whole.
          *dest_in_area = true;
        }
        // The data now lives in *dest; the source joins the isolation
        // (alloc_contig_range semantics).
        isolated.push_back(src);
      }
      for (const FrameId f : isolated) {
        c->owner.Release(f, 0);
      }
      Require(c->guest.PutBatch(isolated, 0) == isolated.size(),
              "isolation release freed fewer frames than isolated");
    });
    SpawnConcurrentGuest(exec, c);
    exec.OnStep([c] {
      CheckStepInvariants(c->state);
      c->owner();
    });
    exec.OnEnd([c, s, dest_in_area] {
      CheckQuiescent(c->guest);
      Require(c->guest.FreeFrames() == 2048 - 3,
              "frames lost across the compaction pass");
      Require(*dest_in_area ||
                  c->guest.ReadArea(s.area).free == kFramesPerHuge,
              "evacuated area did not re-form a whole huge frame");
    });
  };
}

// --------------------------------------------------------------------
// Mutant: the evacuated sources dropped from the isolation release. The
// real compactor transfers every migrated source frame to the isolation
// and returns isolation + sources in one batched put; this one returns
// only the claimed holes, so the migrated frames leak and the area can
// never re-form a whole huge frame.
// --------------------------------------------------------------------
Scenario LostMigrationMutant() {
  return [](Execution& exec) {
    CompactionSetup s = SplinterOneArea();
    auto c = s.c;

    exec.Spawn([c, s] {
      std::vector<FrameId> isolated;
      (void)c->guest.ClaimFreeInArea(s.area, &isolated);
      for (const FrameId f : isolated) {
        c->owner.Acquire(f, 0);
      }
      for (const FrameId src : *s.stragglers) {
        const Result<FrameId> dest =
            c->guest.Get(1, 0, AllocType::kMovable);
        Require(dest.ok(), "no destination for migration");
        c->owner.Acquire(*dest, 0);
        // BUG (deliberate): the source frame never joins the isolation —
        // the release below returns only the claimed holes.
        (void)src;
      }
      for (const FrameId f : isolated) {
        c->owner.Release(f, 0);
      }
      (void)c->guest.PutBatch(isolated, 0);
    });
    SpawnConcurrentGuest(exec, c);
    exec.OnStep([c] {
      CheckStepInvariants(c->state);
      c->owner();
    });
    exec.OnEnd([c] {
      Require(c->guest.FreeFrames() == 2048 - 3,
              "lost migration: evacuated source frames leaked");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 10: two per-type slots (movable, unmovable) race the
// one-scan tree reservation for the last eligible tree. Both slots
// start their search at tree 0, so both rank it first; the slot whose
// CAS loses must rescan. With a spare tree the rescan reserves it and
// both Gets succeed. Without one the loser falls back and steals from
// the winner's reservation — or fails, if the winner has claimed the
// tree but not yet published its reservation (those frames are in
// neither counter for a moment, as in every LLFree reservation). At
// every step no tree is named by two active reservations and every
// active reservation's tree is marked reserved; at quiescence
// Validate() holds and the frames balance. `rescans` counts the
// executions in which a reservation CAS was lost (from
// "llfree.tree_scan": each lost CAS costs one more scan).
// --------------------------------------------------------------------
uint64_t TreeScans() {
  return trace::CounterRegistry::Global()
      .FindOrCreate("llfree.tree_scan")
      .Value();
}

void CheckReservationsDisjoint(const LLFree& ll) {
  const unsigned slots = ll.config().NumSlots();
  for (unsigned s = 0; s < slots; ++s) {
    const llfree::Reservation r = ll.ReadReservation(s);
    if (!r.active) {
      continue;
    }
    Require(ll.ReadTree(r.tree).reserved,
            "an active reservation names an unreserved tree");
    for (unsigned other = s + 1; other < slots; ++other) {
      const llfree::Reservation o = ll.ReadReservation(other);
      Require(!o.active || o.tree != r.tree,
              "two slots reserved the same tree");
    }
  }
}

Scenario ReserveRaceForLastTree(unsigned trees, uint64_t* rescans) {
  return [trees, rescans](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerType;
    cfg.areas_per_tree = 1;
    const uint64_t frames = trees * kFramesPerHuge;
    auto c = std::make_shared<Ctx>(frames, cfg);
    for (unsigned s = 0; s < cfg.NumSlots(); ++s) {
      c->state.tree_hints()[s].store(0, std::memory_order_relaxed);
    }
    for (const AllocType type :
         {AllocType::kMovable, AllocType::kUnmovable}) {
      exec.Spawn([c, type, trees] {
        std::vector<std::pair<FrameId, unsigned>> held;
        GetAndHold(c, 0, 0, type, &held);
        Require(trees == 1 || held.size() == 1,
                "a racing Get failed while a spare tree was free");
        c->held += static_cast<int>(held.size());
      });
    }
    exec.OnStep([c] {
      CheckStepInvariants(c->state);
      c->owner();
      CheckReservationsDisjoint(c->guest);
    });
    // Scans without a lost CAS: one per Get, plus the loser's failed
    // scan and fallback scan when no spare tree exists.
    const uint64_t scans_before = TreeScans();
    const uint64_t uncontended = trees == 1 ? 3 : 2;
    exec.OnEnd([c, trees, frames, rescans, scans_before, uncontended] {
      CheckQuiescent(c->guest);
      Require(c->guest.FreeFrames() ==
                  frames - static_cast<uint64_t>(c->held),
              "reservation race: frames leaked or double-counted");
      unsigned active = 0;
      for (unsigned s = 0; s < c->guest.config().NumSlots(); ++s) {
        active += c->guest.ReadReservation(s).active ? 1 : 0;
      }
      Require(active == trees,
              "the race loser neither reserved the spare tree nor fell "
              "back");
      if (TreeScans() - scans_before > uncontended) {
        ++*rescans;
      }
    });
  };
}

// --------------------------------------------------------------------
// Scenario 11: two Gets sharing one per-type slot race the put-reserve
// resync. The slot's reservation is dry and its tree's global counter
// holds two freed frames, so both Gets try to steal that counter into
// the reservation. The loser's update retries, finds the counter
// already emptied and must steal nothing; a count kept from its first
// try would credit frames that were never taken (regression: the step
// oracle's per-tree bound catches the double credit).
// --------------------------------------------------------------------
Scenario ResyncStealRace() {
  return [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerType;
    cfg.areas_per_tree = 1;
    auto c = std::make_shared<Ctx>(kFramesPerHuge, cfg);
    std::vector<FrameId> all;
    Require(c->guest.GetBatch(0, 0, kFramesPerHuge, AllocType::kMovable,
                              &all) == kFramesPerHuge,
            "prefill batch failed");
    for (size_t i = 2; i < all.size(); ++i) {
      c->owner.Acquire(all[i], 0);
    }
    for (size_t i = 0; i < 2; ++i) {
      Require(!c->guest.Put(all[i], 0).has_value(), "prefill put failed");
    }
    for (int t = 0; t < 2; ++t) {
      exec.Spawn([c] {
        std::vector<std::pair<FrameId, unsigned>> held;
        GetAndHold(c, 0, 0, AllocType::kMovable, &held);
        c->held += static_cast<int>(held.size());
      });
    }
    exec.OnStep([c] {
      CheckStepInvariants(c->state);
      c->owner();
    });
    exec.OnEnd([c] {
      CheckQuiescent(c->guest);
      Require(c->guest.FreeFrames() ==
                  2 - static_cast<uint64_t>(c->held),
              "resync race: frames leaked or double-counted");
    });
  };
}

// --------------------------------------------------------------------
// Scenario 12: the dry-zone memo (DESIGN.md §4.1). A guest thread drains
// a one-area zone and probes it dry — its last Get fails through
// GetFallback, which records dry(1) — while a second thread frees a
// frame. Whichever way the probe and the free interleave, the memo may
// not hide the freed frame: at quiescence Validate() rejects a dry memo
// next to a non-zero counter, and a Get succeeds whenever a frame is
// free.
// --------------------------------------------------------------------
Scenario DryMemoWakesOnFree() {
  return [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerType;
    cfg.areas_per_tree = 1;
    auto c = std::make_shared<Ctx>(kFramesPerHuge, cfg);
    std::vector<FrameId> all;
    Require(c->guest.GetBatch(0, 0, kFramesPerHuge - 1, AllocType::kMovable,
                              &all) == kFramesPerHuge - 1,
            "prefill batch failed");
    for (const FrameId frame : all) {
      c->owner.Acquire(frame, 0);
    }
    exec.Spawn([c] {  // drains the last frame, then probes the zone dry
      std::vector<std::pair<FrameId, unsigned>> held;
      GetAndHold(c, 0, 0, AllocType::kMovable, &held);
      GetAndHold(c, 0, 0, AllocType::kMovable, &held);
      c->held += static_cast<int>(held.size());
    });
    exec.Spawn([c, frame = all[0]] {
      c->owner.Release(frame, 0);
      Require(!c->guest.Put(frame, 0).has_value(), "put failed");
    });
    exec.OnStep([c] {
      CheckStepInvariants(c->state);
      c->owner();
    });
    exec.OnEnd([c] {
      CheckQuiescent(c->guest);
      Require(c->guest.FreeFrames() == 2 - static_cast<uint64_t>(c->held),
              "dry-memo race: frames leaked or double-counted");
      if (c->guest.FreeFrames() > 0) {
        Require(c->guest.Get(0, 0, AllocType::kMovable).ok(),
                "dry memo hides a free frame");
      }
    });
  };
}

// --------------------------------------------------------------------
// Mutants of the dry-memo protocol, on a model of it: one tree counter,
// the memo word (the real DryMemo encoding), a credit that clears the
// memo, and GetFallback's announce / scan / complete probe. The correct
// model survives complete exhaustive exploration with one prober (and
// random walks plus a bounded DFS with two). Each mutant breaks
// one part of the protocol, and both modes must find the execution
// that leaves dry(1) standing next to a free frame:
//   - clearing the memo *before* the credit lets a probe announce and
//     scan in between;
//   - an acquire (not seq_cst) probe load may read the counter from
//     before a credit whose clear ran before the announcement;
//   - without the generation, a second probe that announces after the
//     credit cleared the first one re-creates the first probe's word,
//     and the first probe's stale scan completes it to dry.
// --------------------------------------------------------------------
enum class DryMemoMutant {
  kNone,
  kClearBeforeCredit,
  kAcquireProbe,
  kNoGeneration,
};

struct DryMemoModel {
  DryMemoMutant mutant = DryMemoMutant::kNone;
  Atomic<uint32_t> free{1};  // the zone's one tree counter
  Atomic<uint32_t> memo{llfree::DryMemo{}.Pack()};

  bool Take() {
    uint32_t current = free.load(std::memory_order_acquire);
    while (current > 0) {
      if (free.compare_exchange_weak(current, current - 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  void ClearMemo() {
    uint32_t raw = memo.load(std::memory_order_seq_cst);
    for (;;) {
      llfree::DryMemo m = llfree::DryMemo::Unpack(raw);
      if (m.kind == llfree::DryMemo::Kind::kIdle) {
        return;
      }
      m.kind = llfree::DryMemo::Kind::kIdle;
      if (memo.compare_exchange_weak(raw, m.Pack(),
                                     std::memory_order_seq_cst,
                                     std::memory_order_seq_cst)) {
        return;
      }
    }
  }

  void Credit() {
    const bool early = mutant == DryMemoMutant::kClearBeforeCredit;
    if (early) {
      ClearMemo();  // BUG (mutant): a probe may announce after this
    }
    free.fetch_add(1, std::memory_order_seq_cst);
    if (!early) {
      ClearMemo();
    }
  }

  // GetFallback for one frame, minus the steal: announce, scan, complete.
  void Probe() {
    uint32_t raw = memo.load(std::memory_order_seq_cst);
    llfree::DryMemo probing;
    for (;;) {
      const llfree::DryMemo m = llfree::DryMemo::Unpack(raw);
      if (m.kind == llfree::DryMemo::Kind::kProbing || m.Covers(1)) {
        return;
      }
      const bool bump = mutant != DryMemoMutant::kNoGeneration;
      probing = {llfree::DryMemo::Kind::kProbing, 1, m.gen + (bump ? 1 : 0)};
      if (memo.compare_exchange_weak(raw, probing.Pack(),
                                     std::memory_order_seq_cst,
                                     std::memory_order_seq_cst)) {
        break;
      }
    }
    const bool seen =
        free.load(mutant == DryMemoMutant::kAcquireProbe
                      ? std::memory_order_acquire
                      : std::memory_order_seq_cst) > 0;
    llfree::DryMemo done = probing;
    done.kind = seen ? llfree::DryMemo::Kind::kIdle
                     : llfree::DryMemo::Kind::kDry;
    uint32_t expected = probing.Pack();
    (void)memo.compare_exchange_strong(expected, done.Pack(),
                                       std::memory_order_seq_cst,
                                       std::memory_order_seq_cst);
  }
};

// One thread drains the zone and probes it, one frees a frame, and
// `second_prober` adds a thread that probes as well.
Scenario DryMemoProtocol(DryMemoMutant mutant, bool second_prober) {
  return [mutant, second_prober](Execution& exec) {
    auto c = std::make_shared<DryMemoModel>();
    c->mutant = mutant;
    exec.Spawn([c] {
      while (c->Take()) {
      }
      c->Probe();
    });
    exec.Spawn([c] { c->Credit(); });
    if (second_prober) {
      exec.Spawn([c] { c->Probe(); });
    }
    exec.OnEnd([c] {
      const bool dry = llfree::DryMemo::Unpack(
                           c->memo.load(std::memory_order_seq_cst))
                           .Covers(1);
      Require(!dry || c->free.load(std::memory_order_seq_cst) == 0,
              "dry memo hides a free frame");
    });
  };
}

RunResult ExploreRandom(const Scenario& scenario, uint64_t iterations,
                        uint64_t seed = 1) {
  Options opt;
  opt.mode = Options::Mode::kRandom;
  opt.iterations = iterations;
  opt.seed = seed;
  return Explore(opt, scenario);
}

void ExpectClean(const RunResult& r) {
  EXPECT_FALSE(r.failed) << r.message << " (failing seed "
                         << r.failing_seed << ")";
}

TEST(ModelCheckScenarios, GetPutOneTree) {
  ExpectClean(ExploreRandom(GetPutOneTree(), ScaledIters(1500)));
}

TEST(ModelCheckScenarios, BatchGetPutOneTree) {
  ExpectClean(ExploreRandom(BatchGetPutOneTree(), ScaledIters(1500)));
}

TEST(ModelCheckMutant, RandomWalkFindsLostBatchRollback) {
  const RunResult r = ExploreRandom(LostBatchRollbackMutant(), 2000);
  ASSERT_TRUE(r.failed)
      << "random exploration missed the lost-batch-rollback mutant";
  EXPECT_NE(r.message.find("lost batch rollback"), std::string::npos)
      << r.message;
}

TEST(ModelCheckMutant, ExhaustiveFindsLostBatchRollback) {
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, LostBatchRollbackMutant());
  ASSERT_TRUE(r.failed)
      << "exhaustive exploration missed the lost-batch-rollback mutant";
  EXPECT_NE(r.message.find("lost batch rollback"), std::string::npos)
      << r.message;
}

TEST(ModelCheckScenarios, PutVsReclaimScan) {
  ExpectClean(ExploreRandom(PutVsReclaimScan(), ScaledIters(1500)));
}

TEST(ModelCheckScenarios, StealVsDrain) {
  ExpectClean(ExploreRandom(StealVsDrain(), ScaledIters(1500)));
}

TEST(ModelCheckScenarios, DeflateVsGuestAlloc) {
  ExpectClean(ExploreRandom(DeflateVsGuestAlloc(), ScaledIters(1500)));
}

TEST(ModelCheckScenarios, HostPoolReserveRelease) {
  ExpectClean(ExploreRandom(HostPoolReserveRelease(), ScaledIters(1500)));
}

TEST(ModelCheckScenarios, FaultedReclaimRollsBack) {
  ExpectClean(ExploreRandom(FaultedReclaimRollsBack(), ScaledIters(1500)));
}

TEST(ModelCheckScenarios, FaultedInstallRetries) {
  ExpectClean(ExploreRandom(FaultedInstallRetries(), ScaledIters(1500)));
}

TEST(ModelCheckMutant, RandomWalkFindsDroppedRollback) {
  const RunResult r =
      ExploreRandom(DroppedRollbackOnFailedMapMutant(), 2000);
  ASSERT_TRUE(r.failed)
      << "random exploration missed the dropped-rollback mutant";
  EXPECT_NE(r.message.find("unbacked"), std::string::npos) << r.message;
}

TEST(ModelCheckMutant, ExhaustiveFindsDroppedRollback) {
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, DroppedRollbackOnFailedMapMutant());
  ASSERT_TRUE(r.failed)
      << "exhaustive exploration missed the dropped-rollback mutant";
  EXPECT_NE(r.message.find("unbacked"), std::string::npos) << r.message;
}

TEST(ModelCheckScenarios, SpanRingWriterVsDrainer) {
  ExpectClean(ExploreRandom(SpanRingWriterVsDrainer(), ScaledIters(1500)));
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, SpanRingWriterVsDrainer());
  ExpectClean(r);
  EXPECT_TRUE(r.complete) << "exhaustive exploration was time-boxed";
}

TEST(ModelCheckMutant, RandomWalkFindsLostSpan) {
  const RunResult r = ExploreRandom(SpanRingLostEventMutant(), 2000);
  ASSERT_TRUE(r.failed)
      << "random exploration missed the broken-drain mutant";
  EXPECT_NE(r.message.find("lost span"), std::string::npos) << r.message;
}

TEST(ModelCheckMutant, ExhaustiveFindsLostSpan) {
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, SpanRingLostEventMutant());
  ASSERT_TRUE(r.failed)
      << "exhaustive exploration missed the broken-drain mutant";
  EXPECT_NE(r.message.find("lost span"), std::string::npos) << r.message;
}

TEST(ModelCheckScenarios, CompactionReformsHugeFrame) {
  ExpectClean(ExploreRandom(CompactionReformsHugeFrame(),
                            ScaledIters(800)));
  // Exhaustive pass: time-boxed — the per-execution state is a real
  // 2048-frame allocator, so full tree exhaustion is out of reach; the
  // bounded DFS prefix must still be clean.
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  opt.max_executions = ScaledIters(4000);
  ExpectClean(Explore(opt, CompactionReformsHugeFrame()));
}

TEST(ModelCheckScenarios, ReserveRaceRescansOrFallsBack) {
  for (const unsigned trees : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << trees << " tree(s)");
    uint64_t random_rescans = 0;
    ExpectClean(ExploreRandom(ReserveRaceForLastTree(trees, &random_rescans),
                              ScaledIters(1500)));
    // Exhaustive pass: time-boxed like the compaction scenario above.
    Options opt;
    opt.mode = Options::Mode::kExhaustive;
    opt.max_executions = ScaledIters(4000);
    uint64_t exhaustive_rescans = 0;
    ExpectClean(
        Explore(opt, ReserveRaceForLastTree(trees, &exhaustive_rescans)));
#if HYPERALLOC_TRACE
    // The oracles above must have seen the rescan, not only the
    // uncontended path. The DFS prefix reaches a lost CAS through stale
    // reads; under sequential consistency the interleaving lies beyond
    // the time box, so only the random walks prove it there.
    if (ScaledIters(1500) == 1500) {
      EXPECT_GT(random_rescans, 0u)
          << "no random walk lost the reservation CAS";
    }
    if (Options{}.memory_model && ScaledIters(4000) == 4000) {
      EXPECT_GT(exhaustive_rescans, 0u)
          << "the exhaustive prefix never lost the reservation CAS";
    }
#endif
  }
}

TEST(ModelCheckScenarios, ResyncStealRaceStealsOnce) {
  ExpectClean(ExploreRandom(ResyncStealRace(), ScaledIters(1500)));
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  opt.max_executions = ScaledIters(4000);
  ExpectClean(Explore(opt, ResyncStealRace()));
}

TEST(ModelCheckScenarios, DryMemoWakesOnFree) {
  ExpectClean(ExploreRandom(DryMemoWakesOnFree(), ScaledIters(1500)));
  // Time-boxed like the compaction scenario, but deep enough for the DFS
  // to reorder the probe's scan against the free's credit and clear:
  // with either side of that pairing broken in llfree.cc, a failing
  // execution turns up after about 12.7k executions.
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  opt.max_executions = ScaledIters(16000);
  ExpectClean(Explore(opt, DryMemoWakesOnFree()));
}

TEST(ModelCheckScenarios, DryMemoProtocolSurvivesExhaustively) {
  Options opt;
  opt.memory_model = true;
  opt.iterations = ScaledIters(2000);
  ExpectClean(Explore(opt, DryMemoProtocol(DryMemoMutant::kNone, true)));
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r =
      Explore(opt, DryMemoProtocol(DryMemoMutant::kNone, false));
  ExpectClean(r);
  EXPECT_TRUE(r.complete) << "exhaustive exploration was time-boxed";
  // With the second prober the schedule tree is too large to finish;
  // the DFS prefix must still be clean.
  opt.max_executions = ScaledIters(8000);
  ExpectClean(Explore(opt, DryMemoProtocol(DryMemoMutant::kNone, true)));
}

// Each mutant in both modes. The acquire mutant is a reordering, so the
// happens-before layer is forced on (as in ModelCheckRegression).
void ExpectDryMemoMutantCaught(DryMemoMutant mutant, bool second_prober) {
  const Scenario scenario = DryMemoProtocol(mutant, second_prober);
  Options opt;
  opt.memory_model = true;
  opt.iterations = 2000;
  const RunResult random = Explore(opt, scenario);
  ASSERT_TRUE(random.failed) << "random exploration missed the mutant";
  EXPECT_NE(random.message.find("dry memo hides a free frame"),
            std::string::npos)
      << random.message;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult exhaustive = Explore(opt, scenario);
  ASSERT_TRUE(exhaustive.failed) << "exhaustive exploration missed the mutant";
  EXPECT_NE(exhaustive.message.find("dry memo hides a free frame"),
            std::string::npos)
      << exhaustive.message;
}

TEST(ModelCheckMutant, FindsDryMemoClearedBeforeCredit) {
  ExpectDryMemoMutantCaught(DryMemoMutant::kClearBeforeCredit, false);
}

TEST(ModelCheckMutant, FindsAcquireDryMemoProbe) {
  ExpectDryMemoMutantCaught(DryMemoMutant::kAcquireProbe, false);
}

TEST(ModelCheckMutant, FindsDryMemoProbeWithoutGeneration) {
  ExpectDryMemoMutantCaught(DryMemoMutant::kNoGeneration, true);
}

TEST(ModelCheckMutant, RandomWalkFindsLostMigration) {
  const RunResult r = ExploreRandom(LostMigrationMutant(), 500);
  ASSERT_TRUE(r.failed)
      << "random exploration missed the lost-migration mutant";
  EXPECT_NE(r.message.find("lost migration"), std::string::npos)
      << r.message;
}

TEST(ModelCheckMutant, ExhaustiveFindsLostMigration) {
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  opt.max_executions = 4000;
  const RunResult r = Explore(opt, LostMigrationMutant());
  ASSERT_TRUE(r.failed)
      << "exhaustive exploration missed the lost-migration mutant";
  EXPECT_NE(r.message.find("lost migration"), std::string::npos)
      << r.message;
}

// Regression for a real race the harness flagged: the multi-word Clear
// path (orders 7–8) used to check-then-store, letting two racing frees
// of the same run both succeed and double-credit the counters. Exactly
// one of two concurrent puts of the same order-7 run may succeed.
// (Also re-run under the forced-on happens-before checker by
// ModelCheckRegression below.)
Scenario DoubleFreeMultiword() {
  return [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerType;
    cfg.areas_per_tree = 1;
    auto c = std::make_shared<Ctx>(512, cfg);
    const Result<FrameId> pre = c->guest.Get(0, 7, AllocType::kMovable);
    Require(pre.ok(), "prefill order-7 get failed");
    for (int t = 0; t < 2; ++t) {
      exec.Spawn([c, frame = *pre] {
        if (!c->guest.Put(frame, 7).has_value()) {
          ++c->put_ok;
        }
      });
    }
    exec.OnStep([c] { CheckStepInvariants(c->state); });
    exec.OnEnd([c] {
      Require(c->put_ok == 1, "double free: both concurrent puts of the "
                              "same order-7 run succeeded");
      CheckQuiescent(c->guest);
    });
  };
}

TEST(ModelCheckScenarios, ConcurrentDoubleFreeMultiword) {
  ExpectClean(ExploreRandom(DoubleFreeMultiword(), ScaledIters(1000)));
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, DoubleFreeMultiword());
  ExpectClean(r);
  EXPECT_TRUE(r.complete) << "exhaustive exploration was time-boxed";
}

// --------------------------------------------------------------------
// Mutant detection: a deliberately broken load/check/store decrement
// (the bug a relaxed CAS-free counter update would have). The harness
// must find the lost-update interleaving in both modes.
// --------------------------------------------------------------------
struct BrokenCounter {
  Atomic<int> tickets{1};
  int taken = 0;
};

Scenario BrokenDecrement() {
  return [](Execution& exec) {
    auto c = std::make_shared<BrokenCounter>();
    for (int t = 0; t < 2; ++t) {
      exec.Spawn([c] {
        const int v = c->tickets.load(std::memory_order_acquire);
        if (v > 0) {
          // BUG (deliberate): not a CAS — another thread can take the
          // same ticket between the load and the store.
          c->tickets.store(v - 1, std::memory_order_release);
          ++c->taken;
        }
      });
    }
    exec.OnEnd([c] {
      Require(c->taken <= 1, "lost update: the single ticket was taken " +
                                 std::to_string(c->taken) + " times");
    });
  };
}

TEST(ModelCheckMutant, RandomWalkFindsLostUpdate) {
  const RunResult r = ExploreRandom(BrokenDecrement(), 2000);
  ASSERT_TRUE(r.failed)
      << "random exploration missed the seeded lost-update mutant";
  EXPECT_NE(r.message.find("lost update"), std::string::npos) << r.message;
}

TEST(ModelCheckMutant, ExhaustiveFindsLostUpdate) {
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, BrokenDecrement());
  ASSERT_TRUE(r.failed)
      << "exhaustive exploration missed the seeded lost-update mutant";
  EXPECT_NE(r.message.find("lost update"), std::string::npos) << r.message;
}

// The fixed version of the same counter must survive *complete*
// exhaustive exploration — demonstrating the completeness flag.
TEST(ModelCheckMutant, FixedCounterSurvivesExhaustively) {
  Scenario fixed = [](Execution& exec) {
    auto c = std::make_shared<BrokenCounter>();
    for (int t = 0; t < 2; ++t) {
      exec.Spawn([c] {
        int v = c->tickets.load(std::memory_order_acquire);
        while (v > 0 &&
               !c->tickets.compare_exchange_weak(
                   v, v - 1, std::memory_order_acq_rel,
                   std::memory_order_acquire)) {
        }
        if (v > 0) {
          ++c->taken;
        }
      });
    }
    exec.OnEnd([c] {
      Require(c->taken == 1, "ticket taken " + std::to_string(c->taken) +
                                 " times (expected exactly once)");
    });
  };
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, fixed);
  ExpectClean(r);
  EXPECT_TRUE(r.complete);
  EXPECT_GE(r.executions, 6u);  // at least the distinct 2x2-op orders
}

// --------------------------------------------------------------------
// Mutant: the peak update HostMemory would have had without the CAS-max
// loop — check-then-store lets a delayed smaller writer overwrite a
// concurrent larger one, leaving the high-water mark below final usage.
// --------------------------------------------------------------------
struct NaivePeak {
  Atomic<uint64_t> used{0};
  Atomic<uint64_t> peak{0};
};

Scenario NaivePeakUpdate() {
  return [](Execution& exec) {
    auto c = std::make_shared<NaivePeak>();
    for (int t = 0; t < 2; ++t) {
      exec.Spawn([c] {
        const uint64_t now =
            c->used.fetch_add(256, std::memory_order_acq_rel) + 256;
        // BUG (deliberate): not a CAS-max loop — between this load and
        // the store, a larger concurrent `now` can land and be
        // overwritten by our smaller one.
        if (c->peak.load(std::memory_order_acquire) < now) {
          c->peak.store(now, std::memory_order_release);
        }
      });
    }
    exec.OnEnd([c] {
      Require(c->peak.load(std::memory_order_acquire) >=
                  c->used.load(std::memory_order_acquire),
              "lost peak update: high-water mark below final usage");
    });
  };
}

TEST(ModelCheckMutant, RandomWalkFindsLostPeakUpdate) {
  const RunResult r = ExploreRandom(NaivePeakUpdate(), 2000);
  ASSERT_TRUE(r.failed)
      << "random exploration missed the naive-peak mutant";
  EXPECT_NE(r.message.find("lost peak update"), std::string::npos)
      << r.message;
}

TEST(ModelCheckMutant, ExhaustiveFindsLostPeakUpdate) {
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, NaivePeakUpdate());
  ASSERT_TRUE(r.failed)
      << "exhaustive exploration missed the naive-peak mutant";
  EXPECT_NE(r.message.find("lost peak update"), std::string::npos)
      << r.message;
}

// --------------------------------------------------------------------
// Memory-model mutants (DESIGN.md §4.11): release→relaxed downgrades
// that a sequentially-consistent checker can never catch — every
// interleaving still computes the right *values* — but that break the
// happens-before protocol the surrounding plain data relies on. The
// vector-clock layer must flag them as data races in BOTH random and
// exhaustive mode. Setting HYPERALLOC_MC_INVERT_MUTANTS=1 flips the
// assertions (expects the mutants to go UNdetected), so a local or CI
// run with the knob set must fail — proof the detection is live, not
// vacuously green.
// --------------------------------------------------------------------

bool MmEnabled() { return Options{}.memory_model; }

bool MutantsInverted() {
  const char* env = std::getenv("HYPERALLOC_MC_INVERT_MUTANTS");
  return env != nullptr && env[0] == '1';
}

void ExpectRaceCaught(const RunResult& r, const char* what) {
  if (MutantsInverted()) {
    EXPECT_FALSE(r.failed) << "inverted mutant run: the " << what
                           << " WAS detected: " << r.message;
    return;
  }
  ASSERT_TRUE(r.failed) << "exploration missed the " << what;
  EXPECT_NE(r.message.find("data race"), std::string::npos) << r.message;
}

// Models LLFree's reservation publish (ReserveSlot's acq_rel CAS on
// reservations_[slot], src/llfree/llfree.cc): the reserver prepares
// tree-local state, then publishes the packed reservation entry; other
// cores consume the slot with acquire and touch the tree state it
// names. The payload is Shared<> so the checker verifies that the CAS's
// release half is the edge ordering those accesses.
struct ReservationPublishModel {
  Atomic<uint64_t> slot{0};        // 0 = inactive, else tree index + 1
  Shared<uint32_t> tree_meta{0u};  // tree-local state guarded by `slot`
};

Scenario ReservationPublish(std::memory_order publish_order) {
  return [publish_order](Execution& exec) {
    auto c = std::make_shared<ReservationPublishModel>();
    exec.Spawn([c, publish_order] {  // reserver
      c->tree_meta.write() = 42;     // prepare the tree's local state
      uint64_t expected = 0;
      (void)c->slot.compare_exchange_strong(expected, 1, publish_order,
                                            std::memory_order_acquire);
    });
    exec.Spawn([c] {  // consumer on another core
      if (c->slot.load(std::memory_order_acquire) != 0) {
        Require(c->tree_meta.read() == 42,
                "consumed a reservation whose tree state was never "
                "published");
      }
    });
  };
}

TEST(ModelCheckMemoryModel, ReservationPublishReleaseIsRaceClean) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  ExpectClean(
      ExploreRandom(ReservationPublish(std::memory_order_acq_rel), 2000));
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r =
      Explore(opt, ReservationPublish(std::memory_order_acq_rel));
  ExpectClean(r);
  EXPECT_TRUE(r.complete) << "exhaustive exploration was time-boxed";
}

TEST(ModelCheckMemoryModel, RandomWalkFindsRelaxedReservationPublish) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  ExpectRaceCaught(
      ExploreRandom(ReservationPublish(std::memory_order_relaxed), 2000),
      "relaxed reservation-publish mutant");
}

TEST(ModelCheckMemoryModel, ExhaustiveFindsRelaxedReservationPublish) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  ExpectRaceCaught(
      Explore(opt, ReservationPublish(std::memory_order_relaxed)),
      "relaxed reservation-publish mutant");
}

// The span-ring drain path with its tail publication downgraded to
// relaxed. Values stay correct in every interleaving (the copy loop
// bounds itself by `head`), but the edge that hands drained slots back
// to the writer is gone: the writer's next wrap-around Push writes a
// slot the drainer's copy loop read without ordering.
struct RelaxedTailDrainRing : trace::RingCore<uint64_t, Atomic, Shared> {
  using RingCore::RingCore;

  void DrainRelaxedTail(std::vector<uint64_t>* out) {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    for (; tail != head; ++tail) {
      out->push_back(ring_[tail % ring_.size()].read());
    }
    // BUG (deliberate): relaxed instead of release.
    tail_.store(tail, std::memory_order_relaxed);
  }
};

Scenario SpanRingRelaxedTailMutant() {
  return [](Execution& exec) {
    struct MutantCtx {
      RelaxedTailDrainRing ring{2};
      std::vector<uint64_t> drained;
    };
    auto c = std::make_shared<MutantCtx>();
    exec.Spawn([c] {  // writer: fill, then wrap into drained slots
      for (uint64_t value = 1; value <= 3; ++value) {
        (void)c->ring.Push(value);
      }
    });
    exec.Spawn([c] { c->ring.DrainRelaxedTail(&c->drained); });
  };
}

TEST(ModelCheckMemoryModel, RandomWalkFindsRelaxedTailDrain) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  ExpectRaceCaught(ExploreRandom(SpanRingRelaxedTailMutant(), 2000),
                   "relaxed-tail drain mutant");
}

TEST(ModelCheckMemoryModel, ExhaustiveFindsRelaxedTailDrain) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  ExpectRaceCaught(Explore(opt, SpanRingRelaxedTailMutant()),
                   "relaxed-tail drain mutant");
}

// --------------------------------------------------------------------
// FrameCache slot discipline: each slot's stack is Shared<> (exactly
// one thread per slot at a time, src/llfree/frame_cache.h). Distinct
// slots never share a stack — race-clean; two threads on the same slot
// with no ordering is the violation the seam exists to catch.
// --------------------------------------------------------------------
Scenario FrameCacheSlots(unsigned cache_slots) {
  return [cache_slots](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerCore;
    cfg.cores = 2;
    cfg.areas_per_tree = 1;
    auto c = std::make_shared<Ctx>(512, cfg);
    llfree::FrameCache::CacheConfig cache_cfg;
    cache_cfg.slots = cache_slots;
    cache_cfg.capacity = 4;
    cache_cfg.refill = 2;
    auto cache =
        std::make_shared<llfree::FrameCache>(&c->guest, cache_cfg);
    for (unsigned core = 0; core < 2; ++core) {
      exec.Spawn([c, cache, core] {
        const Result<FrameId> r = cache->Get(core, 0, AllocType::kMovable);
        if (r.ok()) {
          (void)cache->Put(core, *r, 0, AllocType::kMovable);
        }
      });
    }
    exec.OnEnd([c, cache] {
      cache->Drain();
      Require(cache->lost_frames() == 0, "frame cache lost frames");
      CheckQuiescent(c->guest);
    });
  };
}

TEST(ModelCheckMemoryModel, FrameCacheDistinctSlotsRaceClean) {
  ExpectClean(ExploreRandom(FrameCacheSlots(/*cache_slots=*/2),
                            ScaledIters(1000)));
}

TEST(ModelCheckMemoryModel, FrameCacheSharedSlotRaces) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  // BUG (deliberate): one slot, two unsynchronized threads — both cores
  // map onto slot 0 and pop/push the same plain stack.
  ExpectRaceCaught(ExploreRandom(FrameCacheSlots(/*cache_slots=*/1), 2000),
                   "shared-slot frame-cache mutant");
}

// --------------------------------------------------------------------
// Precision: the layer must not cry wolf. A relaxed load whose location
// was last written before a release/acquire edge the reader DID consume
// is forced fresh (the stale entry is hidden by happens-before), so the
// classic message-passing pattern reads the payload correctly — while
// the same pattern with a relaxed flag can observe the stale payload.
// --------------------------------------------------------------------
struct MessagePassing {
  Atomic<uint32_t> payload{0};
  Atomic<uint32_t> flag{0};
};

TEST(ModelCheckMemoryModel, AcquireEdgeForcesFreshRelaxedRead) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  Scenario scenario = [](Execution& exec) {
    auto c = std::make_shared<MessagePassing>();
    exec.Spawn([c] {
      c->payload.store(7, std::memory_order_relaxed);
      c->flag.store(1, std::memory_order_release);
    });
    exec.Spawn([c] {
      if (c->flag.load(std::memory_order_acquire) == 1) {
        Require(c->payload.load(std::memory_order_relaxed) == 7,
                "acquire-ordered relaxed load observed the stale "
                "payload");
      }
    });
  };
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, scenario);
  ExpectClean(r);
  EXPECT_TRUE(r.complete) << "exhaustive exploration was time-boxed";
}

TEST(ModelCheckMemoryModel, RelaxedFlagAdmitsStalePayload) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  // With the flag downgraded to relaxed there is no edge: some
  // execution must observe flag == 1 with the payload still 0 — the
  // reordering a sequentially-consistent checker can never produce.
  auto stale_seen = std::make_shared<bool>(false);
  Scenario scenario = [stale_seen](Execution& exec) {
    auto c = std::make_shared<MessagePassing>();
    exec.Spawn([c] {
      c->payload.store(7, std::memory_order_relaxed);
      c->flag.store(1, std::memory_order_relaxed);
    });
    exec.Spawn([c, stale_seen] {
      if (c->flag.load(std::memory_order_relaxed) == 1 &&
          c->payload.load(std::memory_order_relaxed) == 0) {
        *stale_seen = true;
      }
    });
  };
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, scenario);
  ExpectClean(r);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(*stale_seen)
      << "no explored execution observed the stale payload behind the "
         "relaxed flag";
}

// Per-thread coherence: two loads of one location by one thread never
// go backwards in modification order, however relaxed.
TEST(ModelCheckMemoryModel, SameThreadReadsNeverGoBackwards) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  Scenario scenario = [](Execution& exec) {
    auto c = std::make_shared<MessagePassing>();
    exec.Spawn([c] {
      for (uint32_t v = 1; v <= 3; ++v) {
        c->payload.store(v, std::memory_order_relaxed);
      }
    });
    exec.Spawn([c] {
      const uint32_t first = c->payload.load(std::memory_order_relaxed);
      const uint32_t second = c->payload.load(std::memory_order_relaxed);
      Require(second >= first,
              "coherence violation: same-thread reads of one location "
              "went backwards in modification order");
    });
  };
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, scenario);
  ExpectClean(r);
  EXPECT_TRUE(r.complete);
}

// --------------------------------------------------------------------
// Regression re-verification under the forced-on happens-before
// checker, independent of HYPERALLOC_MC_MM: the PR 2 multiword-Clear
// double-free fix and the PR 6 lost-batch-rollback fix stay correct
// with stale reads and race detection in play — and the committed
// lost-batch mutant is still caught.
// --------------------------------------------------------------------
TEST(ModelCheckRegression, MultiwordDoubleFreeFixHoldsUnderHb) {
  Options opt;
  opt.memory_model = true;
  opt.iterations = ScaledIters(1000);
  ExpectClean(Explore(opt, DoubleFreeMultiword()));
  opt.mode = Options::Mode::kExhaustive;
  const RunResult r = Explore(opt, DoubleFreeMultiword());
  ExpectClean(r);
  EXPECT_TRUE(r.complete) << "exhaustive exploration was time-boxed";
}

TEST(ModelCheckRegression, BatchClaimRollbackFixHoldsUnderHb) {
  Options opt;
  opt.memory_model = true;
  opt.iterations = ScaledIters(1500);
  ExpectClean(Explore(opt, BatchGetPutOneTree()));
}

TEST(ModelCheckRegression, LostBatchMutantStillCaughtUnderHb) {
  Options opt;
  opt.memory_model = true;
  opt.iterations = 2000;
  const RunResult random = Explore(opt, LostBatchRollbackMutant());
  ASSERT_TRUE(random.failed)
      << "random exploration under the happens-before checker missed "
         "the lost-batch-rollback mutant";
  EXPECT_NE(random.message.find("lost batch rollback"), std::string::npos)
      << random.message;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult exhaustive = Explore(opt, LostBatchRollbackMutant());
  ASSERT_TRUE(exhaustive.failed)
      << "exhaustive exploration under the happens-before checker "
         "missed the lost-batch-rollback mutant";
  EXPECT_NE(exhaustive.message.find("lost batch rollback"),
            std::string::npos)
      << exhaustive.message;
}

// --------------------------------------------------------------------
// Determinism: replaying a recorded failing seed reproduces the exact
// same schedule (trace) and the same failure, twice in a row.
// --------------------------------------------------------------------
TEST(ModelCheckDeterminism, FailingSeedReplaysIdentically) {
  Options opt;
  opt.iterations = 2000;
  const RunResult first = Explore(opt, BrokenDecrement());
  ASSERT_TRUE(first.failed);

  const RunResult r1 = ReplaySeed(opt, first.failing_seed, BrokenDecrement());
  const RunResult r2 = ReplaySeed(opt, first.failing_seed, BrokenDecrement());
  ASSERT_TRUE(r1.failed);
  ASSERT_TRUE(r2.failed);
  EXPECT_EQ(r1.trace, first.trace);
  EXPECT_EQ(r1.trace, r2.trace);
  EXPECT_EQ(r1.message, first.message);
  EXPECT_EQ(r2.message, first.message);
}

TEST(ModelCheckDeterminism, FailingTraceReplays) {
  Options opt;
  opt.mode = Options::Mode::kExhaustive;
  const RunResult found = Explore(opt, BrokenDecrement());
  ASSERT_TRUE(found.failed);

  const RunResult replay = ReplayTrace(opt, found.trace, BrokenDecrement());
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.message, found.message);
  EXPECT_EQ(replay.trace, found.trace);
}

// A failing *race* seed replays identically too — the decision stream
// interleaves value decisions (stale-read picks, tagged with
// mm::kValueDecisionTag) with the thread decisions, and both come from
// the same seeded stream. The trace-cross-checking ReplaySeed overload
// confirms the replay really followed the recorded stream.
TEST(ModelCheckDeterminism, RaceSeedReplaysIdentically) {
  if (!MmEnabled()) {
    GTEST_SKIP() << "HYPERALLOC_MC_MM=0: happens-before layer disabled";
  }
  Options opt;
  opt.iterations = 2000;
  const RunResult first = Explore(opt, SpanRingRelaxedTailMutant());
  ASSERT_TRUE(first.failed);
  ASSERT_NE(first.message.find("data race"), std::string::npos)
      << first.message;

  const RunResult replay = ReplaySeed(opt, first.failing_seed,
                                      SpanRingRelaxedTailMutant(),
                                      first.trace);
  ASSERT_TRUE(replay.failed);
  EXPECT_FALSE(replay.stale_trace) << replay.message;
  EXPECT_EQ(replay.trace, first.trace);
  EXPECT_EQ(replay.message, first.message);

  const RunResult traced =
      ReplayTrace(opt, first.trace, SpanRingRelaxedTailMutant());
  ASSERT_TRUE(traced.failed);
  EXPECT_EQ(traced.message, first.message);
}

// A failing LLFree-state seed also replays identically: re-check the
// double-free regression scenario with a *broken* oracle expectation to
// manufacture a failure, then replay it.
TEST(ModelCheckDeterminism, ScenarioSeedReplaysIdentically) {
  // An oracle that trips as soon as any put succeeds gives us a failing
  // schedule on real allocator state.
  Scenario tripwire = [](Execution& exec) {
    Config cfg;
    cfg.mode = Config::ReservationMode::kPerType;
    cfg.areas_per_tree = 1;
    auto c = std::make_shared<Ctx>(512, cfg);
    const Result<FrameId> pre = c->guest.Get(0, 0, AllocType::kMovable);
    Require(pre.ok(), "prefill get failed");
    exec.Spawn([c, frame = *pre] {
      (void)c->guest.Put(frame, 0);
      ++c->put_ok;
    });
    exec.Spawn([c] { (void)c->guest.Get(0, 0, AllocType::kMovable); });
    exec.OnStep([c] { Require(c->put_ok == 0, "tripwire"); });
  };
  Options opt;
  opt.iterations = 100;
  const RunResult first = Explore(opt, tripwire);
  ASSERT_TRUE(first.failed);
  const RunResult replay = ReplaySeed(opt, first.failing_seed, tripwire);
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.trace, first.trace);
  EXPECT_EQ(replay.message, first.message);
}

// --------------------------------------------------------------------
// Coverage: the four core scenarios together must explore >= 10k
// interleavings with the invariant oracle enabled.
// --------------------------------------------------------------------
TEST(ModelCheckCoverage, ExploresTenThousandInterleavings) {
  if (ScaledIters(2500) < 2500) {
    GTEST_SKIP() << "HYPERALLOC_MC_ITERS caps exploration below the "
                    "coverage target";
  }
  uint64_t total = 0;
  for (const Scenario& s :
       {GetPutOneTree(), PutVsReclaimScan(), StealVsDrain(),
        DeflateVsGuestAlloc()}) {
    const RunResult r = ExploreRandom(s, 2500, /*seed=*/77);
    ExpectClean(r);
    total += r.executions;
  }
  EXPECT_GE(total, 10000u);
}

}  // namespace
}  // namespace hyperalloc::check
