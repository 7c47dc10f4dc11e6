// Tests for virtio-balloon (4 KiB and huge-page variants) and free-page
// reporting.
#include <gtest/gtest.h>

#include "src/balloon/virtio_balloon.h"
#include "src/guest/guest_vm.h"
#include "src/trace/trace.h"

namespace hyperalloc::balloon {
namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;

class BalloonTest : public ::testing::Test {
 protected:
  void Init(BalloonConfig config = {}) {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    guest::GuestConfig gc;
    gc.memory_bytes = kVmBytes;
    gc.vcpus = 4;
    gc.dma32_bytes = 64 * kMiB;
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), gc);
    balloon_ = std::make_unique<VirtioBalloon>(vm_.get(), config);
  }

  void SetLimit(uint64_t bytes) {
    bool done = false;
    balloon_->Request({.target_bytes = bytes, .done = [&] { done = true; }});
    while (!done) {
      ASSERT_TRUE(sim_->Step());
    }
  }

  // Populates the whole VM (touch everything), as the inflate benchmark
  // does before reclaiming.
  void TouchAll() { vm_->Touch(0, vm_->total_frames()); }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<guest::GuestVm> vm_;
  std::unique_ptr<VirtioBalloon> balloon_;
};

TEST_F(BalloonTest, InflateShrinksRssAndLimit) {
  Init();
  TouchAll();
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
  SetLimit(64 * kMiB);
  EXPECT_EQ(balloon_->limit_bytes(), 64 * kMiB);
  EXPECT_EQ(balloon_->ballooned_bytes(), kVmBytes - 64 * kMiB);
  EXPECT_EQ(vm_->rss_bytes(), 64 * kMiB);
  // The ballooned frames are allocated inside the guest.
  EXPECT_EQ(vm_->FreeFrames() * kFrameSize, 64 * kMiB);
}

TEST_F(BalloonTest, InflateUsesPerPageMadvise) {
  Init();
  TouchAll();
  SetLimit(kVmBytes - 16 * kMiB);
  // 4 KiB granularity: one madvise per page.
  EXPECT_EQ(balloon_->total_madvise_calls(), FramesForBytes(16 * kMiB));
}

TEST_F(BalloonTest, HugeVariantUsesPerHugeMadvise) {
  BalloonConfig config;
  config.huge = true;
  Init(config);
  TouchAll();
  SetLimit(kVmBytes - 16 * kMiB);
  EXPECT_EQ(balloon_->total_madvise_calls(), 16 * kMiB / kHugeSize);
}

TEST_F(BalloonTest, HugeInflationIsMuchFasterThanBase) {
  // Granularity is the whole game (§5.3): same bytes, ~2 orders of
  // magnitude fewer operations.
  Init();
  TouchAll();
  const sim::Time t4k_start = sim_->now();
  SetLimit(128 * kMiB);
  const sim::Time t4k = sim_->now() - t4k_start;

  BalloonConfig config;
  config.huge = true;
  Init(config);
  TouchAll();
  const sim::Time t2m_start = sim_->now();
  SetLimit(128 * kMiB);
  const sim::Time t2m = sim_->now() - t2m_start;

  EXPECT_GT(t4k, 50 * t2m) << "huge ballooning should be >50x faster";
}

TEST_F(BalloonTest, DeflateReturnsMemoryLazily) {
  Init();
  TouchAll();
  SetLimit(64 * kMiB);
  SetLimit(kVmBytes);
  EXPECT_EQ(balloon_->ballooned_bytes(), 0u);
  EXPECT_EQ(vm_->FreeFrames() * kFrameSize, kVmBytes);
  // Deflation does not repopulate: RSS stays low until the guest touches.
  EXPECT_EQ(vm_->rss_bytes(), 64 * kMiB);
  const uint64_t faults_before = vm_->ept_faults_2m() + vm_->ept_faults_4k();
  TouchAll();
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
  EXPECT_GT(vm_->ept_faults_2m() + vm_->ept_faults_4k(), faults_before);
}

TEST_F(BalloonTest, InflationInducesCachePressure) {
  Init();
  vm_->CacheAdd(kVmBytes);  // page cache everywhere
  const uint64_t cache_before = vm_->cache_bytes();
  SetLimit(64 * kMiB);
  EXPECT_EQ(balloon_->limit_bytes(), 64 * kMiB);
  EXPECT_LT(vm_->cache_bytes(), cache_before)
      << "ballooning must evict page cache under pressure";
  EXPECT_EQ(vm_->oom_events(), 0u);
}

TEST_F(BalloonTest, PartialInflationWhenGuestCannotGiveMore) {
  Init();
  // Pin most memory with unreclaimable allocations.
  std::vector<FrameId> pinned;
  for (uint64_t i = 0; i < FramesForBytes(200 * kMiB); ++i) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    ASSERT_TRUE(r.ok());
    pinned.push_back(*r);
  }
  SetLimit(16 * kMiB);  // impossible: only ~56 MiB are free
  EXPECT_GT(balloon_->limit_bytes(), 16 * kMiB);
  EXPECT_LE(balloon_->ballooned_bytes(), 56 * kMiB);
}

TEST_F(BalloonTest, FreePageReportingReclaimsIdleMemory) {
  BalloonConfig config;
  config.reporting_order = kHugeOrder;
  config.reporting_delay = 2 * sim::kSec;
  config.reporting_capacity = 32;
  Init(config);
  // Simulate a finished workload: memory was touched and freed.
  TouchAll();
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
  balloon_->StartAuto();
  sim_->RunUntil(30 * sim::kSec);
  EXPECT_LT(vm_->rss_bytes(), kVmBytes / 4)
      << "free-page reporting should have discarded most free memory";
  // Reported frames remain free for the guest (no limit change).
  EXPECT_EQ(balloon_->limit_bytes(), kVmBytes);
  EXPECT_EQ(vm_->FreeFrames() * kFrameSize, kVmBytes);
  balloon_->StopAuto();
}

TEST_F(BalloonTest, ReportingRespectsCapacityBatching) {
  BalloonConfig config;
  config.reporting_order = kHugeOrder;
  config.reporting_capacity = 16;
  Init(config);
  TouchAll();
  balloon_->StartAuto();
  sim_->RunUntil(10 * sim::kSec);
  balloon_->StopAuto();
  // 256 MiB / 2 MiB = 128 blocks at 16 per hypercall => >= 8 hypercalls.
  EXPECT_GE(balloon_->total_hypercalls(), 8u);
}

TEST_F(BalloonTest, ReportingDoesNotRereportUntouchedMemory) {
  BalloonConfig config;
  config.reporting_order = kHugeOrder;
  config.reporting_delay = sim::kSec;
  Init(config);
  TouchAll();
  balloon_->StartAuto();
  sim_->RunUntil(20 * sim::kSec);
  const uint64_t first_round = balloon_->reported_bytes_total();
  sim_->RunUntil(60 * sim::kSec);
  balloon_->StopAuto();
  // Nothing changed in the guest: no new reports.
  EXPECT_EQ(balloon_->reported_bytes_total(), first_round);
}

TEST_F(BalloonTest, ReportedMemoryFaultsBackOnReuse) {
  BalloonConfig config;
  config.reporting_order = kHugeOrder;
  Init(config);
  TouchAll();
  balloon_->StartAuto();
  sim_->RunUntil(30 * sim::kSec);
  balloon_->StopAuto();
  ASSERT_LT(vm_->rss_bytes(), kVmBytes / 4);
  // The guest allocates reported memory without any hypervisor
  // interaction — the DMA-unsafe part — and faults it back on access.
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  const uint64_t rss_before = vm_->rss_bytes();
  vm_->Touch(*r, kFramesPerHuge);
  EXPECT_EQ(vm_->rss_bytes(), rss_before + kHugeSize);
}

TEST_F(BalloonTest, DeflateOnOomRescuesGuest) {
  BalloonConfig config;
  config.deflate_on_oom_bytes = 32 * kMiB;
  Init(config);
  SetLimit(32 * kMiB);  // balloon holds almost everything
  ASSERT_EQ(balloon_->limit_bytes(), 32 * kMiB);
  // The guest demands more than its limit: instead of OOMing, the
  // balloon deflates.
  std::vector<FrameId> frames;
  for (uint64_t i = 0; i < FramesForBytes(48 * kMiB); ++i) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    ASSERT_TRUE(r.ok()) << "allocation " << i;
    frames.push_back(*r);
  }
  EXPECT_GT(balloon_->oom_deflations(), 0u);
  EXPECT_GT(balloon_->limit_bytes(), 32 * kMiB);
  EXPECT_EQ(vm_->oom_events(), 0u);
}

TEST_F(BalloonTest, DeflateOnOomDisabledStillOoms) {
  BalloonConfig config;
  config.deflate_on_oom_bytes = 0;
  Init(config);
  SetLimit(32 * kMiB);
  uint64_t allocated = 0;
  while (vm_->Alloc(0, AllocType::kUnmovable).ok()) {
    ++allocated;
  }
  EXPECT_EQ(allocated * kFrameSize, 32 * kMiB);
  EXPECT_GT(vm_->oom_events(), 0u);
  EXPECT_EQ(balloon_->oom_deflations(), 0u);
}

TEST_F(BalloonTest, InflationDoesNotCannibalizeItself) {
  BalloonConfig config;
  config.deflate_on_oom_bytes = 32 * kMiB;
  Init(config);
  // Pin most memory; the inflation target is unreachable. The balloon
  // must stop (partial) rather than deflating itself to keep going.
  std::vector<FrameId> pinned;
  for (uint64_t i = 0; i < FramesForBytes(200 * kMiB); ++i) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    ASSERT_TRUE(r.ok());
    pinned.push_back(*r);
  }
  SetLimit(16 * kMiB);
  EXPECT_EQ(balloon_->oom_deflations(), 0u);
  EXPECT_GT(balloon_->limit_bytes(), 16 * kMiB);
}

// Host discard retries each faulted madvise on its own: a fixed
// kEptUnmap schedule over a partly populated VM gives exactly these
// fault, retry and madvise counts, this virtual end time and this RSS.
// Unpopulated frames are skipped without an unmap operation, so they
// never consume an injector step.
TEST_F(BalloonTest, UnmapFaultsRetryPerEntry) {
  struct Case {
    fault::Kind kind;
    uint64_t faults, retries, polls, end_ns, rss_bytes;
  };
  const Case cases[] = {
      // 8 faults; retries 1 + 3 (exhausted) + 2 + 1; one entry stays
      // backed. 32768 present frames polled once each, plus the retries.
      {fault::Kind::kTransient, 8, 7, 32775, 200381448, 64 * kMiB + 4096},
      // Permanent faults are never retried: 8 entries stay backed.
      {fault::Kind::kPermanent, 8, 0, 32768, 200140608,
       64 * kMiB + 8 * 4096},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(fault::Name(c.kind));
    Init();
    vm_->Touch(0, vm_->total_frames() * 3 / 4);
    fault::Plan plan;
    plan.seed = 7;
    fault::SiteSpec& spec = plan.spec(fault::Site::kEptUnmap);
    spec.kind = c.kind;
    // A lone fault at the first unmap, four in a row (retries exhausted
    // under the default policy), a pair straddling a run, and a late one.
    spec.steps = {0, 100, 101, 102, 103, 255, 256, 9000};
    fault::Injector injector(plan);
    vm_->SetFaultInjector(&injector);
    SetLimit(64 * kMiB);
    vm_->SetFaultInjector(nullptr);
    EXPECT_EQ(balloon_->limit_bytes(), 64 * kMiB);
    EXPECT_EQ(balloon_->total_madvise_calls(),
              FramesForBytes(kVmBytes - 64 * kMiB));
    EXPECT_EQ(balloon_->faults_seen(), c.faults);
    EXPECT_EQ(balloon_->fault_retries(), c.retries);
    EXPECT_EQ(injector.ops(fault::Site::kEptUnmap), c.polls);
    EXPECT_EQ(injector.injected(fault::Site::kEptUnmap), c.faults);
    EXPECT_EQ(sim_->now(), c.end_ns);
    EXPECT_EQ(vm_->rss_bytes(), c.rss_bytes);
    EXPECT_EQ(vm_->ept().injected_faults(), c.faults);
  }
}

// The drained event trace of a faulting inflate keeps host discard's
// per-entry order: every EPT unmap and injected fault belongs to the
// entry whose madvise event came last, including the entries after a
// retry's backoff moved virtual time on.
TEST_F(BalloonTest, UnmapFaultEventsStayPerEntry) {
#if !HYPERALLOC_TRACE
  GTEST_SKIP() << "events compiled out (HYPERALLOC_TRACE=0)";
#else
  Init();
  vm_->Touch(0, vm_->total_frames() * 3 / 4);
  fault::Plan plan;
  plan.seed = 7;
  fault::SiteSpec& spec = plan.spec(fault::Site::kEptUnmap);
  spec.kind = fault::Kind::kTransient;
  spec.steps = {0, 100, 101, 102, 103, 255, 256, 9000};
  fault::Injector injector(plan);
  vm_->SetFaultInjector(&injector);
  trace::SpanTracer& tracer = trace::SpanTracer::Global();
  tracer.SetCapacity(1 << 18);
  tracer.ResetForTest();
  tracer.SetTimeSource(sim_.get());
  tracer.SetEventsEnabled(true);
  SetLimit(64 * kMiB);
  tracer.SetEventsEnabled(false);
  tracer.SetTimeSource(nullptr);
  const std::vector<trace::SpanRecord> events = tracer.Drain();
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  tracer.SetCapacity(1 << 16);
  vm_->SetFaultInjector(nullptr);

  uint64_t madvises = 0;
  uint64_t unmaps = 0;
  uint64_t injected = 0;
  uint64_t entry = ~0ull;  // frame of the latest madvise event
  for (const trace::SpanRecord& e : events) {
    if (e.category == trace::Category::kBalloon &&
        e.op == trace::Op::kMadvise) {
      ++madvises;
      entry = e.arg0;
    } else if (e.category == trace::Category::kEpt &&
               e.op == trace::Op::kUnmap) {
      ++unmaps;
      ASSERT_EQ(e.arg0, entry) << "unmap at " << e.begin_vns;
    } else if (e.category == trace::Category::kFault &&
               e.op == trace::Op::kInject) {
      ++injected;
      ASSERT_EQ(e.arg0, entry) << "fault at " << e.begin_vns;
    }
  }
  EXPECT_EQ(madvises, balloon_->total_madvise_calls());
  EXPECT_EQ(injected, 8u);
  // The 32768 populated entries (UnmapFaultsRetryPerEntry) are unmapped
  // once each, except the one whose retries ran out.
  EXPECT_EQ(unmaps, 32767u);
#endif  // HYPERALLOC_TRACE
}

// Every inflate slice that reaches the host is one hypercall: a manual
// inflate issues ceil(frames / vq_capacity) of them.
TEST_F(BalloonTest, InflateCountsOneHypercallPerBatch) {
  for (const unsigned capacity : {256u, 100u}) {
    SCOPED_TRACE(capacity);
    BalloonConfig config;
    config.vq_capacity = capacity;
    Init(config);
    SetLimit(kVmBytes - 16 * kMiB);
    const uint64_t frames = FramesForBytes(16 * kMiB);
    EXPECT_EQ(balloon_->total_hypercalls(),
              (frames + capacity - 1) / capacity);
  }
}

// The 4 KiB balloon protocol frame by frame, on a VM of its own: each
// inflate slice claims up to vq_capacity frames with one AllocBatch and
// discards them one by one; deflate hands back the newest frames first,
// one by one. Accumulates the virtual time the protocol charges.
struct BalloonModel {
  guest::GuestVm* vm;
  unsigned capacity;
  std::vector<FrameId> stack;
  uint64_t madvise_calls = 0;
  sim::Time charged = 0;

  void SetBallooned(uint64_t frames) {
    const hv::CostModel& c = vm->costs();
    while (stack.size() < frames) {
      std::vector<FrameId> got;
      vm->AllocBatch(0,
                     static_cast<unsigned>(std::min<uint64_t>(
                         capacity, frames - stack.size())),
                     AllocType::kMovable, 0, &got,
                     /*allow_oom_notify=*/false);
      ASSERT_FALSE(got.empty());
      charged += got.size() * (c.guest_alloc_4k_ns +
                               c.virtqueue_element_ns + c.madvise_syscall_ns) +
                 c.hypercall_ns;
      for (const FrameId f : got) {
        if (vm->ept().IsMapped(f)) {
          vm->ept().Unmap(f, 1);
          charged += c.madvise_per_4k_ns;
        }
        stack.push_back(f);
      }
      madvise_calls += got.size();
    }
    while (stack.size() > frames) {
      vm->Free(stack.back(), 0, 0);
      stack.pop_back();
      charged += c.balloon_deflate_4k_ns + c.guest_free_4k_ns;
    }
  }
};

// An inflate / deflate / inflate cycle whose targets split the balloon's
// runs leaves the guest exactly as the per-frame protocol does: the same
// frames ballooned and mapped, the same clock and madvise count, and the
// same frames for the guest's next allocations. With trace events on,
// deflate charges entry by entry and each deflate instant carries its
// own clock; the outcome is the same.
TEST_F(BalloonTest, RunCycleMatchesPerFrameProtocol) {
  const uint64_t targets[] = {10243, 5001, 8000, 31};
  for (const bool events : {false, true}) {
#if !HYPERALLOC_TRACE
    if (events) {
      continue;
    }
#endif
    SCOPED_TRACE(events ? "events on" : "events off");
    Init();
    TouchAll();
    sim::Simulation model_sim;
    hv::HostMemory model_host(FramesForBytes(kGiB));
    guest::GuestVm model_vm(&model_sim, &model_host, vm_->config());
    model_vm.Touch(0, model_vm.total_frames());
    BalloonModel model{&model_vm, BalloonConfig{}.vq_capacity, {}};
    trace::SpanTracer& tracer = trace::SpanTracer::Global();
    if (events) {
      tracer.SetCapacity(1 << 18);
      tracer.ResetForTest();
      tracer.SetTimeSource(sim_.get());
      tracer.SetEventsEnabled(true);
    }
    const sim::Time start = sim_->now();
    for (const uint64_t target : targets) {
      SetLimit(kVmBytes - target * kFrameSize);
      ASSERT_NO_FATAL_FAILURE(model.SetBallooned(target));
      ASSERT_EQ(balloon_->ballooned_bytes(), target * kFrameSize);
      ASSERT_EQ(sim_->now() - start, model.charged) << target;
      ASSERT_EQ(balloon_->total_madvise_calls(), model.madvise_calls);
      ASSERT_EQ(vm_->FreeFrames(), model_vm.FreeFrames());
      ASSERT_EQ(vm_->rss_bytes(), model_vm.rss_bytes());
      for (FrameId f = 0; f < vm_->total_frames(); ++f) {
        ASSERT_EQ(vm_->AllocOrderAt(f), model_vm.AllocOrderAt(f)) << f;
        ASSERT_EQ(vm_->ept().IsMapped(f), model_vm.ept().IsMapped(f)) << f;
      }
    }
    std::vector<trace::SpanRecord> records;
    if (events) {
      tracer.SetEventsEnabled(false);
      tracer.SetTimeSource(nullptr);
      records = tracer.Drain();
      EXPECT_EQ(tracer.dropped_spans(), 0u);
      tracer.SetCapacity(1 << 16);
    }
    // The guest's next allocations see the same allocator.
    for (int i = 0; i < 3000; ++i) {
      const Result<FrameId> a = vm_->Alloc(0, AllocType::kMovable, 0);
      const Result<FrameId> b = model_vm.Alloc(0, AllocType::kMovable, 0);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_EQ(*a, *b);
    }
    if (!events) {
      continue;
    }
    // One instant per deflated entry, newest first, each a deflate and a
    // guest free later than the previous one within its slice.
    const uint64_t step = vm_->costs().balloon_deflate_4k_ns +
                          vm_->costs().guest_free_4k_ns;
    std::vector<const trace::SpanRecord*> deflates;
    for (const trace::SpanRecord& r : records) {
      if (r.category == trace::Category::kBalloon &&
          r.op == trace::Op::kDeflate) {
        deflates.push_back(&r);
      }
    }
    ASSERT_EQ(deflates.size(), (10243u - 5001u) + (8000u - 31u));
    uint64_t spaced = 0;
    for (size_t i = 1; i < deflates.size(); ++i) {
      spaced += deflates[i]->begin_vns - deflates[i - 1]->begin_vns == step
                    ? 1
                    : 0;
    }
    EXPECT_GT(spaced, deflates.size() * 9 / 10);
  }
}

TEST_F(BalloonTest, NotDmaSafeRejectsVfio) {
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(kGiB));
  guest::GuestConfig gc;
  gc.memory_bytes = kVmBytes;
  gc.dma32_bytes = 64 * kMiB;
  gc.vfio = true;
  guest::GuestVm vm(&sim, &host, gc);
  EXPECT_DEATH(VirtioBalloon(&vm, BalloonConfig{}), "check failed");
}

TEST_F(BalloonTest, CandidateProperties) {
  Init();
  hv::DeflatorCaps caps = balloon_->caps();
  EXPECT_STREQ(caps.name, "virtio-balloon");
  EXPECT_FALSE(caps.dma_safe);
  EXPECT_TRUE(caps.supports_auto);
  EXPECT_EQ(caps.granularity_bytes, kFrameSize);
  BalloonConfig config;
  config.huge = true;
  Init(config);
  caps = balloon_->caps();
  EXPECT_STREQ(caps.name, "virtio-balloon-huge");
  EXPECT_EQ(caps.granularity_bytes, kHugeSize);
}

}  // namespace
}  // namespace hyperalloc::balloon
