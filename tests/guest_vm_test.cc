// Unit tests for the GuestVm composition: zones, allocation routing,
// pressure-driven page-cache eviction, THP-style EPT population, DMA, and
// migration support.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/base/rng.h"
#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"
#include "src/trace/trace.h"

namespace hyperalloc::guest {

// Reaches the watermark state and replays AllocBatch the way it ran
// before buddy trains: one batch-level watermark call, then one Alloc per
// run.
class GuestVmTestPeer {
 public:
  static unsigned SingleAllocs(GuestVm& vm, unsigned order, unsigned count,
                               AllocType type, unsigned core,
                               std::vector<FrameId>* out) {
    vm.MaybeReclaimToWatermark(core);
    unsigned got = 0;
    for (; got < count; ++got) {
      const Result<FrameId> r = vm.Alloc(order, type, core);
      if (!r.ok()) {
        break;
      }
      out->push_back(*r);
    }
    return got;
  }
  // Alloc then Touch, one run at a time: what AllocTouch must equal.
  static unsigned SingleAllocTouch(GuestVm& vm, unsigned order,
                                   unsigned count, AllocType type,
                                   unsigned core, std::vector<FrameId>* out) {
    unsigned got = 0;
    for (; got < count; ++got) {
      const Result<FrameId> r = vm.Alloc(order, type, core);
      if (!r.ok()) {
        break;
      }
      vm.Touch(*r, 1ull << order);
      out->push_back(*r);
    }
    return got;
  }
  // CacheAdd and CacheDrop frame by frame, as they ran before trains.
  static void SingleCacheAdd(GuestVm& vm, uint64_t bytes, unsigned core) {
    for (uint64_t i = 0; i < FramesForBytes(bytes); ++i) {
      const Result<FrameId> r = vm.Alloc(0, AllocType::kMovable, core);
      if (!r.ok()) {
        return;
      }
      vm.Touch(*r, 1);
      vm.cache_frames_.push_back(*r);
      vm.in_cache_[*r] = true;
      ++vm.cache_count_;
    }
  }
  static void SingleCacheDrop(GuestVm& vm, uint64_t bytes, unsigned core) {
    uint64_t frames = FramesForBytes(bytes);
    while (frames > 0 && !vm.cache_frames_.empty()) {
      const FrameId front = vm.cache_frames_.front();
      vm.cache_frames_.pop_front();
      if (!vm.in_cache_[front]) {
        continue;
      }
      vm.in_cache_[front] = false;
      --vm.cache_count_;
      vm.Free(front, 0, core);
      --frames;
    }
  }
  static uint64_t ResyncCountdown(const GuestVm& vm) {
    return vm.watermark_resync_countdown_;
  }
  static uint64_t ApproxFree(const GuestVm& vm) {
    return vm.approx_free_frames_;
  }
};

namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;

class GuestVmTest : public ::testing::Test {
 protected:
  void Init(GuestConfig config) {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    vm_ = std::make_unique<GuestVm>(sim_.get(), host_.get(), config);
  }

  GuestConfig SmallBuddy() {
    GuestConfig config;
    config.memory_bytes = kVmBytes;
    config.vcpus = 4;
    config.dma32_bytes = 64 * kMiB;
    return config;
  }

  GuestConfig SmallLLFree() {
    GuestConfig config = SmallBuddy();
    config.allocator = AllocatorKind::kLLFree;
    return config;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<GuestVm> vm_;
};

TEST_F(GuestVmTest, ZoneLayoutBuddy) {
  Init(SmallBuddy());
  ASSERT_EQ(vm_->zones().size(), 2u);
  EXPECT_EQ(vm_->zones()[0].kind, ZoneKind::kDma32);
  EXPECT_EQ(vm_->zones()[0].frames, FramesForBytes(64 * kMiB));
  EXPECT_EQ(vm_->zones()[1].kind, ZoneKind::kNormal);
  EXPECT_EQ(vm_->total_frames(), FramesForBytes(kVmBytes));
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(GuestVmTest, ZoneLayoutWithMovable) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  Init(config);
  ASSERT_EQ(vm_->zones().size(), 2u);
  EXPECT_EQ(vm_->zones()[0].kind, ZoneKind::kNormal);
  EXPECT_EQ(vm_->zones()[1].kind, ZoneKind::kMovable);
  EXPECT_EQ(vm_->zones()[1].frames, FramesForBytes(128 * kMiB));
}

TEST_F(GuestVmTest, UnmovableAllocationsAvoidMovableZone) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  Init(config);
  const Zone& movable = vm_->zones()[1];
  for (int i = 0; i < 1000; ++i) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(movable.Contains(*r));
  }
}

TEST_F(GuestVmTest, MovableAllocationsPreferMovableZone) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  Init(config);
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(vm_->zones()[1].Contains(*r));
}

TEST_F(GuestVmTest, AllocFreeRoundTripBothAllocators) {
  for (const AllocatorKind kind :
       {AllocatorKind::kBuddy, AllocatorKind::kLLFree}) {
    GuestConfig config = SmallBuddy();
    config.allocator = kind;
    Init(config);
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames() - kFramesPerHuge);
    vm_->Free(*r, kHugeOrder);
    EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
  }
}

TEST_F(GuestVmTest, PressureEvictsPageCache) {
  Init(SmallBuddy());
  // Fill (nearly) all memory with page cache, then demand far more than
  // the watermark headroom: reclaim must evict cache rather than fail.
  vm_->CacheAdd(kVmBytes);
  EXPECT_GT(vm_->cache_bytes(), kVmBytes / 2);
  const uint64_t cache_before = vm_->cache_bytes();
  for (int i = 0; i < 32; ++i) {  // 64 MiB of huge allocations
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok()) << "allocation " << i;
  }
  EXPECT_LT(vm_->cache_bytes(), cache_before);
  EXPECT_GT(vm_->cache_evictions(), 0u);
  EXPECT_EQ(vm_->oom_events(), 0u);
}

TEST_F(GuestVmTest, OomWhenNothingReclaimable) {
  Init(SmallBuddy());
  // Exhaust memory with unreclaimable (non-cache) allocations.
  uint64_t allocated = 0;
  for (;;) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    if (!r.ok()) {
      break;
    }
    ++allocated;
  }
  EXPECT_EQ(allocated, vm_->total_frames());
  EXPECT_GT(vm_->oom_events(), 0u);
}

TEST_F(GuestVmTest, TouchPopulatesThpGranularity) {
  Init(SmallBuddy());
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  // First touch of one 4 KiB page in a pristine huge frame populates the
  // whole 2 MiB (THP) with a single 2 MiB fault.
  vm_->Touch(0, 1);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
  EXPECT_EQ(vm_->ept_faults_2m(), 1u);
  EXPECT_EQ(vm_->ept_faults_4k(), 0u);
  // Touching the rest of the huge frame faults nothing further.
  vm_->Touch(0, kFramesPerHuge);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
  EXPECT_EQ(vm_->ept_faults_2m(), 1u);
}

TEST_F(GuestVmTest, PartiallyUnmappedHugeFramesFaultAt4k) {
  Init(SmallBuddy());
  vm_->Touch(0, kFramesPerHuge);  // populate 2 MiB
  vm_->ept().Unmap(0, 64);        // balloon-style 4 KiB holes
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize - 64 * kFrameSize);
  vm_->Touch(0, 64);
  EXPECT_EQ(vm_->ept_faults_4k(), 64u);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
}

TEST_F(GuestVmTest, TouchAdvancesVirtualTime) {
  Init(SmallBuddy());
  const sim::Time before = sim_->now();
  vm_->Touch(0, kFramesPerHuge);
  EXPECT_GT(sim_->now(), before);
  EXPECT_GT(vm_->fault_time(), 0u);
}

TEST_F(GuestVmTest, EmulatedDmaAlwaysSucceeds) {
  Init(SmallBuddy());
  EXPECT_TRUE(vm_->DmaWrite(0, 16));
  EXPECT_GT(vm_->rss_bytes(), 0u);  // the device write faulted memory in
}

TEST_F(GuestVmTest, PassthroughDmaRequiresPinning) {
  GuestConfig config = SmallBuddy();
  config.vfio = true;
  Init(config);
  ASSERT_NE(vm_->iommu(), nullptr);
  EXPECT_FALSE(vm_->DmaWrite(0, 16)) << "unpinned frame must fail DMA";
  vm_->iommu()->Pin(0);
  EXPECT_TRUE(vm_->DmaWrite(0, 16));
  EXPECT_FALSE(vm_->DmaWrite(0, kFramesPerHuge + 1))
      << "range extending into an unpinned huge frame must fail";
}

TEST_F(GuestVmTest, CacheAddDropAccounting) {
  Init(SmallBuddy());
  vm_->CacheAdd(8 * kMiB);
  EXPECT_EQ(vm_->cache_bytes(), 8 * kMiB);
  EXPECT_EQ(vm_->AllocatedFrames(), FramesForBytes(8 * kMiB));
  vm_->CacheDrop(3 * kMiB);
  EXPECT_EQ(vm_->cache_bytes(), 5 * kMiB);
  vm_->DropCaches();
  EXPECT_EQ(vm_->cache_bytes(), 0u);
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(GuestVmTest, RssTracksHostUsage) {
  Init(SmallBuddy());
  EXPECT_EQ(host_->used_frames(), 0u);
  vm_->Touch(0, 1024);
  EXPECT_EQ(host_->used_frames(), 1024u);
  EXPECT_EQ(vm_->rss_bytes(), 1024 * kFrameSize);
  vm_->ept().Unmap(0, 1024);
  EXPECT_EQ(host_->used_frames(), 0u);
}

class TrackingListener : public MigrationListener {
 public:
  void OnFrameMigrated(FrameId old_head, FrameId new_head,
                       unsigned order) override {
    moves.emplace_back(old_head, new_head);
    (void)order;
  }
  std::vector<std::pair<FrameId, FrameId>> moves;
};

TEST_F(GuestVmTest, MigrateRangeMovesAllocations) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  config.buddy_config.pcp_enabled = false;
  Init(config);
  TrackingListener listener;
  vm_->AddMigrationListener(&listener);

  // Allocate a movable frame, find its block, and migrate that block.
  const Result<FrameId> victim = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(victim.ok());
  Zone& zone = vm_->ZoneOf(*victim);
  ASSERT_EQ(zone.kind, ZoneKind::kMovable);
  const FrameId block = AlignDown(*victim, kFramesPerHuge);
  zone.buddy->ClaimFreeInRange(block - zone.start, kFramesPerHuge);

  uint64_t migrated = 0;
  ASSERT_TRUE(vm_->MigrateRange(block, kFramesPerHuge, 0, &migrated));
  EXPECT_EQ(migrated, 1u);
  ASSERT_EQ(listener.moves.size(), 1u);
  EXPECT_EQ(listener.moves[0].first, *victim);
  const FrameId moved_to = listener.moves[0].second;
  EXPECT_TRUE(moved_to < block || moved_to >= block + kFramesPerHuge);
  // The new frame is a valid allocation; the old range is fully claimed.
  vm_->Free(moved_to, 0);
  EXPECT_EQ(zone.buddy->AllocatedInRange(block - zone.start, kFramesPerHuge)
                .size(),
            kFramesPerHuge);
}

TEST_F(GuestVmTest, MigrationUpdatesPageCache) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  config.buddy_config.pcp_enabled = false;
  Init(config);
  vm_->CacheAdd(4 * kMiB);
  const uint64_t cache_before = vm_->cache_bytes();

  // Evacuate the whole Movable zone; the cache pages living there must
  // move (to the Normal zone) with the cache bookkeeping following.
  Zone& zone = vm_->zones()[1];
  zone.buddy->ClaimFreeInRange(0, zone.frames);
  uint64_t migrated = 0;
  ASSERT_TRUE(vm_->MigrateRange(zone.start, zone.frames, 0, &migrated));
  EXPECT_EQ(migrated, FramesForBytes(4 * kMiB));
  EXPECT_EQ(vm_->cache_bytes(), cache_before);
  // Dropping the cache must free the *new* locations without errors.
  vm_->DropCaches();
  EXPECT_EQ(vm_->cache_bytes(), 0u);
}

// Buddy AllocBatch trains (and FreeBatch) against single calls on twin VMs
// whose memory is mostly page cache, so the watermark resync, reclaim to
// the watermark and direct reclaim all fire in the middle of trains. The
// frames, the evictions and the watermark state must match step by step.
TEST_F(GuestVmTest, BuddyAllocBatchMatchesSingles) {
  GuestConfig pcp = SmallBuddy();
  GuestConfig movable_no_pcp = SmallBuddy();
  movable_no_pcp.movable_bytes = 64 * kMiB;
  movable_no_pcp.buddy_config.pcp_enabled = false;
  for (const GuestConfig& config : {pcp, movable_no_pcp}) {
    SCOPED_TRACE(config.buddy_config.pcp_enabled ? "pcp" : "movable, no pcp");
    sim::Simulation sim_batch;
    sim::Simulation sim_single;
    hv::HostMemory host_batch(FramesForBytes(kGiB));
    hv::HostMemory host_single(FramesForBytes(kGiB));
    GuestVm batch(&sim_batch, &host_batch, config);
    GuestVm single(&sim_single, &host_single, config);
    batch.CacheAdd(kVmBytes);
    single.CacheAdd(kVmBytes);
    Rng rng(config.buddy_config.pcp_enabled ? 5 : 6);
    std::vector<FrameId> live[2];  // order 0 and order 3
    uint64_t resynced_trains = 0;
    uint64_t reclaiming_trains = 0;

    for (int step = 0; step < 400; ++step) {
      const unsigned core = static_cast<unsigned>(rng.Below(4));
      const unsigned slot = rng.Chance(0.8) ? 0 : 1;
      const unsigned order = slot == 0 ? 0 : 3;
      const double dice = rng.NextDouble();
      if (dice < 0.6) {
        const unsigned count = 1 + static_cast<unsigned>(rng.Below(700));
        const AllocType type =
            rng.Chance(0.7) ? AllocType::kMovable : AllocType::kUnmovable;
        const uint64_t countdown = GuestVmTestPeer::ResyncCountdown(batch);
        const uint64_t evictions = batch.cache_evictions();
        std::vector<FrameId> got;
        std::vector<FrameId> want;
        const unsigned n = batch.AllocBatch(order, count, type, core, &got);
        GuestVmTestPeer::SingleAllocs(single, order, count, type, core,
                                      &want);
        ASSERT_EQ(n, got.size());
        ASSERT_EQ(got, want) << "step " << step;
        resynced_trains += n > countdown ? 1 : 0;
        reclaiming_trains +=
            n > 1 && batch.cache_evictions() > evictions ? 1 : 0;
        live[slot].insert(live[slot].end(), got.begin(), got.end());
      } else if (dice < 0.85 && !live[slot].empty()) {
        std::vector<FrameId>& frames = live[slot];
        const size_t n = 1 + rng.Below(std::min<size_t>(frames.size(), 500));
        std::swap(frames[rng.Below(frames.size())], frames.back());
        const std::vector<FrameId> train(
            frames.end() - static_cast<long>(n), frames.end());
        frames.resize(frames.size() - n);
        batch.FreeBatch(train, order, core);
        for (const FrameId f : train) {
          single.Free(f, order, core);
        }
      } else {
        const uint64_t bytes = (1 + rng.Below(32)) * kMiB;
        batch.CacheAdd(bytes, core);
        single.CacheAdd(bytes, core);
      }
      ASSERT_EQ(batch.FreeFrames(), single.FreeFrames()) << "step " << step;
      ASSERT_EQ(batch.cache_bytes(), single.cache_bytes());
      ASSERT_EQ(batch.cache_evictions(), single.cache_evictions());
      ASSERT_EQ(batch.oom_events(), single.oom_events());
      ASSERT_EQ(GuestVmTestPeer::ResyncCountdown(batch),
                GuestVmTestPeer::ResyncCountdown(single));
      ASSERT_EQ(GuestVmTestPeer::ApproxFree(batch),
                GuestVmTestPeer::ApproxFree(single));
      ASSERT_EQ(sim_batch.now(), sim_single.now());
    }
    EXPECT_GT(resynced_trains, 0u);
    EXPECT_GT(reclaiming_trains, 0u);
    for (const Zone& zone : batch.zones()) {
      EXPECT_TRUE(zone.buddy->Validate());
    }
  }
}

// Records every bandwidth interval a VM reports.
class BandwidthLog : public hv::InterferenceSink {
 public:
  void OnBandwidth(sim::Time t0, sim::Time t1, double bytes_per_ns) override {
    intervals.emplace_back(t0, t1, bytes_per_ns);
  }
  std::vector<std::tuple<sim::Time, sim::Time, double>> intervals;
};

// One VM of a twin pair: its own clock, host pool and bandwidth log, and
// optionally a HyperAlloc monitor (every area starts soft-reclaimed, so
// first claims install) and a swap-style fault surcharge.
struct TwinVm {
  TwinVm(const GuestConfig& config, bool monitor, bool surcharge)
      : host(FramesForBytes(kGiB)) {
    vm = std::make_unique<GuestVm>(&sim, &host, config);
    vm->SetInterferenceSink(&log);
    if (monitor) {
      hyperalloc = std::make_unique<core::HyperAllocMonitor>(
          vm.get(), core::HyperAllocConfig{});
    }
    if (surcharge) {
      vm->SetFaultSurcharge([](FrameId frame, uint64_t count) {
        return count * 300 + frame % 7;
      });
    }
  }

  uint64_t CacheRefills() const {
    uint64_t refills = 0;
    for (const Zone& zone : vm->zones()) {
      if (zone.llfree_cache != nullptr) {
        refills += zone.llfree_cache->refills();
      }
    }
    return refills;
  }

  sim::Simulation sim;
  hv::HostMemory host;
  BandwidthLog log;
  std::unique_ptr<GuestVm> vm;
  std::unique_ptr<core::HyperAllocMonitor> hyperalloc;
};

// Everything the trains may not change: clocks, fault accounting,
// watermark state, page cache, per-vCPU caches (counts and stacks),
// installs and bandwidth intervals; with `frames`, also every frame's
// allocation record, EPT mapping and area hotness.
void ExpectSameVm(const TwinVm& a, const TwinVm& b, bool frames) {
  const GuestVm& x = *a.vm;
  const GuestVm& y = *b.vm;
  ASSERT_EQ(a.sim.now(), b.sim.now());
  ASSERT_EQ(x.fault_time(), y.fault_time());
  ASSERT_EQ(x.ept_faults_2m(), y.ept_faults_2m());
  ASSERT_EQ(x.ept_faults_4k(), y.ept_faults_4k());
  ASSERT_EQ(x.rss_bytes(), y.rss_bytes());
  ASSERT_EQ(x.FreeFrames(), y.FreeFrames());
  ASSERT_EQ(x.cache_bytes(), y.cache_bytes());
  ASSERT_EQ(x.cache_evictions(), y.cache_evictions());
  ASSERT_EQ(x.oom_events(), y.oom_events());
  ASSERT_EQ(GuestVmTestPeer::ResyncCountdown(x),
            GuestVmTestPeer::ResyncCountdown(y));
  ASSERT_EQ(GuestVmTestPeer::ApproxFree(x), GuestVmTestPeer::ApproxFree(y));
  if (a.hyperalloc != nullptr) {
    ASSERT_EQ(a.hyperalloc->installs(), b.hyperalloc->installs());
  }
  ASSERT_EQ(a.log.intervals, b.log.intervals);
  for (size_t z = 0; z < a.vm->zones().size(); ++z) {
    const llfree::FrameCache* cx = a.vm->zones()[z].llfree_cache.get();
    const llfree::FrameCache* cy = b.vm->zones()[z].llfree_cache.get();
    if (cx == nullptr) {
      continue;
    }
    ASSERT_EQ(cx->hits(), cy->hits());
    ASSERT_EQ(cx->refills(), cy->refills());
    ASSERT_EQ(cx->drains(), cy->drains());
    ASSERT_EQ(cx->lost_frames(), 0u);
    for (unsigned slot = 0; slot < cx->cache_config().slots; ++slot) {
      ASSERT_EQ(cx->Parked(slot), cy->Parked(slot)) << "slot " << slot;
    }
  }
  if (!frames) {
    return;
  }
  for (FrameId f = 0; f < x.total_frames(); ++f) {
    ASSERT_EQ(x.AllocOrderAt(f), y.AllocOrderAt(f)) << "frame " << f;
    ASSERT_EQ(x.AllocUnmovableAt(f), y.AllocUnmovableAt(f)) << "frame " << f;
    ASSERT_EQ(a.vm->ept().IsMapped(f), b.vm->ept().IsMapped(f))
        << "frame " << f;
  }
  for (size_t z = 0; z < a.vm->zones().size(); ++z) {
    const llfree::LLFree* lx = a.vm->zones()[z].llfree.get();
    if (lx == nullptr) {
      continue;
    }
    const llfree::LLFree* ly = b.vm->zones()[z].llfree.get();
    for (HugeId h = 0; h < lx->num_areas(); ++h) {
      ASSERT_EQ(lx->HotnessOf(h), ly->HotnessOf(h)) << "area " << h;
    }
  }
}

// What the random twin runs covered.
struct TwinCoverage {
  uint64_t refill_in_request = 0;   // an AllocTouch crossed a cache refill
  uint64_t install_in_request = 0;  // ... or installed a frame
  uint64_t reclaim_in_request = 0;  // ... or reclaimed page cache
  uint64_t partial_touches = 0;     // 4 KiB faults in AllocTouch requests
};

// Random allocation, free and page-cache traffic on twin VMs: `trains`
// uses AllocTouch, FreeEach, CacheAdd and CacheDrop, `single` the
// per-frame calls they replace. Both start mostly page cache, so the
// watermark and direct reclaim fire inside requests; some frames are
// unmapped behind the guest's back, so touches also meet partially
// mapped huge frames.
void RunTwins(TwinVm& trains, TwinVm& single, uint64_t seed,
              TwinCoverage* coverage) {
  const uint64_t fill = trains.vm->total_frames() * kFrameSize * 7 / 8;
  trains.vm->CacheAdd(fill);
  GuestVmTestPeer::SingleCacheAdd(*single.vm, fill, 0);
  ASSERT_NO_FATAL_FAILURE(ExpectSameVm(trains, single, true));
  Rng rng(seed);
  struct Live {
    unsigned order;
    std::vector<FrameId> frames;
  };
  Live live[] = {{0, {}}, {3, {}}, {kHugeOrder, {}}};
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const unsigned core = static_cast<unsigned>(rng.Below(4));
    const double dice = rng.NextDouble();
    Live& pick = live[rng.Chance(0.7) ? 0 : 1 + rng.Below(2)];
    const unsigned order = pick.order;
    if (dice < 0.45) {
      const AllocType type = order == kHugeOrder ? AllocType::kHuge
                             : rng.Chance(0.75)  ? AllocType::kMovable
                                                 : AllocType::kUnmovable;
      const unsigned count = order == kHugeOrder
                                 ? 1 + static_cast<unsigned>(rng.Below(6))
                                 : 1 + static_cast<unsigned>(rng.Below(900));
      const uint64_t refills = trains.CacheRefills();
      const uint64_t installs =
          trains.hyperalloc != nullptr ? trains.hyperalloc->installs() : 0;
      const uint64_t evictions = trains.vm->cache_evictions();
      const uint64_t faults_4k = trains.vm->ept_faults_4k();
      std::vector<FrameId> got;
      std::vector<FrameId> want;
      const unsigned n =
          trains.vm->AllocTouch(order, count, type, core, &got);
      GuestVmTestPeer::SingleAllocTouch(*single.vm, order, count, type, core,
                                        &want);
      ASSERT_EQ(n, got.size());
      ASSERT_EQ(got, want);
      if (n > 1) {
        coverage->refill_in_request += trains.CacheRefills() > refills;
        coverage->install_in_request +=
            trains.hyperalloc != nullptr &&
            trains.hyperalloc->installs() > installs;
        coverage->reclaim_in_request +=
            trains.vm->cache_evictions() > evictions;
        coverage->partial_touches += trains.vm->ept_faults_4k() > faults_4k;
      }
      pick.frames.insert(pick.frames.end(), got.begin(), got.end());
    } else if (dice < 0.7 && !pick.frames.empty()) {
      std::vector<FrameId>& frames = pick.frames;
      const size_t n = 1 + rng.Below(std::min<size_t>(frames.size(), 700));
      std::swap(frames[rng.Below(frames.size())], frames.back());
      const std::vector<FrameId> batch(frames.end() - static_cast<long>(n),
                                       frames.end());
      frames.resize(frames.size() - n);
      trains.vm->FreeEach(batch, order, core);
      for (const FrameId f : batch) {
        single.vm->Free(f, order, core);
      }
    } else if (dice < 0.8) {
      const uint64_t bytes = (1 + rng.Below(24)) * kMiB;
      trains.vm->CacheAdd(bytes, core);
      GuestVmTestPeer::SingleCacheAdd(*single.vm, bytes, core);
    } else if (dice < 0.9) {
      const uint64_t bytes = (1 + rng.Below(24)) * kMiB;
      trains.vm->CacheDrop(bytes, core);
      GuestVmTestPeer::SingleCacheDrop(*single.vm, bytes, core);
    } else {
      // Swap-out or free page reporting behind the guest's back.
      for (int i = 0; i < 64; ++i) {
        const FrameId f = rng.Below(trains.vm->total_frames());
        trains.vm->ept().Unmap(f, 1);
        single.vm->ept().Unmap(f, 1);
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameVm(trains, single, step % 25 == 0));
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameVm(trains, single, true));
}

// AllocTouch, FreeEach and the page-cache paths equal their per-frame
// calls on LLFree guests: cache trains up to refills that install from
// evicted areas, watermark-limited trains with page cache present, and
// the touch memo against partially mapped huge frames.
TEST_F(GuestVmTest, LLFreeTrainsMatchSingles) {
  GuestConfig normal = SmallLLFree();
  GuestConfig movable = SmallLLFree();
  movable.movable_bytes = 64 * kMiB;
  TwinCoverage coverage;
  uint64_t seed = 11;
  for (const GuestConfig& config : {normal, movable}) {
    SCOPED_TRACE(config.movable_bytes > 0 ? "movable zone" : "normal zone");
    TwinVm trains(config, /*monitor=*/true, /*surcharge=*/false);
    TwinVm single(config, /*monitor=*/true, /*surcharge=*/false);
    ASSERT_NO_FATAL_FAILURE(RunTwins(trains, single, seed++, &coverage));
    for (const Zone& zone : trains.vm->zones()) {
      EXPECT_TRUE(zone.llfree->Validate());
    }
  }
  EXPECT_GT(coverage.refill_in_request, 0u);
  EXPECT_GT(coverage.install_in_request, 0u);
  EXPECT_GT(coverage.reclaim_in_request, 0u);
  EXPECT_GT(coverage.partial_touches, 0u);
}

// Buddy guests with the HyperAlloc monitor's aux bridge: RecordAlloc
// installs evicted huge frames between the touches of a buddy train.
TEST_F(GuestVmTest, BuddyAuxTrainsMatchSingles) {
  TwinCoverage coverage;
  TwinVm trains(SmallBuddy(), /*monitor=*/true, /*surcharge=*/false);
  TwinVm single(SmallBuddy(), /*monitor=*/true, /*surcharge=*/false);
  ASSERT_NE(trains.vm->aux_state(), nullptr);
  ASSERT_NO_FATAL_FAILURE(RunTwins(trains, single, 21, &coverage));
  EXPECT_GT(coverage.install_in_request, 0u);
  EXPECT_GT(coverage.reclaim_in_request, 0u);
  for (const Zone& zone : trains.vm->zones()) {
    EXPECT_TRUE(zone.buddy->Validate());
  }
}

// With a fault surcharge attached (swap) the touch memo is off and every
// touch pays its surcharge, as the singles do.
TEST_F(GuestVmTest, SurchargedTrainsMatchSingles) {
  TwinCoverage coverage;
  uint64_t seed = 31;
  for (const GuestConfig& config : {SmallLLFree(), SmallBuddy()}) {
    TwinVm trains(config, /*monitor=*/false, /*surcharge=*/true);
    TwinVm single(config, /*monitor=*/false, /*surcharge=*/true);
    ASSERT_NO_FATAL_FAILURE(RunTwins(trains, single, seed++, &coverage));
  }
  EXPECT_GT(coverage.partial_touches, 0u);
}

TEST_F(GuestVmTest, PurgeAllocatorCachesDrainsPcp) {
  Init(SmallBuddy());
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  vm_->Free(*r, 0);
  Zone& zone = vm_->ZoneOf(*r);
  EXPECT_LT(zone.buddy->FreeFramesInLists(), zone.frames);
  vm_->PurgeAllocatorCaches();
  EXPECT_EQ(zone.buddy->FreeFramesInLists(), zone.frames);
}

TEST_F(GuestVmTest, LLFreeGuestSharesStateWithMonitorView) {
  Init(SmallLLFree());
  Zone& zone = vm_->zones()[1];
  ASSERT_NE(zone.llfree_state, nullptr);
  llfree::LLFree monitor(zone.llfree_state.get());
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(monitor.ReadArea(FrameToHuge(*r - zone.start)).allocated);
}

TEST_F(GuestVmTest, DryNormalZoneReprobeScansNoTree) {
#if !HYPERALLOC_TRACE
  GTEST_SKIP() << "counters compiled out (HYPERALLOC_TRACE=0)";
#else
  // The Fig. 4 VM (20 GiB, 2 GiB DMA32) after its preparation filled
  // the 18 GiB Normal zone with huge frames. The first 4 KiB allocation
  // probes the dry Normal zone (one failed reservation scan plus one
  // fallback scan of the 1152-tree index) before DMA32 serves it, and
  // the fallback records the zone as dry. A second probe then costs one
  // load of the dry memo and no scan (it used to cost both scans again),
  // until a free into Normal clears the memo.
  GuestConfig config;
  config.allocator = AllocatorKind::kLLFree;
  Init(config);
  const Zone& dma32 = vm_->zones()[0];
  Zone& normal = vm_->zones()[1];
  ASSERT_EQ(normal.kind, ZoneKind::kNormal);
  ASSERT_EQ(normal.llfree->num_trees(), 1152u);
  // All but one huge frame straight from the allocator; the last one
  // through the VM, so that the VM can free it again.
  for (uint64_t i = 0; i + 1 < normal.llfree->num_areas(); ++i) {
    ASSERT_TRUE(normal.llfree->Get(0, kHugeOrder, AllocType::kHuge).ok());
  }
  const Result<FrameId> last = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(last.ok());
  ASSERT_TRUE(normal.Contains(*last));

  const trace::Counter& scans =
      trace::CounterRegistry::Global().FindOrCreate("llfree.tree_scan");
  const trace::Counter& skips =
      trace::CounterRegistry::Global().FindOrCreate("llfree.dry_skip");
  const Result<FrameId> first = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(dma32.Contains(*first));
  EXPECT_TRUE(normal.llfree->ReadDryMemo().Covers(1));

  // The first allocation also refilled DMA32's frame cache; the next one
  // is served from that cache, so every scan it makes is Normal's.
  const uint64_t scans_before = scans.Value();
  const uint64_t skips_before = skips.Value();
  const Result<FrameId> second = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(dma32.Contains(*second));
  EXPECT_EQ(scans.Value() - scans_before, 0u);
  EXPECT_GE(skips.Value() - skips_before, 1u);

  vm_->Free(*last, kHugeOrder);
  EXPECT_FALSE(normal.llfree->ReadDryMemo().Covers(1));
  const Result<FrameId> third = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(normal.Contains(*third));
  EXPECT_TRUE(normal.llfree->Validate());
#endif  // HYPERALLOC_TRACE
}

TEST_F(GuestVmTest, FreeWithWrongOrderAborts) {
  Init(SmallBuddy());
  const Result<FrameId> r = vm_->Alloc(3, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_DEATH(vm_->Free(*r, 2), "check failed");
}

TEST_F(GuestVmTest, DoubleFreeAborts) {
  Init(SmallBuddy());
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  vm_->Free(*r, 0);
  EXPECT_DEATH(vm_->Free(*r, 0), "check failed");
}

}  // namespace
}  // namespace hyperalloc::guest
