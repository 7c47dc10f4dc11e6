// Tests for the workload generators: memory pool, STREAM, FTQ, compile,
// blender, SPEC preparation, and the interference hub.
#include <gtest/gtest.h>

#include <tuple>

#include "src/base/rng.h"
#include "src/core/hyperalloc.h"
#include "src/workloads/blender.h"
#include "src/workloads/compile.h"
#include "src/workloads/ftq.h"
#include "src/workloads/interference_hub.h"
#include "src/workloads/memory_pool.h"
#include "src/workloads/spec_prep.h"
#include "src/workloads/stream.h"

namespace hyperalloc::workloads {
namespace {

class WorkloadsTest : public ::testing::Test {
 protected:
  void Init(uint64_t memory = kGiB) {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(8 * kGiB));
    guest::GuestConfig config;
    config.memory_bytes = memory;
    config.vcpus = 4;
    config.dma32_bytes = 0;
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), config);
    pool_ = std::make_unique<MemoryPool>(vm_.get());
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<guest::GuestVm> vm_;
  std::unique_ptr<MemoryPool> pool_;
};

TEST_F(WorkloadsTest, PoolAllocTouchesAndFrees) {
  Init();
  const uint64_t region = pool_->AllocRegion(64 * kMiB, 0.5, 0);
  EXPECT_EQ(pool_->RegionBytes(region), 64 * kMiB);
  EXPECT_EQ(pool_->TotalBytes(), 64 * kMiB);
  EXPECT_EQ(vm_->rss_bytes() % kHugeSize, 0u);  // THP-granular population
  EXPECT_GE(vm_->rss_bytes(), 64 * kMiB);
  pool_->FreeRegion(region, 0);
  EXPECT_EQ(pool_->TotalBytes(), 0u);
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(WorkloadsTest, PoolThpFallbackOnFragmentation) {
  Init();
  // Consume everything, then free scattered 4 KiB holes: no huge frames
  // remain, but a THP-heavy region must still allocate via base pages.
  const uint64_t big = pool_->AllocRegion(kGiB, 0.0, 0);
  ASSERT_EQ(pool_->RegionBytes(big), kGiB);
  pool_->FreeRegion(big, 0);
  // Allocate every 512th frame to break all huge frames.
  std::vector<FrameId> pins;
  for (FrameId f = 0; f < vm_->total_frames(); f += kFramesPerHuge) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable, 0);
    ASSERT_TRUE(r.ok());
    pins.push_back(*r);
  }
  const uint64_t thp_region = pool_->AllocRegion(128 * kMiB, 1.0, 0);
  EXPECT_EQ(pool_->RegionBytes(thp_region), 128 * kMiB)
      << "THP fallback should deliver base frames";
}

TEST_F(WorkloadsTest, PoolGrowRegion) {
  Init();
  const uint64_t region = pool_->AllocRegion(8 * kMiB, 0.0, 0);
  EXPECT_EQ(pool_->RegionBytes(region), 8 * kMiB);
  pool_->GrowRegion(region, 8 * kMiB, 0.5, 0);
  EXPECT_EQ(pool_->RegionBytes(region), 16 * kMiB);
  // One free releases all increments.
  pool_->FreeRegion(region, 0);
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(WorkloadsTest, ConcurrentJobsInterleaveMemory) {
  // Incremental working sets: two jobs growing in alternation end up
  // with interleaved frames (the fragmentation driver of real builds).
  Init();
  const uint64_t a = pool_->AllocRegion(kMiB, 0.0, 0);
  const uint64_t b = pool_->AllocRegion(kMiB, 0.0, 0);
  for (int step = 0; step < 4; ++step) {
    pool_->GrowRegion(a, kMiB, 0.0, 0);
    pool_->GrowRegion(b, kMiB, 0.0, 0);
  }
  EXPECT_EQ(pool_->RegionBytes(a), 5 * kMiB);
  EXPECT_EQ(pool_->RegionBytes(b), 5 * kMiB);
  pool_->FreeRegion(a, 0);
  pool_->FreeRegion(b, 0);
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

// One side of the pool twin: a VM with a HyperAlloc monitor and a log
// of the bandwidth intervals it reports.
struct PoolTwin : hv::InterferenceSink {
  explicit PoolTwin(const guest::GuestConfig& config)
      : host(FramesForBytes(kGiB)), vm(&sim, &host, config),
        monitor(&vm, core::HyperAllocConfig{}) {
    vm.SetInterferenceSink(this);
  }
  void OnBandwidth(sim::Time t0, sim::Time t1, double bytes_per_ns) override {
    bandwidth.emplace_back(t0, t1, bytes_per_ns);
  }

  sim::Simulation sim;
  hv::HostMemory host;
  guest::GuestVm vm;
  core::HyperAllocMonitor monitor;
  std::vector<std::tuple<sim::Time, sim::Time, double>> bandwidth;
};

// The per-frame region code MemoryPool's trains replace: Alloc then Touch
// per allocation, huge frames first with the THP fallback to base pages,
// an OOM keeping what was claimed, and frees in region order.
struct PerFrameRegion {
  std::vector<std::pair<FrameId, unsigned>> allocs;
  uint64_t huge_fallbacks = 0;

  void Grow(guest::GuestVm& vm, uint64_t bytes, double thp, unsigned core,
            AllocType type) {
    const uint64_t frames = FramesForBytes(bytes);
    const uint64_t huge_frames =
        HugesForFrames(static_cast<uint64_t>(static_cast<double>(frames) *
                                             thp)) *
        kFramesPerHuge;
    uint64_t base_frames = frames > huge_frames ? frames - huge_frames : 0;
    for (uint64_t i = 0; i < huge_frames / kFramesPerHuge; ++i) {
      const Result<FrameId> r = vm.Alloc(kHugeOrder, AllocType::kHuge, core);
      if (!r.ok()) {
        base_frames += (huge_frames / kFramesPerHuge - i) * kFramesPerHuge;
        ++huge_fallbacks;
        break;
      }
      vm.Touch(*r, kFramesPerHuge);
      allocs.emplace_back(*r, kHugeOrder);
    }
    for (uint64_t i = 0; i < base_frames; ++i) {
      const Result<FrameId> r = vm.Alloc(0, type, core);
      if (!r.ok()) {
        return;
      }
      vm.Touch(*r, 1);
      allocs.emplace_back(*r, 0);
    }
  }

  uint64_t Bytes() const {
    uint64_t frames = 0;
    for (const auto& [frame, order] : allocs) {
      frames += 1ull << order;
    }
    return frames * kFrameSize;
  }

  void Free(guest::GuestVm& vm, unsigned core) {
    for (const auto& [frame, order] : allocs) {
      vm.Free(frame, order, core);
    }
  }
};

// MemoryPool's region grow and free equal the per-frame code on twin VMs
// (both allocators, installs on first use, page cache under pressure):
// same frames, clocks, faults, page cache and bandwidth intervals.
TEST(PoolTrains, RegionsMatchPerFrameReference) {
  for (const guest::AllocatorKind allocator :
       {guest::AllocatorKind::kLLFree, guest::AllocatorKind::kBuddy}) {
    SCOPED_TRACE(allocator == guest::AllocatorKind::kLLFree ? "llfree"
                                                            : "buddy");
    guest::GuestConfig config;
    config.memory_bytes = 256 * kMiB;
    config.vcpus = 4;
    config.dma32_bytes = 64 * kMiB;
    config.allocator = allocator;
    PoolTwin trains(config);
    PoolTwin single(config);
    MemoryPool pool(&trains.vm);
    trains.vm.CacheAdd(160 * kMiB);
    single.vm.CacheAdd(160 * kMiB);
    std::vector<std::pair<uint64_t, PerFrameRegion>> regions;
    uint64_t fallbacks = 0;
    Rng rng(allocator == guest::AllocatorKind::kLLFree ? 7 : 8);
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const unsigned core = static_cast<unsigned>(rng.Below(4));
      const double dice = rng.NextDouble();
      const uint64_t bytes = (1 + rng.Below(24)) * kMiB;
      const double thp = rng.Chance(0.5) ? 0.0 : (rng.Chance(0.5) ? 0.3 : 1.0);
      if (dice < 0.35 || regions.empty()) {
        const AllocType type =
            rng.Chance(0.8) ? AllocType::kMovable : AllocType::kUnmovable;
        regions.emplace_back(pool.AllocRegion(bytes, thp, core, type),
                             PerFrameRegion{});
        regions.back().second.Grow(single.vm, bytes, thp, core, type);
      } else if (dice < 0.6) {
        auto& [id, reference] = regions[rng.Below(regions.size())];
        pool.GrowRegion(id, bytes, thp, core);
        reference.Grow(single.vm, bytes, thp, core, AllocType::kMovable);
      } else if (dice < 0.85) {
        const size_t i = rng.Below(regions.size());
        pool.FreeRegion(regions[i].first, core);
        regions[i].second.Free(single.vm, core);
        fallbacks += regions[i].second.huge_fallbacks;
        regions.erase(regions.begin() + static_cast<long>(i));
      } else {
        trains.vm.CacheAdd(bytes, core);
        single.vm.CacheAdd(bytes, core);
      }
      ASSERT_EQ(trains.sim.now(), single.sim.now());
      ASSERT_EQ(trains.vm.fault_time(), single.vm.fault_time());
      ASSERT_EQ(trains.vm.ept_faults_2m(), single.vm.ept_faults_2m());
      ASSERT_EQ(trains.vm.ept_faults_4k(), single.vm.ept_faults_4k());
      ASSERT_EQ(trains.vm.FreeFrames(), single.vm.FreeFrames());
      ASSERT_EQ(trains.vm.cache_bytes(), single.vm.cache_bytes());
      ASSERT_EQ(trains.vm.cache_evictions(), single.vm.cache_evictions());
      ASSERT_EQ(trains.vm.oom_events(), single.vm.oom_events());
      ASSERT_EQ(trains.monitor.installs(), single.monitor.installs());
      ASSERT_EQ(trains.bandwidth, single.bandwidth);
      for (const auto& [id, reference] : regions) {
        ASSERT_EQ(pool.RegionBytes(id), reference.Bytes());
      }
    }
    for (const auto& [id, reference] : regions) {
      fallbacks += reference.huge_fallbacks;
    }
    EXPECT_GT(fallbacks, 0u);
    for (FrameId f = 0; f < trains.vm.total_frames(); ++f) {
      ASSERT_EQ(trains.vm.AllocOrderAt(f), single.vm.AllocOrderAt(f));
      ASSERT_EQ(trains.vm.ept().IsMapped(f), single.vm.ept().IsMapped(f));
    }
  }
}

TEST_F(WorkloadsTest, PoolFreeAll) {
  Init();
  pool_->AllocRegion(16 * kMiB, 0.0, 0);
  pool_->AllocRegion(16 * kMiB, 0.5, 0);
  EXPECT_EQ(pool_->NumRegions(), 2u);
  pool_->FreeAll(0);
  EXPECT_EQ(pool_->NumRegions(), 0u);
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(WorkloadsTest, SpecPrepRandomizesAndTouches) {
  Init(2 * kGiB);
  SpecPrepConfig config;
  config.peak_bytes = kGiB;
  config.cache_bytes = 256 * kMiB;
  config.residual_fraction = 0.1;
  SpecPrep(vm_.get(), pool_.get(), config);
  // Cache present, residual allocations live, most memory touched.
  EXPECT_EQ(vm_->cache_bytes(), 256 * kMiB);
  EXPECT_GT(pool_->TotalBytes(), 0u);
  EXPECT_GT(vm_->rss_bytes(), kGiB / 2);
  EXPECT_LT(vm_->FreeFrames(), vm_->total_frames());
}

TEST(StreamModel, BaselineBandwidthMatchesTable2) {
  EXPECT_DOUBLE_EQ(StreamAggregateBandwidth(1), 10.3);
  EXPECT_DOUBLE_EQ(StreamAggregateBandwidth(4), 26.0);
  EXPECT_DOUBLE_EQ(StreamAggregateBandwidth(12), 69.0);
  // Interpolation is monotone in between.
  EXPECT_GT(StreamAggregateBandwidth(8), 26.0);
  EXPECT_LT(StreamAggregateBandwidth(8), 69.0);
}

TEST(StreamModel, UndisturbedRunReportsBaseline) {
  sim::Simulation sim;
  StreamConfig config;
  config.threads = 4;
  config.vcpus = 4;
  config.iterations = 5;
  StreamWorkload stream(&sim, config);
  bool done = false;
  stream.Start([&] { done = true; });
  while (!done) {
    ASSERT_TRUE(sim.Step());
  }
  ASSERT_EQ(stream.samples().points().size(), 20u);
  for (const auto& p : stream.samples().points()) {
    EXPECT_NEAR(p.value, 26.0 / 4, 0.5);
  }
}

TEST(StreamModel, BandwidthLoadSlowsIterations) {
  sim::Simulation sim;
  StreamConfig config;
  config.threads = 1;
  config.vcpus = 4;
  config.iterations = 20;
  StreamWorkload stream(&sim, config);
  // Halve the available bandwidth for a mid-run window.
  for (sim::CapacityTimeline* bw : stream.bandwidth_timelines()) {
    bw->AddLoad(sim::kSec, 3 * sim::kSec, bw->base_capacity() * 0.5);
  }
  bool done = false;
  stream.Start([&] { done = true; });
  while (!done) {
    ASSERT_TRUE(sim.Step());
  }
  double min = 1e9;
  for (const auto& p : stream.samples().points()) {
    min = std::min(min, p.value);
  }
  EXPECT_LT(min, 6.0) << "iterations inside the load window must be slow";
}

TEST(FtqModel, WorkTracksCpuAvailability) {
  sim::Simulation sim;
  FtqConfig config;
  config.threads = 2;
  config.vcpus = 2;
  config.samples = 20;
  FtqWorkload ftq(&sim, config);
  // Steal half of cpu 0 for a window covering samples ~5-10.
  ftq.vcpus().StealCpu(0, 5 * config.quantum, 10 * config.quantum, 0.5);
  bool done = false;
  ftq.Start([&] { done = true; });
  while (!done) {
    ASSERT_TRUE(sim.Step());
  }
  const auto& points = ftq.samples().points();
  ASSERT_EQ(points.size(), 20u);
  EXPECT_NEAR(points[1].value, 2 * config.work_per_quantum, 1e3);
  EXPECT_NEAR(points[7].value, 1.5 * config.work_per_quantum, 1e3);
  EXPECT_NEAR(points[15].value, 2 * config.work_per_quantum, 1e3);
}

TEST_F(WorkloadsTest, CompileRunsToCompletion) {
  Init(4 * kGiB);
  CompileConfig config;
  config.workers = 4;
  config.compile_units = 30;
  config.link_jobs = 2;
  config.unit_ws_min = 8 * kMiB;
  config.unit_ws_max = 32 * kMiB;
  config.link_ws_min = 64 * kMiB;
  config.link_ws_max = 128 * kMiB;
  config.slab_per_job = kMiB;
  CompileWorkload compile(vm_.get(), pool_.get(), nullptr, config);
  bool done = false;
  compile.Start([&] { done = true; });
  while (!done) {
    ASSERT_TRUE(sim_->Step());
  }
  EXPECT_EQ(compile.jobs_completed(), 32u);
  EXPECT_GT(vm_->cache_bytes(), 0u);
  EXPECT_GT(compile.artifact_bytes(), 0u);
  const uint64_t cache_before = vm_->cache_bytes();
  compile.MakeClean();
  EXPECT_LT(vm_->cache_bytes(), cache_before);
  EXPECT_EQ(vm_->oom_events(), 0u);
}

TEST_F(WorkloadsTest, CompileStretchesWithCpuSteal) {
  Init(4 * kGiB);
  CompileConfig config;
  config.workers = 2;
  config.compile_units = 10;
  config.link_jobs = 0;
  config.unit_ws_min = 4 * kMiB;
  config.unit_ws_max = 8 * kMiB;
  config.unit_time_min = 1 * sim::kSec;
  config.unit_time_max = 1 * sim::kSec;
  config.slab_per_job = 0;

  // Run once unloaded, once with half the CPU stolen.
  sim::Time unloaded = 0;
  sim::Time loaded = 0;
  for (const bool steal : {false, true}) {
    Init(4 * kGiB);
    sim::VcpuSet vcpus(2);
    if (steal) {
      for (unsigned c = 0; c < 2; ++c) {
        vcpus.StealCpu(c, 0, 60 * sim::kSec, 0.5);
      }
    }
    CompileWorkload compile(vm_.get(), pool_.get(), &vcpus, config);
    const sim::Time start = sim_->now();
    bool done = false;
    compile.Start([&] { done = true; });
    while (!done) {
      ASSERT_TRUE(sim_->Step());
    }
    (steal ? loaded : unloaded) = sim_->now() - start;
  }
  EXPECT_GT(loaded, unloaded * 3 / 2) << "stolen CPU must stretch the build";
}

TEST_F(WorkloadsTest, BlenderRunFreesWorkingSetKeepsResidue) {
  Init(4 * kGiB);
  BlenderConfig config;
  config.scene_bytes = 64 * kMiB;
  config.working_set = kGiB;
  config.rampup_steps = 4;
  config.render_time = 20 * sim::kSec;
  config.churn_interval = 2 * sim::kSec;
  config.slab_alloc_per_tick = 4 * kMiB;
  BlenderWorkload blender(vm_.get(), pool_.get(), config);
  bool done = false;
  blender.Run([&] { done = true; });
  while (!done) {
    ASSERT_TRUE(sim_->Step());
  }
  // Working set gone; cache + slab survivors remain.
  EXPECT_EQ(vm_->cache_bytes(), 64 * kMiB);
  const uint64_t residue =
      vm_->AllocatedFrames() * kFrameSize - vm_->cache_bytes();
  EXPECT_GT(residue, 0u);
  EXPECT_LT(residue, 64 * kMiB);  // ~20 % of the slab churn survives
}

TEST(InterferenceHub, RoutesStealsAndIpis) {
  sim::VcpuSet vcpus(2);
  InterferenceHub hub(&vcpus, {}, /*workload_threads=*/2);
  hub.OnCpuSteal(0, 0, 1000, 1.0);
  EXPECT_DOUBLE_EQ(vcpus.cpu(0).CapacityAt(500), 0.5);  // CFS fair share
  hub.OnAllCpusSteal(2000, 3000, 0.4);
  EXPECT_DOUBLE_EQ(vcpus.cpu(1).CapacityAt(2500), 0.6);
}

TEST(InterferenceHub, DriverMovesToIdleCpu) {
  sim::VcpuSet vcpus(4);
  InterferenceHub hub(&vcpus, {}, /*workload_threads=*/1);
  hub.OnCpuSteal(0, 0, 1000, 1.0);
  // With idle vCPUs available, the workload's CPU is untouched.
  EXPECT_DOUBLE_EQ(vcpus.cpu(0).CapacityAt(500), 1.0);
}

TEST(InterferenceHub, BandwidthFansOutToAllConsumers) {
  sim::CapacityTimeline a(2.0);
  sim::CapacityTimeline b(4.0);
  InterferenceHub hub(nullptr, {&a, &b});
  // 40 GB/s of reclaim traffic = half the 80 GB/s machine.
  hub.OnBandwidth(0, 1000, 40.0);
  EXPECT_DOUBLE_EQ(a.CapacityAt(500), 1.0);
  EXPECT_DOUBLE_EQ(b.CapacityAt(500), 2.0);
}

}  // namespace
}  // namespace hyperalloc::workloads
