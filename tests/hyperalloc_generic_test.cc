// Tests for the HyperAlloc monitor on a buddy guest — paper §6 "Concept
// Generalization": soft reclamation and install work through the
// auxiliary (A, E) bridge; hard limits fall back to a guest-mediated
// path.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"

namespace hyperalloc::core {
namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;

class GenericHyperAllocTest : public ::testing::Test {
 protected:
  void Init(bool vfio = false) {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    guest::GuestConfig config;
    config.memory_bytes = kVmBytes;
    config.vcpus = 4;
    config.dma32_bytes = 64 * kMiB;
    config.vfio = vfio;
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), config);
    ASSERT_EQ(config.allocator, guest::AllocatorKind::kBuddy);
    monitor_ = std::make_unique<HyperAllocMonitor>(vm_.get(),
                                                   HyperAllocConfig{});
  }

  hv::AuxState& aux() { return *vm_->aux_state(); }

  void SetLimit(uint64_t bytes) {
    bool done = false;
    monitor_->Request({.target_bytes = bytes, .done = [&] { done = true; }});
    while (!done) {
      ASSERT_TRUE(sim_->Step());
    }
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<guest::GuestVm> vm_;
  std::unique_ptr<HyperAllocMonitor> monitor_;
};

TEST_F(GenericHyperAllocTest, InstallOnFirstUse) {
  Init();
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(monitor_->installs(), 1u);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
  EXPECT_TRUE(aux().Allocated(FrameToHuge(*r)));
  EXPECT_FALSE(aux().Evicted(FrameToHuge(*r)));
}

TEST_F(GenericHyperAllocTest, AuxOccupancyTracksBuddy) {
  Init();
  const Result<FrameId> a = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(a.ok());
  const HugeId huge = FrameToHuge(*a);
  EXPECT_TRUE(aux().Allocated(huge));
  vm_->Free(*a, 0);
  vm_->PurgeAllocatorCaches();
  // PCP drain happens outside Free; occupancy clears once truly free.
  // (The PCP cache keeps the frame "allocated" from the buddy's view.)
  const Result<FrameId> b = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(b.ok());
  vm_->Free(*b, 0);
  vm_->PurgeAllocatorCaches();
  // After draining, freeing any remaining frame clears the block.
  // Allocate + free a frame with PCP disabled effect via huge order:
  const Result<FrameId> c = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(aux().Allocated(FrameToHuge(*c)));
  vm_->Free(*c, kHugeOrder);
  EXPECT_FALSE(aux().Allocated(FrameToHuge(*c)));
}

// A(h) is cleared when a block's last frame leaves it, also when that
// happens in a per-CPU cache drain rather than in the free itself. While
// frames sit in a per-CPU cache their block counts as used; A may still
// be clear there (the guest sets A when it hands a frame out), so the
// two must agree exactly only once the caches are purged.
TEST_F(GenericHyperAllocTest, AuxOccupancyFollowsPcpDrains) {
  Init();
  auto check = [&](bool purged, const char* when) {
    uint64_t stale = 0;
    uint64_t unmarked = 0;
    for (guest::Zone& zone : vm_->zones()) {
      ASSERT_NE(zone.buddy, nullptr);
      const HugeId base = FrameToHuge(zone.start);
      for (HugeId h = 0; h < zone.frames / kFramesPerHuge; ++h) {
        const bool used = zone.buddy->UsedFramesInBlock(h) > 0;
        const bool allocated = aux().Allocated(base + h);
        stale += allocated && !used;
        unmarked += used && !allocated;
      }
    }
    EXPECT_EQ(stale, 0u) << "A set on empty blocks " << when;
    if (purged) {
      EXPECT_EQ(unmarked, 0u) << "A clear on used blocks " << when;
    }
  };

  Rng rng(19);
  std::vector<std::pair<FrameId, unsigned>> held;
  for (int i = 0; i < 20000; ++i) {
    if (!held.empty() && rng.Below(5) < 2) {
      std::swap(held[rng.Below(held.size())], held.back());
      vm_->Free(held.back().first, held.back().second,
                static_cast<unsigned>(rng.Below(4)));
      held.pop_back();
      continue;
    }
    const unsigned order = rng.Below(8) == 0 ? 2u : 0u;
    const Result<FrameId> r = vm_->Alloc(order, AllocType::kMovable,
                                         static_cast<unsigned>(rng.Below(4)));
    ASSERT_TRUE(r.ok());
    held.emplace_back(*r, order);
  }
  check(false, "after random traffic");
  vm_->PurgeAllocatorCaches();
  check(true, "after purging the caches");

  for (const auto& [frame, order] : held) {
    vm_->Free(frame, order, 0);
  }
  check(false, "after freeing everything");
  vm_->PurgeAllocatorCaches();
  check(true, "after the final purge");
  for (HugeId h = 0; h < aux().size(); ++h) {
    EXPECT_FALSE(aux().Allocated(h)) << "block " << h;
  }
}

TEST_F(GenericHyperAllocTest, AutoReclaimIsDmaSafeFreePageReporting) {
  Init();
  std::vector<FrameId> frames;
  for (int i = 0; i < 32; ++i) {
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok());
    frames.push_back(*r);
  }
  EXPECT_EQ(vm_->rss_bytes(), 64 * kMiB);
  for (const FrameId f : frames) {
    vm_->Free(f, kHugeOrder);
  }
  EXPECT_EQ(monitor_->AutoReclaimPass(), 32u);
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  // Unlike free-page reporting, reuse must go through install.
  const Result<FrameId> again = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
  EXPECT_GE(monitor_->installs(), 33u);
}

TEST_F(GenericHyperAllocTest, AutoReclaimSkipsUsedBlocks) {
  Init();
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(monitor_->AutoReclaimPass(), 0u);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
}

TEST_F(GenericHyperAllocTest, HardLimitGuestMediated) {
  Init();
  SetLimit(64 * kMiB);
  EXPECT_EQ(monitor_->limit_bytes(), 64 * kMiB);
  // The frames are held as guest allocations; the guest can use at most
  // the remaining 64 MiB.
  uint64_t allocated = 0;
  while (vm_->Alloc(kHugeOrder, AllocType::kHuge).ok()) {
    allocated += kHugeSize;
  }
  EXPECT_EQ(allocated, 64 * kMiB);
  EXPECT_EQ(vm_->rss_bytes(), 64 * kMiB);

  SetLimit(kVmBytes);
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes);
  // Returned frames install on reuse (DMA-safe deflation).
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(aux().Allocated(FrameToHuge(*r)));
}

TEST_F(GenericHyperAllocTest, ShrinkOfUntouchedMemorySkipsUnmap) {
  Init();
  const uint64_t unmaps_before = vm_->ept().total_unmapped_ops();
  SetLimit(64 * kMiB);
  EXPECT_EQ(vm_->ept().total_unmapped_ops(), unmaps_before);
  EXPECT_EQ(vm_->rss_bytes(), 0u);
}

TEST_F(GenericHyperAllocTest, VfioDmaSafety) {
  Init(/*vfio=*/true);
  for (int i = 0; i < 64; ++i) {
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(vm_->DmaWrite(*r, kFramesPerHuge)) << "frame " << *r;
  }
  // Reclaimed memory is unpinned again.
  std::vector<FrameId> held;
  const Result<FrameId> victim = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(victim.ok());
  vm_->Free(*victim, kHugeOrder);
  ASSERT_GE(monitor_->AutoReclaimPass(), 1u);
  EXPECT_FALSE(vm_->DmaWrite(*victim, 1));
}

TEST_F(GenericHyperAllocTest, SoftReclaimBeatenByGuestAllocation) {
  // The atomicity point of the aux CAS: a frame the guest just allocated
  // (A set) cannot be reclaimed.
  Init();
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(aux().TryReclaim(FrameToHuge(*r)));
  vm_->Free(*r, kHugeOrder);
  EXPECT_TRUE(aux().TryReclaim(FrameToHuge(*r)));
  // Second reclaim of the same frame fails (already evicted).
  EXPECT_FALSE(aux().TryReclaim(FrameToHuge(*r)));
}

}  // namespace
}  // namespace hyperalloc::core
