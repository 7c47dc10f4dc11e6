// Tests for the hypervisor substrate: host memory pool, EPT, IOMMU, and
// the reclamation-state array.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/core/reclaim_states.h"
#include "src/hv/cost_model.h"
#include "src/hv/ept.h"
#include "src/hv/host_memory.h"
#include "src/hv/iommu.h"

namespace hyperalloc {
namespace {

TEST(HostMemory, ReserveRelease) {
  hv::HostMemory host(1000);
  EXPECT_TRUE(host.TryReserve(600));
  EXPECT_EQ(host.used_frames(), 600u);
  EXPECT_EQ(host.free_frames(), 400u);
  EXPECT_FALSE(host.TryReserve(500)) << "overcommit must be rejected";
  EXPECT_EQ(host.used_frames(), 600u);
  host.Release(100);
  EXPECT_TRUE(host.TryReserve(500));
  EXPECT_EQ(host.used_frames(), 1000u);
}

TEST(HostMemory, PeakTracking) {
  hv::HostMemory host(1000);
  host.TryReserve(700);
  host.Release(600);
  host.TryReserve(200);
  EXPECT_EQ(host.peak_frames(), 700u);
  host.TryReserve(600);
  EXPECT_EQ(host.peak_frames(), 900u);
}

TEST(HostMemory, SnapshotIsConsistent) {
  hv::HostMemory host(1000);
  host.TryReserve(300);
  const hv::MemorySnapshot snap = host.snapshot();
  EXPECT_EQ(snap.total, 1000u);
  EXPECT_EQ(snap.used, 300u);
  EXPECT_EQ(snap.free, 700u);
  EXPECT_GE(snap.peak, snap.used);
}

TEST(Ept, MapUnmapAndRss) {
  hv::HostMemory host(10000);
  hv::Ept ept(8192, &host);
  EXPECT_EQ(ept.mapped_frames(), 0u);
  EXPECT_EQ(ept.Map(100, 50), 50u);
  EXPECT_EQ(ept.mapped_frames(), 50u);
  EXPECT_EQ(ept.rss_bytes(), 50 * kFrameSize);
  EXPECT_EQ(host.used_frames(), 50u);
  // Overlapping map only reserves the missing part.
  EXPECT_EQ(ept.Map(120, 50), 20u);
  EXPECT_EQ(ept.mapped_frames(), 70u);
  EXPECT_EQ(ept.Unmap(100, 70), 70u);
  EXPECT_EQ(ept.mapped_frames(), 0u);
  EXPECT_EQ(host.used_frames(), 0u);
}

TEST(Ept, CountMappedWordBoundaries) {
  hv::Ept ept(1024, nullptr);
  ept.Map(60, 10);  // straddles the first 64-bit word boundary
  EXPECT_EQ(ept.CountMapped(0, 1024), 10u);
  EXPECT_EQ(ept.CountMapped(60, 10), 10u);
  EXPECT_EQ(ept.CountMapped(0, 60), 0u);
  EXPECT_EQ(ept.CountMapped(64, 6), 6u);
  EXPECT_EQ(ept.CountMapped(63, 2), 2u);
  EXPECT_TRUE(ept.IsMapped(69));
  EXPECT_FALSE(ept.IsMapped(70));
}

TEST(Ept, HostExhaustionLeavesStateUnchanged) {
  hv::HostMemory host(10);
  hv::Ept ept(1024, &host);
  EXPECT_EQ(ept.Map(0, 64), hv::Ept::kNoHostMemory);
  EXPECT_EQ(ept.mapped_frames(), 0u);
  EXPECT_EQ(host.used_frames(), 0u);
  EXPECT_EQ(ept.Map(0, 10), 10u);
}

TEST(Ept, UnmapAbsentIsFree) {
  hv::Ept ept(1024, nullptr);
  EXPECT_EQ(ept.Unmap(0, 512), 0u);
  EXPECT_EQ(ept.total_unmapped_ops(), 0u);
}

// UnmapEach is Unmap(frame, 1) per listed frame with batched
// accounting: over 2 MiB entries (demoted by their first 4 KiB unmap),
// absent and repeated frames, and an armed injector, both sides end with
// the same bitmap, counters, host usage and injected-fault positions, and
// the per-frame hook sees every listed frame once, in order.
TEST(Ept, UnmapEachMatchesSingleUnmaps) {
  constexpr uint64_t kFrames = 8 * kFramesPerHuge;
  for (const fault::Kind kind :
       {fault::Kind::kTransient, fault::Kind::kPermanent}) {
    SCOPED_TRACE(fault::Name(kind));
    fault::Plan plan;
    plan.seed = 11;
    plan.spec(fault::Site::kEptUnmap).kind = kind;
    plan.spec(fault::Site::kEptUnmap).probability = 0.02;
    plan.spec(fault::Site::kEptUnmap).steps = {0, 1, 50};
    struct Side {
      explicit Side(const fault::Plan& plan) : injector(plan) {}
      hv::HostMemory host{kFrames};
      hv::Ept ept{kFrames, &host};
      fault::Injector injector;
      std::vector<uint64_t> fault_at;  // list positions that faulted
    };
    Side single(plan);
    Side each(plan);
    for (Side* side : {&single, &each}) {
      // Huge frames 0-2 get 2 MiB entries, 3-4 are filled piecewise,
      // 5 is half mapped and 6-7 stay empty.
      side->ept.Map(0, 3 * kFramesPerHuge);
      for (FrameId f = 3 * kFramesPerHuge; f < 5 * kFramesPerHuge;
           f += 64) {
        side->ept.Map(f, 64);
      }
      side->ept.Map(5 * kFramesPerHuge, kFramesPerHuge / 2);
      side->ept.SetFaultInjector(&side->injector);
    }
    ASSERT_EQ(single.ept.mapped_2m(), 3u);

    Rng rng(3);
    std::vector<FrameId> frames;
    for (int i = 0; i < 3000; ++i) {
      frames.push_back(rng.Below(kFrames));
    }
    for (uint64_t i = 0; i < frames.size(); ++i) {
      if (single.ept.Unmap(frames[i], 1) == hv::Ept::kFaultInjected) {
        single.fault_at.push_back(i);
      }
    }
    uint64_t unmapped = 0;
    std::vector<uint64_t> visited;  // list positions seen by before_each
    for (uint64_t pos = 0; pos < frames.size();) {
      uint64_t present = 0;
      const uint64_t base = pos;
      pos += each.ept.UnmapEach(
          frames.data() + pos, frames.size() - pos, &present,
          [&](uint64_t k) { visited.push_back(base + k); });
      unmapped += present;
      if (pos < frames.size()) {
        each.fault_at.push_back(pos++);
      }
    }

    // Every listed frame, the faulted ones included, once and in order.
    ASSERT_EQ(visited.size(), frames.size());
    for (uint64_t i = 0; i < visited.size(); ++i) {
      ASSERT_EQ(visited[i], i);
    }
    EXPECT_FALSE(single.fault_at.empty());
    EXPECT_EQ(each.fault_at, single.fault_at);
    EXPECT_GT(single.ept.demotions_2m(), 0u);
    EXPECT_EQ(unmapped, single.ept.total_unmapped_ops());
    for (FrameId f = 0; f < kFrames; ++f) {
      ASSERT_EQ(each.ept.IsMapped(f), single.ept.IsMapped(f)) << f;
    }
    for (HugeId h = 0; h < kFrames / kFramesPerHuge; ++h) {
      EXPECT_EQ(each.ept.HasHugeEntry(h), single.ept.HasHugeEntry(h)) << h;
    }
    EXPECT_EQ(each.ept.mapped_frames(), single.ept.mapped_frames());
    EXPECT_EQ(each.ept.total_unmapped_ops(), single.ept.total_unmapped_ops());
    EXPECT_EQ(each.ept.tlb_range_flushes(), single.ept.tlb_range_flushes());
    EXPECT_EQ(each.ept.tlb_flushed_frames(), single.ept.tlb_flushed_frames());
    EXPECT_EQ(each.ept.demotions_2m(), single.ept.demotions_2m());
    EXPECT_EQ(each.ept.mapped_2m(), single.ept.mapped_2m());
    EXPECT_EQ(each.ept.unmaps_2m(), single.ept.unmaps_2m());
    EXPECT_EQ(each.ept.entries_invalidated_2m(),
              single.ept.entries_invalidated_2m());
    EXPECT_EQ(each.ept.entries_invalidated_4k(),
              single.ept.entries_invalidated_4k());
    EXPECT_EQ(each.ept.huge_unmaps_total(), single.ept.huge_unmaps_total());
    EXPECT_EQ(each.ept.huge_unmaps_2m(), single.ept.huge_unmaps_2m());
    EXPECT_EQ(each.ept.injected_faults(), single.ept.injected_faults());
    EXPECT_EQ(each.ept.last_injected_kind(), single.ept.last_injected_kind());
    EXPECT_EQ(each.injector.ops(fault::Site::kEptUnmap),
              single.injector.ops(fault::Site::kEptUnmap));
    EXPECT_EQ(each.host.used_frames(), single.host.used_frames());
  }
}

TEST(Iommu, PinUnpinAndDma) {
  hv::Iommu iommu(4096);  // 8 huge frames
  EXPECT_EQ(iommu.num_huge(), 8u);
  EXPECT_FALSE(iommu.DmaAccessOk(0));
  EXPECT_TRUE(iommu.Pin(0));
  EXPECT_FALSE(iommu.Pin(0)) << "double pin is a no-op";
  EXPECT_TRUE(iommu.DmaAccessOk(511));
  EXPECT_FALSE(iommu.DmaAccessOk(512));
  EXPECT_TRUE(iommu.Unpin(0));
  EXPECT_FALSE(iommu.Unpin(0));
  EXPECT_EQ(iommu.iotlb_flushes(), 1u);
  EXPECT_EQ(iommu.pinned_huge(), 0u);
}

TEST(Iommu, RangeUnpinCoalescesFlushes) {
  hv::Iommu iommu(8 * 512);  // 8 huge frames
  EXPECT_EQ(iommu.PinRange(0, 8), 8u);
  // A contiguous 8-huge unpin costs one IOTLB invalidation, not eight.
  EXPECT_EQ(iommu.UnpinRange(0, 8), 8u);
  EXPECT_EQ(iommu.iotlb_flushes(), 1u);
  EXPECT_EQ(iommu.iotlb_flushed_huge(), 8u);
  EXPECT_EQ(iommu.pinned_huge(), 0u);
  // Unpinning an already-unpinned range changes nothing and flushes
  // nothing.
  EXPECT_EQ(iommu.UnpinRange(0, 8), 0u);
  EXPECT_EQ(iommu.iotlb_flushes(), 1u);
}

TEST(Ept, RangeUnmapCoalescesTlbFlushes) {
  hv::HostMemory host(10000);
  hv::Ept ept(8192, &host);
  ept.Map(0, 512);
  EXPECT_EQ(ept.Unmap(0, 512), 512u);
  EXPECT_EQ(ept.tlb_range_flushes(), 1u);
  EXPECT_EQ(ept.tlb_flushed_frames(), 512u);
  // Unmapping absent ranges does not flush.
  EXPECT_EQ(ept.Unmap(0, 512), 0u);
  EXPECT_EQ(ept.tlb_range_flushes(), 1u);
}

TEST(ReclaimStates, PackedTwoBitStorage) {
  core::ReclaimStateArray states(100);
  EXPECT_EQ(states.Get(0), core::ReclaimState::kInstalled);
  states.Set(0, core::ReclaimState::kHard);
  states.Set(1, core::ReclaimState::kSoft);
  states.Set(99, core::ReclaimState::kHard);
  EXPECT_EQ(states.Get(0), core::ReclaimState::kHard);
  EXPECT_EQ(states.Get(1), core::ReclaimState::kSoft);
  EXPECT_EQ(states.Get(2), core::ReclaimState::kInstalled);
  EXPECT_EQ(states.Get(99), core::ReclaimState::kHard);
  EXPECT_EQ(states.CountState(core::ReclaimState::kHard), 2u);
  EXPECT_EQ(states.CountState(core::ReclaimState::kSoft), 1u);
}

TEST(ReclaimStates, OverwriteClearsOldBits) {
  core::ReclaimStateArray states(32);
  states.Set(5, core::ReclaimState::kHard);  // 0b10
  states.Set(5, core::ReclaimState::kSoft);  // 0b01: both bits change
  EXPECT_EQ(states.Get(5), core::ReclaimState::kSoft);
  states.Set(5, core::ReclaimState::kInstalled);
  EXPECT_EQ(states.Get(5), core::ReclaimState::kInstalled);
}

TEST(ReclaimStates, ScanFootprintMatchesPaperFormula) {
  // §3.3: 2 bits of R per huge frame; 1 GiB = 512 huge frames = 128 B of
  // R state = 2 cache lines, plus 16 cache lines for the area index.
  core::ReclaimStateArray states(512);
  EXPECT_EQ(states.ByteSize(), 128u);
  const uint64_t r_lines = (states.ByteSize() + 63) / 64;
  const uint64_t area_lines = (512 * 2 + 63) / 64;
  EXPECT_EQ(r_lines + area_lines, 18u) << "18 cache lines per GiB (§3.3)";
}

TEST(CostModel, PaperCalibrationPoints) {
  const hv::CostModel costs;
  // §5.3 measured rates (these anchor the virtual-time calibration).
  EXPECT_EQ(costs.ha_reclaim_state_2m_ns, 388u);
  EXPECT_EQ(costs.ha_return_state_2m_ns, 229u);
  // Install hypercall ~6 % more expensive than an EPT fault.
  EXPECT_NEAR(static_cast<double>(costs.install_hypercall_2m_ns),
              1.06 * static_cast<double>(costs.ept_fault_2m_ns), 100.0);
  // Mapped-page writes at 17 GiB/s => 229 ns per 4 KiB.
  EXPECT_EQ(costs.touch_4k_ns, 229u);
}

}  // namespace
}  // namespace hyperalloc
