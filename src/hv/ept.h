// Extended page table (second-stage translation) model.
//
// Tracks, per 4 KiB guest-physical frame, whether it is backed by
// host-physical memory. Mapping reserves host frames; unmapping (the
// madvise(DONTNEED) path in the paper's QEMU prototype) releases them.
// The VM's resident-set size — the metric all footprint experiments
// sample — is exactly the number of mapped frames.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/types.h"
#include "src/fault/fault.h"
#include "src/hv/host_memory.h"

namespace hyperalloc::hv {

class Ept {
 public:
  // `host` may be null for standalone tests (no capacity accounting).
  Ept(uint64_t frames, HostMemory* host);

  // Arms deterministic fault injection (fault::Site::kEptMap /
  // kEptUnmap). Null disarms; the injector is not owned.
  void SetFaultInjector(fault::Injector* injector) { fault_ = injector; }
  // The Kind of the most recent injected fault (meaningful right after a
  // kFaultInjected return; recovery layers branch on it).
  fault::Kind last_injected_kind() const { return last_injected_kind_; }
  uint64_t injected_faults() const { return injected_faults_; }

  uint64_t frames() const { return frames_; }
  uint64_t mapped_frames() const { return mapped_; }
  uint64_t rss_bytes() const { return mapped_ * kFrameSize; }

  bool IsMapped(FrameId frame) const;

  // Maps [first, first+count). Returns the number of frames that were
  // not already mapped (those reserve host memory). Returns kNoHostMemory
  // if the host pool is exhausted, or kFaultInjected when an injected
  // kEptMap fault fails the operation — nothing is changed in either
  // case.
  uint64_t Map(FrameId first, uint64_t count);

  // Unmaps [first, first+count). Returns the number of frames that were
  // mapped (those are released back to the host pool), or kFaultInjected
  // when an injected kEptUnmap fault fails the operation (nothing is
  // changed: the range stays mapped).
  uint64_t Unmap(FrameId first, uint64_t count);

  // Unmaps each listed 4 KiB frame as its own operation — the outcome,
  // counters and fault schedule of one Unmap(frame, 1) per listed frame,
  // in order — but with one host-pool Release and one add per counter for
  // the whole call. Frames not mapped are skipped without an operation or
  // a fault poll. `before_each(i)`, if given, runs just before listed
  // frame i is handled, so a caller's per-frame work (and its trace
  // events) stays in step with the unmaps. Stops at the first injected
  // kEptUnmap fault, leaving that frame mapped; returns the number of
  // listed frames handled before it (n when none faulted) and sets
  // *present to how many of those were mapped (now unmapped).
  uint64_t UnmapEach(
      const FrameId* frames, uint64_t n, uint64_t* present,
      const std::function<void(uint64_t)>& before_each = nullptr);

  // Number of mapped frames in [first, first+count) without changing
  // anything (used to price unmap operations that skip absent pages).
  uint64_t CountMapped(FrameId first, uint64_t count) const;

  // Lifetime fault/operation statistics.
  uint64_t total_mapped_ops() const { return total_map_ops_; }
  uint64_t total_unmapped_ops() const { return total_unmap_ops_; }

  // TLB shootdown accounting, coalesced: each Unmap call that removes at
  // least one present frame issues exactly ONE ranged flush for the whole
  // [first, first+count) batch — mirroring the batched-madvise design —
  // instead of one single-page flush per frame. `tlb_flushed_frames()`
  // counts what per-page flushing would have cost for comparison.
  uint64_t tlb_range_flushes() const { return tlb_range_flushes_; }
  uint64_t tlb_flushed_frames() const { return tlb_flushed_frames_; }

  // 2 MiB (order-9) entry accounting — DESIGN.md §4.14. The model layers
  // huge-entry bookkeeping over the 4 KiB bitmap without changing the
  // host-backing semantics (reserve/release stay base-frame-granular, so
  // every RSS/footprint metric is byte-identical with the layer off):
  //
  //  * A huge frame gets a 2 MiB entry exactly when ONE Map call takes it
  //    from 0 to 512 mapped frames (the THP-style 2M fault and the
  //    huge-PFN deflate path). Piecewise 4 KiB fills never promote —
  //    matching hardware, where the page tables already hold 4K entries.
  //  * An Unmap whose range wholly covers a 2 M-entry frame invalidates
  //    that single entry (`unmaps_2m`); partial coverage first demotes
  //    the entry to 512 separate 4K entries (`demotions_2m`) and then
  //    invalidates only the unmapped part.
  //
  // entries_invalidated_2m/4k count what the coalesced flushes actually
  // invalidate at each granularity; comparing their sum against
  // tlb_flushed_frames() (the all-4K cost) is the flush-savings metric.
  uint64_t maps_2m() const { return maps_2m_; }
  uint64_t unmaps_2m() const { return unmaps_2m_; }
  uint64_t demotions_2m() const { return demotions_2m_; }
  // Live 2 MiB entries right now.
  uint64_t mapped_2m() const { return mapped_2m_; }
  uint64_t entries_invalidated_2m() const { return entries_invalidated_2m_; }
  uint64_t entries_invalidated_4k() const { return entries_invalidated_4k_; }
  // Huge-frame reclaim share: of the fully-backed huge frames handed back
  // wholesale (an Unmap covering all of a huge frame with every subframe
  // present), how many went through a single 2 MiB entry rather than 512
  // 4 KiB ones. share = huge_unmaps_2m / huge_unmaps_total.
  uint64_t huge_unmaps_total() const { return huge_unmaps_total_; }
  uint64_t huge_unmaps_2m() const { return huge_unmaps_2m_; }
  bool HasHugeEntry(HugeId huge) const;

  static constexpr uint64_t kNoHostMemory = ~0ull;
  static constexpr uint64_t kFaultInjected = ~0ull - 1;

 private:
  // 2M-entry transitions for one Unmap call, tallied before the bitmap
  // is touched (the bits encode the pre-call state).
  struct HugeUnmapAccounting {
    uint64_t whole_2m = 0;    // intact 2M entries the range wholly covers
    uint64_t demoted = 0;     // 2M entries the range only partly covers
    uint64_t whole_full = 0;  // fully-present huge frames wholly covered
  };
  HugeUnmapAccounting TallyHugeUnmap(FrameId first, uint64_t count);
  // Polls kEptUnmap for the unmap of [first, first+count); on an injected
  // fault records its kind and count and returns true.
  bool UnmapFaultInjected(FrameId first, uint64_t count);

  uint64_t frames_;
  HostMemory* host_;
  std::vector<uint64_t> bitmap_;  // bit set = mapped
  std::vector<uint64_t> huge_entry_;  // bit set = live 2 MiB entry
  uint64_t mapped_ = 0;
  uint64_t total_map_ops_ = 0;
  uint64_t total_unmap_ops_ = 0;
  uint64_t tlb_range_flushes_ = 0;
  uint64_t tlb_flushed_frames_ = 0;
  uint64_t maps_2m_ = 0;
  uint64_t unmaps_2m_ = 0;
  uint64_t demotions_2m_ = 0;
  uint64_t mapped_2m_ = 0;
  uint64_t entries_invalidated_2m_ = 0;
  uint64_t entries_invalidated_4k_ = 0;
  uint64_t huge_unmaps_total_ = 0;
  uint64_t huge_unmaps_2m_ = 0;
  fault::Injector* fault_ = nullptr;
  fault::Kind last_injected_kind_ = fault::Kind::kTransient;
  uint64_t injected_faults_ = 0;
};

}  // namespace hyperalloc::hv
