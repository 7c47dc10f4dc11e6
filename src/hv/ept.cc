#include "src/hv/ept.h"

#include <bit>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace hyperalloc::hv {

Ept::Ept(uint64_t frames, HostMemory* host)
    : frames_(frames),
      host_(host),
      bitmap_((frames + 63) / 64, 0),
      huge_entry_((HugesForFrames(frames) + 63) / 64, 0) {}

bool Ept::HasHugeEntry(HugeId huge) const {
  HA_CHECK(huge < HugesForFrames(frames_));
  return (huge_entry_[huge / 64] >> (huge % 64)) & 1;
}

bool Ept::IsMapped(FrameId frame) const {
  HA_CHECK(frame < frames_);
  return (bitmap_[frame / 64] >> (frame % 64)) & 1;
}

uint64_t Ept::CountMapped(FrameId first, uint64_t count) const {
  HA_CHECK(first + count <= frames_);
  uint64_t mapped = 0;
  // Word-wise popcount over the aligned middle; bit loop at the edges.
  FrameId frame = first;
  const FrameId end = first + count;
  while (frame < end && frame % 64 != 0) {
    mapped += (bitmap_[frame / 64] >> (frame % 64)) & 1;
    ++frame;
  }
  while (frame + 64 <= end) {
    mapped += static_cast<uint64_t>(std::popcount(bitmap_[frame / 64]));
    frame += 64;
  }
  while (frame < end) {
    mapped += (bitmap_[frame / 64] >> (frame % 64)) & 1;
    ++frame;
  }
  return mapped;
}

uint64_t Ept::Map(FrameId first, uint64_t count) {
  HA_CHECK(first + count <= frames_);
  const uint64_t missing = count - CountMapped(first, count);
  if (missing == 0) {
    return 0;
  }
  if (const auto kind = fault::Poll(fault_, fault::Site::kEptMap)) {
    last_injected_kind_ = *kind;
    ++injected_faults_;
    HA_COUNT("fault.ept_map");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kInject, first,
                   count);
    return kFaultInjected;
  }
  if (host_ != nullptr && !host_->TryReserve(missing)) {
    return kNoHostMemory;
  }
  // 2M-entry promotion: a huge frame the range wholly covers and that had
  // nothing mapped before this call is installed as one 2 MiB entry
  // (pre-call state, so the tally runs before the bitmap is touched).
  for (HugeId huge = FrameToHuge(first);
       huge <= FrameToHuge(first + count - 1); ++huge) {
    const FrameId hf = HugeToFrame(huge);
    if (hf < first || hf + kFramesPerHuge > first + count) {
      continue;  // partial coverage: stays (or fills in as) 4K entries
    }
    if (CountMapped(hf, kFramesPerHuge) == 0) {
      huge_entry_[huge / 64] |= 1ull << (huge % 64);
      ++maps_2m_;
      ++mapped_2m_;
      HA_COUNT("ept.map_2m");
    }
  }
  for (FrameId frame = first; frame < first + count; ++frame) {
    bitmap_[frame / 64] |= 1ull << (frame % 64);
  }
  mapped_ += missing;
  ++total_map_ops_;
  HA_COUNT("ept.map_ops");
  HA_COUNT_N("ept.map_frames", missing);
  HA_TRACE_EVENT(trace::Category::kEpt, trace::Op::kMap, first, count);
  return missing;
}

uint64_t Ept::Unmap(FrameId first, uint64_t count) {
  HA_CHECK(first + count <= frames_);
  const uint64_t present = CountMapped(first, count);
  if (present == 0) {
    return 0;
  }
  if (UnmapFaultInjected(first, count)) {
    return kFaultInjected;
  }
  const HugeUnmapAccounting huge = TallyHugeUnmap(first, count);
  for (FrameId frame = first; frame < first + count; ++frame) {
    bitmap_[frame / 64] &= ~(1ull << (frame % 64));
  }
  HA_DCHECK(mapped_ >= present);  // underflow = bitmap/counter divergence
  mapped_ -= present;
  if (host_ != nullptr) {
    host_->Release(present);
  }
  ++total_unmap_ops_;
  // One ranged TLB flush covers the whole batch (vs `present` single-page
  // flushes under per-page unmapping).
  ++tlb_range_flushes_;
  tlb_flushed_frames_ += present;
  // What the flush actually invalidated: one 2M entry per wholly-covered
  // huge mapping, 4K entries for everything else that was present
  // (including the demoted remainder of partially-covered 2M entries).
  unmaps_2m_ += huge.whole_2m;
  demotions_2m_ += huge.demoted;
  entries_invalidated_2m_ += huge.whole_2m;
  HA_DCHECK(present >= huge.whole_2m * kFramesPerHuge);
  entries_invalidated_4k_ += present - huge.whole_2m * kFramesPerHuge;
  huge_unmaps_total_ += huge.whole_full;
  huge_unmaps_2m_ += huge.whole_2m;
  HA_COUNT("ept.unmap_ops");
  HA_COUNT_N("ept.unmap_frames", present);
  HA_COUNT("ept.tlb_range_flush");
  HA_TRACE_EVENT(trace::Category::kEpt, trace::Op::kUnmap, first, count);
  return present;
}

bool Ept::UnmapFaultInjected(FrameId first, uint64_t count) {
  const auto kind = fault::Poll(fault_, fault::Site::kEptUnmap);
  if (!kind.has_value()) {
    return false;
  }
  last_injected_kind_ = *kind;
  ++injected_faults_;
  HA_COUNT("fault.ept_unmap");
  HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kInject, first, count);
  return true;
}

uint64_t Ept::UnmapEach(const FrameId* frames, uint64_t n, uint64_t* present,
                        const std::function<void(uint64_t)>& before_each) {
  uint64_t unmapped = 0;
  uint64_t demoted = 0;
  uint64_t i = 0;
  for (; i < n; ++i) {
    if (before_each) {
      before_each(i);
    }
    const FrameId frame = frames[i];
    HA_CHECK(frame < frames_);
    uint64_t& word = bitmap_[frame / 64];
    const uint64_t bit = 1ull << (frame % 64);
    if ((word & bit) == 0) {
      continue;
    }
    if (UnmapFaultInjected(frame, 1)) {
      break;
    }
    // A single frame never wholly covers a huge frame: a live 2M entry
    // over it is demoted first.
    const HugeId huge = FrameToHuge(frame);
    uint64_t& entry_word = huge_entry_[huge / 64];
    const uint64_t entry_bit = 1ull << (huge % 64);
    if ((entry_word & entry_bit) != 0) {
      entry_word &= ~entry_bit;
      HA_DCHECK(mapped_2m_ > 0);
      --mapped_2m_;
      ++demoted;
    }
    word &= ~bit;
    ++unmapped;
    HA_TRACE_EVENT(trace::Category::kEpt, trace::Op::kUnmap, frame, 1);
  }
  *present = unmapped;
  if (unmapped == 0) {
    return i;
  }
  HA_DCHECK(mapped_ >= unmapped);
  mapped_ -= unmapped;
  if (host_ != nullptr) {
    host_->Release(unmapped);
  }
  // Per frame: one operation, one ranged flush and one 4K entry. Counters
  // are only touched when the path ran, as Unmap does, so a trace lists
  // the same counters.
  total_unmap_ops_ += unmapped;
  tlb_range_flushes_ += unmapped;
  tlb_flushed_frames_ += unmapped;
  entries_invalidated_4k_ += unmapped;
  demotions_2m_ += demoted;
  if (demoted > 0) {
    HA_COUNT_N("ept.demote_2m", demoted);
  }
  HA_COUNT_N("ept.unmap_ops", unmapped);
  HA_COUNT_N("ept.unmap_frames", unmapped);
  HA_COUNT_N("ept.tlb_range_flush", unmapped);
  return i;
}

Ept::HugeUnmapAccounting Ept::TallyHugeUnmap(FrameId first, uint64_t count) {
  HugeUnmapAccounting out;
  for (HugeId huge = FrameToHuge(first);
       huge <= FrameToHuge(first + count - 1); ++huge) {
    const FrameId hf = HugeToFrame(huge);
    const bool whole = hf >= first && hf + kFramesPerHuge <= first + count;
    const bool entry = (huge_entry_[huge / 64] >> (huge % 64)) & 1;
    if (whole) {
      // Invariant: a live 2M entry implies all 512 subframes mapped (any
      // partial unmap demotes it first), so `entry` ⟹ fully present.
      if (entry || CountMapped(hf, kFramesPerHuge) == kFramesPerHuge) {
        ++out.whole_full;
      }
      if (entry) {
        ++out.whole_2m;
        HA_COUNT("ept.unmap_2m");
      }
    } else if (entry) {
      // Partial coverage splits the 2M entry into 4K entries before the
      // covered part is invalidated (huge→base demotion, §4.14).
      ++out.demoted;
      HA_COUNT("ept.demote_2m");
    }
    if (entry) {
      huge_entry_[huge / 64] &= ~(1ull << (huge % 64));
      HA_DCHECK(mapped_2m_ > 0);
      --mapped_2m_;
    }
  }
  return out;
}

}  // namespace hyperalloc::hv
