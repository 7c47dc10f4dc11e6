#include "src/workloads/memory_pool.h"

#include <span>

#include "src/base/check.h"
#include "src/trace/span.h"

namespace hyperalloc::workloads {

MemoryPool::MemoryPool(guest::GuestVm* vm) : vm_(vm) {
  HA_CHECK(vm != nullptr);
  vm->AddMigrationListener(this);
}

uint64_t MemoryPool::AllocRegion(uint64_t bytes, double thp_fraction,
                                 unsigned core, AllocType type) {
  const uint64_t region = next_region_++;
  regions_[region];
  GrowRegionTyped(region, bytes, thp_fraction, core, type);
  return region;
}

void MemoryPool::GrowRegion(uint64_t region, uint64_t bytes,
                            double thp_fraction, unsigned core) {
  GrowRegionTyped(region, bytes, thp_fraction, core, AllocType::kMovable);
}

void MemoryPool::GrowRegionTyped(uint64_t region, uint64_t bytes,
                                 double thp_fraction, unsigned core,
                                 AllocType type) {
  trace::ScopedTrace scope;
  trace::Span span(trace::Layer::kGuest, "pool.grow_region");
  Region& allocs = regions_.at(region);

  const uint64_t huge_frames =
      HugesForFrames(static_cast<uint64_t>(
          static_cast<double>(FramesForBytes(bytes)) * thp_fraction)) *
      kFramesPerHuge;
  uint64_t base_frames = FramesForBytes(bytes) > huge_frames
                             ? FramesForBytes(bytes) - huge_frames
                             : 0;

  // Allocates and touches up to `count` runs of 2^order frames, stopping
  // at the first failure; returns the runs claimed.
  auto grab = [&](unsigned order, uint64_t count) {
    const size_t first = allocs.frames.size();
    const unsigned got = vm_->AllocTouch(
        order, static_cast<unsigned>(count),
        order == kHugeOrder ? AllocType::kHuge : type, core, &allocs.frames);
    allocs.orders.resize(allocs.frames.size(), static_cast<uint8_t>(order));
    if (index_built_) {
      for (size_t i = first; i < allocs.frames.size(); ++i) {
        index_[allocs.frames[i]] = {region, i};
      }
    }
    total_frames_ += static_cast<uint64_t>(got) << order;
    span.AddFrames(static_cast<uint64_t>(got) << order);
    return got;
  };

  const uint64_t huge_count = huge_frames / kFramesPerHuge;
  const unsigned huge_got = grab(kHugeOrder, huge_count);
  span.AddHugeFrames(static_cast<uint64_t>(huge_got) << kHugeOrder);
  // THP fallback: the kernel uses base pages when no huge frame is
  // available.
  base_frames += (huge_count - huge_got) * kFramesPerHuge;
  grab(0, base_frames);  // an OOM keeps what was claimed
}

void MemoryPool::FreeRegion(uint64_t region, unsigned core) {
  auto it = regions_.find(region);
  if (it == regions_.end()) {
    return;
  }
  trace::ScopedTrace scope;
  trace::Span span(trace::Layer::kGuest, "pool.free_region");
  // Runs of equal order, in region order.
  const Region& allocs = it->second;
  size_t end = 0;
  for (size_t i = 0; i < allocs.frames.size(); i = end) {
    const unsigned order = allocs.orders[i];
    end = i;
    while (end < allocs.frames.size() && allocs.orders[end] == order) {
      ++end;
    }
    const std::span<const FrameId> run(allocs.frames.data() + i, end - i);
    vm_->FreeEach(run, order, core);
    if (index_built_) {
      for (const FrameId frame : run) {
        index_.erase(frame);
      }
    }
    total_frames_ -= run.size() << order;
    span.AddFrames(run.size() << order);
  }
  regions_.erase(it);
}

void MemoryPool::FreeAll(unsigned core) {
  std::vector<uint64_t> ids;
  ids.reserve(regions_.size());
  for (const auto& [id, allocs] : regions_) {
    ids.push_back(id);
  }
  for (const uint64_t id : ids) {
    FreeRegion(id, core);
  }
}

uint64_t MemoryPool::RegionBytes(uint64_t region) const {
  const auto it = regions_.find(region);
  if (it == regions_.end()) {
    return 0;
  }
  uint64_t frames = 0;
  for (const uint8_t order : it->second.orders) {
    frames += 1ull << order;
  }
  return frames * kFrameSize;
}

void MemoryPool::OnFrameMigrated(FrameId old_head, FrameId new_head,
                                 unsigned order) {
  HA_CHECK(track_index_);  // migration requires the frame index
  if (!index_built_) {
    BuildIndex();
  }
  const auto it = index_.find(old_head);
  if (it == index_.end()) {
    return;  // not ours (page cache or another owner)
  }
  const auto [region, idx] = it->second;
  Region& allocs = regions_.at(region);
  HA_CHECK(allocs.frames[idx] == old_head);
  HA_CHECK(allocs.orders[idx] == order);
  allocs.frames[idx] = new_head;
  index_.erase(it);
  index_[new_head] = {region, idx};
}

void MemoryPool::BuildIndex() {
  index_built_ = true;
  for (const auto& [region, allocs] : regions_) {
    // `orders` is sized after each grow's allocations: a migration inside
    // a grow indexes only the entries that grow had before it began, as
    // an index maintained from the start would.
    for (size_t i = 0; i < allocs.orders.size(); ++i) {
      index_[allocs.frames[i]] = {region, i};
    }
  }
}

}  // namespace hyperalloc::workloads
