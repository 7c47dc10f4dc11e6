// Region-based memory management for workloads.
//
// Workload phases allocate "regions" (an application's working set) from
// the guest allocator, touch them, and free them later. So that
// virtio-mem's page migration can relocate frames without the workload
// losing track of them, the pool keeps a frame index. It is built from
// the regions on the first migration and maintained from then on: a
// guest that never migrates a frame never pays a hash-map entry per
// allocation.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/guest/guest_vm.h"

namespace hyperalloc::workloads {

class MemoryPool : public guest::MigrationListener {
 public:
  explicit MemoryPool(guest::GuestVm* vm);
  ~MemoryPool() override = default;

  // Declares that the guest cannot migrate frames (i.e. no virtio-mem):
  // a migration reported afterwards fails a check instead of building
  // the frame index.
  void DisableMigrationTracking() { track_index_ = false; }

  // Allocates roughly `bytes` (rounded up to whole allocations), touching
  // everything. `thp_fraction` of the bytes use huge (order-9)
  // allocations — transparent huge pages; the rest are 4 KiB pages.
  // Returns a region id, or 0 if the guest ran out of memory (partial
  // allocations are rolled back... kept, region still created).
  uint64_t AllocRegion(uint64_t bytes, double thp_fraction, unsigned core,
                       AllocType type = AllocType::kMovable);

  // Extends an existing region by ~`bytes` (same allocation policy).
  void GrowRegion(uint64_t region, uint64_t bytes, double thp_fraction,
                  unsigned core);

  void FreeRegion(uint64_t region, unsigned core);
  void FreeAll(unsigned core);

  uint64_t RegionBytes(uint64_t region) const;
  uint64_t TotalBytes() const { return total_frames_ * kFrameSize; }
  size_t NumRegions() const { return regions_.size(); }

  void OnFrameMigrated(FrameId old_head, FrameId new_head,
                       unsigned order) override;

 private:
  // A region's allocations in allocation order: head frames (runs of
  // equal order free straight from `frames`) and their orders.
  struct Region {
    std::vector<FrameId> frames;
    std::vector<uint8_t> orders;
  };

  void GrowRegionTyped(uint64_t region, uint64_t bytes, double thp_fraction,
                       unsigned core, AllocType type);
  // Builds `index_` from the regions (first migration only).
  void BuildIndex();

  guest::GuestVm* vm_;
  bool track_index_ = true;
  uint64_t next_region_ = 1;
  uint64_t total_frames_ = 0;
  std::unordered_map<uint64_t, Region> regions_;
  // frame -> (region id, index into its allocation vectors); empty and
  // unmaintained until `index_built_`.
  bool index_built_ = false;
  std::unordered_map<FrameId, std::pair<uint64_t, size_t>> index_;
};

}  // namespace hyperalloc::workloads
