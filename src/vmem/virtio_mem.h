// virtio-mem: paravirtualized memory hot(un)plug (Hildenbrand & Schulz
// [23]).
//
// The hotpluggable memory lives in the guest's Movable zone, managed as
// 2 MiB blocks. Plugging onlines a block (hypercall per block — "virtio-
// mem makes hypercalls for every plugged 2 MiB block", §5.3); unplugging
// offlines blocks in decreasing address order, migrating any used
// subblocks first ("requiring the guest OS to migrate used subblocks to
// other memory locations", §5.4).
//
// DMA safety comes from pre-population: with a VFIO device attached,
// every plugged block is fully populated and pinned up front, and every
// unplug must also unmap the IOMMU and flush the IOTLB — even for memory
// that was never touched (§5.3).
//
// virtio-mem itself has no automatic reclamation; the paper *simulates*
// one by tracking the guest's free huge pages and (un)plugging at 1 GiB
// granularity every second (§5.5) — implemented here the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/fault/fault.h"
#include "src/guest/guest_vm.h"
#include "src/hv/deflator.h"
#include "src/sim/simulation.h"
#include "src/trace/span.h"

namespace hyperalloc::vmem {

struct VmemConfig {
  unsigned driver_cpu = 0;
  // Blocks processed per event-loop slice.
  unsigned blocks_per_slice = 16;
  // Simulated auto mode (hand-tuned like the paper's, §5.5).
  sim::Time auto_period = 1 * sim::kSec;
  uint64_t auto_granularity = 1 * kGiB;
  // Plug when total free memory falls below this ...
  uint64_t auto_low_bytes = 768 * kMiB;
  // ... unplug (1 GiB) when huge-page-backed free memory exceeds this.
  uint64_t auto_high_bytes = 1792 * kMiB;
  // Fault recovery (DESIGN.md §4.9): bounded retry with virtual-time
  // exponential backoff for the per-block hypercalls, IOMMU ops and
  // unmaps, plus the optional per-request deadline.
  fault::RetryPolicy retry;
};

class VirtioMem : public hv::Deflator {
 public:
  // The guest must have a Movable zone (config().movable_bytes > 0) using
  // the buddy allocator. All hotpluggable memory starts plugged.
  VirtioMem(guest::GuestVm* vm, const VmemConfig& config);

  hv::DeflatorCaps caps() const override {
    return {.name = "virtio-mem",
            .dma_safe = true,
            .supports_auto = false,  // simulated only
            .granularity_bytes = kHugeSize};
  }

  void Request(const hv::ResizeRequest& request) override;
  uint64_t limit_bytes() const override;
  bool busy() const override { return busy_; }

  // The paper's simulated auto-resizer (not part of upstream virtio-mem).
  void StartAuto() override;
  void StopAuto() override;

  const hv::CpuAccounting& cpu() const override { return cpu_; }

  uint64_t plugged_blocks() const { return plugged_blocks_; }
  uint64_t unpluggable_failures() const { return unpluggable_failures_; }

  // Fault-recovery statistics (DESIGN.md §4.9).
  uint64_t faults_seen() const { return faults_; }
  uint64_t fault_retries() const { return fault_retries_; }
  // Blocks unplugged whose EPT unmap never succeeded: the guest gave the
  // block up, but its host backing stays allocated until it is replugged.
  uint64_t leaked_backing_blocks() const { return leaked_backing_blocks_; }

 private:
  guest::Zone& movable_zone();

  void PlugSlice(uint64_t target_blocks, std::function<void()> done);
  void UnplugSlice(uint64_t target_blocks, std::function<void()> done);
  bool UnplugOneBlock();
  // Returns false when the plug aborted on an unrecoverable fault — the
  // block stays unplugged and the slice finishes partial.
  bool PlugOneBlock(uint64_t block);
  void AutoTick();

  // Polls a hypercall fault site with bounded retries; returns false on
  // retry exhaustion or a permanent fault.
  bool PollSite(fault::Site site, uint64_t arg);
  void ChargeBackoff(unsigned retry);
  void NoteFault();
  bool RequestTimedOut() const;

  FrameId BlockFirstFrame(uint64_t block) const;

  guest::GuestVm* vm_;
  VmemConfig config_;
  sim::Simulation* sim_;
  uint64_t num_blocks_;
  std::vector<bool> plugged_;
  uint64_t plugged_blocks_ = 0;
  // One past the highest plugged block: every block at or above it is
  // unplugged. Unplug lowers it, plug raises it.
  uint64_t plugged_end_ = 0;
  bool busy_ = false;
  bool auto_running_ = false;

  hv::CpuAccounting cpu_;
  trace::RequestSpan request_span_;
  uint64_t unpluggable_failures_ = 0;
  sim::Time request_deadline_ = 0;  // 0 = no deadline
  uint64_t faults_ = 0;
  uint64_t fault_retries_ = 0;
  uint64_t leaked_backing_blocks_ = 0;
};

}  // namespace hyperalloc::vmem
