#include "src/vmem/virtio_mem.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/hv/cost_model.h"
#include "src/trace/span.h"

namespace hyperalloc::vmem {

VirtioMem::VirtioMem(guest::GuestVm* vm, const VmemConfig& config)
    : vm_(vm), config_(config), sim_(vm->simulation()) {
  HA_CHECK(vm != nullptr);
  guest::Zone& zone = movable_zone();
  HA_CHECK(zone.buddy != nullptr);
  num_blocks_ = zone.frames / kFramesPerHuge;
  plugged_.assign(num_blocks_, true);  // boot with everything plugged
  plugged_blocks_ = num_blocks_;
  plugged_end_ = num_blocks_;

  if (vm_->config().vfio) {
    // DMA safety by pre-population: all guest memory (static zones and
    // plugged blocks) is populated and pinned at boot. No time is charged
    // — this is part of VM start-up, outside every benchmark window.
    // Fault injectors must be armed AFTER construction: boot-time
    // pre-population is not a recoverable boundary.
    const uint64_t mapped = vm_->ept().Map(0, vm_->total_frames());
    HA_CHECK(mapped != hv::Ept::kNoHostMemory &&
             mapped != hv::Ept::kFaultInjected);
    vm_->iommu()->PinRange(0, HugesForFrames(vm_->total_frames()));
  }
}

void VirtioMem::ChargeBackoff(unsigned retry) {
  const uint64_t ns = config_.retry.BackoffNs(retry);
  ++fault_retries_;
  if (trace::Span* span = trace::Span::Current()) {
    span->AddRetry();
  }
  if (busy_) {
    ++outcome_.retries;
    request_span_.AddRetry();
  }
  HA_COUNT("vmem.fault_retry");
  HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kRetry, retry, ns);
  cpu_.host_user_ns += hv::ChargeTraced(sim_, "vmem.fault_backoff_ns", ns);
}

void VirtioMem::NoteFault() {
  ++faults_;
  if (trace::Span* span = trace::Span::Current()) {
    span->AddFault();
  }
  if (busy_) {
    ++outcome_.faults;
    request_span_.AddFault();
  }
  HA_COUNT("vmem.fault");
}

bool VirtioMem::RequestTimedOut() const {
  return request_deadline_ != 0 && sim_->now() >= request_deadline_;
}

bool VirtioMem::PollSite(fault::Site site, uint64_t arg) {
  fault::Injector* injector = vm_->fault_injector();
  const unsigned max_attempts = std::max(1u, config_.retry.max_attempts);
  for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ChargeBackoff(attempt - 1);
    }
    const auto kind = fault::Poll(injector, site);
    if (!kind.has_value()) {
      return true;
    }
    NoteFault();
    HA_COUNT("fault.vmem_hypercall");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kInject, arg,
                   static_cast<uint64_t>(site));
    if (*kind == fault::Kind::kPermanent) {
      return false;
    }
  }
  return false;
}

guest::Zone& VirtioMem::movable_zone() {
  for (guest::Zone& zone : vm_->zones()) {
    if (zone.kind == guest::ZoneKind::kMovable) {
      return zone;
    }
  }
  HA_CHECK(false && "virtio-mem requires a Movable zone");
  __builtin_unreachable();
}

FrameId VirtioMem::BlockFirstFrame(uint64_t block) const {
  return const_cast<VirtioMem*>(this)->movable_zone().start +
         block * kFramesPerHuge;
}

uint64_t VirtioMem::limit_bytes() const {
  const uint64_t unplugged = num_blocks_ - plugged_blocks_;
  return vm_->config().memory_bytes - unplugged * kHugeSize;
}

void VirtioMem::Request(const hv::ResizeRequest& request) {
  HA_CHECK(!busy_);
  busy_ = true;
  const uint64_t static_bytes =
      vm_->config().memory_bytes - num_blocks_ * kHugeSize;
  const uint64_t want_plugged_bytes =
      request.target_bytes > static_bytes
          ? request.target_bytes - static_bytes
          : 0;
  const uint64_t target_blocks =
      std::min<uint64_t>(num_blocks_, want_plugged_bytes / kHugeSize);
  // Host-side naming: unplugging guest memory inflates the host's pool.
  const bool inflate = target_blocks < plugged_blocks_;
  outcome_ = hv::ResizeOutcome{};
  outcome_.target_bytes = request.target_bytes;
  request_deadline_ =
      request.deadline_ns > 0 ? sim_->now() + request.deadline_ns
      : config_.retry.request_timeout_ns > 0
          ? sim_->now() + config_.retry.request_timeout_ns
          : 0;
  request_span_.Start(inflate ? "request.inflate" : "request.deflate");
  request_span_.AddFrames((inflate ? plugged_blocks_ - target_blocks
                                   : target_blocks - plugged_blocks_) *
                          kFramesPerHuge);
  auto finish = [this, done = request.done, on_outcome = request.on_outcome,
                 inflate, target = request.target_bytes] {
    outcome_.achieved_bytes = limit_bytes();
    outcome_.complete = inflate ? outcome_.achieved_bytes <= target
                                : outcome_.achieved_bytes >= target;
    request_span_.Finish();
    busy_ = false;
    request_deadline_ = 0;
    if (on_outcome) {
      on_outcome(outcome_);
    }
    if (done) {
      done();
    }
  };
  if (target_blocks < plugged_blocks_) {
    UnplugSlice(target_blocks, std::move(finish));
  } else {
    PlugSlice(target_blocks, std::move(finish));
  }
}

bool VirtioMem::UnplugOneBlock() {
  // Decreasing address order (§5.4): the highest plugged block, found
  // from the cursor down (no block at or above it is plugged).
  while (plugged_end_ > 0 && !plugged_[plugged_end_ - 1]) {
    --plugged_end_;
  }
  HA_CHECK(plugged_end_ > 0);
  const uint64_t block = plugged_end_ - 1;

  guest::Zone& zone = movable_zone();
  const FrameId global_first = BlockFirstFrame(block);
  const FrameId local_first = global_first - zone.start;

  // Offline the block: isolate its free frames, migrate the used ones.
  // Migration and purging advance the clock internally, so the guest span
  // is charged the measured elapsed time rather than via hv::Charge.
  const sim::Time guest_start = sim_->now();
  {
    trace::Span offline(trace::Layer::kGuest, "vmem.offline_block");
    vm_->PurgeAllocatorCaches();  // PCP pages cannot be isolated
    zone.buddy->ClaimFreeInRange(local_first, kFramesPerHuge);
    if (!vm_->MigrateRange(global_first, kFramesPerHuge,
                           config_.driver_cpu)) {
      // Migration failed (no free destination or pinned kernel memory):
      // the block stays online; release everything we isolated.
      vm_->ReleaseIsolatedRange(global_first, kFramesPerHuge);
      ++unpluggable_failures_;
      cpu_.guest_ns += sim_->now() - guest_start;
      offline.AddCharge(sim_->now() - guest_start);
      return false;
    }
    // Hot-unplug bookkeeping (memmap, notifier chains, resource tree).
    sim_->AdvanceClock(vm_->costs().vmem_unplug_block_ns);
    cpu_.guest_ns += sim_->now() - guest_start;
    offline.AddCharge(sim_->now() - guest_start);
    offline.AddFrames(kFramesPerHuge);
    offline.AddHugeFrames(kFramesPerHuge);
  }

  // Notify the device (one request per block) and discard host memory.
  // An unrecoverable hypercall fault rolls the offline back (the block
  // simply stays plugged) and stops the slice.
  if (!PollSite(fault::Site::kVmemUnplug, block)) {
    vm_->ReleaseIsolatedRange(global_first, kFramesPerHuge);
    HA_COUNT("vmem.fault_rollback");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kRollback, block, 0);
    if (busy_) {
      ++outcome_.rollbacks;
    }
    return false;
  }
  {
    trace::Span hypercall(trace::Layer::kBackend, "vmem.unplug_hypercall");
    cpu_.host_user_ns += hv::Charge(sim_, vm_->costs().hypercall_ns);
  }
  if (vm_->config().vfio) {
    // VFIO: unpin + IOTLB flush, even for untouched memory (§5.3). The
    // unpin comes BEFORE the unmap so a failed unpin can still roll the
    // whole block back intact (pinned, mapped, online) — the reverse
    // order would strand an unmapped-but-pinned block, which is exactly
    // the DMA-unsafe state the install protocol exists to prevent.
    bool unpinned = false;
    const unsigned max_attempts = std::max(1u, config_.retry.max_attempts);
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        ChargeBackoff(attempt - 1);
      }
      const uint64_t injected = vm_->iommu()->injected_faults();
      if (vm_->iommu()->Unpin(FrameToHuge(global_first))) {
        unpinned = true;
        break;
      }
      if (vm_->iommu()->injected_faults() == injected) {
        unpinned = true;  // was not pinned — nothing to undo
        break;
      }
      NoteFault();
      if (vm_->iommu()->last_injected_kind() == fault::Kind::kPermanent) {
        break;
      }
    }
    if (!unpinned) {
      vm_->ReleaseIsolatedRange(global_first, kFramesPerHuge);
      HA_COUNT("vmem.fault_rollback");
      HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kRollback, block,
                     1);
      if (busy_) {
        ++outcome_.rollbacks;
      }
      return false;
    }
    trace::Span unpin(trace::Layer::kIommu, "iommu.unpin_range");
    unpin.AddFrames(kFramesPerHuge);
    unpin.AddHugeFrames(kFramesPerHuge);
    cpu_.host_sys_ns += hv::Charge(
        sim_, vm_->costs().iommu_unmap_2m_ns + vm_->costs().iotlb_flush_ns);
  }
  const uint64_t mapped = vm_->ept().CountMapped(global_first,
                                                 kFramesPerHuge);
  if (mapped > 0) {
    const uint64_t ept_ns = vm_->costs().madvise_syscall_ns +
                            vm_->costs().tlb_shootdown_ns +
                            vm_->costs().madvise_per_2m_ns;
    bool unmapped = false;
    const unsigned max_attempts = std::max(1u, config_.retry.max_attempts);
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        ChargeBackoff(attempt - 1);
      }
      if (vm_->ept().Unmap(global_first, kFramesPerHuge) !=
          hv::Ept::kFaultInjected) {
        unmapped = true;
        break;
      }
      NoteFault();
      if (vm_->ept().last_injected_kind() == fault::Kind::kPermanent) {
        break;
      }
    }
    if (unmapped) {
      const sim::Time t = sim_->now();
      vm_->sink().OnAllCpusSteal(
          t, t + ept_ns,
          static_cast<double>(vm_->costs().shootdown_allcpu_2m_ns) /
              static_cast<double>(ept_ns));
      trace::Span unmap(trace::Layer::kEpt, "ept.unmap_run");
      unmap.AddFrames(kFramesPerHuge);
      unmap.AddHugeFrames(kFramesPerHuge);
      cpu_.host_sys_ns += hv::Charge(sim_, ept_ns);
    } else {
      // The guest already gave the block up and (under VFIO) the pin is
      // gone, so finishing the unplug stays legal — but the host backing
      // could not be discarded. It stays allocated ("leaked") until the
      // block is replugged, which re-uses the mapping as-is.
      ++leaked_backing_blocks_;
      HA_COUNT("vmem.leaked_backing");
      HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kRollback, block,
                     2);
    }
  }

  plugged_[block] = false;
  --plugged_blocks_;
  plugged_end_ = block;
  return true;
}

void VirtioMem::UnplugSlice(uint64_t target_blocks,
                            std::function<void()> done) {
  trace::ScopedContext request_context(request_span_.context());
  trace::Span slice(trace::Layer::kBackend, "vmem.unplug_slice");
  if (RequestTimedOut()) {
    outcome_.timed_out = true;
    HA_COUNT("vmem.request_timeout");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kTimeout,
                   target_blocks, plugged_blocks_);
    done();  // partial unplug: already-unplugged blocks stay unplugged
    return;
  }
  const sim::Time t0 = sim_->now();
  for (unsigned i = 0;
       i < config_.blocks_per_slice && plugged_blocks_ > target_blocks;
       ++i) {
    if (!UnplugOneBlock()) {
      // Cannot evacuate further blocks right now: stop (partial success,
      // like the real driver's "requested size not reached").
      vm_->sink().OnCpuSteal(config_.driver_cpu, t0, sim_->now(), 1.0);
      done();
      return;
    }
  }
  vm_->sink().OnCpuSteal(config_.driver_cpu, t0, sim_->now(), 1.0);
  if (plugged_blocks_ <= target_blocks) {
    done();
    return;
  }
  sim_->After(0, [this, target_blocks, done = std::move(done)]() mutable {
    UnplugSlice(target_blocks, std::move(done));
  });
}

bool VirtioMem::PlugOneBlock(uint64_t block) {
  guest::Zone& zone = movable_zone();
  const FrameId global_first = BlockFirstFrame(block);
  const FrameId local_first = global_first - zone.start;

  // One request per plugged block. A failed hypercall aborts cleanly:
  // nothing was onlined yet, the block just stays unplugged.
  if (!PollSite(fault::Site::kVmemPlug, block)) {
    return false;
  }
  {
    trace::Span hypercall(trace::Layer::kBackend, "vmem.plug_hypercall");
    cpu_.host_user_ns += hv::Charge(sim_, vm_->costs().hypercall_ns);
  }
  if (vm_->config().vfio) {
    // Pre-populate and pin for DMA safety — the expensive part (§5.3:
    // "virtio-mem with VFIO is 21x slower ... because it has to
    // pre-populate the memory"). This runs BEFORE the block is onlined:
    // if populate or pin fails, the guest never sees the memory and the
    // plug aborts with no state to undo.
    const sim::Time t0 = sim_->now();
    const unsigned max_attempts = std::max(1u, config_.retry.max_attempts);
    bool populated = false;
    {
      trace::Span populate(trace::Layer::kEpt, "ept.populate");
      populate.AddFrames(kFramesPerHuge);
      populate.AddHugeFrames(kFramesPerHuge);
      for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          ChargeBackoff(attempt - 1);
        }
        const uint64_t injected = vm_->ept().injected_faults();
        if (vm_->PopulateFrames(global_first, kFramesPerHuge)) {
          populated = true;
          break;
        }
        NoteFault();
        if (vm_->ept().injected_faults() > injected &&
            vm_->ept().last_injected_kind() == fault::Kind::kPermanent) {
          break;
        }
      }
      if (populated) {
        cpu_.host_sys_ns +=
            hv::Charge(sim_, kFramesPerHuge * vm_->costs().populate_4k_ns);
      }
    }
    if (!populated) {
      return false;
    }
    bool pinned = false;
    {
      trace::Span pin(trace::Layer::kIommu, "iommu.pin");
      pin.AddFrames(kFramesPerHuge);
      pin.AddHugeFrames(kFramesPerHuge);
      for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          ChargeBackoff(attempt - 1);
        }
        vm_->iommu()->Pin(FrameToHuge(global_first));
        if (vm_->iommu()->IsPinned(FrameToHuge(global_first))) {
          pinned = true;
          break;
        }
        NoteFault();
        if (vm_->iommu()->last_injected_kind() == fault::Kind::kPermanent) {
          break;
        }
      }
      if (pinned) {
        cpu_.host_sys_ns += hv::Charge(sim_, vm_->costs().iommu_map_2m_ns);
      }
    }
    if (!pinned) {
      // Mapped but unpinned and never onlined: legal (the backing is
      // reused when the plug is retried), just not DMA-safe to expose —
      // so it is not exposed.
      return false;
    }
    if (sim_->now() > t0) {
      vm_->sink().OnBandwidth(t0, sim_->now(),
                              static_cast<double>(kHugeSize) /
                                  static_cast<double>(sim_->now() - t0));
    }
  }
  // Guest onlining (memmap init, buddy release) — only after the block
  // is fully DMA-safe.
  {
    trace::Span online(trace::Layer::kGuest, "vmem.online_block");
    online.AddFrames(kFramesPerHuge);
    online.AddHugeFrames(kFramesPerHuge);
    cpu_.guest_ns += hv::Charge(sim_, vm_->costs().vmem_plug_block_ns);
  }
  zone.buddy->ReleaseRange(local_first, kFramesPerHuge);

  plugged_[block] = true;
  ++plugged_blocks_;
  plugged_end_ = std::max(plugged_end_, block + 1);
  return true;
}

void VirtioMem::PlugSlice(uint64_t target_blocks,
                          std::function<void()> done) {
  trace::ScopedContext request_context(request_span_.context());
  trace::Span slice(trace::Layer::kBackend, "vmem.plug_slice");
  if (RequestTimedOut()) {
    outcome_.timed_out = true;
    HA_COUNT("vmem.request_timeout");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kTimeout,
                   target_blocks, plugged_blocks_);
    done();
    return;
  }
  const sim::Time t0 = sim_->now();
  unsigned plugged_now = 0;
  for (uint64_t b = 0; b < num_blocks_ && plugged_blocks_ < target_blocks &&
                       plugged_now < config_.blocks_per_slice;
       ++b) {
    if (!plugged_[b]) {
      if (!PlugOneBlock(b)) {
        // Unrecoverable fault: stop with a partial plug (the real
        // driver's "requested size not reached").
        vm_->sink().OnCpuSteal(config_.driver_cpu, t0, sim_->now(), 1.0);
        done();
        return;
      }
      ++plugged_now;
    }
  }
  vm_->sink().OnCpuSteal(config_.driver_cpu, t0, sim_->now(), 1.0);
  if (plugged_blocks_ >= target_blocks || plugged_now == 0) {
    done();
    return;
  }
  sim_->After(0, [this, target_blocks, done = std::move(done)]() mutable {
    PlugSlice(target_blocks, std::move(done));
  });
}

void VirtioMem::StartAuto() {
  if (auto_running_) {
    return;
  }
  auto_running_ = true;
  sim_->After(config_.auto_period, [this] { AutoTick(); });
}

void VirtioMem::StopAuto() { auto_running_ = false; }

void VirtioMem::AutoTick() {
  if (!auto_running_) {
    return;
  }
  if (!busy_) {
    const uint64_t free_bytes = vm_->FreeFrames() * kFrameSize;
    const uint64_t free_huge_bytes = vm_->FreeHugeFrames() * kHugeSize;
    if (free_bytes < config_.auto_low_bytes &&
        plugged_blocks_ < num_blocks_) {
      Request({.target_bytes =
                   std::min(limit_bytes() + config_.auto_granularity,
                            vm_->config().memory_bytes),
               .done = {}});
    } else if (free_huge_bytes >
               config_.auto_high_bytes + config_.auto_granularity) {
      Request({.target_bytes = limit_bytes() - config_.auto_granularity,
               .done = {}});
    }
  }
  sim_->After(config_.auto_period, [this] { AutoTick(); });
}

}  // namespace hyperalloc::vmem
