#include "src/core/hyperalloc.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace hyperalloc::core {

HyperAllocMonitor::HyperAllocMonitor(guest::GuestVm* vm,
                                     const HyperAllocConfig& config)
    : vm_(vm), config_(config), sim_(vm->simulation()) {
  HA_CHECK(vm != nullptr);
  if (vm->config().allocator == guest::AllocatorKind::kLLFree) {
    for (guest::Zone& zone : vm_->zones()) {
      views_.push_back(std::make_unique<View>(
          MakeLLFreeBridge(vm_, &zone, &cpu_), FrameToHuge(zone.start),
          zone.frames / kFramesPerHuge));
    }
  } else {
    views_.push_back(std::make_unique<View>(
        MakeAuxBridge(vm_, &cpu_), 0, HugesForFrames(vm->total_frames())));
  }
  // Normal zones before DMA32 (§4.2); the tiny DMA zone does not exist in
  // this model. The aux view covers the whole VM.
  for (const bool normal : {true, false}) {
    for (const auto& view : views_) {
      if ((vm_->ZoneOf(HugeToFrame(view->first)).kind ==
           guest::ZoneKind::kNormal) == normal) {
        reclaim_order_.push_back(view.get());
      }
    }
  }
  for (const auto& view : views_) {
    // A fresh VM has no populated guest-physical memory: every huge frame
    // starts soft-reclaimed (M=0 => E=1), so first allocations install.
    for (HugeId h = 0; h < view->states.size(); ++h) {
      view->bridge->SetEvicted(h);
      view->states.Set(h, ReclaimState::kSoft);
    }
    View* raw = view.get();
    view->bridge->SetInstallHandler(
        [this, raw](HugeId huge) { Install(*raw, huge); });
  }

  if (config.initial_limit_bytes > 0 &&
      config.initial_limit_bytes < vm->config().memory_bytes) {
    // Boot with a reduced hard limit: hard-reclaim the excess up front
    // (pure state work — nothing is populated yet).
    HA_CHECK(vm->config().allocator == guest::AllocatorKind::kLLFree);
    const uint64_t target =
        (vm->config().memory_bytes - config.initial_limit_bytes) /
        kHugeSize;
    for (View* view : reclaim_order_) {
      for (HugeId h = 0;
           h < view->states.size() && hard_reclaimed_huge_ < target; ++h) {
        if (view->bridge->Claim(h, /*allow_reserved=*/false)) {
          view->states.Set(h, ReclaimState::kHard);
          ++hard_reclaimed_huge_;
        }
      }
    }
    HA_CHECK(hard_reclaimed_huge_ == target);
  }
}

hv::DeflatorCaps HyperAllocMonitor::caps() const {
  return {.name = vm_->config().allocator == guest::AllocatorKind::kLLFree
                      ? "HyperAlloc"
                      : "HyperAlloc-generic",
          .dma_safe = true,
          .supports_auto = true,
          .granularity_bytes = kHugeSize};
}

AllocType HyperAllocMonitor::TreeTypeOf(HugeId global_huge) const {
  const guest::Zone& zone = vm_->ZoneOf(HugeToFrame(global_huge));
  HA_CHECK(zone.llfree != nullptr);
  const uint64_t tree = (global_huge - FrameToHuge(zone.start)) /
                        zone.llfree->config().areas_per_tree;
  return zone.llfree->ReadTree(tree).type;
}

uint64_t HyperAllocMonitor::limit_bytes() const {
  // Quarantined frames are lost to the guest just like hard-reclaimed
  // ones: the monitor claimed them in the shared allocator so the guest
  // can never allocate (and thus install) a poisoned frame.
  return vm_->config().memory_bytes -
         (hard_reclaimed_huge_ + quarantined_huge_) * kHugeSize;
}

HyperAllocMonitor::View* HyperAllocMonitor::FindView(
    HugeId global_huge, HugeId* local_huge) const {
  for (const auto& view : views_) {
    if (global_huge >= view->first &&
        global_huge < view->first + view->states.size()) {
      *local_huge = global_huge - view->first;
      return view.get();
    }
  }
  HA_CHECK(false && "huge frame outside every view");
  __builtin_unreachable();
}

void HyperAllocMonitor::ChargeBackoff(unsigned retry) {
  const uint64_t ns = config_.retry.BackoffNs(retry);
  ++fault_retries_;
  if (trace::Span* span = trace::Span::Current()) {
    span->AddRetry();
  }
  if (busy_) {
    ++outcome_.retries;
    request_span_.AddRetry();
  }
  HA_COUNT("monitor.fault_retry");
  HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kRetry, retry, ns);
  cpu_.host_user_ns +=
      hv::ChargeTraced(sim_, "monitor.fault_backoff_ns", ns);
}

void HyperAllocMonitor::NoteFault() {
  ++faults_seen_;
  if (trace::Span* span = trace::Span::Current()) {
    span->AddFault();
  }
  if (busy_) {
    ++outcome_.faults;
    request_span_.AddFault();
  }
  HA_COUNT("monitor.fault");
}

void HyperAllocMonitor::RollbackFrame(View& view, HugeId local_huge,
                                      HugeId global_huge) {
  ++fault_rollbacks_;
  if (busy_) {
    ++outcome_.rollbacks;
  }
  const ReclaimState prior = view.states.Get(local_huge);
  if (prior == ReclaimState::kHard) {
    // Hard reclaim could not unmap: return the frame (A<-0, R<-S) as if
    // it had never been hard-reclaimed. A later slice may retry it.
    view.bridge->Return(local_huge);
    view.states.Set(local_huge, ReclaimState::kSoft);
    HA_CHECK(hard_reclaimed_huge_ > 0);
    --hard_reclaimed_huge_;
  } else if (prior == ReclaimState::kSoft) {
    // Soft reclaim could not unmap: clear E again; the frame stays
    // installed and host-backed.
    view.bridge->ClearEvicted(local_huge);
    view.states.Set(local_huge, ReclaimState::kInstalled);
  }
  HA_COUNT("monitor.fault_rollback");
  HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kRollback, global_huge,
                 static_cast<uint64_t>(prior));
}

void HyperAllocMonitor::QuarantineFrame(View& view, HugeId local_huge,
                                        HugeId global_huge) {
  const ReclaimState prior = view.states.Get(local_huge);
  if (prior == ReclaimState::kHard) {
    HA_CHECK(hard_reclaimed_huge_ > 0);
    --hard_reclaimed_huge_;
  } else if (prior == ReclaimState::kSoft) {
    // Claim the frame in the guest's state (A<-1) so the guest can never
    // allocate — and thus never install — the poisoned frame. The frame
    // is free (soft-reclaimed), so this cannot fail.
    HA_CHECK(view.bridge->Claim(local_huge, /*allow_reserved=*/true));
  }
  view.states.Set(local_huge, ReclaimState::kQuarantined);
  ++quarantined_huge_;
  HA_COUNT("monitor.quarantine_frame");
  HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kQuarantine, global_huge,
                 static_cast<uint64_t>(prior));
  if (fault::Injector* injector = vm_->fault_injector()) {
    injector->NotifyQuarantineFrame();
  }
  if (quarantined_huge_ >= config_.quarantine_frame_limit) {
    QuarantineVm();
  }
}

void HyperAllocMonitor::QuarantineVm() {
  if (vm_quarantined_) {
    return;
  }
  vm_quarantined_ = true;
  StopAuto();
  if (busy_) {
    outcome_.quarantined = true;
  }
  HA_COUNT("monitor.quarantine_vm");
  HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kQuarantine, ~0ull, 1);
  if (fault::Injector* injector = vm_->fault_injector()) {
    injector->NotifyQuarantineVm();
  }
}

bool HyperAllocMonitor::RequestTimedOut() const {
  return request_deadline_ != 0 && sim_->now() >= request_deadline_;
}

ReclaimState HyperAllocMonitor::StateOf(HugeId global_huge) const {
  HugeId local = 0;
  return FindView(global_huge, &local)->states.Get(local);
}

void HyperAllocMonitor::Install(View& view, HugeId local_huge) {
  // Blocking install hypercall (§3.2 "Return and Install"): the guest's
  // allocation waits until the memory is populated, mapped, and — with a
  // passthrough device — pinned. Only then may it be handed out (DMA
  // safety).
  HA_DCHECK(view.states.Get(local_huge) == ReclaimState::kSoft);
  const sim::Time t0 = sim_->now();
  // Installs are their own causal roots: they are triggered by guest
  // allocations, not by a resize request.
  trace::ScopedRoot root;
  trace::Span span(trace::Layer::kMonitor, "monitor.install");
  span.AddFrames(kFramesPerHuge);
  span.AddHugeFrames(kFramesPerHuge);
  // In-kernel integration (§5.3 ablation): no KVM->QEMU context switch —
  // the install costs no more than the EPT fault it replaces.
  const uint64_t entry_ns = config_.in_kernel
                                ? vm_->costs().ept_fault_2m_ns
                                : vm_->costs().install_hypercall_2m_ns;
  const FrameId global_first = HugeToFrame(view.first + local_huge);
  fault::Injector* injector = vm_->fault_injector();
  const unsigned max_attempts = std::max(1u, config_.retry.max_attempts);

  bool ok = false;
  for (unsigned attempt = 0; attempt < max_attempts && !ok; ++attempt) {
    if (attempt > 0) {
      ChargeBackoff(attempt - 1);
    }
    if (const auto kind =
            fault::Poll(injector, fault::Site::kInstallHypercall)) {
      NoteFault();
      HA_COUNT("fault.install_hypercall");
      HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kInject,
                     global_first, 0);
      if (*kind == fault::Kind::kPermanent) {
        break;
      }
      continue;
    }
    cpu_.host_user_ns +=
        hv::ChargeTraced(sim_, "monitor.install_entry_ns", entry_ns);
    if (!config_.in_kernel) {
      HA_COUNT("monitor.hypercall");
    }
    {
      trace::Span populate(trace::Layer::kEpt, "ept.populate");
      populate.AddFrames(kFramesPerHuge);
      populate.AddHugeFrames(kFramesPerHuge);
      const uint64_t ept_faults = vm_->ept().injected_faults();
      if (!vm_->PopulateFrames(global_first, kFramesPerHuge)) {
        NoteFault();
        if (vm_->ept().injected_faults() > ept_faults &&
            vm_->ept().last_injected_kind() == fault::Kind::kPermanent) {
          break;
        }
        continue;  // injected map failure or host exhaustion: retry
      }
      cpu_.host_sys_ns += hv::ChargeTraced(
          sim_, "monitor.install_ns",
          kFramesPerHuge * vm_->costs().populate_4k_ns);
    }
    if (vm_->config().vfio) {
      trace::Span pin(trace::Layer::kIommu, "iommu.pin");
      pin.AddFrames(kFramesPerHuge);
      pin.AddHugeFrames(kFramesPerHuge);
      vm_->iommu()->Pin(FrameToHuge(global_first));
      if (!vm_->iommu()->IsPinned(FrameToHuge(global_first))) {
        NoteFault();
        if (vm_->iommu()->last_injected_kind() == fault::Kind::kPermanent) {
          break;
        }
        continue;
      }
      cpu_.host_sys_ns += hv::ChargeTraced(sim_, "monitor.install_pin_ns",
                                           vm_->costs().iommu_map_2m_ns);
    }
    ok = true;
  }
  if (!ok) {
    // Retries exhausted (or a permanent fault): the guest allocation has
    // already claimed the frame, so hand it over anyway — it populates
    // lazily on first touch — and poison the VM, because the install's
    // DMA-safety guarantee ("populated and pinned before the allocation
    // returns") no longer holds.
    QuarantineVm();
  }
  HA_COUNT("monitor.install");
  HA_TRACE_EVENT(trace::Category::kMonitor, trace::Op::kInstall,
                 FrameToHuge(global_first), 0);
  if (sim_->now() > t0) {
    vm_->sink().OnBandwidth(t0, sim_->now(),
                            static_cast<double>(kHugeSize) /
                                static_cast<double>(sim_->now() - t0));
  }

  view.states.Set(local_huge, ReclaimState::kInstalled);
  view.bridge->ClearEvicted(local_huge);
  ++installs_;
}

uint64_t HyperAllocMonitor::UnmapBatch(
    const std::vector<HugeId>& global_huge) {
  if (global_huge.empty()) {
    return 0;
  }
  std::vector<HugeId> sorted = global_huge;
  std::sort(sorted.begin(), sorted.end());

  const sim::Time t0 = sim_->now();
  uint64_t shootdown_allcpu_ns = 0;
  uint64_t completed = 0;
  const unsigned max_attempts = std::max(1u, config_.retry.max_attempts);

  // Contiguous runs are unmapped with a single madvise syscall — the
  // aggregation that LLFree's compact allocation behaviour makes
  // effective (§4.2 "KVM/QEMU Integration"). Each run's madvise/TLB cost
  // is charged inside an EPT-layer span and each run's coalesced unpin
  // inside an IOMMU-layer span, so request traces attribute the flush
  // work to the layer that incurs it (total charge is unchanged).
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[j - 1] + 1) {
      ++j;
    }
    uint64_t mapped_huge = 0;
    uint64_t mapped_huge_2m = 0;  // of those, unmapped via a 2M EPT entry
    uint64_t run_sys_ns = 0;
    // Frames whose unmap completed (or that had nothing mapped) move on
    // to the unpin phase; failed frames are rolled back or quarantined
    // and must keep their pin (a rolled-back frame stays mapped).
    std::vector<bool> unmapped(j - i, false);
    uint64_t run_ok = 0;
    for (size_t k = i; k < j; ++k) {
      const FrameId first = HugeToFrame(sorted[k]);
      if (vm_->ept().CountMapped(first, kFramesPerHuge) == 0) {
        unmapped[k - i] = true;  // §5.3 "reclaim untouched" fast path
        ++run_ok;
        ++reclaim_untouched_;
        continue;
      }
      // §4.14 reclaim-share split: read the 2M-entry bit before Unmap
      // invalidates it.
      const bool entry_2m = vm_->ept().HasHugeEntry(sorted[k]);
      bool ok = false;
      bool permanent = false;
      for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          ChargeBackoff(attempt - 1);
        }
        if (vm_->ept().Unmap(first, kFramesPerHuge) !=
            hv::Ept::kFaultInjected) {
          ok = true;
          break;
        }
        NoteFault();
        if (vm_->ept().last_injected_kind() == fault::Kind::kPermanent) {
          permanent = true;
          break;
        }
      }
      if (ok) {
        unmapped[k - i] = true;
        ++run_ok;
        ++mapped_huge;
        if (entry_2m) {
          ++mapped_huge_2m;
          ++reclaim_unmapped_2m_;
        } else {
          ++reclaim_unmapped_4k_;
        }
        run_sys_ns += vm_->costs().madvise_per_2m_ns;
        shootdown_allcpu_ns += vm_->costs().shootdown_allcpu_2m_ns;
        continue;
      }
      HugeId local = 0;
      View* view = FindView(sorted[k], &local);
      if (permanent) {
        QuarantineFrame(*view, local, sorted[k]);
      } else {
        RollbackFrame(*view, local, sorted[k]);
      }
    }
    if (mapped_huge > 0) {
      // In-kernel: direct EPT zap, no madvise syscall per run.
      run_sys_ns += (config_.in_kernel ? 0
                                       : vm_->costs().madvise_syscall_ns) +
                    vm_->costs().tlb_shootdown_ns;
      if (!config_.in_kernel) {
        HA_COUNT("monitor.madvise");
        HA_TRACE_EVENT(trace::Category::kMonitor, trace::Op::kMadvise,
                       sorted[i], mapped_huge);
      }
      trace::Span unmap(trace::Layer::kEpt, "ept.unmap_run");
      unmap.AddFrames(mapped_huge * kFramesPerHuge);
      unmap.AddHugeFrames(mapped_huge_2m * kFramesPerHuge);
      cpu_.host_sys_ns +=
          hv::ChargeTraced(sim_, "monitor.unmap_ns", run_sys_ns);
    }
    if (!vm_->config().vfio) {
      completed += run_ok;
    } else if (run_ok == j - i) {
      // Clean run (the only path with injection off): coalesced IOTLB
      // invalidation — unpin the whole contiguous run and pay ONE ranged
      // flush for it, not one flush per huge frame — the same batching
      // the madvise path above gets from contiguity.
      uint64_t unpinned = 0;
      bool pin_ok = false;
      for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          ChargeBackoff(attempt - 1);
        }
        const uint64_t faults = vm_->iommu()->injected_faults();
        unpinned = vm_->iommu()->UnpinRange(sorted[i], j - i);
        if (vm_->iommu()->injected_faults() == faults) {
          pin_ok = true;
          break;
        }
        NoteFault();
        if (vm_->iommu()->last_injected_kind() == fault::Kind::kPermanent) {
          break;
        }
      }
      if (pin_ok) {
        if (unpinned > 0) {
          trace::Span unpin(trace::Layer::kIommu, "iommu.unpin_range");
          unpin.AddFrames(unpinned * kFramesPerHuge);
          unpin.AddHugeFrames(unpinned * kFramesPerHuge);
          cpu_.host_sys_ns += hv::ChargeTraced(
              sim_, "monitor.unmap_iommu_ns",
              unpinned * vm_->costs().iommu_unmap_2m_ns +
                  vm_->costs().iotlb_flush_ns);
        }
        completed += run_ok;
      } else {
        // Unpin retries exhausted: the run is already unmapped but may
        // still be pinned — poison every still-pinned frame.
        for (size_t k = i; k < j; ++k) {
          if (!vm_->iommu()->IsPinned(sorted[k])) {
            ++completed;
            continue;
          }
          HugeId local = 0;
          View* view = FindView(sorted[k], &local);
          QuarantineFrame(*view, local, sorted[k]);
        }
      }
    } else {
      // Degraded run: unpin only the frames that actually unmapped, one
      // flush each (rolled-back frames stay mapped and keep their pin).
      for (size_t k = i; k < j; ++k) {
        if (!unmapped[k - i]) {
          continue;
        }
        if (!vm_->iommu()->IsPinned(sorted[k])) {
          ++completed;
          continue;
        }
        bool pin_ok = false;
        for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
          if (attempt > 0) {
            ChargeBackoff(attempt - 1);
          }
          const uint64_t faults = vm_->iommu()->injected_faults();
          if (vm_->iommu()->UnpinRange(sorted[k], 1) == 1) {
            pin_ok = true;
            break;
          }
          if (vm_->iommu()->injected_faults() > faults) {
            NoteFault();
            if (vm_->iommu()->last_injected_kind() ==
                fault::Kind::kPermanent) {
              break;
            }
          }
        }
        if (pin_ok) {
          trace::Span unpin(trace::Layer::kIommu, "iommu.unpin_range");
          unpin.AddFrames(kFramesPerHuge);
          unpin.AddHugeFrames(kFramesPerHuge);
          cpu_.host_sys_ns += hv::ChargeTraced(
              sim_, "monitor.unmap_iommu_ns",
              vm_->costs().iommu_unmap_2m_ns + vm_->costs().iotlb_flush_ns);
          ++completed;
        } else {
          HugeId local = 0;
          View* view = FindView(sorted[k], &local);
          QuarantineFrame(*view, local, sorted[k]);
        }
      }
    }
    i = j;
  }

  HA_HIST("monitor.unmap_batch_huge", sorted.size());
  const sim::Time t1 = sim_->now();
  if (shootdown_allcpu_ns > 0 && t1 > t0) {
    vm_->sink().OnAllCpusSteal(
        t0, t1,
        static_cast<double>(shootdown_allcpu_ns) /
            static_cast<double>(t1 - t0));
  }
  return completed;
}

void HyperAllocMonitor::Request(const hv::ResizeRequest& request) {
  HA_CHECK(!busy_);
  busy_ = true;
  HA_CHECK(request.target_bytes <= vm_->config().memory_bytes);
  outcome_ = hv::ResizeOutcome{};
  outcome_.target_bytes = request.target_bytes;
  stalled_slices_ = 0;
  request_deadline_ =
      request.deadline_ns > 0 ? sim_->now() + request.deadline_ns
      : config_.retry.request_timeout_ns > 0
          ? sim_->now() + config_.retry.request_timeout_ns
          : 0;
  const uint64_t target_hard =
      (vm_->config().memory_bytes - request.target_bytes) / kHugeSize;
  // Quarantined frames already count against the limit, so the request
  // only has to move the remainder.
  const uint64_t held = hard_reclaimed_huge_ + quarantined_huge_;
  const bool shrink = target_hard > held;
  request_span_.Start(shrink ? "request.inflate" : "request.deflate");
  request_span_.AddFrames(
      (shrink ? target_hard - held : held - target_hard) * kFramesPerHuge);
  auto finish = [this, done = request.done, on_outcome = request.on_outcome,
                 shrink, target = request.target_bytes] {
    outcome_.achieved_bytes = limit_bytes();
    outcome_.quarantined = vm_quarantined_;
    // A quarantined VM may still hit its numeric target (quarantined
    // frames count against the limit) but the host memory behind them
    // was never actually freed — that is degradation, not completion.
    outcome_.complete = !outcome_.quarantined &&
                        (shrink ? outcome_.achieved_bytes <= target
                                : outcome_.achieved_bytes >= target);
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
  if (vm_quarantined_) {
    finish();  // a poisoned VM refuses resizes: report and complete
    return;
  }
  if (shrink) {
    ShrinkSlice(target_hard, /*escalation=*/0, std::move(finish));
  } else {
    GrowSlice(target_hard, std::move(finish));
  }
}

void HyperAllocMonitor::ShrinkSlice(uint64_t target_huge, int escalation,
                                    std::function<void()> done) {
  // Re-enter the request's trace (slices run as separate event-loop
  // callbacks, so the thread context must be restored each time).
  trace::ScopedContext request_context(request_span_.context());
  trace::Span slice(trace::Layer::kMonitor, "monitor.shrink_slice");
  if (vm_quarantined_) {
    done();  // poisoned mid-request: stop with a partial reclaim
    return;
  }
  if (RequestTimedOut()) {
    ++fault_timeouts_;
    outcome_.timed_out = true;
    HA_COUNT("monitor.request_timeout");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kTimeout, target_huge,
                   hard_reclaimed_huge_);
    done();  // partial reclaim: every frame is in a legal state as-is
    return;
  }
  std::vector<HugeId> batch;

  // Linear scan with a persistent per-view hint, Normal zones before
  // DMA32 (§4.2). The hint makes repeated shrink/grow cycles naturally
  // re-take the previously reclaimed (still evicted) region first — the
  // "reclaim untouched" fast path of §5.3, which needs no unmapping.
  {
    const GuestStateBridge& backend = *views_.front()->bridge;
    trace::Span reclaim(backend.layer, backend.reclaim_span);
    std::vector<HugeId> taken;
    for (View* view : reclaim_order_) {
      const uint64_t held = hard_reclaimed_huge_ + quarantined_huge_;
      const uint64_t room = config_.hugepages_per_slice - batch.size();
      if (held >= target_huge || room == 0) {
        break;
      }
      taken.clear();
      view->bridge->HardReclaim(&view->hint,
                                std::min(target_huge - held, room),
                                /*allow_reserved=*/escalation >= 1, &taken);
      for (const HugeId huge : taken) {
        view->states.Set(huge, ReclaimState::kHard);
        batch.push_back(view->first + huge);
        HA_COUNT("monitor.reclaim_hard");
        HA_TRACE_EVENT(trace::Category::kMonitor, trace::Op::kReclaimHard,
                       batch.back(), escalation);
        ++hard_reclaimed_huge_;
      }
    }
    reclaim.AddFrames(batch.size() * kFramesPerHuge);
    reclaim.AddHugeFrames(batch.size() * kFramesPerHuge);
  }
  const uint64_t quarantined_before = quarantined_huge_;
  const uint64_t completed = UnmapBatch(batch);

  if (hard_reclaimed_huge_ + quarantined_huge_ >= target_huge) {
    done();
    return;
  }
  if (vm_quarantined_) {
    done();  // quarantine tripped mid-batch: stop with a partial reclaim
    return;
  }
  if (batch.empty()) {
    // No fully free huge frame found: escalate the memory pressure
    // (§3.3: "we instruct the guest to free the remaining memory from
    // its caches and retry").
    if (escalation == 0) {
      vm_->PurgeAllocatorCaches();
      escalation = 1;
    } else if (vm_->cache_bytes() > 0) {
      vm_->CacheDrop(64 * kMiB);
    } else {
      done();  // nothing left to reclaim at huge granularity
      return;
    }
  } else if (completed == 0 && quarantined_huge_ == quarantined_before) {
    // Every reclaimed frame was rolled back by transient faults: no net
    // progress. A few stalled slices in a row mean the fault rate is too
    // high to ever finish — give up with a partial reclaim instead of
    // spinning (the hint would re-find the same frames forever).
    if (++stalled_slices_ >= 3) {
      done();
      return;
    }
  } else {
    stalled_slices_ = 0;
  }
  sim_->After(0, [this, target_huge, escalation,
                  done = std::move(done)]() mutable {
    ShrinkSlice(target_huge, escalation, std::move(done));
  });
}

void HyperAllocMonitor::GrowSlice(uint64_t target_huge,
                                  std::function<void()> done) {
  trace::ScopedContext request_context(request_span_.context());
  trace::Span slice(trace::Layer::kMonitor, "monitor.grow_slice");
  unsigned returned = 0;
  {
    const GuestStateBridge& backend = *views_.front()->bridge;
    trace::Span mark(backend.layer, backend.return_span);
    for (const auto& view : views_) {
      for (HugeId h = 0;
           h < view->states.size() &&
           hard_reclaimed_huge_ + quarantined_huge_ > target_huge &&
           returned < config_.hugepages_per_slice;
           ++h) {
        if (view->states.Get(h) != ReclaimState::kHard) {
          continue;
        }
        view->states.Set(h, ReclaimState::kSoft);
        cpu_.host_user_ns += hv::ChargeTraced(
            sim_, "monitor.return_ns", vm_->costs().ha_return_state_2m_ns);
        view->bridge->Return(h);
        HA_COUNT("monitor.return");
        HA_TRACE_EVENT(trace::Category::kMonitor, trace::Op::kReturn,
                       view->first + h, 0);
        --hard_reclaimed_huge_;
        ++returned;
      }
    }
    mark.AddFrames(static_cast<uint64_t>(returned) * kFramesPerHuge);
    mark.AddHugeFrames(static_cast<uint64_t>(returned) * kFramesPerHuge);
  }
  // Quarantined frames cannot be returned: a grow request against a VM
  // with quarantined memory finishes partial (returned == 0 once only
  // quarantined frames remain above the target).
  if (hard_reclaimed_huge_ + quarantined_huge_ <= target_huge ||
      returned == 0) {
    done();
    return;
  }
  sim_->After(0, [this, target_huge, done = std::move(done)]() mutable {
    GrowSlice(target_huge, std::move(done));
  });
}

bool HyperAllocMonitor::IsHot(HugeId global_huge) const {
  const guest::Zone& zone = vm_->ZoneOf(HugeToFrame(global_huge));
  HA_CHECK(zone.llfree != nullptr);
  return zone.llfree->HotnessOf(global_huge - FrameToHuge(zone.start)) > 0;
}

uint64_t HyperAllocMonitor::AutoReclaimPass() {
  if (vm_quarantined_) {
    return 0;  // a poisoned VM stops background reclamation
  }
  // Auto-reclamation is its own causal root (a periodic scan, not part
  // of any resize request).
  trace::ScopedRoot root;
  trace::Span pass(trace::Layer::kMonitor, "monitor.auto_reclaim_pass");
  std::vector<HugeId> batch;
  for (View* view : reclaim_order_) {
    // Linear scan over the R array (2 bit/huge) and the shared index:
    // with LLFree's area index (16 bit/huge) 18 consecutive cache lines
    // per GiB (§3.3), with the aux bitmap (2 bit/huge) 4.
    const uint64_t lines =
        (view->states.ByteSize() + view->bridge->IndexBytes() + 63) / 64;
    scan_cache_lines_ += lines;
    HA_COUNT_N("monitor.scan_cache_lines", lines);
    HA_TRACE_EVENT(trace::Category::kMonitor, trace::Op::kScan,
                   view->states.size(), lines);
    cpu_.host_user_ns += hv::ChargeTraced(
        sim_, "monitor.scan_ns", lines * vm_->costs().scan_cache_line_ns);

    for (HugeId h = 0; h < view->states.size(); ++h) {
      // Age the guest's access hints as part of the scan (the host-side
      // half of the §6 hotness protocol).
      view->bridge->AgeHotness(h);
      if (view->states.Get(h) != ReclaimState::kInstalled) {
        continue;
      }
      if (!view->bridge->TrySoftReclaim(h)) {
        continue;  // in use, or the guest raced us and just allocated it
      }
      cpu_.host_user_ns += hv::ChargeTraced(
          sim_, "monitor.reclaim_ns", vm_->costs().ha_reclaim_state_2m_ns);
      view->states.Set(h, ReclaimState::kSoft);
      batch.push_back(view->first + h);
      HA_COUNT("monitor.reclaim_soft");
      HA_TRACE_EVENT(trace::Category::kMonitor, trace::Op::kReclaimSoft,
                     batch.back(), 0);
    }
  }
  // Rolled-back frames do not count: only frames that actually unmapped
  // (or were already unmapped) are net soft reclaims.
  const uint64_t completed = UnmapBatch(batch);
  pass.AddFrames(batch.size() * kFramesPerHuge);
  pass.AddHugeFrames(batch.size() * kFramesPerHuge);
  soft_reclaims_ += completed;
  return completed;
}

void HyperAllocMonitor::StartAuto() {
  if (auto_running_) {
    return;
  }
  auto_running_ = true;
  sim_->After(config_.auto_period, [this] { AutoTick(); });
}

void HyperAllocMonitor::StopAuto() { auto_running_ = false; }

void HyperAllocMonitor::AutoTick() {
  if (!auto_running_) {
    return;
  }
  AutoReclaimPass();
  sim_->After(config_.auto_period, [this] { AutoTick(); });
}

}  // namespace hyperalloc::core
