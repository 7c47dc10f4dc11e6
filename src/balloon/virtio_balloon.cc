#include "src/balloon/virtio_balloon.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace hyperalloc::balloon {

VirtioBalloon::VirtioBalloon(guest::GuestVm* vm, const BalloonConfig& config)
    : vm_(vm), config_(config), sim_(vm->simulation()) {
  HA_CHECK(vm != nullptr);
  HA_CHECK(config.vq_capacity > 0);
  // virtio-balloon is not DMA-safe (§2): refuse passthrough configs.
  HA_CHECK(!vm->config().vfio);
  if (config.deflate_on_oom_bytes > 0) {
    vm->SetOomNotifier([this] {
      if (pages_.empty()) {
        return false;
      }
      // Synchronous emergency deflation of a chunk of the balloon.
      const uint64_t target_frames =
          ballooned_frames_ -
          std::min<uint64_t>(ballooned_frames_,
                             config_.deflate_on_oom_bytes / kFrameSize);
      ++oom_deflations_;
      HA_COUNT("balloon.oom_deflate");
      trace::Span span(trace::Layer::kBackend, "balloon.oom_deflate");
      std::vector<FrameId> base_frames;
      while (ballooned_frames_ > target_frames && !pages_.empty()) {
        const Ballooned b = pages_.back();
        pages_.pop_back();
        span.AddFrames(1ull << b.order);
        if (b.order == kHugeOrder) {
          span.AddHugeFrames(kFramesPerHuge);
        }
        hv::Charge(sim_, b.order == kHugeOrder
                             ? vm_->costs().balloon_deflate_2m_ns
                             : vm_->costs().balloon_deflate_4k_ns);
        if (b.order == 0) {
          base_frames.push_back(b.frame);
        } else {
          vm_->Free(b.frame, b.order, config_.driver_cpu);
        }
        ballooned_frames_ -= 1ull << b.order;
        HA_COUNT_N("balloon.deflate_frames", 1ull << b.order);
        HA_TRACE_EVENT(trace::Category::kBalloon, trace::Op::kDeflate,
                       b.frame, b.order);
      }
      vm_->FreeBatch(base_frames, 0, config_.driver_cpu);
      return true;
    });
  }
}

uint64_t VirtioBalloon::ballooned_bytes() const {
  return ballooned_frames_ * kFrameSize;
}

uint64_t VirtioBalloon::limit_bytes() const {
  return vm_->config().memory_bytes - ballooned_bytes();
}

void VirtioBalloon::ChargeBackoff(unsigned retry) {
  const uint64_t ns = config_.retry.BackoffNs(retry);
  ++fault_retries_;
  if (trace::Span* span = trace::Span::Current()) {
    span->AddRetry();
  }
  if (busy_) {
    ++outcome_.retries;
    request_span_.AddRetry();
  }
  HA_COUNT("balloon.fault_retry");
  HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kRetry, retry, ns);
  cpu_.host_user_ns +=
      hv::ChargeTraced(sim_, "balloon.fault_backoff_ns", ns);
}

void VirtioBalloon::NoteFault() {
  ++faults_;
  if (trace::Span* span = trace::Span::Current()) {
    span->AddFault();
  }
  if (busy_) {
    ++outcome_.faults;
    request_span_.AddFault();
  }
  HA_COUNT("balloon.fault");
}

bool VirtioBalloon::RequestTimedOut() const {
  return request_deadline_ != 0 && sim_->now() >= request_deadline_;
}

bool VirtioBalloon::TryHypercall(uint64_t batch_size) {
  fault::Injector* injector = vm_->fault_injector();
  const unsigned max_attempts = std::max(1u, config_.retry.max_attempts);
  for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ChargeBackoff(attempt - 1);
    }
    if (const auto kind =
            fault::Poll(injector, fault::Site::kBalloonHypercall)) {
      NoteFault();
      HA_COUNT("fault.balloon_hypercall");
      HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kInject, batch_size,
                     0);
      if (*kind == fault::Kind::kPermanent) {
        return false;
      }
      continue;
    }
    cpu_.host_user_ns += hv::ChargeTraced(sim_, "balloon.hypercall_ns",
                                          vm_->costs().hypercall_ns);
    HA_COUNT("balloon.hypercall");
    HA_TRACE_EVENT(trace::Category::kBalloon, trace::Op::kHypercall,
                   batch_size, 0);
    return true;
  }
  return false;
}

void VirtioBalloon::Request(const hv::ResizeRequest& request) {
  HA_CHECK(!busy_);
  busy_ = true;
  const uint64_t total = vm_->config().memory_bytes;
  HA_CHECK(request.target_bytes <= total);
  outcome_ = hv::ResizeOutcome{};
  outcome_.target_bytes = request.target_bytes;
  request_deadline_ =
      request.deadline_ns > 0 ? sim_->now() + request.deadline_ns
      : config_.retry.request_timeout_ns > 0
          ? sim_->now() + config_.retry.request_timeout_ns
          : 0;
  const uint64_t target_frames = (total - request.target_bytes) / kFrameSize;
  const bool inflate = target_frames > ballooned_frames_;
  request_span_.Start(inflate ? "request.inflate" : "request.deflate");
  request_span_.AddFrames(inflate ? target_frames - ballooned_frames_
                                  : ballooned_frames_ - target_frames);
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
  if (inflate) {
    InflateSlice(target_frames, std::move(finish));
  } else {
    DeflateSlice(target_frames, std::move(finish));
  }
}

void VirtioBalloon::InflateSlice(uint64_t target_frames,
                                 std::function<void()> done) {
  trace::ScopedContext request_context(request_span_.context());
  trace::Span slice(trace::Layer::kBackend, "balloon.inflate_slice");
  if (RequestTimedOut()) {
    outcome_.timed_out = true;
    HA_COUNT("balloon.request_timeout");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kTimeout,
                   target_frames, ballooned_frames_);
    done();  // partial inflate: the balloon simply stays smaller
    return;
  }
  const sim::Time t0 = sim_->now();
  std::vector<Ballooned> batch;
  const sim::Time guest_start = sim_->now();

  // Guest driver: allocate pages and queue their PFNs (one virtqueue
  // batch per slice).
  {
    trace::Span guest(trace::Layer::kGuest, "balloon.guest_alloc");
    while (batch.size() < config_.vq_capacity &&
           ballooned_frames_ < target_frames) {
      if (config_.huge &&
          target_frames - ballooned_frames_ >= kFramesPerHuge) {
        const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kMovable,
                                             config_.driver_cpu,
                                             /*allow_oom_notify=*/false);
        if (r.ok()) {
          hv::Charge(sim_, vm_->costs().guest_alloc_2m_ns);
          hv::Charge(sim_, vm_->costs().virtqueue_element_ns);
          batch.push_back({*r, kHugeOrder});
          ballooned_frames_ += kFramesPerHuge;
          HA_COUNT_N("balloon.inflate_frames", kFramesPerHuge);
          HA_TRACE_EVENT(trace::Category::kBalloon, trace::Op::kInflate, *r,
                         kHugeOrder);
          guest.AddFrames(kFramesPerHuge);
          guest.AddHugeFrames(kFramesPerHuge);
          continue;
        }
        // Fragmentation fallback (Hu et al. split path): 4 KiB pages via
        // the batched train below.
      }
      // Order-0 train (sub-huge tail or fragmentation fallback): one
      // AllocBatch fills the rest of the virtqueue via word-at-a-time
      // claims instead of per-frame Get transactions. Costs charge at
      // batch granularity (n per-frame costs, identical virtual time).
      const uint64_t want =
          std::min<uint64_t>(config_.vq_capacity - batch.size(),
                             target_frames - ballooned_frames_);
      std::vector<FrameId> frames;
      const unsigned got = vm_->AllocBatch(
          0, static_cast<unsigned>(want), AllocType::kMovable,
          config_.driver_cpu, &frames, /*allow_oom_notify=*/false);
      if (got == 0) {
        break;  // guest out of reclaimable memory; stop inflating
      }
      hv::Charge(sim_, got * (vm_->costs().guest_alloc_4k_ns +
                              vm_->costs().virtqueue_element_ns));
      for (const FrameId f : frames) {
        batch.push_back({f, 0});
        HA_TRACE_EVENT(trace::Category::kBalloon, trace::Op::kInflate, f, 0);
      }
      ballooned_frames_ += got;
      HA_COUNT_N("balloon.inflate_frames", got);
      guest.AddFrames(got);
      if (got < want) {
        break;  // allocator ran dry mid-train
      }
    }
  }
  cpu_.guest_ns += sim_->now() - guest_start;

  if (batch.empty()) {
    done();
    return;
  }

  // One hypercall delivers the batch; QEMU discards each entry.
  if (!TryHypercall(batch.size())) {
    // Hypercall retries exhausted: the guest driver frees the batch back
    // (the normal deflate path) and the request finishes partial — the
    // balloon holds exactly the pages of the prior slices. Order-0
    // entries free in one batched train.
    std::vector<FrameId> base_frames;
    for (const Ballooned& b : batch) {
      cpu_.guest_ns += hv::Charge(sim_, b.order == kHugeOrder
                                            ? vm_->costs().guest_free_2m_ns
                                            : vm_->costs().guest_free_4k_ns);
      if (b.order == 0) {
        base_frames.push_back(b.frame);
      } else {
        vm_->Free(b.frame, b.order, config_.driver_cpu);
      }
      ballooned_frames_ -= 1ull << b.order;
    }
    vm_->FreeBatch(base_frames, 0, config_.driver_cpu);
    ++outcome_.rollbacks;
    HA_COUNT("balloon.fault_rollback");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kRollback,
                   batch.size(), 0);
    vm_->sink().OnCpuSteal(config_.driver_cpu, t0, sim_->now(), 1.0);
    done();
    return;
  }
  // The batch reached the host: account its virtqueue entries by
  // granularity (a rolled-back batch never counts).
  for (const Ballooned& b : batch) {
    if (b.order == kHugeOrder) {
      ++hypercall_huge_pfns_;
    } else {
      ++hypercall_base_pfns_;
    }
  }
  HostDiscard(batch);
  pages_.insert(pages_.end(), batch.begin(), batch.end());

  // The balloon kthread monopolized its vCPU for the whole slice.
  vm_->sink().OnCpuSteal(config_.driver_cpu, t0, sim_->now(), 1.0);

  const bool more = ballooned_frames_ < target_frames;
  if (!more) {
    done();
    return;
  }
  sim_->After(0, [this, target_frames, done = std::move(done)]() mutable {
    InflateSlice(target_frames, std::move(done));
  });
}

void VirtioBalloon::HostDiscard(const std::vector<Ballooned>& batch) {
  // The host-side half of a batch is one EPT-layer span: per-entry
  // madvise syscalls plus the unmap of whatever was still mapped.
  trace::Span span(trace::Layer::kEpt, "balloon.host_discard");
  const sim::Time t0 = sim_->now();
  uint64_t sys_ns = 0;
  uint64_t shootdown_allcpu_ns = 0;
  // QEMU issues one madvise(DONTNEED) per entry, mapped or not.
  auto madvise = [&](const Ballooned& b) {
    sys_ns += vm_->costs().madvise_syscall_ns;
    ++madvise_calls_;
    HA_COUNT("balloon.madvise");
    HA_TRACE_EVENT(trace::Category::kBalloon, trace::Op::kMadvise, b.frame,
                   1ull << b.order);
  };
  // Retries the unmap of an entry whose first attempt faulted (that
  // attempt is attempt 0). Returns whether the madvise took effect; if
  // not, the entry stays ballooned but host-backed (no host memory is
  // freed for it). Nothing to roll back: deflating hands the still-mapped
  // frame straight back.
  const unsigned max_attempts = std::max(1u, config_.retry.max_attempts);
  auto retry_unmap = [&](const Ballooned& b) {
    NoteFault();
    if (vm_->ept().last_injected_kind() == fault::Kind::kPermanent) {
      return false;
    }
    for (unsigned attempt = 1; attempt < max_attempts; ++attempt) {
      ChargeBackoff(attempt - 1);
      if (vm_->ept().Unmap(b.frame, 1ull << b.order) !=
          hv::Ept::kFaultInjected) {
        return true;
      }
      NoteFault();
      if (vm_->ept().last_injected_kind() == fault::Kind::kPermanent) {
        return false;
      }
    }
    return false;
  };

  std::vector<FrameId> run;
  for (size_t i = 0; i < batch.size();) {
    const Ballooned& b = batch[i];
    if (b.order != 0) {
      const uint64_t frames = 1ull << b.order;
      span.AddFrames(frames);
      if (b.order == kHugeOrder) {
        span.AddHugeFrames(frames);
      }
      madvise(b);
      if (vm_->ept().CountMapped(b.frame, frames) > 0) {
        const uint64_t unmapped = vm_->ept().Unmap(b.frame, frames);
        if (unmapped != hv::Ept::kFaultInjected || retry_unmap(b)) {
          if (b.order == kHugeOrder) {
            sys_ns += vm_->costs().madvise_per_2m_ns +
                      vm_->costs().tlb_shootdown_ns;
            shootdown_allcpu_ns += vm_->costs().shootdown_allcpu_2m_ns;
          } else {
            sys_ns += vm_->costs().madvise_per_4k_ns;
            shootdown_allcpu_ns += vm_->costs().shootdown_allcpu_4k_ns;
          }
        }
      }
      ++i;
      continue;
    }
    // A run of order-0 entries: one EPT call unmaps the run frame by
    // frame, each entry's madvise just before its unmap, and stops at an
    // injected fault so that entry takes the retry path.
    const size_t run_begin = i;
    run.clear();
    for (; i < batch.size() && batch[i].order == 0; ++i) {
      run.push_back(batch[i].frame);
    }
    span.AddFrames(run.size());
    uint64_t unmapped = 0;
    for (size_t pos = 0; pos < run.size();) {
      const Ballooned* entries = &batch[run_begin + pos];
      uint64_t present = 0;
      pos += vm_->ept().UnmapEach(
          run.data() + pos, run.size() - pos, &present,
          [&](uint64_t k) { madvise(entries[k]); });
      unmapped += present;
      if (pos < run.size()) {
        unmapped += retry_unmap(batch[run_begin + pos]) ? 1 : 0;
        ++pos;
      }
    }
    sys_ns += unmapped * vm_->costs().madvise_per_4k_ns;
    shootdown_allcpu_ns += unmapped * vm_->costs().shootdown_allcpu_4k_ns;
  }
  cpu_.host_sys_ns += hv::Charge(sim_, sys_ns);
  const sim::Time t1 = sim_->now();
  if (shootdown_allcpu_ns > 0 && t1 > t0) {
    vm_->sink().OnAllCpusSteal(
        t0, t1,
        static_cast<double>(shootdown_allcpu_ns) /
            static_cast<double>(t1 - t0));
  }
}

void VirtioBalloon::DeflateSlice(uint64_t target_frames,
                                 std::function<void()> done) {
  trace::ScopedContext request_context(request_span_.context());
  // Device processing and guest frees alternate per element; rather than
  // a span per element, two slice-length spans take the charges of their
  // layer (ChargeSpan targets them explicitly).
  trace::Span slice(trace::Layer::kBackend, "balloon.deflate_slice");
  trace::Span guest(trace::Layer::kGuest, "balloon.guest_free");
  if (RequestTimedOut()) {
    outcome_.timed_out = true;
    HA_COUNT("balloon.request_timeout");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kTimeout,
                   target_frames, ballooned_frames_);
    done();
    return;
  }
  const sim::Time t0 = sim_->now();
  unsigned elems = 0;
  // Order-0 frees accumulate into one end-of-slice FreeBatch (one CAS
  // per bit-field word); charges and events stay per element, so the
  // virtual-time totals and span attribution are unchanged.
  std::vector<FrameId> base_frames;
  while (elems < config_.vq_capacity && ballooned_frames_ > target_frames &&
         !pages_.empty()) {
    const Ballooned b = pages_.back();
    pages_.pop_back();
    // Per-element deflate processing (QEMU side) ...
    const uint64_t deflate_ns = b.order == kHugeOrder
                                    ? vm_->costs().balloon_deflate_2m_ns
                                    : vm_->costs().balloon_deflate_4k_ns;
    cpu_.host_user_ns += hv::ChargeSpan(sim_, &slice, deflate_ns);
    // ... and the guest returning the page to its allocator. The memory
    // itself is repopulated lazily on the next EPT fault.
    const uint64_t free_ns = b.order == kHugeOrder
                                 ? vm_->costs().guest_free_2m_ns
                                 : vm_->costs().guest_free_4k_ns;
    cpu_.guest_ns += hv::ChargeSpan(sim_, &guest, free_ns);
    if (b.order == 0) {
      base_frames.push_back(b.frame);
    } else {
      vm_->Free(b.frame, b.order, config_.driver_cpu);
    }
    ballooned_frames_ -= 1ull << b.order;
    guest.AddFrames(1ull << b.order);
    if (b.order == kHugeOrder) {
      guest.AddHugeFrames(kFramesPerHuge);
    }
    HA_COUNT_N("balloon.deflate_frames", 1ull << b.order);
    HA_TRACE_EVENT(trace::Category::kBalloon, trace::Op::kDeflate, b.frame,
                   b.order);
    ++elems;
  }
  vm_->FreeBatch(base_frames, 0, config_.driver_cpu);
  vm_->sink().OnCpuSteal(config_.driver_cpu, t0, sim_->now(), 1.0);

  if (ballooned_frames_ <= target_frames || pages_.empty()) {
    done();
    return;
  }
  sim_->After(0, [this, target_frames, done = std::move(done)]() mutable {
    DeflateSlice(target_frames, std::move(done));
  });
}

void VirtioBalloon::StartAuto() {
  if (auto_running_) {
    return;
  }
  auto_running_ = true;
  sim_->After(config_.reporting_delay, [this] { ReportCycle(); });
}

void VirtioBalloon::StopAuto() { auto_running_ = false; }

void VirtioBalloon::ReportCycle() {
  if (!auto_running_) {
    return;
  }
  trace::ScopedRoot report_root;
  trace::Span span(trace::Layer::kBackend, "balloon.report_cycle");
  const sim::Time t0 = sim_->now();
  const unsigned order = config_.reporting_order;
  const uint64_t block_frames = 1ull << order;

  // Pull one batch (REPORTING_CAPACITY blocks) from the buddy free lists.
  std::vector<Ballooned> batch;
  std::vector<guest::Zone*> zone_of;
  for (guest::Zone& zone : vm_->zones()) {
    if (zone.buddy == nullptr) {
      continue;  // free-page reporting is a buddy mechanism
    }
    while (batch.size() < config_.reporting_capacity) {
      const std::optional<FrameId> local = zone.buddy->PopUnreported(order);
      if (!local.has_value()) {
        break;
      }
      cpu_.guest_ns += hv::Charge(sim_, vm_->costs().guest_alloc_4k_ns +
                                            vm_->costs().virtqueue_element_ns);
      batch.push_back({zone.start + *local, order});
      zone_of.push_back(&zone);
      span.AddFrames(block_frames);
      if (order == kHugeOrder) {
        span.AddHugeFrames(block_frames);
      }
    }
    if (batch.size() >= config_.reporting_capacity) {
      break;
    }
  }

  if (batch.empty()) {
    // Lists exhausted of unreported blocks: wait for the next cycle.
    sim_->After(config_.reporting_delay, [this] { ReportCycle(); });
    return;
  }

  if (!TryHypercall(batch.size())) {
    // Reporting hypercall failed: free the blocks back *unreported* so
    // the next cycle naturally retries them.
    for (size_t i = 0; i < batch.size(); ++i) {
      guest::Zone& zone = *zone_of[i];
      const auto err = zone.buddy->Free(config_.driver_cpu,
                                        batch[i].frame - zone.start, order);
      HA_CHECK(!err.has_value());
      cpu_.guest_ns += hv::Charge(sim_, vm_->costs().guest_free_4k_ns);
    }
    HA_COUNT("balloon.fault_rollback");
    HA_TRACE_EVENT(trace::Category::kFault, trace::Op::kRollback,
                   batch.size(), order);
    vm_->sink().OnCpuSteal(config_.driver_cpu, t0, sim_->now(), 1.0);
    sim_->After(config_.reporting_delay, [this] { ReportCycle(); });
    return;
  }
  ++hypercalls_;
  if (order == kHugeOrder) {
    hypercall_huge_pfns_ += batch.size();
  } else {
    hypercall_base_pfns_ += batch.size();
  }
  HostDiscard(batch);

  // Hand the blocks back to the allocator, remembering they are reported.
  for (size_t i = 0; i < batch.size(); ++i) {
    guest::Zone& zone = *zone_of[i];
    const FrameId local = batch[i].frame - zone.start;
    zone.buddy->MarkReported(local, order);
    const auto err = zone.buddy->Free(config_.driver_cpu, local, order);
    HA_CHECK(!err.has_value());
    cpu_.guest_ns += hv::Charge(sim_, vm_->costs().guest_free_4k_ns);
    reported_bytes_ += block_frames * kFrameSize;
  }
  vm_->sink().OnCpuSteal(config_.driver_cpu, t0, sim_->now(), 1.0);

  // Keep draining until no unreported blocks remain, yielding between
  // batches; then sleep for the configured delay.
  sim_->After(0, [this] { ReportCycle(); });
}

}  // namespace hyperalloc::balloon
