#include "src/core/guest_state.h"

#include "src/base/check.h"
#include "src/hv/aux_state.h"
#include "src/hv/cost_model.h"
#include "src/llfree/llfree.h"

namespace hyperalloc::core {
namespace {

class LLFreeBridge final : public GuestStateBridge {
 public:
  LLFreeBridge(guest::GuestVm* vm, guest::Zone* zone, hv::CpuAccounting* cpu)
      : GuestStateBridge(trace::Layer::kLLFree, "llfree.reclaim_huge",
                         "llfree.mark_returned"),
        vm_(vm), zone_(zone), cpu_(cpu),
        // The monitor's clone of the guest allocator over the shared state
        // (paper §4.2 "Locating the Allocator State").
        llfree_(zone->llfree_state.get()) {}

  void SetInstallHandler(std::function<void(HugeId)> install) override {
    zone_->llfree->SetInstallHandler(std::move(install));
  }
  void SetEvicted(HugeId huge) override { llfree_.SetEvicted(huge); }
  void ClearEvicted(HugeId huge) override { llfree_.ClearEvicted(huge); }
  bool TrySoftReclaim(HugeId huge) override {
    return llfree_.TrySoftReclaim(huge);
  }

  void HardReclaim(HugeId* hint, uint64_t max, bool allow_reserved,
                   std::vector<HugeId>* out) override {
    for (uint64_t n = 0; n < max; ++n) {
      const std::optional<HugeId> huge =
          llfree_.ReclaimHuge(*hint, /*hard=*/true, allow_reserved);
      if (!huge.has_value()) {
        return;  // zone exhausted
      }
      *hint = (*huge + 1) % llfree_.num_areas();
      cpu_->host_user_ns +=
          hv::ChargeTraced(vm_->simulation(), "monitor.reclaim_ns",
                           vm_->costs().ha_reclaim_state_2m_ns);
      out->push_back(*huge);
    }
  }

  void Return(HugeId huge) override { HA_CHECK(llfree_.MarkReturned(huge)); }
  bool Claim(HugeId huge, bool allow_reserved) override {
    return llfree_.TryHardReclaim(huge, allow_reserved);
  }
  // The area index: one 16-bit entry per huge frame.
  uint64_t IndexBytes() const override { return llfree_.num_areas() * 2; }
  void AgeHotness(HugeId huge) override { llfree_.AgeHotness(huge); }

 private:
  guest::GuestVm* vm_;
  guest::Zone* zone_;
  hv::CpuAccounting* cpu_;
  llfree::LLFree llfree_;
};

class AuxBridge final : public GuestStateBridge {
 public:
  AuxBridge(guest::GuestVm* vm, hv::CpuAccounting* cpu)
      : GuestStateBridge(trace::Layer::kGuest, "guest.reclaim_huge",
                         "guest.return_huge"),
        vm_(vm), cpu_(cpu), aux_(HugesForFrames(vm->total_frames())) {}

  void SetInstallHandler(std::function<void(HugeId)> install) override {
    vm_->AttachAuxBridge(
        &aux_, [this, install = std::move(install)](HugeId huge) {
          if (in_hard_reclaim_) {
            // The monitor itself is taking the frame out of the guest:
            // no backing memory is needed.
            aux_.ClearEvicted(huge);
            return;
          }
          install(huge);
        });
  }
  void SetEvicted(HugeId huge) override { aux_.SetEvicted(huge); }
  void ClearEvicted(HugeId huge) override { aux_.ClearEvicted(huge); }
  // One CAS checks A and sets E atomically: a racing guest allocation
  // either loses (and installs) or wins (and the frame is skipped).
  bool TrySoftReclaim(HugeId huge) override { return aux_.TryReclaim(huge); }

  // Guest-mediated, balloon-style: without write access to the private
  // buddy state the monitor allocates the frames through the guest and
  // reports the batch to the host with one hypercall.
  void HardReclaim(HugeId* /*hint*/, uint64_t max, bool /*allow_reserved*/,
                   std::vector<HugeId>* out) override {
    const hv::CostModel& costs = vm_->costs();
    uint64_t taken = 0;
    in_hard_reclaim_ = true;
    for (; taken < max; ++taken) {
      const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kMovable,
                                           0, /*allow_oom_notify=*/false);
      if (!r.ok()) {
        break;  // nothing left to take at huge granularity
      }
      cpu_->guest_ns += hv::ChargeTraced(
          vm_->simulation(), "guest.reclaim_alloc_ns",
          costs.guest_alloc_2m_ns + costs.virtqueue_element_ns);
      aux_.SetEvicted(FrameToHuge(*r));  // E mirrors !M (Fig. 2)
      out->push_back(FrameToHuge(*r));
    }
    in_hard_reclaim_ = false;
    if (taken > 0) {
      cpu_->host_user_ns += hv::ChargeTraced(
          vm_->simulation(), "monitor.hypercall_ns", costs.hypercall_ns);
    }
  }

  void Return(HugeId huge) override {
    aux_.SetEvicted(huge);
    cpu_->guest_ns += hv::ChargeTraced(vm_->simulation(),
                                       "guest.return_free_ns",
                                       vm_->costs().guest_free_2m_ns);
    vm_->Free(HugeToFrame(huge), kHugeOrder, 0);
  }

  // The call virtio-mem uses to take a free range out of the buddy lists.
  bool Claim(HugeId huge, bool /*allow_reserved*/) override {
    guest::Zone& zone = vm_->ZoneOf(HugeToFrame(huge));
    if (!zone.buddy->ClaimRange(HugeToFrame(huge) - zone.start,
                                kFramesPerHuge)) {
      return false;
    }
    aux_.SetAllocated(huge);
    return true;
  }
  uint64_t IndexBytes() const override { return aux_.ByteSize(); }

 private:
  guest::GuestVm* vm_;
  hv::CpuAccounting* cpu_;
  hv::AuxState aux_;
  bool in_hard_reclaim_ = false;
};

}  // namespace

std::unique_ptr<GuestStateBridge> MakeLLFreeBridge(guest::GuestVm* vm,
                                                   guest::Zone* zone,
                                                   hv::CpuAccounting* cpu) {
  HA_CHECK(zone->llfree_state != nullptr);
  return std::make_unique<LLFreeBridge>(vm, zone, cpu);
}

std::unique_ptr<GuestStateBridge> MakeAuxBridge(guest::GuestVm* vm,
                                                hv::CpuAccounting* cpu) {
  return std::make_unique<AuxBridge>(vm, cpu);
}

}  // namespace hyperalloc::core
