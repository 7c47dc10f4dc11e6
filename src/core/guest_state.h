// The guest-state bridge: the narrow surface through which the HyperAlloc
// monitor reads and writes the per-huge-frame (A, E) state it shares with
// a guest (paper §3.2 and §6 "Concept Generalization").
//
// Exactly two implementations exist, one per guest allocator:
//  * LLFree — the guest's own allocator state is shared. One bridge per
//    zone works on a monitor-side LLFree clone over the zone's area index;
//    every transition is a lock-free CAS.
//  * Aux    — a buddy guest keeps its allocator private and mirrors (A, E)
//    into an auxiliary bitmap (hv::AuxState). One bridge covers the whole
//    VM. Soft reclaim is still one CAS, but the monitor cannot mark frames
//    allocated in private buddy state, so hard reclaim allocates frames
//    *through* the guest (the balloon technique) and return frees them.
//
// The bridge hides the format of the shared state and the hard-reclaim
// algorithm; the state machine (R array, install, batched unmap, fault
// recovery, spans) lives once, in HyperAllocMonitor. Huge ids passed to
// and from a bridge are local to it (0 = the bridge's first frame).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/types.h"
#include "src/guest/guest_vm.h"
#include "src/hv/deflator.h"
#include "src/trace/span.h"

namespace hyperalloc::core {

class GuestStateBridge {
 public:
  // The guest's install handler holds the bridge's address.
  GuestStateBridge(const GuestStateBridge&) = delete;
  GuestStateBridge& operator=(const GuestStateBridge&) = delete;
  virtual ~GuestStateBridge() = default;

  // Routes the guest's blocking install hypercall for an evicted frame to
  // `install`.
  virtual void SetInstallHandler(std::function<void(HugeId)> install) = 0;

  // The hypervisor's evicted hint E.
  virtual void SetEvicted(HugeId huge) = 0;
  virtual void ClearEvicted(HugeId huge) = 0;

  // Soft reclaim: one CAS that sets E on a free, not yet evicted frame.
  // False if the guest holds the frame (or just took it).
  virtual bool TrySoftReclaim(HugeId huge) = 0;

  // Hard reclaim: takes up to `max` frames out of the guest, searching
  // from `*hint` (which advances past each frame taken), and appends
  // their ids to `out`. `allow_reserved` lets LLFree raid trees reserved
  // by guest cores. Charges its own virtual time.
  virtual void HardReclaim(HugeId* hint, uint64_t max, bool allow_reserved,
                           std::vector<HugeId>* out) = 0;

  // Hands a hard-reclaimed frame back to the guest. E stays set, so the
  // guest's next use installs it.
  virtual void Return(HugeId huge) = 0;

  // Claims a free frame for good (A <- 1) so the guest can never allocate
  // it: quarantine, and LLFree's boot-time limit. Charges nothing.
  virtual bool Claim(HugeId huge, bool allow_reserved) = 0;

  // Bytes of the shared index one auto-reclamation scan reads.
  virtual uint64_t IndexBytes() const = 0;

  // Ages the guest's §6 hotness hint during a scan (LLFree only).
  virtual void AgeHotness(HugeId) {}

  // Trace layer and span names of the bridge's reclaim/return work.
  const trace::Layer layer;
  const char* const reclaim_span;
  const char* const return_span;

 protected:
  GuestStateBridge(trace::Layer span_layer, const char* reclaim_name,
                   const char* return_name)
      : layer(span_layer), reclaim_span(reclaim_name),
        return_span(return_name) {}
};

// Bridge over one LLFree zone's shared area index.
std::unique_ptr<GuestStateBridge> MakeLLFreeBridge(guest::GuestVm* vm,
                                                   guest::Zone* zone,
                                                   hv::CpuAccounting* cpu);

// Bridge over a buddy guest's auxiliary (A, E) bitmap, covering the VM.
std::unique_ptr<GuestStateBridge> MakeAuxBridge(guest::GuestVm* vm,
                                                hv::CpuAccounting* cpu);

}  // namespace hyperalloc::core
