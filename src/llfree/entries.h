// Packed index entries of the LLFree allocator (paper §4.1–4.2, Fig. 3).
//
// Area entry (16-bit, one per 2 MiB huge frame):
//   bits 0–9   free-frame counter (0..512)
//   bit  10    A: huge frame allocated (also set by HyperAlloc hard reclaim)
//   bit  11    E: evicted hint (HyperAlloc extension; synchronized ¬M copy)
//   bits 12–13 H: hotness hint (0 cold .. 3 hot) — §6 "with the six
//              remaining area-entry bits, the guest could expose even
//              more useful information about data-filled frames (e.g.,
//              hotness)". The guest raises it on access; the host ages
//              and consults it (e.g. for swap victim selection).
//   bits 14–15 spare
//
// Tree entry (32-bit, one per tree of `areas_per_tree` areas):
//   bits 0–15  free-frame counter
//   bit  16    reserved flag (a core/type currently owns this tree)
//   bits 17–18 allocation type (HyperAlloc's per-type reservation policy)
//
// Both entry kinds live in densely packed atomic arrays so that the
// hypervisor can locate any entry with offset arithmetic alone and induce
// guest state transitions with a single CAS (paper §4.2 "State Mapping").
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "src/base/atomic.h"
#include "src/base/check.h"
#include "src/base/types.h"

namespace hyperalloc::llfree {

struct AreaEntry {
  uint16_t free = 0;    // 0..512
  bool allocated = false;  // A
  bool evicted = false;    // E
  uint8_t hotness = 0;     // H: 0 cold .. 3 hot

  static constexpr uint16_t kFreeMask = 0x3ff;  // 10 bits
  static constexpr uint16_t kAllocatedBit = 1u << 10;
  static constexpr uint16_t kEvictedBit = 1u << 11;
  static constexpr unsigned kHotShift = 12;
  static constexpr uint16_t kHotMask = 0x3u << kHotShift;
  static constexpr uint8_t kMaxHotness = 3;

  static AreaEntry Unpack(uint16_t raw) {
    AreaEntry e;
    e.free = raw & kFreeMask;
    e.allocated = (raw & kAllocatedBit) != 0;
    e.evicted = (raw & kEvictedBit) != 0;
    e.hotness = static_cast<uint8_t>((raw & kHotMask) >> kHotShift);
    return e;
  }

  uint16_t Pack() const {
    HA_DCHECK(free <= kFramesPerHuge);
    HA_DCHECK(hotness <= kMaxHotness);
    return static_cast<uint16_t>(free) |
           (allocated ? kAllocatedBit : 0) | (evicted ? kEvictedBit : 0) |
           static_cast<uint16_t>(hotness << kHotShift);
  }

  // A huge frame is reclaimable/allocatable-as-huge iff it is entirely
  // free and not already taken as a huge frame.
  bool IsFreeHuge() const { return free == kFramesPerHuge && !allocated; }

  bool operator==(const AreaEntry&) const = default;
};

struct TreeEntry {
  uint32_t free = 0;
  bool reserved = false;
  AllocType type = AllocType::kUnmovable;

  static constexpr uint32_t kFreeMask = 0xffff;
  static constexpr uint32_t kReservedBit = 1u << 16;
  static constexpr uint32_t kTypeShift = 17;
  static constexpr uint32_t kTypeMask = 0x3u << kTypeShift;

  static TreeEntry Unpack(uint32_t raw) {
    TreeEntry e;
    e.free = raw & kFreeMask;
    e.reserved = (raw & kReservedBit) != 0;
    e.type = static_cast<AllocType>((raw & kTypeMask) >> kTypeShift);
    return e;
  }

  uint32_t Pack() const {
    HA_DCHECK(free <= kFreeMask);
    return free | (reserved ? kReservedBit : 0) |
           (static_cast<uint32_t>(type) << kTypeShift);
  }

  bool operator==(const TreeEntry&) const = default;
};

// The per-slot reservation: which tree a core (original LLFree) or an
// allocation type (HyperAlloc variant) has currently reserved, plus the
// "stolen" local free counter. Packed into one 64-bit word so reserve /
// allocate / drop are single CAS transitions.
struct Reservation {
  bool active = false;
  uint32_t tree = 0;     // tree index
  uint16_t free = 0;     // local free-frame counter stolen from the tree

  static constexpr uint64_t kActiveBit = 1ull << 63;

  static Reservation Unpack(uint64_t raw) {
    Reservation r;
    r.active = (raw & kActiveBit) != 0;
    r.tree = static_cast<uint32_t>(raw >> 16) & 0xffffffffu;
    r.free = static_cast<uint16_t>(raw & 0xffff);
    return r;
  }

  uint64_t Pack() const {
    return (active ? kActiveBit : 0) | (static_cast<uint64_t>(tree) << 16) |
           free;
  }

  bool operator==(const Reservation&) const = default;
};

// The dry-zone memo (DESIGN.md §4.1): what the last fallback probe
// learned about the whole allocator. dry(need) promises that no tree or
// reservation counter holds `need` frames, so an allocation of at least
// `need` frames may fail without scanning the tree index. The
// generation changes on every probe announcement, so a probe that was
// cleared and then overtaken by another probe of the same size cannot
// complete the newer one.
//   bits 0–1   state: idle, probing(need) or dry(need)
//   bits 2–11  need (frames, 1..512)
//   bits 12–31 probe generation (wraps)
struct DryMemo {
  enum class Kind : uint32_t { kIdle = 0, kProbing = 1, kDry = 2 };

  Kind kind = Kind::kIdle;
  uint32_t need = 0;
  uint32_t gen = 0;

  static constexpr uint32_t kNeedShift = 2;
  static constexpr uint32_t kNeedMask = 0x3ff;
  static constexpr uint32_t kGenShift = 12;
  static constexpr uint32_t kGenMask = 0xfffff;

  static DryMemo Unpack(uint32_t raw) {
    DryMemo m;
    m.kind = static_cast<Kind>(raw & 0x3);
    m.need = (raw >> kNeedShift) & kNeedMask;
    m.gen = (raw >> kGenShift) & kGenMask;
    return m;
  }

  uint32_t Pack() const {
    HA_DCHECK(need <= kNeedMask);
    return static_cast<uint32_t>(kind) | (need << kNeedShift) |
           ((gen & kGenMask) << kGenShift);
  }

  // True when an allocation of `n` frames is known to fail.
  bool Covers(unsigned n) const { return kind == Kind::kDry && n >= need; }

  bool operator==(const DryMemo&) const = default;
};

// Lock-free read-modify-write: repeatedly applies `f` to the current
// value; `f` returns std::nullopt to abort (value no longer eligible).
// Returns the value that was successfully replaced, or nullopt.
template <typename Raw, typename F>
std::optional<Raw> AtomicUpdate(Atomic<Raw>& atom, F&& f) {
  Raw current = atom.load(std::memory_order_acquire);
  for (;;) {
    std::optional<Raw> next = f(current);
    if (!next.has_value()) {
      return std::nullopt;
    }
    if (atom.compare_exchange_weak(current, *next,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return current;
    }
  }
}

}  // namespace hyperalloc::llfree
