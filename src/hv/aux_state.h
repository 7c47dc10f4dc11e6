// Auxiliary hypervisor-shared state for non-LLFree guests (paper §6
// "Concept Generalization"):
//
//   "Nevertheless, if host and guest agree on an auxiliary memory-mapped
//    interface to exchange A and E, HyperAlloc is applicable."
//
// The guest's own allocator (e.g. the buddy allocator) keeps its
// pointer-linked internals private; alongside it, the guest maintains this
// densely packed per-huge-frame array of (A, E) pairs that the monitor
// maps and CASes exactly like LLFree's area index. A is updated by the
// guest on every allocation/free that changes a huge frame's occupancy;
// E is the hypervisor's evicted hint, and the guest must call install
// before using an evicted frame.
//
// Layout: 2 bits per huge frame packed in atomic 64-bit words
// (bit 0: A, bit 1: E) — offset-addressable, lock-free, no pointers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/base/check.h"
#include "src/base/types.h"

namespace hyperalloc::hv {

class AuxState {
 public:
  explicit AuxState(uint64_t num_huge)
      : num_huge_(num_huge),
        words_(std::make_unique<std::atomic<uint64_t>[]>(
            (num_huge * 2 + 63) / 64)) {
    for (uint64_t i = 0; i < (num_huge * 2 + 63) / 64; ++i) {
      words_[i].store(0, std::memory_order_relaxed);
    }
  }

  uint64_t size() const { return num_huge_; }
  uint64_t ByteSize() const { return ((num_huge_ * 2 + 63) / 64) * 8; }

  bool Allocated(HugeId huge) const { return Bit(huge, kABit); }
  bool Evicted(HugeId huge) const { return Bit(huge, kEBit); }

  // Guest side: occupancy transitions (idempotent).
  void SetAllocated(HugeId huge) { SetBit(huge, kABit); }
  void ClearAllocated(HugeId huge) { ClearBit(huge, kABit); }

  // Hypervisor side: the evicted hint.
  void SetEvicted(HugeId huge) { SetBit(huge, kEBit); }
  void ClearEvicted(HugeId huge) { ClearBit(huge, kEBit); }

  // Monitor soft-reclaim transition: atomically sets E on a frame that is
  // free and not yet evicted. Returns false if the frame was allocated (or
  // already evicted) at CAS time.
  bool TryReclaim(HugeId huge) {
    std::atomic<uint64_t>& word = words_[huge / 32];
    const unsigned shift = (huge % 32) * 2;
    uint64_t current = word.load(std::memory_order_acquire);
    for (;;) {
      const uint64_t bits = (current >> shift) & 0x3;
      if ((bits & kABit) != 0 || (bits & kEBit) != 0) {
        return false;  // allocated or already evicted
      }
      const uint64_t desired =
          current | (static_cast<uint64_t>(kEBit) << shift);
      if (word.compare_exchange_weak(current, desired,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return true;
      }
    }
  }

 private:
  static constexpr uint64_t kABit = 0x1;
  static constexpr uint64_t kEBit = 0x2;

  bool Bit(HugeId huge, uint64_t mask) const {
    HA_DCHECK(huge < num_huge_);
    return (words_[huge / 32].load(std::memory_order_acquire) >>
            ((huge % 32) * 2)) &
           mask;
  }

  void SetBit(HugeId huge, uint64_t mask) {
    HA_DCHECK(huge < num_huge_);
    words_[huge / 32].fetch_or(mask << ((huge % 32) * 2),
                               std::memory_order_acq_rel);
  }

  void ClearBit(HugeId huge, uint64_t mask) {
    HA_DCHECK(huge < num_huge_);
    words_[huge / 32].fetch_and(~(mask << ((huge % 32) * 2)),
                                std::memory_order_acq_rel);
  }

  uint64_t num_huge_;
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
};

}  // namespace hyperalloc::hv
