// Linux-style binary buddy page-frame allocator — the baseline guest
// allocator for the virtio-balloon and virtio-mem candidates.
//
// Faithfully modelled mechanisms that matter for the paper's results:
//  * free lists per order (0..10) and migrate type, LIFO
//  * pageblock (2 MiB) migrate typing with largest-block fallback stealing
//    and pageblock conversion — the main driver of the long-term
//    fragmentation that limits virtio-balloon's free-page reporting
//    (paper §5.5, Fig. 8)
//  * per-CPU page caches (PCP) for order-0 allocations — the reason
//    ballooned/reported frames are often re-allocated immediately (§2)
//  * targeted range claiming (alloc_contig_range) used by virtio-mem to
//    offline blocks
//  * PageReported tracking for virtio-balloon's free-page reporting
//
// State layout (DESIGN.md §2): one state byte per frame — allocated,
// free-block tail, or free-block head carrying the block's order and
// migrate type — kept apart from the two 32-bit list links, so range
// marks are memsets and range queries are byte scans; a per-2 MiB-block
// usage counter makes the huge-granular queries O(blocks).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/base/types.h"

namespace hyperalloc::buddy {

// Internal migrate types. AllocType::kHuge maps to kMovable (THP
// allocations are movable in Linux).
enum class MigrateType : uint8_t { kUnmovable = 0, kMovable = 1 };
inline constexpr unsigned kNumMigrateTypes = 2;

MigrateType ToMigrateType(AllocType type);

class Buddy {
 public:
  struct Config {
    unsigned cores = 1;
    // PCP batch size (order-0 frames cached per core and migrate type).
    unsigned pcp_batch = 32;
    bool pcp_enabled = true;
  };

  Buddy(uint64_t frames, const Config& config);

  uint64_t frames() const { return frames_; }

  // ------------------------------------------------------------------
  // Allocation API
  // ------------------------------------------------------------------

  Result<FrameId> Alloc(unsigned core, unsigned order, AllocType type);
  std::optional<AllocError> Free(unsigned core, FrameId frame,
                                 unsigned order);

  // A train: the frames, their order and the PCP state after the call
  // are exactly those of `count` Alloc calls (stopping at the first
  // failure). Appends each claimed head frame to `out` and returns how
  // many it claimed.
  unsigned AllocBatch(unsigned core, unsigned order, unsigned count,
                      AllocType type, std::vector<FrameId>* out);

  // A run of order-0 frees: exactly the effect of Free(core, f, 0) for
  // each frame in turn (PCP pushes and drains included), stopping at the
  // first invalid frame with its error.
  std::optional<AllocError> FreeRun(unsigned core,
                                    std::span<const FrameId> frames);

  // Flushes all per-CPU caches back into the buddy lists (the guest's
  // reaction to memory pressure / the hypervisor's cache purge).
  void DrainPcp();

  // ------------------------------------------------------------------
  // virtio-mem support (alloc_contig_range / free_contig_range)
  // ------------------------------------------------------------------

  // Atomically removes [start, start+count) from the free lists. Fails
  // (changing nothing) unless every frame in the range is free in the
  // buddy lists (PCP-cached frames count as allocated — drain first).
  bool ClaimRange(FrameId start, uint64_t count);

  // Returns a previously claimed (or never-released) range to the free
  // lists as maximal aligned blocks.
  void ReleaseRange(FrameId start, uint64_t count);

  // Claims every currently free frame in [start, start+count), leaving
  // allocated frames alone (page isolation before migration:
  // MIGRATE_ISOLATE). Returns the number of frames claimed.
  uint64_t ClaimFreeInRange(FrameId start, uint64_t count);

  // Frames in [start, start+count) that are currently allocated (must be
  // migrated before the range can be claimed).
  std::vector<FrameId> AllocatedInRange(FrameId start, uint64_t count) const;

  bool IsFree(FrameId frame) const;

  // ------------------------------------------------------------------
  // Free-page reporting support
  // ------------------------------------------------------------------

  // Detaches the first not-yet-reported free block of `order` (any
  // migrate type), marking it allocated. Returns its first frame.
  std::optional<FrameId> PopUnreported(unsigned order);

  // Marks a block as reported. Typically followed by Free() to return it
  // to the allocator while remembering that the host already reclaimed it.
  void MarkReported(FrameId frame, unsigned order);

  bool IsReported(FrameId frame) const;

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  uint64_t FreeFrames() const { return free_frames_ + pcp_frames_; }
  uint64_t FreeFramesInLists() const { return free_frames_; }
  // Free frames that are part of >= order-9 blocks — what huge-page-
  // granular reclamation can actually take (Fig. 8's fragmentation gap).
  uint64_t FreeHugeFrames() const;
  uint64_t FreeBlocksOfOrder(unsigned order) const;
  // Fully-free, huge-aligned 2 MiB ranges regardless of block structure
  // (PCP-cached frames count as used).
  uint64_t FreeAlignedHugeRanges() const;

  // O(num_huge) variants maintained incrementally (cheap enough for 1 Hz
  // sampling in the footprint experiments).
  uint64_t UsedFramesInBlock(HugeId huge) const {
    HA_CHECK(huge < used_in_block_.size());
    return used_in_block_[huge];
  }
  // 2 MiB blocks with at least one allocated (or PCP-cached) frame —
  // the "(partially) used huge pages" curve of Fig. 8.
  uint64_t UsedHugeBlocks() const;

  // Called with a 2 MiB block's index whenever its used-frame count
  // drops to zero, wherever that happens: a free, a PCP drain, a range
  // release. The guest's auxiliary A bit follows it.
  void SetOnBlockEmpty(std::function<void(HugeId)> hook) {
    on_block_empty_ = std::move(hook);
  }

  // Verifies list/descriptor consistency. Quiescent use only.
  bool Validate() const;

 private:
  friend class BuddyTestPeer;

  // Per-frame state byte: kAllocated (in use or PCP-cached), kFreeTail
  // (interior of a free block), or a free block's head: kFreeHead | the
  // migrate type of the list it is on << 4 | its order.
  static constexpr uint8_t kAllocated = 0;
  static constexpr uint8_t kFreeTail = 1;
  static constexpr uint8_t kFreeHead = 0x80;
  static constexpr uint8_t HeadState(unsigned order, MigrateType type) {
    return static_cast<uint8_t>(kFreeHead |
                                (static_cast<unsigned>(type) << 4) | order);
  }
  static constexpr bool IsHead(uint8_t state) {
    return (state & kFreeHead) != 0;
  }
  static constexpr unsigned HeadOrder(uint8_t state) { return state & 0x0f; }
  static constexpr MigrateType HeadType(uint8_t state) {
    return static_cast<MigrateType>((state >> 4) & 1);
  }

  // Free-list links, valid for free heads only: ListPush writes both
  // before anything reads them, so the array starts uninitialised (its
  // pages are only faulted in where blocks are split).
  struct PageDesc {
    uint32_t prev;
    uint32_t next;
  };

  static constexpr uint32_t kNil = 0xffffffffu;

  struct Pcp {
    std::array<std::vector<uint32_t>, kNumMigrateTypes> lists;
  };

  MigrateType PageblockType(FrameId frame) const {
    return pageblock_type_[FrameToHuge(frame)];
  }

  // Links `frame` onto the (order, type) list and writes its head state.
  void ListPush(unsigned order, MigrateType type, uint32_t frame);
  void ListRemove(unsigned order, MigrateType type, uint32_t frame);
  uint32_t ListPop(unsigned order, MigrateType type);

  // Marks the free frames [frame, frame + 2^order) allocated: one memset
  // and one usage-counter update per 2 MiB block.
  void MarkAllocated(uint32_t frame, unsigned order);
  // Adds (or, `allocated` false, removes) 2^order frames from the usage
  // counters of the blocks [frame, frame + 2^order) covers.
  void CountUsed(uint32_t frame, unsigned order, bool allocated);

  // First frame in [first, end) whose state is allocated (or, with
  // `allocated` false, free); `end` if none. Scans eight bytes a step.
  FrameId FindState(FrameId first, FrameId end, bool allocated) const;
  bool AllAllocated(FrameId first, uint64_t count) const {
    return FindState(first, first + count, false) == first + count;
  }

  // Core buddy paths (no PCP).
  std::optional<FrameId> AllocCore(unsigned order, MigrateType type);
  void FreeCore(FrameId frame, unsigned order);
  // Tops up an empty per-CPU list with up to pcp_batch order-0 frames.
  void RefillPcp(std::vector<uint32_t>& cache, MigrateType type);
  // Pushes the allocated order-0 `frame` onto its pageblock type's list
  // of `pcp`, draining pcp_batch frames from the hot end when the list
  // exceeds twice that.
  void PcpFree(Pcp& pcp, uint32_t frame);

  // Splits the detached free block `frame` of `from_order` down to
  // `to_order`, pushing the upper halves onto `type` lists; the caller
  // then marks the remaining base block allocated.
  void SplitTo(uint32_t frame, unsigned from_order, unsigned to_order,
               MigrateType type);

  // Fallback: steal the largest block from the other migrate type,
  // converting its pageblocks when large enough (Linux's
  // steal_suitable_fallback).
  std::optional<FrameId> StealFallback(unsigned order, MigrateType type);

  // Finds the free block covering `frame`, if any.
  std::optional<uint32_t> FindCoveringHead(FrameId frame) const;

  // Sets (or clears) the reported bits of [frame, frame + 2^order).
  void SetReported(FrameId frame, unsigned order, bool reported);
  void ClearReported(FrameId frame, unsigned order) {
    SetReported(frame, order, false);
  }

  uint64_t frames_;
  Config config_;
  std::vector<uint8_t> state_;  // one state byte per frame
  std::unique_ptr<PageDesc[]> desc_;
  std::vector<MigrateType> pageblock_type_;
  std::array<std::array<uint32_t, kNumMigrateTypes>, kMaxBuddyOrder + 1>
      heads_;
  std::vector<Pcp> pcp_;
  std::vector<uint64_t> reported_;  // bitset, one bit per frame
  std::vector<uint16_t> used_in_block_;  // allocated frames per 2 MiB block
  std::function<void(HugeId)> on_block_empty_;
  uint64_t free_frames_ = 0;        // frames in buddy lists
  uint64_t pcp_frames_ = 0;         // frames in PCP caches
};

}  // namespace hyperalloc::buddy
