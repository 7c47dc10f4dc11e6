// LLFree — a lock-free, pointer-free page-frame allocator (Wrenger et al.,
// USENIX ATC '23), extended with HyperAlloc's bilateral operations
// (paper §3–4): evicted hints, per-type tree reservations, and host-side
// reclaim / return / install transitions.
//
// The allocator state (bit field, area index, tree index) lives in a
// SharedState object that contains only densely packed atomic arrays —
// no pointers — so that a hypervisor view (a second LLFree object over the
// same SharedState) can locate and modify any entry via offset arithmetic,
// exactly as the QEMU monitor maps the guest's allocator state in the
// paper ("Locating the Allocator State", §4.2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/base/atomic.h"
#include "src/base/result.h"
#include "src/base/shared.h"
#include "src/base/types.h"
#include "src/llfree/bitfield.h"
#include "src/llfree/entries.h"

namespace hyperalloc::llfree {

struct Config {
  enum class ReservationMode {
    kPerCore,  // original LLFree: one reserved tree per core
    kPerType,  // HyperAlloc variant (§4.2): one global reservation per
               // allocation type (unmovable / movable / huge)
  };

  ReservationMode mode = ReservationMode::kPerType;
  // Number of reservation slots in per-core mode.
  unsigned cores = 1;
  // Areas per tree: 8 (16 MiB) for the HyperAlloc variant, 32 (64 MiB)
  // for the original LLFree.
  unsigned areas_per_tree = 8;
  // HyperAlloc allocation policy: prefer frames that are still backed by
  // host memory over evicted ones.
  bool prefer_non_evicted = true;

  unsigned NumSlots() const {
    return mode == ReservationMode::kPerCore ? cores : kNumAllocTypes;
  }
};

// The shareable allocator state. In the real system this is guest memory
// communicated to QEMU via virtio at boot; here it is a heap object that
// both the guest-side and the monitor-side LLFree views reference.
class SharedState {
 public:
  // `frames` must be a multiple of 512 (whole huge frames).
  SharedState(uint64_t frames, const Config& config);

  SharedState(const SharedState&) = delete;
  SharedState& operator=(const SharedState&) = delete;

  uint64_t frames() const { return frames_; }
  uint64_t num_areas() const { return num_areas_; }
  uint64_t num_trees() const { return num_trees_; }
  const Config& config() const { return config_.read(); }

  // Raw state arrays. The auto-reclamation scan (src/core) reads the area
  // array directly to count touched cache lines (paper §3.3); the
  // invariant oracle (src/check) uses the const views.
  Atomic<uint16_t>* areas() { return areas_.get(); }
  Atomic<uint32_t>* trees() { return trees_.get(); }
  Atomic<uint64_t>* bitfield() { return bitfield_.get(); }
  Atomic<uint64_t>* reservations() { return reservations_.get(); }
  const Atomic<uint16_t>* areas() const { return areas_.get(); }
  const Atomic<uint32_t>* trees() const { return trees_.get(); }
  const Atomic<uint64_t>* bitfield() const { return bitfield_.get(); }
  const Atomic<uint64_t>* reservations() const { return reservations_.get(); }
  // Per-slot tree search hints. Values may legitimately exceed num_trees()
  // when a view over a *larger* previous state wrote them (tree-count
  // shrink); every reader clamps with % num_trees() and every store
  // re-clamps, so stale hints only bias the search start.
  Atomic<uint64_t>* tree_hints() { return tree_hints_.get(); }

  // Size in bytes of the hypervisor-shared portion (bit field + indexes),
  // for the scan-cost analysis. The dry-zone memo is not counted: the
  // monitor never scans it.
  uint64_t SharedBytes() const;

 private:
  friend class LLFree;

  uint64_t frames_;
  uint64_t num_areas_;
  uint64_t num_trees_;
  // Written once at construction, read by every view from every thread:
  // the immutable-after-publication discipline the model checker
  // verifies (setup writes happen-before all model threads).
  Shared<Config> config_;

  std::unique_ptr<Atomic<uint64_t>[]> bitfield_;
  std::unique_ptr<Atomic<uint16_t>[]> areas_;
  std::unique_ptr<Atomic<uint32_t>[]> trees_;
  std::unique_ptr<Atomic<uint64_t>[]> reservations_;
  // Per-slot search hints (not part of the shared protocol state).
  std::unique_ptr<Atomic<uint64_t>[]> tree_hints_;
  // Packed DryMemo (DESIGN.md §4.1). Here, not in a view, because every
  // view's credits must clear it: the monitor's MarkReturned wakes the
  // guest's allocations. Not padded to a cache line of its own: it is
  // written only while a zone runs dry, and next to the array pointers
  // that every operation loads it costs no extra miss per credit.
  Atomic<uint32_t> dry_memo_;
};

// A view over a SharedState. Guest and monitor each construct their own
// LLFree over the same state; all operations are lock-free atomic
// transactions on the shared arrays.
class LLFree {
 public:
  // Invoked when the guest allocates frames inside an evicted huge frame.
  // The handler must make the frame host-backed and is expected to clear
  // the evicted hint (monitor install path, §3.2 "Return and Install").
  // The allocation blocks until the handler returns (DMA safety).
  using InstallHandler = std::function<void(HugeId)>;

  explicit LLFree(SharedState* state);

  LLFree(const LLFree&) = delete;
  LLFree& operator=(const LLFree&) = delete;

  const SharedState& state() const { return *state_; }
  const Config& config() const { return state_->config(); }
  uint64_t frames() const { return state_->frames(); }
  uint64_t num_areas() const { return state_->num_areas(); }
  uint64_t num_trees() const { return state_->num_trees(); }

  void SetInstallHandler(InstallHandler handler) {
    install_handler_.write() = std::move(handler);
  }

  // ------------------------------------------------------------------
  // Guest-side API
  // ------------------------------------------------------------------

  // Allocates 2^order naturally aligned base frames. Supported orders:
  // 0..6 (single bit-field word), 7..8 (whole-word runs), and 9 (huge
  // frame via the area entry's allocated flag). Returns the first frame
  // of the run.
  Result<FrameId> Get(unsigned core, unsigned order, AllocType type);

  // Frees a previous allocation. Returns kInvalid on double free or
  // out-of-range frames.
  std::optional<AllocError> Put(FrameId frame, unsigned order);

  // Batched allocation (DESIGN.md §4.10): claims up to `count` runs of
  // 2^order frames for `core`, appending the first frame of each run to
  // `out`. For orders 0..6 the claim runs word-at-a-time inside the
  // slot's reserved tree — one CAS on the reservation takes the whole
  // batch's worth of frames and one CAS per bit-field word claims every
  // run that word holds — so a 64-frame order-0 batch costs a handful of
  // atomics instead of 64 full Get transactions. Order 9 has its own
  // native batch (§4.14): one reservation CAS covers several huge frames
  // and each tree visit claims every free area it holds. The remaining
  // multi-word orders (7..8) fall back to a Get loop. Returns the number
  // of runs claimed; fewer than `count` means the allocator ran dry (the
  // pressure fallback is still exercised for the tail, so a batch is
  // exactly equivalent to `count` single Gets).
  unsigned GetBatch(unsigned core, unsigned order, unsigned count,
                    AllocType type, std::vector<FrameId>* out);

  // Batched free of uniform-order runs: frames sharing a bit-field word
  // are cleared with a single CAS and credited to the area and tree
  // counters once per group. Invalid or double-freed entries are skipped
  // (the rest of the batch still frees; a group whose one-CAS clear
  // fails falls back to per-run Put to isolate the bad entry). Returns
  // the number of runs actually freed.
  unsigned PutBatch(std::span<const FrameId> frames, unsigned order);

  // Returns reserved (cached) frames to the global tree counters —
  // the guest's reaction to the hypervisor's "cache purge" request when
  // shrinking the hard limit (§3.3).
  void DrainReservations();

  // Compaction isolation (DESIGN.md §4.14): claims every currently free
  // base frame of one area into the caller's ownership, appending each
  // frame to `out`. Debits the tree counter (raiding reservations parked
  // over the tree, like hard reclaim) BEFORE touching the area, so a
  // concurrent guest allocation can never be promised these frames.
  // The claimed frames are never written by the caller (they are the
  // holes the straggler migration fills around), so no install triggers.
  // Returns the number of frames claimed; with no concurrent mutators a
  // single call empties the area's free space.
  unsigned ClaimFreeInArea(HugeId area, std::vector<FrameId>* out);

  // Fragmentation score (§4.14): the fraction of free memory NOT
  // recoverable as whole huge frames, in [0, 1]. 0 = every free frame
  // sits in a fully free area (perfectly defragmented); 1 = free memory
  // exists but no area is whole. The compaction daemon triggers on this.
  double FragmentationScore() const;

  // ------------------------------------------------------------------
  // Bilateral (hypervisor-side) API — §3.2 state transitions
  // ------------------------------------------------------------------

  // Finds the next fully free, non-evicted huge frame at or after
  // `start_hint` (wrapping) and atomically transitions it:
  //   hard:  (A<-1, E<-1)  frame removed from the guest's usable memory
  //   soft:  (A=0,  E<-1)  frame stays allocatable but needs install
  // Skips areas whose tree is currently reserved by the guest, unless
  // `allow_reserved`. Returns the reclaimed huge frame.
  std::optional<HugeId> ReclaimHuge(HugeId start_hint, bool hard,
                                    bool allow_reserved = false);

  // Targeted variants for the monitor's own scan loops. Both require the
  // area to currently be a free, non-evicted huge frame; they return
  // false (changing nothing) otherwise.
  bool TrySoftReclaim(HugeId huge);
  bool TryHardReclaim(HugeId huge, bool allow_reserved = false);

  // Hard-reclaimed -> soft-reclaimed (host "return" operation): clears A,
  // keeps E, and re-credits the tree counter.
  bool MarkReturned(HugeId huge);

  // Clears the evicted hint after the host installed backing memory.
  bool ClearEvicted(HugeId huge);

  // Sets the evicted hint (soft reclaim of an already-free frame whose
  // area entry the caller has already validated; also used in tests).
  bool SetEvicted(HugeId huge);

  // ------------------------------------------------------------------
  // Hotness hints (§6) — guest-side access marking and host-side aging
  // ------------------------------------------------------------------

  // Guest: marks the huge frame as recently accessed (H <- max).
  void MarkHot(HugeId huge);
  // Host: decays one hotness level (a periodic aging pass). Returns the
  // hotness *before* aging.
  uint8_t AgeHotness(HugeId huge);
  uint8_t HotnessOf(HugeId huge) const { return ReadArea(huge).hotness; }

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  AreaEntry ReadArea(HugeId huge) const;
  TreeEntry ReadTree(uint64_t tree) const;
  Reservation ReadReservation(unsigned slot) const;
  DryMemo ReadDryMemo() const;

  // Exact counts (iterate the area index).
  uint64_t FreeFrames() const;
  uint64_t AllocatedFrames() const { return frames() - FreeFrames(); }
  // Fully free huge frames; `include_evicted` selects whether evicted
  // (soft-reclaimed) ones count.
  uint64_t FreeHugeFrames(bool include_evicted = true) const;
  // Areas that are (partially) used — the "huge" curve of Fig. 8.
  uint64_t UsedHugeAreas() const;
  uint64_t EvictedAreas() const;

  // Frames per tree (the last tree may be shorter).
  uint64_t TreeCapacity(uint64_t tree) const;

  // Validates cross-level counter/bit-field consistency, and that a dry
  // memo holds (no counter reaches its need). Only meaningful at
  // quiescence (no concurrent operations). Returns false and prints the
  // first violation to stderr if inconsistent.
  bool Validate() const;

  // Crash recovery (LLFree is designed to be optionally persistent): the
  // bit field and the huge-allocated flags are the authoritative state;
  // free counters and tree entries are caches that this rebuilds after a
  // crash or corruption. Reservations are cleared, reserved flags
  // dropped, evicted hints and tree types preserved, the dry-zone memo
  // reset to idle. Returns the number of repaired index entries.
  // Quiescent use only.
  uint64_t Recover();

 private:
  static constexpr unsigned kMaxReserveAttempts = 16;

  unsigned SlotFor(unsigned core, AllocType type) const;
  AreaBits BitsOf(uint64_t area) const;
  uint64_t TreeOf(uint64_t area) const {
    return area / config().areas_per_tree;
  }
  uint64_t FirstAreaOf(uint64_t tree) const {
    return tree * config().areas_per_tree;
  }
  uint64_t AreasInTree(uint64_t tree) const;

  // Takes between 1 and `max_runs` runs of 2^order frames (as many as
  // the slot's local counter covers) and writes the count taken to
  // `*taken_runs`, re-stealing from the reserved tree's global counter
  // when the local counter runs dry. Returns the reserved tree index on
  // success.
  std::optional<uint64_t> TakeFromReservation(unsigned slot, unsigned order,
                                              unsigned max_runs,
                                              unsigned* taken_runs);

  // Returns `need` frames: to the slot's reservation if it still points
  // at `tree`, otherwise to the tree's global counter.
  void GiveBack(unsigned slot, uint64_t tree, unsigned need);

  // Reserves a new tree with at least `need` free frames for `slot`
  // (preference order per §4.1/§4.2, one scan of the tree index) and
  // moves its free counter into the local reservation. `avoid` (a tree
  // just searched without success) is taken only as a last resort.
  bool ReserveNewTree(unsigned slot, AllocType type, unsigned need,
                      std::optional<uint64_t> avoid);

  // Claims 2^order frames inside `tree`. Two internal passes: non-evicted
  // areas first (if configured), then evicted ones (triggering install).
  std::optional<FrameId> SearchTree(uint64_t tree, unsigned order);

  // Batch variant: claims up to `count` runs across the tree's areas
  // (same two evicted-preference passes). Returns the number claimed.
  unsigned SearchTreeBatch(uint64_t tree, unsigned order, unsigned count,
                           std::vector<FrameId>* out);

  // Native order-9 batch behind GetBatch (§4.14).
  unsigned GetBatchHuge(unsigned core, unsigned count, AllocType type,
                        std::vector<FrameId>* out);

  // Claims one huge frame inside `tree` (area allocated flag).
  std::optional<FrameId> SearchTreeHuge(uint64_t tree);

  // Batch variant (§4.14): claims up to `count` free huge frames across
  // the tree's areas (same two evicted-preference passes — installed
  // frames first, the LLFREE_PREFER_INSTALLED policy). Returns the
  // number claimed.
  unsigned SearchTreeHugeBatch(uint64_t tree, unsigned count,
                               std::vector<FrameId>* out);

  // Pressure fallback: steals directly from tree counters, ignoring the
  // reserved flag, when no tree can be reserved for the slot. The only
  // writer of a dry memo: a failure that saw no counter holding
  // 2^order frames records dry(2^order).
  Result<FrameId> GetFallback(unsigned order, bool huge);

  // The dry-zone memo protocol (DESIGN.md §4.1). KnownDry: the memo
  // proves that ReserveNewTree and GetFallback would both fail for
  // `need` frames. AnnounceProbe: GetFallback's probing(need) claim,
  // returning the packed memo it wrote (nullopt when another probe or
  // a covering dry memo stands); EndProbe completes it to dry or idle.
  bool KnownDry(unsigned need) const;
  std::optional<uint32_t> AnnounceProbe(unsigned need);
  void EndProbe(std::optional<uint32_t> probe, bool dry);

  // Every increment of a tree counter: adds `n` frames (dropping the
  // reserved flag when `unreserve`), then clears the dry memo.
  void CreditTree(uint64_t tree, unsigned n, bool unreserve = false);
  // Follows every counter increment, after the increment.
  void ClearDryMemo();

  // Area-level claim helpers; return true on success.
  bool ClaimBase(uint64_t area, unsigned order, FrameId* out);
  bool ClaimHuge(uint64_t area);

  // Batch variant: one counter transaction reserves up to `count` runs in
  // the area, one word-at-a-time bit-field pass claims them; a shortfall
  // is rolled back to the counter. Install triggers once per area, not
  // per frame (fault sites at batch granularity). Returns runs claimed.
  unsigned ClaimBaseBatch(uint64_t area, unsigned order, unsigned count,
                          std::vector<FrameId>* out);

  void TriggerInstall(HugeId huge);

  SharedState* state_;
  // Set at wiring time (before concurrent use), invoked from allocation
  // paths on any thread; Shared<> makes the checker flag a handler swap
  // that races an allocation.
  Shared<InstallHandler> install_handler_;
};

}  // namespace hyperalloc::llfree
