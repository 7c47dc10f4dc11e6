#include "src/llfree/llfree.h"

#include <algorithm>
#include <cstdio>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace hyperalloc::llfree {

namespace {

constexpr uint64_t kWordsPerArea64 = kFramesPerHuge / 64;

}  // namespace

SharedState::SharedState(uint64_t frames, const Config& config)
    : frames_(frames), config_(config) {
  HA_CHECK(frames > 0);
  HA_CHECK(frames % kFramesPerHuge == 0);
  HA_CHECK(config.areas_per_tree > 0);
  HA_CHECK(config.NumSlots() > 0);

  num_areas_ = frames / kFramesPerHuge;
  num_trees_ = (num_areas_ + config.areas_per_tree - 1) / config.areas_per_tree;

  const uint64_t bitfield_words = frames / 64;
  bitfield_ = std::make_unique<Atomic<uint64_t>[]>(bitfield_words);
  for (uint64_t i = 0; i < bitfield_words; ++i) {
    bitfield_[i].store(0, std::memory_order_relaxed);
  }

  areas_ = std::make_unique<Atomic<uint16_t>[]>(num_areas_);
  AreaEntry fresh_area;
  fresh_area.free = kFramesPerHuge;
  for (uint64_t i = 0; i < num_areas_; ++i) {
    areas_[i].store(fresh_area.Pack(), std::memory_order_relaxed);
  }

  trees_ = std::make_unique<Atomic<uint32_t>[]>(num_trees_);
  for (uint64_t t = 0; t < num_trees_; ++t) {
    const uint64_t first = t * config.areas_per_tree;
    const uint64_t count = std::min<uint64_t>(config.areas_per_tree,
                                              num_areas_ - first);
    TreeEntry entry;
    entry.free = static_cast<uint32_t>(count * kFramesPerHuge);
    entry.type = AllocType::kMovable;
    trees_[t].store(entry.Pack(), std::memory_order_relaxed);
  }

  const unsigned slots = config.NumSlots();
  reservations_ = std::make_unique<Atomic<uint64_t>[]>(slots);
  tree_hints_ = std::make_unique<Atomic<uint64_t>[]>(slots);
  for (unsigned s = 0; s < slots; ++s) {
    reservations_[s].store(Reservation{}.Pack(), std::memory_order_relaxed);
    // Spread initial search positions so slots start in different trees.
    tree_hints_[s].store((num_trees_ * s) / slots, std::memory_order_relaxed);
  }
  dry_memo_.store(DryMemo{}.Pack(), std::memory_order_relaxed);
}

uint64_t SharedState::SharedBytes() const {
  return frames_ / 8                      // bit field
         + num_areas_ * sizeof(uint16_t)  // area index
         + num_trees_ * sizeof(uint32_t); // tree index
}

LLFree::LLFree(SharedState* state) : state_(state) { HA_CHECK(state != nullptr); }

unsigned LLFree::SlotFor(unsigned core, AllocType type) const {
  if (config().mode == Config::ReservationMode::kPerCore) {
    return core % config().cores;
  }
  return static_cast<unsigned>(type);
}

AreaBits LLFree::BitsOf(uint64_t area) const {
  return AreaBits(state_->bitfield_.get() + area * kWordsPerArea64);
}

uint64_t LLFree::AreasInTree(uint64_t tree) const {
  const uint64_t first = FirstAreaOf(tree);
  HA_DCHECK(first < num_areas());
  return std::min<uint64_t>(config().areas_per_tree, num_areas() - first);
}

uint64_t LLFree::TreeCapacity(uint64_t tree) const {
  return AreasInTree(tree) * kFramesPerHuge;
}

// ----------------------------------------------------------------------
// Reservation management
// ----------------------------------------------------------------------

std::optional<uint64_t> LLFree::TakeFromReservation(unsigned slot,
                                                    unsigned order,
                                                    unsigned max_runs,
                                                    unsigned* taken_runs) {
  Atomic<uint64_t>& slot_atom = state_->reservations_[slot];
  for (;;) {
    uint64_t raw = slot_atom.load(std::memory_order_acquire);
    const Reservation r = Reservation::Unpack(raw);
    if (!r.active) {
      return std::nullopt;
    }
    // A shift, not a division: single Gets take this path too.
    const unsigned avail_runs = r.free >> order;
    if (avail_runs > 0) {
      const unsigned take = std::min(avail_runs, max_runs);
      Reservation next = r;
      next.free = static_cast<uint16_t>(r.free - (take << order));
      uint64_t expected = raw;
      if (slot_atom.compare_exchange_weak(expected, next.Pack(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        *taken_runs = take;
        return r.tree;
      }
      continue;  // raced; retry
    }
    // Local counter dry: re-steal whatever the reserved tree accumulated
    // from frees since we reserved it ("put-reserve" resync).
    // The stolen count comes from the value the CAS replaced: a count
    // kept from an earlier try of the update would survive a retry that
    // found the counter already emptied by a racing steal.
    const std::optional<uint32_t> before = AtomicUpdate(
        state_->trees_[r.tree],
        [](uint32_t tree_raw) -> std::optional<uint32_t> {
          TreeEntry entry = TreeEntry::Unpack(tree_raw);
          if (entry.free == 0) {
            return std::nullopt;
          }
          entry.free = 0;
          return entry.Pack();
        });
    if (!before.has_value()) {
      return std::nullopt;  // genuinely dry; caller reserves a new tree
    }
    const uint32_t stolen = TreeEntry::Unpack(*before).free;
    Reservation next = r;
    next.free = static_cast<uint16_t>(r.free + stolen);
    uint64_t expected = raw;
    if (slot_atom.compare_exchange_strong(expected, next.Pack(),
                                          std::memory_order_seq_cst,
                                          std::memory_order_acquire)) {
      ClearDryMemo();  // the reservation counter grew
    } else {
      // Reservation changed under us: return the stolen frames to the
      // tree's global counter and start over.
      CreditTree(r.tree, stolen);
    }
  }
}

void LLFree::GiveBack(unsigned slot, uint64_t tree, unsigned need) {
  Atomic<uint64_t>& slot_atom = state_->reservations_[slot];
  for (;;) {
    uint64_t raw = slot_atom.load(std::memory_order_acquire);
    const Reservation r = Reservation::Unpack(raw);
    if (r.active && r.tree == tree) {
      Reservation next = r;
      next.free = static_cast<uint16_t>(r.free + need);
      uint64_t expected = raw;
      if (slot_atom.compare_exchange_weak(expected, next.Pack(),
                                          std::memory_order_seq_cst,
                                          std::memory_order_acquire)) {
        ClearDryMemo();
        return;
      }
      continue;
    }
    // Reservation moved on; credit the tree directly.
    CreditTree(tree, need);
    return;
  }
}

bool LLFree::ReserveNewTree(unsigned slot, AllocType type, unsigned need,
                            std::optional<uint64_t> avoid) {
  const uint64_t n = num_trees();
  const uint64_t hint =
      state_->tree_hints_[slot].load(std::memory_order_relaxed) % n;
  // Every tree but the last holds a full tree's worth of frames.
  const uint32_t full_cap =
      static_cast<uint32_t>(config().areas_per_tree * kFramesPerHuge);
  const uint32_t last_cap = static_cast<uint32_t>(TreeCapacity(n - 1));

  // Preference ranks (paper §4.1/§4.2 reservation policy), best first:
  //   0. same-type trees that are meaningfully used (refill their gaps —
  //      passive defragmentation, the "prefer half depleted" heuristic)
  //   1. *compatible*-type trees with any room: movable and huge
  //      allocations are both movable in Linux terms and may fill each
  //      other's gaps (dense packing across user memory); unmovable
  //      kernel memory stays strictly separated
  //   2. entirely free trees (re-typed on reservation)
  //   3. partially used trees of an incompatible type — last resort, so
  //      that a movable burst does not claim the gaps inside the kernel's
  //      slab trees while free trees exist (this is what makes the
  //      per-type separation effective)
  //   4. anything with room, the `avoid` tree included
  // One scan in hint order keeps the first tree of the lowest rank and
  // stops at the first rank 0: the tree that one pass per rank, each in
  // hint order, would pick (DESIGN.md §4.1).
  const auto compatible = [type](AllocType other) {
    return other == type || (other != AllocType::kUnmovable &&
                             type != AllocType::kUnmovable);
  };
  constexpr int kNoTree = 5;
  for (;;) {
    HA_COUNT("llfree.tree_scan");
    int best_rank = kNoTree;
    uint64_t best = 0;
    uint32_t best_raw = 0;
    uint64_t t = hint;
    for (uint64_t i = 0; i < n; ++i, t = t + 1 == n ? 0 : t + 1) {
      const uint32_t raw = state_->trees_[t].load(std::memory_order_acquire);
      const TreeEntry entry = TreeEntry::Unpack(raw);
      if (entry.reserved || entry.free < need) {
        continue;
      }
      const uint32_t cap = t + 1 == n ? last_cap : full_cap;
      int rank = 4;
      if (avoid != t) {
        if (entry.free < cap) {
          rank = entry.type == type && entry.free < cap - cap / 8 ? 0
                 : compatible(entry.type)                          ? 1
                                                                   : 3;
        } else if (entry.free == cap) {
          rank = 2;
        }
      }
      if (rank < best_rank) {
        best_rank = rank;
        best = t;
        best_raw = raw;
        if (rank == 0) {
          break;
        }
      }
    }
    if (best_rank == kNoTree) {
      return false;
    }
    TreeEntry claimed = TreeEntry::Unpack(best_raw);
    const uint32_t taken = claimed.free;
    claimed.free = 0;
    claimed.reserved = true;
    claimed.type = type;
    uint32_t expected = best_raw;
    if (!state_->trees_[best].compare_exchange_strong(
            expected, claimed.Pack(), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      continue;  // raced: the ranking is stale, rescan
    }

    // Publish the new reservation; release the old one.
    Atomic<uint64_t>& slot_atom = state_->reservations_[slot];
    Reservation next;
    next.active = true;
    next.tree = static_cast<uint32_t>(best);
    next.free = static_cast<uint16_t>(taken);
    uint64_t old_raw = slot_atom.load(std::memory_order_acquire);
    while (!slot_atom.compare_exchange_weak(old_raw, next.Pack(),
                                            std::memory_order_seq_cst,
                                            std::memory_order_acquire)) {
    }
    // The claimed frames were in neither counter between the two CASes,
    // so a probe may have missed them: the publish clears the memo like
    // any other counter increment.
    const Reservation old = Reservation::Unpack(old_raw);
    if (old.active) {
      CreditTree(old.tree, old.free, /*unreserve=*/true);
    } else {
      ClearDryMemo();
    }
    // Hints are always stored in-range so a view over a shrunk tree
    // index can never publish an out-of-bounds search start (the load
    // side additionally clamps with % n, defense in depth).
    state_->tree_hints_[slot].store(best, std::memory_order_relaxed);
    HA_COUNT("llfree.reserve_tree");
    HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kReserveTree, best,
                   slot);
    return true;
  }
}

void LLFree::DrainReservations() {
  const unsigned slots = config().NumSlots();
  for (unsigned s = 0; s < slots; ++s) {
    Atomic<uint64_t>& slot_atom = state_->reservations_[s];
    uint64_t raw = slot_atom.load(std::memory_order_acquire);
    for (;;) {
      const Reservation r = Reservation::Unpack(raw);
      if (!r.active) {
        break;
      }
      if (slot_atom.compare_exchange_weak(raw, Reservation{}.Pack(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        CreditTree(r.tree, r.free, /*unreserve=*/true);
        break;
      }
    }
  }
}

// ----------------------------------------------------------------------
// Allocation
// ----------------------------------------------------------------------

Result<FrameId> LLFree::Get(unsigned core, unsigned order, AllocType type) {
  if (order > kMaxBitfieldOrder && order != kHugeOrder) {
    HA_COUNT("llfree.get_fail");
    return AllocError::kInvalid;
  }
  const bool huge = order == kHugeOrder;
  const AllocType effective_type = huge && config().mode ==
      Config::ReservationMode::kPerType ? AllocType::kHuge : type;
  const unsigned need = 1u << order;
  const unsigned slot = SlotFor(core, effective_type);

  std::optional<uint64_t> avoid;
  for (unsigned attempt = 0; attempt < kMaxReserveAttempts; ++attempt) {
    unsigned taken_runs = 0;
    std::optional<uint64_t> tree =
        TakeFromReservation(slot, order, 1, &taken_runs);
    if (!tree.has_value()) {
      if (KnownDry(need)) {
        HA_COUNT("llfree.get_fail");
        return AllocError::kNoMemory;
      }
      if (!ReserveNewTree(slot, effective_type, need, avoid)) {
        return GetFallback(order, huge);
      }
      continue;
    }
    std::optional<FrameId> frame =
        huge ? SearchTreeHuge(*tree) : SearchTree(*tree, order);
    if (frame.has_value()) {
      HA_COUNT("llfree.get");
      HA_HIST("llfree.get_order", order);
      HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kGet, *frame,
                     order);
      return *frame;
    }
    // The counter promised frames, but no suitable run exists in this
    // tree (fragmentation or a race). Return the frames and move on.
    GiveBack(slot, *tree, need);
    avoid = *tree;
    if (!ReserveNewTree(slot, effective_type, need, avoid)) {
      return GetFallback(order, huge);
    }
  }
  HA_COUNT("llfree.get_fail");
  return AllocError::kRetry;
}

unsigned LLFree::GetBatch(unsigned core, unsigned order, unsigned count,
                          AllocType type, std::vector<FrameId>* out) {
  if (count == 0) {
    return 0;
  }
  if (order == kHugeOrder) {
    return GetBatchHuge(core, count, type, out);
  }
  if (order > kMaxSingleWordOrder) {
    // Multi-word orders (7..8) gain nothing from word-batching (each
    // run already spans whole words); loop the single-run path.
    unsigned done = 0;
    for (; done < count; ++done) {
      const Result<FrameId> r = Get(core, order, type);
      if (!r.ok()) {
        break;
      }
      out->push_back(*r);
    }
    return done;
  }

  const unsigned run = 1u << order;
  const unsigned slot = SlotFor(core, type);
  unsigned claimed = 0;
  bool dry = false;        // no tree could be reserved
  bool known_dry = false;  // the dry memo says the tail would fail too
  std::optional<uint64_t> avoid;
  for (unsigned attempt = 0;
       attempt < kMaxReserveAttempts && claimed < count && !dry;
       ++attempt) {
    unsigned taken_runs = 0;
    const std::optional<uint64_t> tree =
        TakeFromReservation(slot, order, count - claimed, &taken_runs);
    if (!tree.has_value()) {
      known_dry = KnownDry(run);
      dry = known_dry || !ReserveNewTree(slot, type, run, avoid);
      continue;
    }
    const unsigned got = SearchTreeBatch(*tree, order, taken_runs, out);
    claimed += got;
    if (got < taken_runs) {
      // The counter promised more runs than the tree could deliver
      // (fragmentation or a race): return the shortfall and move on.
      GiveBack(slot, *tree, (taken_runs - got) * run);
      avoid = *tree;
      dry = !ReserveNewTree(slot, type, run, avoid);
    }
  }
  // The singles tail below counts its own "llfree.get"s.
  if (claimed > 0) {
    HA_COUNT_N("llfree.get", claimed);
    HA_COUNT("llfree.get_batch");
    HA_HIST("llfree.get_batch_runs", claimed);
    HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kGet,
                   out->at(out->size() - claimed), order);
  }
  // Tail under pressure: one run per transaction, so the batch keeps the
  // exact semantics (fallback steal included) of `count` single calls.
  // Once the reservation scan has failed, a single Get would repeat it
  // and fail again, so a dry tail goes straight to the fallback, and a
  // known-dry one is skipped (DESIGN.md §4.10).
  while (claimed < count && !known_dry) {
    const Result<FrameId> r =
        dry ? GetFallback(order, false) : Get(core, order, type);
    if (!r.ok()) {
      break;
    }
    out->push_back(*r);
    ++claimed;
  }
  return claimed;
}

unsigned LLFree::GetBatchHuge(unsigned core, unsigned count, AllocType type,
                              std::vector<FrameId>* out) {
  // Native order-9 batch (DESIGN.md §4.14): the reservation CAS debits
  // whole multiples of kFramesPerHuge and each tree visit claims every
  // free huge frame it can, so a slice-sized deflate (512 MiB = 256 huge
  // frames) costs a handful of reservation transactions instead of 256
  // full Get transactions.
  const AllocType effective_type =
      config().mode == Config::ReservationMode::kPerType ? AllocType::kHuge
                                                         : type;
  const unsigned slot = SlotFor(core, effective_type);
  unsigned claimed = 0;
  bool dry = false;        // no tree could be reserved
  bool known_dry = false;  // the dry memo says the tail would fail too
  std::optional<uint64_t> avoid;
  for (unsigned attempt = 0;
       attempt < kMaxReserveAttempts && claimed < count && !dry;
       ++attempt) {
    unsigned taken_runs = 0;
    const std::optional<uint64_t> tree = TakeFromReservation(
        slot, kHugeOrder, count - claimed, &taken_runs);
    if (!tree.has_value()) {
      known_dry = KnownDry(kFramesPerHuge);
      dry = known_dry ||
            !ReserveNewTree(slot, effective_type, kFramesPerHuge, avoid);
      continue;
    }
    const unsigned got = SearchTreeHugeBatch(*tree, taken_runs, out);
    claimed += got;
    if (got < taken_runs) {
      // The counter promised more whole areas than the tree held
      // (fragmentation or a race): return the shortfall and move on.
      GiveBack(slot, *tree, (taken_runs - got) * kFramesPerHuge);
      avoid = *tree;
      dry = !ReserveNewTree(slot, effective_type, kFramesPerHuge, avoid);
    }
  }
  // The singles tail below counts its own "llfree.get"s.
  if (claimed > 0) {
    HA_COUNT_N("llfree.get", claimed);
    HA_COUNT("llfree.get_batch");
    HA_HIST("llfree.get_batch_runs", claimed);
    HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kGet,
                   out->at(out->size() - claimed), kHugeOrder);
  }
  // Tail under pressure: single transactions, straight to the fallback
  // once the reservation scan has failed (as in GetBatch).
  while (claimed < count && !known_dry) {
    const Result<FrameId> r = dry ? GetFallback(kHugeOrder, true)
                                  : Get(core, kHugeOrder, type);
    if (!r.ok()) {
      break;
    }
    out->push_back(*r);
    ++claimed;
  }
  return claimed;
}

Result<FrameId> LLFree::GetFallback(unsigned order, bool huge) {
  // Last resort under memory pressure: no unreserved tree has room, but
  // trees reserved by *other* slots (or fragmented ones) may still hold
  // free frames. Steal directly from the global tree counters, ignoring
  // the reserved flag.
  HA_COUNT("llfree.fallback_steal");
  HA_COUNT("llfree.tree_scan");
  const unsigned need = 1u << order;
  const std::optional<uint32_t> probe = AnnounceProbe(need);
  // Whether any counter held `need` frames. The loads are seq_cst: they
  // pair with the credits' memo clears (DESIGN.md §4.1).
  bool seen = false;
  for (uint64_t t = 0; t < num_trees(); ++t) {
    // Most trees are dry under pressure: a plain read skips them without
    // entering the CAS transaction.
    if (TreeEntry::Unpack(state_->trees_[t].load(std::memory_order_seq_cst))
            .free < need) {
      continue;
    }
    seen = true;
    const auto stolen = AtomicUpdate(
        state_->trees_[t], [&](uint32_t raw) -> std::optional<uint32_t> {
          TreeEntry entry = TreeEntry::Unpack(raw);
          if (entry.free < need) {
            return std::nullopt;
          }
          entry.free -= need;
          return entry.Pack();
        });
    if (!stolen.has_value()) {
      continue;
    }
    const std::optional<FrameId> frame =
        huge ? SearchTreeHuge(t) : SearchTree(t, order);
    if (frame.has_value()) {
      EndProbe(probe, /*dry=*/false);
      HA_COUNT("llfree.get");
      HA_HIST("llfree.get_order", order);
      HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kSteal, *frame,
                     order);
      return *frame;
    }
    CreditTree(t, need);
  }
  // The remaining frames may live in other slots' local reservation
  // counters; pull from those directly (the reservations are part of the
  // shared state, so this stays a lock-free CAS transaction).
  for (unsigned s = 0; s < config().NumSlots(); ++s) {
    const Reservation parked = Reservation::Unpack(
        state_->reservations_[s].load(std::memory_order_seq_cst));
    if (!parked.active || parked.free < need) {
      continue;
    }
    seen = true;
    uint64_t victim_tree = 0;
    const auto taken = AtomicUpdate(
        state_->reservations_[s], [&](uint64_t raw) -> std::optional<uint64_t> {
          Reservation r = Reservation::Unpack(raw);
          if (!r.active || r.free < need) {
            return std::nullopt;
          }
          victim_tree = r.tree;
          r.free = static_cast<uint16_t>(r.free - need);
          return r.Pack();
        });
    if (!taken.has_value()) {
      continue;
    }
    const std::optional<FrameId> frame =
        huge ? SearchTreeHuge(victim_tree) : SearchTree(victim_tree, order);
    if (frame.has_value()) {
      EndProbe(probe, /*dry=*/false);
      HA_COUNT("llfree.get");
      HA_HIST("llfree.get_order", order);
      HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kSteal, *frame,
                     order);
      return *frame;
    }
    GiveBack(s, victim_tree, need);
  }
  // A counter that held `need` frames without an aligned run is
  // fragmentation, not dryness: only a probe that saw none records dry.
  EndProbe(probe, /*dry=*/!seen);
  HA_COUNT("llfree.get_fail");
  return AllocError::kNoMemory;
}

bool LLFree::KnownDry(unsigned need) const {
  if (!ReadDryMemo().Covers(need)) {
    return false;
  }
  HA_COUNT("llfree.dry_skip");
  return true;
}

std::optional<uint32_t> LLFree::AnnounceProbe(unsigned need) {
  Atomic<uint32_t>& memo = state_->dry_memo_;
  uint32_t raw = memo.load(std::memory_order_seq_cst);
  for (;;) {
    const DryMemo current = DryMemo::Unpack(raw);
    // A probe in flight owns the memo; a dry memo that already covers
    // `need` is left standing.
    if (current.kind == DryMemo::Kind::kProbing || current.Covers(need)) {
      return std::nullopt;
    }
    const uint32_t probing =
        DryMemo{DryMemo::Kind::kProbing, need, current.gen + 1}.Pack();
    if (memo.compare_exchange_weak(raw, probing, std::memory_order_seq_cst,
                                   std::memory_order_seq_cst)) {
      return probing;
    }
  }
}

void LLFree::EndProbe(std::optional<uint32_t> probe, bool dry) {
  if (!probe.has_value()) {
    return;
  }
  DryMemo next = DryMemo::Unpack(*probe);
  next.kind = dry ? DryMemo::Kind::kDry : DryMemo::Kind::kIdle;
  // Fails when a credit cleared the probe: the memo then stays as the
  // credit left it.
  uint32_t expected = *probe;
  (void)state_->dry_memo_.compare_exchange_strong(expected, next.Pack(),
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_seq_cst);
}

void LLFree::CreditTree(uint64_t tree, unsigned n, bool unreserve) {
  // seq_cst: the credit is the store side of the memo's store→load
  // pairing with GetFallback (DESIGN.md §4.1), so no AtomicUpdate here.
  uint32_t raw = state_->trees_[tree].load(std::memory_order_relaxed);
  for (;;) {
    TreeEntry entry = TreeEntry::Unpack(raw);
    entry.free += n;
    entry.reserved = entry.reserved && !unreserve;
    if (state_->trees_[tree].compare_exchange_weak(
            raw, entry.Pack(), std::memory_order_seq_cst,
            std::memory_order_relaxed)) {
      break;
    }
  }
  ClearDryMemo();
}

void LLFree::ClearDryMemo() {
  Atomic<uint32_t>& memo = state_->dry_memo_;
  uint32_t raw = memo.load(std::memory_order_seq_cst);
  for (;;) {
    DryMemo current = DryMemo::Unpack(raw);
    if (current.kind == DryMemo::Kind::kIdle) {
      return;
    }
    current.kind = DryMemo::Kind::kIdle;
    if (memo.compare_exchange_weak(raw, current.Pack(),
                                   std::memory_order_seq_cst,
                                   std::memory_order_seq_cst)) {
      return;
    }
  }
}

std::optional<FrameId> LLFree::SearchTree(uint64_t tree, unsigned order) {
  const uint64_t first = FirstAreaOf(tree);
  const uint64_t count = AreasInTree(tree);
  const int start_pass = config().prefer_non_evicted ? 0 : 1;
  for (int pass = start_pass; pass < 2; ++pass) {
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t area = first + i;
      const AreaEntry entry =
          AreaEntry::Unpack(state_->areas_[area].load(std::memory_order_acquire));
      if (entry.allocated || entry.free < (1u << order)) {
        continue;
      }
      if (pass == 0 && entry.evicted) {
        continue;
      }
      FrameId frame = 0;
      if (ClaimBase(area, order, &frame)) {
        return frame;
      }
    }
  }
  return std::nullopt;
}

unsigned LLFree::SearchTreeBatch(uint64_t tree, unsigned order,
                                 unsigned count, std::vector<FrameId>* out) {
  const uint64_t first = FirstAreaOf(tree);
  const uint64_t areas = AreasInTree(tree);
  const int start_pass = config().prefer_non_evicted ? 0 : 1;
  unsigned claimed = 0;
  for (int pass = start_pass; pass < 2 && claimed < count; ++pass) {
    for (uint64_t i = 0; i < areas && claimed < count; ++i) {
      const uint64_t area = first + i;
      const AreaEntry entry = AreaEntry::Unpack(
          state_->areas_[area].load(std::memory_order_acquire));
      if (entry.allocated || entry.free < (1u << order)) {
        continue;
      }
      if (pass == 0 && entry.evicted) {
        continue;
      }
      claimed += ClaimBaseBatch(area, order, count - claimed, out);
    }
  }
  return claimed;
}

std::optional<FrameId> LLFree::SearchTreeHuge(uint64_t tree) {
  const uint64_t first = FirstAreaOf(tree);
  const uint64_t count = AreasInTree(tree);
  const int start_pass = config().prefer_non_evicted ? 0 : 1;
  for (int pass = start_pass; pass < 2; ++pass) {
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t area = first + i;
      const AreaEntry entry =
          AreaEntry::Unpack(state_->areas_[area].load(std::memory_order_acquire));
      if (!entry.IsFreeHuge()) {
        continue;
      }
      if (pass == 0 && entry.evicted) {
        continue;
      }
      if (ClaimHuge(area)) {
        return HugeToFrame(area);
      }
    }
  }
  return std::nullopt;
}

unsigned LLFree::SearchTreeHugeBatch(uint64_t tree, unsigned count,
                                     std::vector<FrameId>* out) {
  const uint64_t first = FirstAreaOf(tree);
  const uint64_t areas = AreasInTree(tree);
  const int start_pass = config().prefer_non_evicted ? 0 : 1;
  unsigned claimed = 0;
  for (int pass = start_pass; pass < 2 && claimed < count; ++pass) {
    for (uint64_t i = 0; i < areas && claimed < count; ++i) {
      const uint64_t area = first + i;
      const AreaEntry entry = AreaEntry::Unpack(
          state_->areas_[area].load(std::memory_order_acquire));
      if (!entry.IsFreeHuge()) {
        continue;
      }
      if (pass == 0 && entry.evicted) {
        continue;
      }
      if (ClaimHuge(area)) {
        out->push_back(HugeToFrame(area));
        ++claimed;
      }
    }
  }
  return claimed;
}

bool LLFree::ClaimBase(uint64_t area, unsigned order, FrameId* out) {
  const unsigned need = 1u << order;
  bool was_evicted = false;
  const auto claimed = AtomicUpdate(
      state_->areas_[area], [&](uint16_t raw) -> std::optional<uint16_t> {
        AreaEntry entry = AreaEntry::Unpack(raw);
        if (entry.allocated || entry.free < need) {
          return std::nullopt;
        }
        was_evicted = entry.evicted;
        entry.free = static_cast<uint16_t>(entry.free - need);
        return entry.Pack();
      });
  if (!claimed.has_value()) {
    return false;
  }
  const std::optional<unsigned> offset = BitsOf(area).Set(order, 0);
  if (!offset.has_value()) {
    // Counter said yes, bit field says no: transient race with concurrent
    // claims. Roll the counter back.
    AtomicUpdate(state_->areas_[area],
                 [&](uint16_t raw) -> std::optional<uint16_t> {
                   AreaEntry entry = AreaEntry::Unpack(raw);
                   entry.free = static_cast<uint16_t>(entry.free + need);
                   return entry.Pack();
                 });
    return false;
  }
  if (was_evicted) {
    // DMA safety: wait for the hypervisor to install backing memory
    // before handing the frame to the caller (§3.2).
    TriggerInstall(area);
  }
  *out = HugeToFrame(area) + *offset;
  return true;
}

unsigned LLFree::ClaimBaseBatch(uint64_t area, unsigned order,
                                unsigned count, std::vector<FrameId>* out) {
  const unsigned run = 1u << order;
  bool was_evicted = false;
  unsigned want = 0;
  const auto taken = AtomicUpdate(
      state_->areas_[area], [&](uint16_t raw) -> std::optional<uint16_t> {
        AreaEntry entry = AreaEntry::Unpack(raw);
        if (entry.allocated || entry.free < run) {
          return std::nullopt;
        }
        was_evicted = entry.evicted;
        want = std::min<unsigned>(count, entry.free / run);
        entry.free = static_cast<uint16_t>(entry.free - want * run);
        return entry.Pack();
      });
  if (!taken.has_value()) {
    return 0;
  }
  unsigned offsets[kFramesPerHuge];
  const unsigned got = BitsOf(area).SetBatch(order, want, 0, offsets);
  if (got < want) {
    // Counter promised more runs than the bit field held (transient race
    // with concurrent claims): roll the shortfall back.
    AtomicUpdate(state_->areas_[area],
                 [&](uint16_t raw) -> std::optional<uint16_t> {
                   AreaEntry entry = AreaEntry::Unpack(raw);
                   entry.free = static_cast<uint16_t>(entry.free +
                                                      (want - got) * run);
                   return entry.Pack();
                 });
  }
  if (got > 0 && was_evicted) {
    // DMA safety, once per area rather than once per frame: the whole
    // batch waits for a single install (§3.2 at batch granularity).
    TriggerInstall(area);
  }
  for (unsigned i = 0; i < got; ++i) {
    out->push_back(HugeToFrame(area) + offsets[i]);
  }
  return got;
}

bool LLFree::ClaimHuge(uint64_t area) {
  bool was_evicted = false;
  const auto claimed = AtomicUpdate(
      state_->areas_[area], [&](uint16_t raw) -> std::optional<uint16_t> {
        AreaEntry entry = AreaEntry::Unpack(raw);
        if (!entry.IsFreeHuge()) {
          return std::nullopt;
        }
        was_evicted = entry.evicted;
        entry.free = 0;
        entry.allocated = true;
        return entry.Pack();
      });
  if (!claimed.has_value()) {
    return false;
  }
  if (was_evicted) {
    TriggerInstall(area);
  }
  return true;
}

void LLFree::TriggerInstall(HugeId huge) {
  HA_COUNT("llfree.install_trigger");
  HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kInstall, huge, 0);
  const InstallHandler& handler = install_handler_.read();
  if (handler) {
    handler(huge);
  } else {
    // Standalone operation (no hypervisor attached): the hint is cleared
    // locally so the allocator remains self-consistent.
    ClearEvicted(huge);
  }
}

std::optional<AllocError> LLFree::Put(FrameId frame, unsigned order) {
  if (order > kMaxBitfieldOrder && order != kHugeOrder) {
    return AllocError::kInvalid;
  }
  if (frame >= frames() || frame % (1ull << order) != 0) {
    return AllocError::kInvalid;
  }
  const uint64_t area = FrameToHuge(frame);
  const unsigned need = 1u << order;

  if (order == kHugeOrder) {
    const auto freed = AtomicUpdate(
        state_->areas_[area], [&](uint16_t raw) -> std::optional<uint16_t> {
          AreaEntry entry = AreaEntry::Unpack(raw);
          if (!entry.allocated || entry.free != 0) {
            return std::nullopt;  // not huge-allocated: invalid free
          }
          entry.allocated = false;
          entry.free = kFramesPerHuge;
          return entry.Pack();
        });
    if (!freed.has_value()) {
      return AllocError::kInvalid;
    }
  } else {
    if (!BitsOf(area).Clear(static_cast<unsigned>(frame % kFramesPerHuge),
                            order)) {
      return AllocError::kInvalid;
    }
    AtomicUpdate(state_->areas_[area],
                 [&](uint16_t raw) -> std::optional<uint16_t> {
                   AreaEntry entry = AreaEntry::Unpack(raw);
                   HA_DCHECK(!entry.allocated);
                   HA_DCHECK(entry.free + need <= kFramesPerHuge);
                   entry.free = static_cast<uint16_t>(entry.free + need);
                   return entry.Pack();
                 });
  }

  CreditTree(TreeOf(area), need);
  HA_COUNT("llfree.put");
  HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kPut, frame, order);
  return std::nullopt;
}

unsigned LLFree::PutBatch(std::span<const FrameId> frames, unsigned order) {
  if (frames.empty()) {
    return 0;
  }
  if (order > kMaxSingleWordOrder) {
    unsigned freed = 0;
    for (const FrameId f : frames) {
      if (!Put(f, order).has_value()) {
        ++freed;
      }
    }
    return freed;
  }
  const unsigned run = 1u << order;
  const uint64_t mask = (order == 6) ? ~0ull : ((1ull << run) - 1);

  // Sort a local copy so runs sharing one bit-field word are adjacent and
  // the whole group clears with a single CAS + one counter credit each.
  std::vector<FrameId> sorted;
  sorted.reserve(frames.size());
  for (const FrameId f : frames) {
    if (f >= this->frames() || f % run != 0) {
      continue;  // kInvalid: skipped, rest of the batch still frees
    }
    sorted.push_back(f);
  }
  std::sort(sorted.begin(), sorted.end());

  unsigned freed_total = 0;
  unsigned freed_batched = 0;  // one-CAS groups only (Put counts its own)
  size_t i = 0;
  while (i < sorted.size()) {
    const uint64_t area = FrameToHuge(sorted[i]);
    const unsigned word = (sorted[i] % kFramesPerHuge) / 64;
    uint64_t word_mask = 0;
    bool overlap = false;
    size_t end = i;
    while (end < sorted.size() && FrameToHuge(sorted[end]) == area &&
           (sorted[end] % kFramesPerHuge) / 64 == word) {
      const uint64_t m = mask << (sorted[end] % 64);
      overlap = overlap || (word_mask & m) != 0;  // duplicate in batch
      word_mask |= m;
      ++end;
    }
    const unsigned group_runs = static_cast<unsigned>(end - i);
    if (!overlap && BitsOf(area).ClearMask(word, word_mask)) {
      // One credit per group, same order as Put: bits, area, then tree.
      AtomicUpdate(state_->areas_[area],
                   [&](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     HA_DCHECK(!entry.allocated);
                     HA_DCHECK(entry.free + group_runs * run <=
                               kFramesPerHuge);
                     entry.free = static_cast<uint16_t>(entry.free +
                                                        group_runs * run);
                     return entry.Pack();
                   });
      CreditTree(TreeOf(area), group_runs * run);
      freed_total += group_runs;
      freed_batched += group_runs;
    } else {
      // A duplicate or double free hides somewhere in the group: fall
      // back to per-run Put so the valid subset still frees.
      for (size_t j = i; j < end; ++j) {
        if (!Put(sorted[j], order).has_value()) {
          ++freed_total;
        }
      }
    }
    i = end;
  }
  if (freed_batched > 0) {
    HA_COUNT_N("llfree.put", freed_batched);
    HA_COUNT("llfree.put_batch");
    HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kPut, sorted[0],
                   order);
  }
  return freed_total;
}

// ----------------------------------------------------------------------
// Compaction support (DESIGN.md §4.14)
// ----------------------------------------------------------------------

unsigned LLFree::ClaimFreeInArea(HugeId area, std::vector<FrameId>* out) {
  HA_CHECK(area < num_areas());
  const uint64_t tree = TreeOf(area);
  unsigned total = 0;
  for (;;) {
    const AreaEntry snapshot = AreaEntry::Unpack(
        state_->areas_[area].load(std::memory_order_acquire));
    if (snapshot.allocated || snapshot.free == 0) {
      break;
    }
    // Debit the tree counter FIRST — the hard-reclaim ordering — so the
    // guest cannot promise these frames to an allocation mid-claim. The
    // frames may be parked in a reservation over this tree; raid those
    // when the global counter runs dry.
    unsigned take = 0;
    const bool counter_taken =
        AtomicUpdate(state_->trees_[tree],
                     [&](uint32_t raw) -> std::optional<uint32_t> {
                       TreeEntry te = TreeEntry::Unpack(raw);
                       if (te.free == 0) {
                         return std::nullopt;
                       }
                       take = std::min<unsigned>(snapshot.free, te.free);
                       te.free -= take;
                       return te.Pack();
                     })
            .has_value();
    if (!counter_taken) {
      take = 0;
      for (unsigned s = 0; s < config().NumSlots() && take == 0; ++s) {
        const bool raided =
            AtomicUpdate(state_->reservations_[s],
                         [&](uint64_t raw) -> std::optional<uint64_t> {
                           Reservation r = Reservation::Unpack(raw);
                           if (!r.active || r.tree != tree || r.free == 0) {
                             return std::nullopt;
                           }
                           take = std::min<unsigned>(snapshot.free, r.free);
                           r.free = static_cast<uint16_t>(r.free - take);
                           return r.Pack();
                         })
                .has_value();
        if (!raided) {
          take = 0;
        }
      }
      if (take == 0) {
        break;  // tree counters dry: nothing safely claimable
      }
    }
    // Debit the area counter (it may have shrunk since the snapshot;
    // credit any shortfall back to the tree).
    unsigned got = 0;
    const bool area_taken =
        AtomicUpdate(state_->areas_[area],
                     [&](uint16_t raw) -> std::optional<uint16_t> {
                       AreaEntry entry = AreaEntry::Unpack(raw);
                       if (entry.allocated || entry.free == 0) {
                         return std::nullopt;
                       }
                       got = std::min<unsigned>(take, entry.free);
                       entry.free = static_cast<uint16_t>(entry.free - got);
                       return entry.Pack();
                     })
            .has_value();
    if (!area_taken) {
      got = 0;
    }
    if (got < take) {
      CreditTree(tree, take - got);
      if (got == 0) {
        break;
      }
    }
    // Claim the corresponding order-0 bits. No install trigger: the
    // claimed frames are the holes the migration fills around and are
    // never written through.
    unsigned offsets[kFramesPerHuge];
    const unsigned set = BitsOf(area).SetBatch(0, got, 0, offsets);
    if (set < got) {
      // Bits raced ahead of the counter: roll the shortfall back.
      AtomicUpdate(state_->areas_[area],
                   [&](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     entry.free = static_cast<uint16_t>(entry.free +
                                                        (got - set));
                     return entry.Pack();
                   });
      CreditTree(tree, got - set);
    }
    for (unsigned i = 0; i < set; ++i) {
      out->push_back(HugeToFrame(area) + offsets[i]);
    }
    total += set;
    if (set == 0) {
      break;
    }
  }
  if (total > 0) {
    HA_COUNT("llfree.compact_claim");
    HA_COUNT_N("llfree.compact_claim_frames", total);
    HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kGet,
                   HugeToFrame(area), 0);
  }
  return total;
}

double LLFree::FragmentationScore() const {
  const uint64_t free = FreeFrames();
  if (free == 0) {
    return 0.0;
  }
  const uint64_t huge_free = FreeHugeFrames() * kFramesPerHuge;
  HA_DCHECK(huge_free <= free);
  return 1.0 - static_cast<double>(huge_free) / static_cast<double>(free);
}

// ----------------------------------------------------------------------
// Bilateral (hypervisor) operations
// ----------------------------------------------------------------------

std::optional<HugeId> LLFree::ReclaimHuge(HugeId start_hint, bool hard,
                                          bool allow_reserved) {
  const uint64_t n = num_areas();
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t area = (start_hint + i) % n;
    if (hard ? TryHardReclaim(area, allow_reserved) : TrySoftReclaim(area)) {
      return area;
    }
  }
  return std::nullopt;
}

bool LLFree::TrySoftReclaim(HugeId huge) {
  HA_CHECK(huge < num_areas());
  const AreaEntry entry =
      AreaEntry::Unpack(state_->areas_[huge].load(std::memory_order_acquire));
  if (!entry.IsFreeHuge() || entry.evicted) {
    return false;
  }
  // Soft reclaim: only the evicted hint changes; the frame stays
  // logically free for the guest.
  AreaEntry desired = entry;
  desired.evicted = true;
  uint16_t expected = entry.Pack();
  if (!state_->areas_[huge].compare_exchange_strong(
          expected, desired.Pack(), std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    return false;
  }
  HA_COUNT("llfree.reclaim_soft");
  HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kReclaimSoft, huge, 0);
  return true;
}

bool LLFree::TryHardReclaim(HugeId huge, bool allow_reserved) {
  HA_CHECK(huge < num_areas());
  const AreaEntry entry =
      AreaEntry::Unpack(state_->areas_[huge].load(std::memory_order_acquire));
  // Unlike soft reclaim, hard reclaim also takes soft-reclaimed (evicted)
  // frames: the S -> H transition of Fig. 2 — the paper's fast
  // "reclaim untouched" path, since no unmapping is needed.
  if (!entry.IsFreeHuge()) {
    return false;
  }
  const uint64_t tree = TreeOf(huge);

  // Hard reclaim: first take the frames out of the tree counter so the
  // guest cannot promise them to an allocation, then claim the area.
  bool counter_taken =
      AtomicUpdate(state_->trees_[tree],
                   [&](uint32_t raw) -> std::optional<uint32_t> {
                     TreeEntry te = TreeEntry::Unpack(raw);
                     if ((te.reserved && !allow_reserved) ||
                         te.free < kFramesPerHuge) {
                       return std::nullopt;
                     }
                     te.free -= kFramesPerHuge;
                     return te.Pack();
                   })
          .has_value();
  if (!counter_taken && allow_reserved) {
    // The frames may be parked in a guest reservation's local counter
    // (the shared state includes the reservations, so the monitor can
    // pull from them directly — this is the memory pressure the paper's
    // "cache purge" induces).
    for (unsigned s = 0; s < config().NumSlots() && !counter_taken; ++s) {
      counter_taken =
          AtomicUpdate(state_->reservations_[s],
                       [&](uint64_t raw) -> std::optional<uint64_t> {
                         Reservation r = Reservation::Unpack(raw);
                         if (!r.active || r.tree != tree ||
                             r.free < kFramesPerHuge) {
                           return std::nullopt;
                         }
                         r.free = static_cast<uint16_t>(r.free -
                                                        kFramesPerHuge);
                         return r.Pack();
                       })
              .has_value();
    }
  }
  if (!counter_taken) {
    return false;
  }
  AreaEntry desired = entry;
  desired.free = 0;
  desired.allocated = true;  // A <- 1
  desired.evicted = true;    // E <- 1
  uint16_t expected = entry.Pack();
  if (state_->areas_[huge].compare_exchange_strong(
          expected, desired.Pack(), std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    HA_COUNT("llfree.reclaim_hard");
    HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kReclaimHard, huge,
                   0);
    return true;
  }
  // Lost the race for this area (guest allocated it); undo the steal.
  CreditTree(tree, kFramesPerHuge);
  return false;
}

bool LLFree::MarkReturned(HugeId huge) {
  HA_CHECK(huge < num_areas());
  const bool transitioned =
      AtomicUpdate(state_->areas_[huge],
                   [](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     // Only the hard-reclaimed state (A=1, E=1, free=0)
                     // may be returned; hint bits (hotness) are kept.
                     if (!entry.allocated || !entry.evicted ||
                         entry.free != 0) {
                       return std::nullopt;
                     }
                     entry.free = kFramesPerHuge;
                     entry.allocated = false;
                     return entry.Pack();
                   })
          .has_value();
  if (!transitioned) {
    return false;
  }
  CreditTree(TreeOf(huge), kFramesPerHuge);
  HA_COUNT("llfree.return");
  HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kReturn, huge, 0);
  return true;
}

bool LLFree::ClearEvicted(HugeId huge) {
  HA_CHECK(huge < num_areas());
  const bool cleared =
      AtomicUpdate(state_->areas_[huge],
                   [](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     if (!entry.evicted) {
                       return std::nullopt;
                     }
                     entry.evicted = false;
                     return entry.Pack();
                   })
          .has_value();
  if (cleared) {
    HA_COUNT("llfree.evicted_clear");
    HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kEvictedClear, huge,
                   0);
  }
  return cleared;
}

bool LLFree::SetEvicted(HugeId huge) {
  HA_CHECK(huge < num_areas());
  const bool set =
      AtomicUpdate(state_->areas_[huge],
                   [](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     if (entry.evicted) {
                       return std::nullopt;
                     }
                     entry.evicted = true;
                     return entry.Pack();
                   })
          .has_value();
  if (set) {
    HA_COUNT("llfree.evicted_set");
    HA_TRACE_EVENT(trace::Category::kLLFree, trace::Op::kEvictedSet, huge, 0);
  }
  return set;
}

void LLFree::MarkHot(HugeId huge) {
  HA_CHECK(huge < num_areas());
  AtomicUpdate(state_->areas_[huge],
               [](uint16_t raw) -> std::optional<uint16_t> {
                 AreaEntry entry = AreaEntry::Unpack(raw);
                 if (entry.hotness == AreaEntry::kMaxHotness) {
                   return std::nullopt;  // already hot: no write traffic
                 }
                 entry.hotness = AreaEntry::kMaxHotness;
                 return entry.Pack();
               });
}

uint8_t LLFree::AgeHotness(HugeId huge) {
  HA_CHECK(huge < num_areas());
  uint8_t before = 0;
  AtomicUpdate(state_->areas_[huge],
               [&before](uint16_t raw) -> std::optional<uint16_t> {
                 AreaEntry entry = AreaEntry::Unpack(raw);
                 before = entry.hotness;
                 if (entry.hotness == 0) {
                   return std::nullopt;
                 }
                 --entry.hotness;
                 return entry.Pack();
               });
  return before;
}

// ----------------------------------------------------------------------
// Introspection
// ----------------------------------------------------------------------

AreaEntry LLFree::ReadArea(HugeId huge) const {
  HA_CHECK(huge < num_areas());
  return AreaEntry::Unpack(state_->areas_[huge].load(std::memory_order_acquire));
}

TreeEntry LLFree::ReadTree(uint64_t tree) const {
  HA_CHECK(tree < num_trees());
  return TreeEntry::Unpack(state_->trees_[tree].load(std::memory_order_acquire));
}

Reservation LLFree::ReadReservation(unsigned slot) const {
  HA_CHECK(slot < config().NumSlots());
  return Reservation::Unpack(
      state_->reservations_[slot].load(std::memory_order_acquire));
}

DryMemo LLFree::ReadDryMemo() const {
  return DryMemo::Unpack(state_->dry_memo_.load(std::memory_order_acquire));
}

uint64_t LLFree::FreeFrames() const {
  uint64_t total = 0;
  for (uint64_t a = 0; a < num_areas(); ++a) {
    total += ReadArea(a).free;
  }
  return total;
}

uint64_t LLFree::FreeHugeFrames(bool include_evicted) const {
  uint64_t total = 0;
  for (uint64_t a = 0; a < num_areas(); ++a) {
    const AreaEntry entry = ReadArea(a);
    if (entry.IsFreeHuge() && (include_evicted || !entry.evicted)) {
      ++total;
    }
  }
  return total;
}

uint64_t LLFree::UsedHugeAreas() const {
  uint64_t total = 0;
  for (uint64_t a = 0; a < num_areas(); ++a) {
    const AreaEntry entry = ReadArea(a);
    const bool guest_used =
        (!entry.allocated && entry.free < kFramesPerHuge) ||
        (entry.allocated && !entry.evicted);
    if (guest_used) {
      ++total;
    }
  }
  return total;
}

uint64_t LLFree::EvictedAreas() const {
  uint64_t total = 0;
  for (uint64_t a = 0; a < num_areas(); ++a) {
    if (ReadArea(a).evicted) {
      ++total;
    }
  }
  return total;
}

uint64_t LLFree::Recover() {
  uint64_t repaired = 0;

  // Area counters from the authoritative bit field (the allocated flag is
  // itself authoritative: a huge allocation never sets bits).
  for (uint64_t a = 0; a < num_areas(); ++a) {
    const AreaEntry entry = ReadArea(a);
    AreaEntry repaired_entry = entry;
    repaired_entry.free =
        entry.allocated
            ? 0
            : static_cast<uint16_t>(kFramesPerHuge - BitsOf(a).CountSet());
    if (!(repaired_entry == entry)) {
      state_->areas_[a].store(repaired_entry.Pack(),
                              std::memory_order_release);
      ++repaired;
    }
  }

  // Drop all reservations (their owners are gone after a crash).
  for (unsigned s = 0; s < config().NumSlots(); ++s) {
    if (ReadReservation(s).active) {
      state_->reservations_[s].store(Reservation{}.Pack(),
                                     std::memory_order_release);
      ++repaired;
    }
  }

  // Tree counters from the (now-correct) area counters.
  for (uint64_t t = 0; t < num_trees(); ++t) {
    uint64_t free = 0;
    for (uint64_t a = FirstAreaOf(t); a < FirstAreaOf(t) + AreasInTree(t);
         ++a) {
      free += ReadArea(a).free;
    }
    const TreeEntry entry = ReadTree(t);
    TreeEntry repaired_entry = entry;
    repaired_entry.free = static_cast<uint32_t>(free);
    repaired_entry.reserved = false;
    if (!(repaired_entry == entry)) {
      state_->trees_[t].store(repaired_entry.Pack(),
                              std::memory_order_release);
      ++repaired;
    }
  }
  // The counters changed without credits: forget what a probe learned.
  state_->dry_memo_.store(DryMemo{}.Pack(), std::memory_order_release);
  return repaired;
}

bool LLFree::Validate() const {
  bool ok = true;
  auto fail = [&ok](const char* what, uint64_t index, uint64_t a, uint64_t b) {
    std::fprintf(stderr, "llfree validate: %s at %llu: %llu vs %llu\n", what,
                 static_cast<unsigned long long>(index),
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    ok = false;
  };

  for (uint64_t a = 0; a < num_areas(); ++a) {
    const AreaEntry entry = ReadArea(a);
    const unsigned set_bits = BitsOf(a).CountSet();
    if (entry.allocated) {
      if (entry.free != 0) {
        fail("huge-allocated area with free != 0", a, entry.free, 0);
      }
      if (set_bits != 0) {
        fail("huge-allocated area with set bits", a, set_bits, 0);
      }
    } else {
      if (entry.free + set_bits != kFramesPerHuge) {
        fail("counter/bitfield mismatch", a, entry.free + set_bits,
             kFramesPerHuge);
      }
    }
  }

  // Tree counters + reservations must cover the area counters, except for
  // hard-reclaimed frames whose 512 were deliberately removed.
  std::vector<uint64_t> reserved_extra(num_trees(), 0);
  for (unsigned s = 0; s < config().NumSlots(); ++s) {
    const Reservation r = ReadReservation(s);
    if (r.active) {
      reserved_extra[r.tree] += r.free;
    }
  }
  for (uint64_t t = 0; t < num_trees(); ++t) {
    uint64_t area_free = 0;
    uint64_t hard_reclaimed = 0;
    for (uint64_t a = FirstAreaOf(t); a < FirstAreaOf(t) + AreasInTree(t);
         ++a) {
      const AreaEntry entry = ReadArea(a);
      area_free += entry.free;
      if (entry.allocated && entry.evicted) {
        hard_reclaimed += kFramesPerHuge;
      }
    }
    const TreeEntry entry = ReadTree(t);
    const uint64_t counted = entry.free + reserved_extra[t];
    // Hard-reclaimed areas contribute neither to area_free nor to the
    // tree counter, so both sides agree without adjustment. (The loop
    // above tracks them only for potential diagnostics.)
    (void)hard_reclaimed;
    if (counted != area_free) {
      fail("tree counter mismatch", t, counted, area_free);
    }
  }

  // A dry memo promises that no counter holds its need; a probe never
  // outlives its GetFallback.
  const DryMemo memo = ReadDryMemo();
  if (memo.kind == DryMemo::Kind::kProbing) {
    fail("dry memo left probing", 0, memo.need, 0);
  }
  for (uint64_t t = 0; t < num_trees(); ++t) {
    if (memo.Covers(ReadTree(t).free)) {
      fail("dry memo vs tree counter", t, ReadTree(t).free, memo.need);
    }
  }
  for (unsigned s = 0; s < config().NumSlots(); ++s) {
    const Reservation r = ReadReservation(s);
    if (r.active && memo.Covers(r.free)) {
      fail("dry memo vs reservation counter", s, r.free, memo.need);
    }
  }
  return ok;
}

}  // namespace hyperalloc::llfree
