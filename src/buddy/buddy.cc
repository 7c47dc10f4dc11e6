#include "src/buddy/buddy.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/base/check.h"

namespace hyperalloc::buddy {

namespace {
// Nodes visited per list before PopUnreported gives up — models the
// incremental scan budget of Linux's free-page reporting worker.
constexpr unsigned kReportScanBudget = 2048;
}  // namespace

MigrateType ToMigrateType(AllocType type) {
  switch (type) {
    case AllocType::kUnmovable:
      return MigrateType::kUnmovable;
    case AllocType::kMovable:
    case AllocType::kHuge:  // THP allocations are movable
      return MigrateType::kMovable;
  }
  return MigrateType::kMovable;
}

Buddy::Buddy(uint64_t frames, const Config& config)
    : frames_(frames), config_(config) {
  HA_CHECK(frames > 0);
  HA_CHECK(frames % (1ull << kMaxBuddyOrder) == 0);
  HA_CHECK(frames < kNil);  // frame ids must fit the 32-bit list links

  state_.assign(frames, kFreeTail);
  desc_.resize(frames);
  pageblock_type_.assign(frames / kFramesPerHuge, MigrateType::kMovable);
  for (auto& per_order : heads_) {
    per_order.fill(kNil);
  }
  pcp_.resize(config.cores);
  reported_.assign((frames + 63) / 64, 0);
  used_in_block_.assign(frames / kFramesPerHuge, 0);

  for (FrameId f = 0; f < frames; f += 1ull << kMaxBuddyOrder) {
    ListPush(kMaxBuddyOrder, MigrateType::kMovable, static_cast<uint32_t>(f));
  }
}

// ----------------------------------------------------------------------
// List and state primitives
// ----------------------------------------------------------------------

void Buddy::ListPush(unsigned order, MigrateType type, uint32_t frame) {
  const unsigned t = static_cast<unsigned>(type);
  PageDesc& d = desc_[frame];
  d.prev = kNil;
  d.next = heads_[order][t];
  if (d.next != kNil) {
    desc_[d.next].prev = frame;
  }
  heads_[order][t] = frame;
  state_[frame] = HeadState(order, type);
  free_frames_ += 1ull << order;
}

void Buddy::ListRemove(unsigned order, MigrateType type, uint32_t frame) {
  const unsigned t = static_cast<unsigned>(type);
  PageDesc& d = desc_[frame];
  if (d.prev != kNil) {
    desc_[d.prev].next = d.next;
  } else {
    HA_DCHECK(heads_[order][t] == frame);
    heads_[order][t] = d.next;
  }
  if (d.next != kNil) {
    desc_[d.next].prev = d.prev;
  }
  d.prev = kNil;
  d.next = kNil;
  free_frames_ -= 1ull << order;
}

uint32_t Buddy::ListPop(unsigned order, MigrateType type) {
  const uint32_t head = heads_[order][static_cast<unsigned>(type)];
  if (head != kNil) {
    ListRemove(order, type, head);
  }
  return head;
}

void Buddy::CountUsed(uint32_t frame, unsigned order, bool allocated) {
  // A block of order >= kHugeOrder covers whole 2 MiB blocks; a smaller
  // one lies inside a single block.
  const uint64_t per_block = 1ull << std::min(order, kHugeOrder);
  const HugeId first = FrameToHuge(frame);
  const HugeId last = FrameToHuge(frame + (1ull << order) - 1);
  for (HugeId h = first; h <= last; ++h) {
    HA_DCHECK(allocated ? used_in_block_[h] + per_block <= kFramesPerHuge
                        : used_in_block_[h] >= per_block);
    if (allocated) {
      used_in_block_[h] = static_cast<uint16_t>(used_in_block_[h] + per_block);
    } else {
      used_in_block_[h] = static_cast<uint16_t>(used_in_block_[h] - per_block);
    }
  }
}

void Buddy::MarkAllocated(uint32_t frame, unsigned order) {
  HA_DCHECK(FindState(frame, frame + (1ull << order), true) ==
            frame + (1ull << order));
  std::memset(&state_[frame], kAllocated, 1ull << order);
  CountUsed(frame, order, true);
}

FrameId Buddy::FindState(FrameId first, FrameId end, bool allocated) const {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHighs = 0x8080808080808080ull;
  FrameId f = first;
  while (f < end && f % 8 != 0) {
    if ((state_[f] == kAllocated) == allocated) {
      return f;
    }
    ++f;
  }
  for (; f + 8 <= end; f += 8) {
    uint64_t word;
    std::memcpy(&word, &state_[f], sizeof(word));
    // An allocated frame is a zero byte; the classic has-zero-byte test
    // is exact as a yes/no answer.
    const bool hit = allocated ? ((word - kOnes) & ~word & kHighs) != 0
                               : word != 0;
    if (hit) {
      break;  // the byte loop below finds it within this word
    }
  }
  for (; f < end; ++f) {
    if ((state_[f] == kAllocated) == allocated) {
      return f;
    }
  }
  return end;
}

// ----------------------------------------------------------------------
// Core buddy paths
// ----------------------------------------------------------------------

void Buddy::SplitTo(uint32_t frame, unsigned from_order, unsigned to_order,
                    MigrateType type) {
  // The interior of the detached block is free-tail state already; each
  // upper half only needs its head written, which ListPush does.
  for (unsigned o = from_order; o > to_order; --o) {
    ListPush(o - 1, type, frame + (1u << (o - 1)));
  }
}

std::optional<FrameId> Buddy::AllocCore(unsigned order, MigrateType type) {
  for (unsigned o = order; o <= kMaxBuddyOrder; ++o) {
    const uint32_t frame = ListPop(o, type);
    if (frame == kNil) {
      continue;
    }
    SplitTo(frame, o, order, type);
    MarkAllocated(frame, order);
    ClearReported(frame, order);
    return frame;
  }
  return StealFallback(order, type);
}

std::optional<FrameId> Buddy::StealFallback(unsigned order,
                                            MigrateType type) {
  const MigrateType other = type == MigrateType::kUnmovable
                                ? MigrateType::kMovable
                                : MigrateType::kUnmovable;
  // Linux steals the largest available block first, to limit how often
  // foreign allocations pollute pageblocks.
  for (int o = static_cast<int>(kMaxBuddyOrder); o >= static_cast<int>(order);
       --o) {
    const uint32_t frame = ListPop(static_cast<unsigned>(o), other);
    if (frame == kNil) {
      continue;
    }
    MigrateType remainder_type = other;
    if (static_cast<unsigned>(o) >= kHugeOrder) {
      // Whole pageblock(s): claim them for our migrate type.
      const uint64_t size = 1ull << static_cast<unsigned>(o);
      for (HugeId hb = FrameToHuge(frame); hb < FrameToHuge(frame + size);
           ++hb) {
        pageblock_type_[hb] = type;
      }
      remainder_type = type;
    }
    SplitTo(frame, static_cast<unsigned>(o), order, remainder_type);
    MarkAllocated(frame, order);
    ClearReported(frame, order);
    return frame;
  }
  return std::nullopt;
}

void Buddy::FreeCore(FrameId frame, unsigned order) {
  // The block is allocated; it becomes free-tail state, then each merge
  // turns the absorbed buddy's head into a tail as well. Only the final
  // head is written (by ListPush).
  std::memset(&state_[frame], kFreeTail, 1ull << order);
  CountUsed(static_cast<uint32_t>(frame), order, false);
  uint32_t base = static_cast<uint32_t>(frame);
  unsigned o = order;
  while (o < kMaxBuddyOrder) {
    const uint32_t buddy = base ^ (1u << o);
    if (buddy >= frames_) {
      break;
    }
    const uint8_t state = state_[buddy];
    if (!IsHead(state) || HeadOrder(state) != o) {
      break;
    }
    ListRemove(o, HeadType(state), buddy);
    state_[buddy] = kFreeTail;
    base = std::min(base, buddy);
    ++o;
  }
  ListPush(o, PageblockType(base), base);
}

void Buddy::RefillPcp(std::vector<uint32_t>& cache, MigrateType type) {
  for (unsigned i = 0; i < config_.pcp_batch; ++i) {
    const std::optional<FrameId> f = AllocCore(0, type);
    if (!f.has_value()) {
      break;
    }
    cache.push_back(static_cast<uint32_t>(*f));
    ++pcp_frames_;
  }
}

// ----------------------------------------------------------------------
// Public allocation API
// ----------------------------------------------------------------------

Result<FrameId> Buddy::Alloc(unsigned core, unsigned order, AllocType type) {
  if (order > kMaxBuddyOrder) {
    return AllocError::kInvalid;
  }
  const MigrateType mt = ToMigrateType(type);
  if (order == 0 && config_.pcp_enabled) {
    HA_CHECK(core < pcp_.size());
    auto& cache = pcp_[core].lists[static_cast<unsigned>(mt)];
    if (cache.empty()) {
      RefillPcp(cache, mt);
    }
    if (cache.empty()) {
      return AllocError::kNoMemory;
    }
    const uint32_t frame = cache.back();
    cache.pop_back();
    --pcp_frames_;
    return static_cast<FrameId>(frame);
  }

  const std::optional<FrameId> frame = AllocCore(order, mt);
  if (!frame.has_value()) {
    return AllocError::kNoMemory;
  }
  return *frame;
}

unsigned Buddy::AllocBatch(unsigned core, unsigned order, unsigned count,
                           AllocType type, std::vector<FrameId>* out) {
  HA_CHECK(out != nullptr);
  if (order > kMaxBuddyOrder) {
    return 0;
  }
  const MigrateType mt = ToMigrateType(type);
  unsigned got = 0;
  if (order == 0 && config_.pcp_enabled) {
    HA_CHECK(core < pcp_.size());
    auto& cache = pcp_[core].lists[static_cast<unsigned>(mt)];
    while (got < count) {
      if (cache.empty()) {
        RefillPcp(cache, mt);
        if (cache.empty()) {
          break;
        }
      }
      // Singles pop from the back: take the tail of the list reversed.
      const size_t take = std::min<size_t>(cache.size(), count - got);
      out->insert(out->end(), cache.rbegin(), cache.rbegin() + take);
      cache.resize(cache.size() - take);
      pcp_frames_ -= take;
      got += static_cast<unsigned>(take);
    }
    return got;
  }
  for (; got < count; ++got) {
    const std::optional<FrameId> frame = AllocCore(order, mt);
    if (!frame.has_value()) {
      break;
    }
    out->push_back(*frame);
  }
  return got;
}

std::optional<AllocError> Buddy::Free(unsigned core, FrameId frame,
                                      unsigned order) {
  if (order > kMaxBuddyOrder || frame >= frames_ ||
      frame % (1ull << order) != 0) {
    return AllocError::kInvalid;
  }
  // Double-free detection: the whole block must currently be allocated.
  if (!AllAllocated(frame, 1ull << order)) {
    return AllocError::kInvalid;
  }

  if (order == 0 && config_.pcp_enabled) {
    HA_CHECK(core < pcp_.size());
    const MigrateType mt = PageblockType(frame);
    auto& cache = pcp_[core].lists[static_cast<unsigned>(mt)];
    cache.push_back(static_cast<uint32_t>(frame));
    ++pcp_frames_;
    if (cache.size() > 2 * config_.pcp_batch) {
      for (unsigned i = 0; i < config_.pcp_batch; ++i) {
        FreeCore(cache.back(), 0);
        cache.pop_back();
        --pcp_frames_;
      }
    }
    return std::nullopt;
  }

  FreeCore(frame, order);
  return std::nullopt;
}

void Buddy::DrainPcp() {
  for (Pcp& pcp : pcp_) {
    for (auto& cache : pcp.lists) {
      for (const uint32_t frame : cache) {
        FreeCore(frame, 0);
        --pcp_frames_;
      }
      cache.clear();
    }
  }
}

// ----------------------------------------------------------------------
// virtio-mem support
// ----------------------------------------------------------------------

std::optional<uint32_t> Buddy::FindCoveringHead(FrameId frame) const {
  if (IsHead(state_[frame])) {
    return static_cast<uint32_t>(frame);
  }
  for (unsigned o = 1; o <= kMaxBuddyOrder; ++o) {
    const FrameId head = AlignDown(frame, 1ull << o);
    if (head == frame) {
      continue;
    }
    const uint8_t state = state_[head];
    if (IsHead(state) && HeadOrder(state) == o) {
      return static_cast<uint32_t>(head);
    }
  }
  return std::nullopt;
}

bool Buddy::ClaimRange(FrameId start, uint64_t count) {
  HA_CHECK(start + count <= frames_);
  if (FindState(start, start + count, true) != start + count) {
    return false;
  }
  // Detach every free block overlapping the range, then give back the
  // parts that stick out on either side.
  FrameId f = start;
  while (f < start + count) {
    std::optional<uint32_t> head = FindCoveringHead(f);
    HA_CHECK(head.has_value());  // verified free above
    const uint8_t state = state_[*head];
    const unsigned order = HeadOrder(state);
    const uint64_t size = 1ull << order;
    ListRemove(order, HeadType(state), *head);
    MarkAllocated(*head, order);
    ClearReported(*head, order);
    if (*head < start) {
      ReleaseRange(*head, start - *head);
    }
    const FrameId block_end = *head + size;
    if (block_end > start + count) {
      ReleaseRange(start + count, block_end - (start + count));
    }
    f = block_end;
  }
  return true;
}

void Buddy::ReleaseRange(FrameId start, uint64_t count) {
  HA_CHECK(start + count <= frames_);
  // Greedily free maximal naturally aligned blocks.
  FrameId f = start;
  uint64_t remaining = count;
  while (remaining > 0) {
    unsigned order = kMaxBuddyOrder;
    while (order > 0 &&
           (f % (1ull << order) != 0 || (1ull << order) > remaining)) {
      --order;
    }
    HA_CHECK(AllAllocated(f, 1ull << order));
    FreeCore(f, order);
    f += 1ull << order;
    remaining -= 1ull << order;
  }
}

uint64_t Buddy::ClaimFreeInRange(FrameId start, uint64_t count) {
  HA_CHECK(start + count <= frames_);
  const FrameId end = start + count;
  uint64_t claimed = 0;
  FrameId f = FindState(start, end, false);
  while (f < end) {
    const std::optional<uint32_t> head = FindCoveringHead(f);
    HA_CHECK(head.has_value());
    const uint8_t state = state_[*head];
    const unsigned order = HeadOrder(state);
    const uint64_t size = 1ull << order;
    ListRemove(order, HeadType(state), *head);
    MarkAllocated(*head, order);
    ClearReported(*head, order);
    const FrameId block_end = *head + size;
    if (*head < start) {
      ReleaseRange(*head, start - *head);
    }
    if (block_end > end) {
      ReleaseRange(end, block_end - end);
    }
    claimed += std::min<FrameId>(block_end, end) -
               std::max<FrameId>(*head, start);
    f = FindState(block_end, end, false);
  }
  return claimed;
}

std::vector<FrameId> Buddy::AllocatedInRange(FrameId start,
                                             uint64_t count) const {
  HA_CHECK(start + count <= frames_);
  const FrameId end = start + count;
  std::vector<FrameId> result;
  for (FrameId f = FindState(start, end, true); f < end;
       f = FindState(f + 1, end, true)) {
    result.push_back(f);
  }
  return result;
}

bool Buddy::IsFree(FrameId frame) const {
  HA_CHECK(frame < frames_);
  return state_[frame] != kAllocated;
}

// ----------------------------------------------------------------------
// Free-page reporting support
// ----------------------------------------------------------------------

std::optional<FrameId> Buddy::PopUnreported(unsigned order) {
  HA_CHECK(order <= kMaxBuddyOrder);
  // Blocks of the requested order or larger qualify (Linux reports from
  // every free list of order >= the reporting order); larger blocks are
  // split and the unused siblings stay in the lists.
  for (unsigned o = order; o <= kMaxBuddyOrder; ++o) {
    for (unsigned t = 0; t < kNumMigrateTypes; ++t) {
      unsigned budget = kReportScanBudget;
      uint32_t frame = heads_[o][t];
      while (frame != kNil && budget-- > 0) {
        if (!IsReported(frame)) {
          ListRemove(o, static_cast<MigrateType>(t), frame);
          SplitTo(frame, o, order, static_cast<MigrateType>(t));
          MarkAllocated(frame, order);
          return static_cast<FrameId>(frame);
        }
        frame = desc_[frame].next;
      }
    }
  }
  return std::nullopt;
}

void Buddy::MarkReported(FrameId frame, unsigned order) {
  SetReported(frame, order, true);
}

bool Buddy::IsReported(FrameId frame) const {
  return (reported_[frame / 64] >> (frame % 64)) & 1;
}

void Buddy::SetReported(FrameId frame, unsigned order, bool reported) {
  // Blocks are naturally aligned: below order 6 the block lies in one
  // word, from order 6 on it covers whole words.
  if (order < 6) {
    const uint64_t mask = ((1ull << (1u << order)) - 1) << (frame % 64);
    if (reported) {
      reported_[frame / 64] |= mask;
    } else {
      reported_[frame / 64] &= ~mask;
    }
    return;
  }
  std::fill_n(reported_.begin() + static_cast<std::ptrdiff_t>(frame / 64),
              1ull << (order - 6), reported ? ~0ull : 0ull);
}

// ----------------------------------------------------------------------
// Introspection
// ----------------------------------------------------------------------

uint64_t Buddy::FreeBlocksOfOrder(unsigned order) const {
  HA_CHECK(order <= kMaxBuddyOrder);
  uint64_t count = 0;
  for (unsigned t = 0; t < kNumMigrateTypes; ++t) {
    for (uint32_t f = heads_[order][t]; f != kNil; f = desc_[f].next) {
      ++count;
    }
  }
  return count;
}

uint64_t Buddy::FreeHugeFrames() const {
  uint64_t frames = 0;
  for (unsigned o = kHugeOrder; o <= kMaxBuddyOrder; ++o) {
    frames += FreeBlocksOfOrder(o) << o;
  }
  return frames;
}

uint64_t Buddy::UsedHugeBlocks() const {
  uint64_t count = 0;
  for (const uint16_t used : used_in_block_) {
    if (used > 0) {
      ++count;
    }
  }
  return count;
}

uint64_t Buddy::FreeAlignedHugeRanges() const {
  return static_cast<uint64_t>(
      std::count(used_in_block_.begin(), used_in_block_.end(), 0));
}

bool Buddy::Validate() const {
  bool ok = true;
  auto fail = [&ok](const char* what, uint64_t a, uint64_t b) {
    std::fprintf(stderr, "buddy validate: %s (%llu vs %llu)\n", what,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    ok = false;
  };

  // Lists against the state bytes: every node is a head of its list's
  // order and type with a tail-state interior.
  uint64_t listed = 0;
  uint64_t listed_heads = 0;
  for (unsigned o = 0; o <= kMaxBuddyOrder; ++o) {
    for (unsigned t = 0; t < kNumMigrateTypes; ++t) {
      uint32_t prev = kNil;
      for (uint32_t f = heads_[o][t]; f != kNil; f = desc_[f].next) {
        if (state_[f] != HeadState(o, static_cast<MigrateType>(t))) {
          fail("list node not a free head of its order and type", f, o);
        }
        if (desc_[f].prev != prev) {
          fail("broken prev link", f, prev);
        }
        if (f % (1ull << o) != 0) {
          fail("misaligned free block", f, o);
        }
        for (uint64_t i = 1; i < (1ull << o); ++i) {
          if (state_[f + i] != kFreeTail) {
            fail("free block interior not tail", f + i, o);
          }
        }
        listed += 1ull << o;
        ++listed_heads;
        prev = f;
        if (listed_heads > frames_) {
          fail("free list cycle", f, o);
          return false;
        }
      }
    }
  }
  if (listed != free_frames_) {
    fail("free frame counter mismatch", listed, free_frames_);
  }

  // State bytes against the lists and the usage counters: every head is
  // well-formed and listed (the head counts agree), every tail lies
  // inside a head's block, and each block's allocated bytes match its
  // counter.
  uint64_t heads = 0;
  std::vector<uint16_t> used(used_in_block_.size(), 0);
  for (FrameId f = 0; f < frames_;) {
    const uint8_t state = state_[f];
    if (state == kAllocated) {
      ++used[FrameToHuge(f)];
      ++f;
    } else if (IsHead(state)) {
      if (HeadOrder(state) > kMaxBuddyOrder ||
          state != HeadState(HeadOrder(state), HeadType(state))) {
        fail("malformed head state", f, state);
        return false;
      }
      ++heads;
      f += 1ull << HeadOrder(state);
    } else {
      fail("free tail outside any free block", f, state);
      ++f;
    }
  }
  if (heads != listed_heads) {
    fail("head states vs listed blocks", heads, listed_heads);
  }
  for (HugeId h = 0; h < used.size(); ++h) {
    if (used[h] != used_in_block_[h]) {
      fail("per-block usage counter mismatch", h, used_in_block_[h]);
    }
  }
  for (const Pcp& pcp : pcp_) {
    for (const auto& cache : pcp.lists) {
      for (const uint32_t f : cache) {
        if (state_[f] != kAllocated) {
          fail("PCP-cached frame not in allocated state", f, state_[f]);
        }
      }
    }
  }
  return ok;
}

}  // namespace hyperalloc::buddy
