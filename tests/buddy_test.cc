// Unit and property tests for the Linux-style buddy allocator baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "src/base/rng.h"
#include "src/buddy/buddy.h"

namespace hyperalloc::buddy {

// Per-frame reference paths the run paths replace, and a view of the
// list order they must preserve.
class BuddyTestPeer {
 public:
  // Alloc(core, 0, type) with the per-frame PCP refill: up to pcp_batch
  // single AllocCore(0) calls.
  static Result<FrameId> SingleRefillAlloc(Buddy& b, unsigned core,
                                           AllocType type) {
    const MigrateType mt = ToMigrateType(type);
    auto& cache = b.pcp_[core].lists[static_cast<unsigned>(mt)];
    if (cache.empty()) {
      for (unsigned i = 0; i < b.config_.pcp_batch; ++i) {
        const std::optional<FrameId> f = b.AllocCore(0, mt);
        if (!f.has_value()) {
          break;
        }
        cache.push_back(static_cast<uint32_t>(*f));
        ++b.pcp_frames_;
      }
    }
    if (cache.empty()) {
      return AllocError::kNoMemory;
    }
    const uint32_t frame = cache.back();
    cache.pop_back();
    --b.pcp_frames_;
    return static_cast<FrameId>(frame);
  }

  // Whether a refill of `type` now would carve one block: pcp_batch is a
  // power of two and every `type` list below its order is empty.
  static bool RefillCarves(const Buddy& b, AllocType type) {
    const unsigned batch = b.config_.pcp_batch;
    if (!std::has_single_bit(batch)) {
      return false;
    }
    const unsigned t = static_cast<unsigned>(ToMigrateType(type));
    for (unsigned o = 0; o < static_cast<unsigned>(std::countr_zero(batch));
         ++o) {
      if (b.heads_[o][t] != Buddy::kNil) {
        return false;
      }
    }
    return true;
  }

  static bool PcpEmpty(const Buddy& b, unsigned core, AllocType type) {
    return b.pcp_[core]
        .lists[static_cast<unsigned>(ToMigrateType(type))]
        .empty();
  }

  // Every free list and PCP list, in list order.
  static std::vector<std::vector<uint32_t>> Lists(const Buddy& b) {
    std::vector<std::vector<uint32_t>> lists;
    for (unsigned o = 0; o <= kMaxBuddyOrder; ++o) {
      for (unsigned t = 0; t < kNumMigrateTypes; ++t) {
        lists.emplace_back();
        for (uint32_t f = b.heads_[o][t]; f != Buddy::kNil;
             f = b.desc_[f].next) {
          lists.back().push_back(f);
        }
      }
    }
    for (const Buddy::Pcp& pcp : b.pcp_) {
      for (const auto& cache : pcp.lists) {
        lists.push_back(cache);
      }
    }
    return lists;
  }
};

namespace {

constexpr uint64_t kFrames = 16384;  // 64 MiB

Buddy::Config NoPcp() {
  Buddy::Config config;
  config.pcp_enabled = false;
  return config;
}

// FreeAlignedHugeRanges the slow way: 2 MiB blocks whose every frame is
// free.
uint64_t BruteFreeAlignedHugeRanges(const Buddy& buddy) {
  uint64_t count = 0;
  for (HugeId h = 0; h < buddy.frames() / kFramesPerHuge; ++h) {
    bool all_free = true;
    for (FrameId f = HugeToFrame(h); f < HugeToFrame(h + 1) && all_free;
         ++f) {
      all_free = buddy.IsFree(f);
    }
    count += all_free ? 1 : 0;
  }
  return count;
}

TEST(Buddy, InitialStateFullyFree) {
  Buddy buddy(kFrames, NoPcp());
  EXPECT_EQ(buddy.FreeFrames(), kFrames);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(kMaxBuddyOrder),
            kFrames >> kMaxBuddyOrder);
  EXPECT_EQ(buddy.FreeHugeFrames(), kFrames);
  EXPECT_TRUE(buddy.Validate());
}

TEST(Buddy, AllocFreeRoundTrip) {
  Buddy buddy(kFrames, NoPcp());
  const Result<FrameId> frame = buddy.Alloc(0, 0, AllocType::kMovable);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(buddy.FreeFrames(), kFrames - 1);
  EXPECT_FALSE(buddy.Free(0, *frame, 0).has_value());
  EXPECT_EQ(buddy.FreeFrames(), kFrames);
  // Buddies merged all the way back to max order.
  EXPECT_EQ(buddy.FreeBlocksOfOrder(kMaxBuddyOrder),
            kFrames >> kMaxBuddyOrder);
  EXPECT_TRUE(buddy.Validate());
}

TEST(Buddy, SplitProducesAlignedBlocks) {
  Buddy buddy(kFrames, NoPcp());
  for (unsigned order = 0; order <= kMaxBuddyOrder; ++order) {
    const Result<FrameId> frame = buddy.Alloc(0, order, AllocType::kMovable);
    ASSERT_TRUE(frame.ok()) << "order " << order;
    EXPECT_EQ(*frame % (1ull << order), 0u) << "order " << order;
    EXPECT_FALSE(buddy.Free(0, *frame, order).has_value());
  }
  EXPECT_EQ(buddy.FreeFrames(), kFrames);
  EXPECT_TRUE(buddy.Validate());
}

TEST(Buddy, DoubleFreeDetected) {
  Buddy buddy(kFrames, NoPcp());
  const Result<FrameId> frame = buddy.Alloc(0, 3, AllocType::kMovable);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(buddy.Free(0, *frame, 3).has_value());
  const auto err = buddy.Free(0, *frame, 3);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, AllocError::kInvalid);
}

TEST(Buddy, InvalidFreesRejected) {
  Buddy buddy(kFrames, NoPcp());
  EXPECT_EQ(buddy.Free(0, kFrames, 0), AllocError::kInvalid);
  EXPECT_EQ(buddy.Free(0, 1, 3), AllocError::kInvalid);  // misaligned
  EXPECT_EQ(buddy.Free(0, 0, kMaxBuddyOrder + 1), AllocError::kInvalid);
}

TEST(Buddy, InvalidOrderAllocRejected) {
  Buddy buddy(kFrames, NoPcp());
  const Result<FrameId> r = buddy.Alloc(0, kMaxBuddyOrder + 1,
                                        AllocType::kMovable);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), AllocError::kInvalid);
}

TEST(Buddy, ExhaustionReturnsNoMemory) {
  Buddy buddy(1024, NoPcp());
  std::vector<FrameId> held;
  for (;;) {
    const Result<FrameId> r = buddy.Alloc(0, 0, AllocType::kMovable);
    if (!r.ok()) {
      EXPECT_EQ(r.error(), AllocError::kNoMemory);
      break;
    }
    held.push_back(*r);
  }
  EXPECT_EQ(held.size(), 1024u);
  std::set<FrameId> unique(held.begin(), held.end());
  EXPECT_EQ(unique.size(), held.size());
}

TEST(Buddy, MergeRequiresBuddyNotJustNeighbor) {
  Buddy buddy(1024, NoPcp());
  // Allocate the whole space as order-0, then free frames 1 and 2:
  // neighbors but not buddies (1^1=0, 2^1=3) — must remain two order-0
  // blocks, not merge into an order-1.
  std::vector<FrameId> held;
  for (int i = 0; i < 1024; ++i) {
    const Result<FrameId> r = buddy.Alloc(0, 0, AllocType::kMovable);
    ASSERT_TRUE(r.ok());
    held.push_back(*r);
  }
  std::sort(held.begin(), held.end());
  ASSERT_FALSE(buddy.Free(0, 1, 0).has_value());
  ASSERT_FALSE(buddy.Free(0, 2, 0).has_value());
  EXPECT_EQ(buddy.FreeBlocksOfOrder(0), 2u);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(1), 0u);
  // Freeing frame 3 merges {2,3} to an order-1 block.
  ASSERT_FALSE(buddy.Free(0, 3, 0).has_value());
  EXPECT_EQ(buddy.FreeBlocksOfOrder(0), 1u);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(1), 1u);
  // Freeing frame 0 merges {0,1}, then {0..3} to order-2.
  ASSERT_FALSE(buddy.Free(0, 0, 0).has_value());
  EXPECT_EQ(buddy.FreeBlocksOfOrder(0), 0u);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(1), 0u);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(2), 1u);
  EXPECT_TRUE(buddy.Validate());
}

TEST(Buddy, PcpCachesOrderZero) {
  Buddy::Config config;
  config.cores = 2;
  config.pcp_batch = 8;
  Buddy buddy(kFrames, config);
  const Result<FrameId> a = buddy.Alloc(0, 0, AllocType::kMovable);
  ASSERT_TRUE(a.ok());
  // The refill pulled a batch into the core-0 cache.
  EXPECT_EQ(buddy.FreeFrames(), kFrames - 1);
  EXPECT_EQ(buddy.FreeFramesInLists(), kFrames - 8);
  // Freeing goes back to the cache, not the lists.
  EXPECT_FALSE(buddy.Free(0, *a, 0).has_value());
  EXPECT_EQ(buddy.FreeFrames(), kFrames);
  EXPECT_LT(buddy.FreeFramesInLists(), kFrames);
  // LIFO: the next allocation returns the just-freed frame (the PCP
  // behaviour that defeats VProbe-style reclamation, §2).
  const Result<FrameId> b = buddy.Alloc(0, 0, AllocType::kMovable);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);
  EXPECT_FALSE(buddy.Free(0, *b, 0).has_value());
  buddy.DrainPcp();
  EXPECT_EQ(buddy.FreeFramesInLists(), kFrames);
  EXPECT_TRUE(buddy.Validate());
}

TEST(Buddy, PcpSpillsWhenOverfull) {
  Buddy::Config config;
  config.pcp_batch = 4;
  Buddy buddy(1024, config);
  std::vector<FrameId> held;
  for (int i = 0; i < 16; ++i) {
    const Result<FrameId> r = buddy.Alloc(0, 0, AllocType::kMovable);
    ASSERT_TRUE(r.ok());
    held.push_back(*r);
  }
  for (const FrameId f : held) {
    ASSERT_FALSE(buddy.Free(0, f, 0).has_value());
  }
  // Cache is bounded at 2*batch; the rest spilled back to the lists.
  EXPECT_GE(buddy.FreeFramesInLists(), 1024u - 2 * 4);
  EXPECT_EQ(buddy.FreeFrames(), 1024u);
}

TEST(Buddy, ClaimRangeRemovesSpecificFrames) {
  Buddy buddy(kFrames, NoPcp());
  ASSERT_TRUE(buddy.ClaimRange(512, 512));
  EXPECT_EQ(buddy.FreeFrames(), kFrames - 512);
  for (FrameId f = 512; f < 1024; ++f) {
    EXPECT_FALSE(buddy.IsFree(f));
  }
  // Claimed frames cannot be allocated.
  std::set<FrameId> seen;
  for (;;) {
    const Result<FrameId> r = buddy.Alloc(0, 0, AllocType::kMovable);
    if (!r.ok()) {
      break;
    }
    seen.insert(*r);
  }
  for (FrameId f = 512; f < 1024; ++f) {
    EXPECT_EQ(seen.count(f), 0u);
  }
  buddy.ReleaseRange(512, 512);
  EXPECT_EQ(buddy.FreeHugeFrames(), 512u);  // merged back
  EXPECT_TRUE(buddy.Validate());
}

TEST(Buddy, ClaimRangeFailsOnAllocatedFrames) {
  Buddy buddy(kFrames, NoPcp());
  const Result<FrameId> f = buddy.Alloc(0, 0, AllocType::kMovable);
  ASSERT_TRUE(f.ok());
  const uint64_t before = buddy.FreeFrames();
  EXPECT_FALSE(buddy.ClaimRange(AlignDown(*f, 512), 512));
  EXPECT_EQ(buddy.FreeFrames(), before);  // nothing changed
  EXPECT_TRUE(buddy.Validate());
}

TEST(Buddy, ClaimRangeSplitsStraddlingBlocks) {
  Buddy buddy(kFrames, NoPcp());
  // The initial order-10 block covering [0,1024) straddles [256, 768).
  ASSERT_TRUE(buddy.ClaimRange(256, 512));
  EXPECT_EQ(buddy.FreeFrames(), kFrames - 512);
  EXPECT_TRUE(buddy.IsFree(0));
  EXPECT_TRUE(buddy.IsFree(255));
  EXPECT_FALSE(buddy.IsFree(256));
  EXPECT_FALSE(buddy.IsFree(767));
  EXPECT_TRUE(buddy.IsFree(768));
  EXPECT_TRUE(buddy.Validate());
  buddy.ReleaseRange(256, 512);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(kMaxBuddyOrder),
            kFrames >> kMaxBuddyOrder);
}

TEST(Buddy, AllocatedInRangeFindsMigrationTargets) {
  Buddy buddy(kFrames, NoPcp());
  const Result<FrameId> a = buddy.Alloc(0, 0, AllocType::kMovable);
  ASSERT_TRUE(a.ok());
  const FrameId block = AlignDown(*a, 512);
  const std::vector<FrameId> used = buddy.AllocatedInRange(block, 512);
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(used[0], *a);
}

TEST(Buddy, FallbackStealsFromOtherMigrateType) {
  Buddy buddy(1024, NoPcp());
  // Exhaust via movable, free one frame, then allocate unmovable: the
  // allocator must steal it rather than fail.
  std::vector<FrameId> held;
  for (int i = 0; i < 1024; ++i) {
    const Result<FrameId> r = buddy.Alloc(0, 0, AllocType::kMovable);
    ASSERT_TRUE(r.ok());
    held.push_back(*r);
  }
  ASSERT_FALSE(buddy.Free(0, held.back(), 0).has_value());
  const Result<FrameId> um = buddy.Alloc(0, 0, AllocType::kUnmovable);
  ASSERT_TRUE(um.ok());
  EXPECT_EQ(*um, held.back());
}

TEST(Buddy, LargeFallbackStealConvertsPageblock) {
  Buddy buddy(kFrames, NoPcp());
  // First unmovable allocation steals from the (all-movable) free lists;
  // since the stolen block is >= a pageblock, the pageblock converts.
  const Result<FrameId> um = buddy.Alloc(0, 0, AllocType::kUnmovable);
  ASSERT_TRUE(um.ok());
  ASSERT_FALSE(buddy.Free(0, *um, 0).has_value());
  // Subsequent unmovable allocations are served from the converted
  // pageblock without further stealing: same huge frame.
  const Result<FrameId> um2 = buddy.Alloc(0, 0, AllocType::kUnmovable);
  ASSERT_TRUE(um2.ok());
  EXPECT_EQ(FrameToHuge(*um2), FrameToHuge(*um));
}

TEST(Buddy, ReportingPopSkipsReported) {
  Buddy buddy(kFrames, NoPcp());
  const std::optional<FrameId> first = buddy.PopUnreported(kHugeOrder);
  ASSERT_TRUE(first.has_value());
  buddy.MarkReported(*first, kHugeOrder);
  ASSERT_FALSE(buddy.Free(0, *first, kHugeOrder).has_value());
  EXPECT_TRUE(buddy.IsReported(*first));
  const std::optional<FrameId> second = buddy.PopUnreported(kHugeOrder);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*second, *first);
  ASSERT_FALSE(buddy.Free(0, *second, kHugeOrder).has_value());
}

TEST(Buddy, AllocationClearsReportedFlag) {
  Buddy buddy(kFrames, NoPcp());
  const std::optional<FrameId> block = buddy.PopUnreported(kHugeOrder);
  ASSERT_TRUE(block.has_value());
  buddy.MarkReported(*block, kHugeOrder);
  ASSERT_FALSE(buddy.Free(0, *block, kHugeOrder).has_value());
  // Normal allocation reuses the reported block (LIFO) and clears it:
  // the host must be told again before it can be reclaimed.
  const Result<FrameId> again = buddy.Alloc(0, kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *block);
  EXPECT_FALSE(buddy.IsReported(*again));
}

TEST(Buddy, FragmentationBlocksHugeReclaim) {
  // The paper's core buddy weakness (Fig. 8): scattered long-lived
  // allocations destroy huge-page availability even when most memory is
  // free.
  Buddy buddy(kFrames, NoPcp());
  std::vector<FrameId> held;
  for (uint64_t i = 0; i < kFrames; ++i) {
    const Result<FrameId> r = buddy.Alloc(0, 0, AllocType::kMovable);
    ASSERT_TRUE(r.ok());
    held.push_back(*r);
  }
  // Free all but one frame per huge range.
  std::sort(held.begin(), held.end());
  for (const FrameId f : held) {
    if (f % kFramesPerHuge != 0) {
      ASSERT_FALSE(buddy.Free(0, f, 0).has_value());
    }
  }
  EXPECT_EQ(buddy.FreeFrames(), kFrames - kFrames / kFramesPerHuge);
  EXPECT_EQ(buddy.FreeHugeFrames(), 0u) << "no order-9 blocks can form";
  EXPECT_EQ(buddy.FreeAlignedHugeRanges(), 0u);
  EXPECT_TRUE(buddy.Validate());
}

TEST(Buddy, RandomOpsPreserveInvariants) {
  Buddy::Config config;
  config.cores = 2;
  Buddy buddy(kFrames, config);
  Rng rng(555);
  std::vector<std::pair<FrameId, unsigned>> live;
  uint64_t allocated = 0;

  for (int step = 0; step < 30000; ++step) {
    const unsigned core = static_cast<unsigned>(rng.Below(2));
    if (rng.Chance(0.55)) {
      static constexpr unsigned kOrders[] = {0, 0, 0, 0, 1, 2, 3, 4, 9, 10};
      const unsigned order = kOrders[rng.Below(10)];
      const AllocType type = static_cast<AllocType>(rng.Below(3));
      const Result<FrameId> r = buddy.Alloc(core, order, type);
      if (r.ok()) {
        EXPECT_EQ(*r % (1ull << order), 0u);
        live.emplace_back(*r, order);
        allocated += 1ull << order;
      }
    } else if (!live.empty()) {
      const size_t idx = rng.Below(live.size());
      const auto [frame, order] = live[idx];
      live[idx] = live.back();
      live.pop_back();
      ASSERT_FALSE(buddy.Free(core, frame, order).has_value());
      allocated -= 1ull << order;
    }
    if (step % 5000 == 0) {
      ASSERT_EQ(buddy.FreeAlignedHugeRanges(),
                BruteFreeAlignedHugeRanges(buddy));
    }
  }
  EXPECT_EQ(buddy.FreeFrames(), kFrames - allocated);
  EXPECT_EQ(buddy.FreeAlignedHugeRanges(), BruteFreeAlignedHugeRanges(buddy));
  EXPECT_TRUE(buddy.Validate());

  for (const auto& [frame, order] : live) {
    ASSERT_FALSE(buddy.Free(0, frame, order).has_value());
  }
  buddy.DrainPcp();
  EXPECT_EQ(buddy.FreeFramesInLists(), kFrames);
  // Everything must have merged back to pristine max-order blocks.
  EXPECT_EQ(buddy.FreeBlocksOfOrder(kMaxBuddyOrder),
            kFrames >> kMaxBuddyOrder);
  EXPECT_TRUE(buddy.Validate());
}

TEST(Buddy, RandomClaimReleaseInvariants) {
  Buddy buddy(kFrames, NoPcp());
  Rng rng(777);
  std::vector<std::pair<FrameId, uint64_t>> claimed;
  std::vector<std::pair<FrameId, unsigned>> live;

  for (int step = 0; step < 4000; ++step) {
    const uint64_t dice = rng.Below(100);
    if (dice < 30) {
      const HugeId h = rng.Below(kFrames / kFramesPerHuge);
      if (buddy.ClaimRange(HugeToFrame(h), kFramesPerHuge)) {
        claimed.emplace_back(HugeToFrame(h), kFramesPerHuge);
      }
    } else if (dice < 55 && !claimed.empty()) {
      const size_t idx = rng.Below(claimed.size());
      buddy.ReleaseRange(claimed[idx].first, claimed[idx].second);
      claimed[idx] = claimed.back();
      claimed.pop_back();
    } else if (dice < 80) {
      const unsigned order = static_cast<unsigned>(rng.Below(4));
      const Result<FrameId> r = buddy.Alloc(0, order, AllocType::kMovable);
      if (r.ok()) {
        live.emplace_back(*r, order);
      }
    } else if (!live.empty()) {
      const size_t idx = rng.Below(live.size());
      ASSERT_FALSE(
          buddy.Free(0, live[idx].first, live[idx].second).has_value());
      live[idx] = live.back();
      live.pop_back();
    }
    if (step % 500 == 0) {
      ASSERT_EQ(buddy.FreeAlignedHugeRanges(),
                BruteFreeAlignedHugeRanges(buddy));
    }
  }
  EXPECT_EQ(buddy.FreeAlignedHugeRanges(), BruteFreeAlignedHugeRanges(buddy));
  EXPECT_TRUE(buddy.Validate());
}

// Trains against singles on twin buddies: seeded mixes of AllocBatch and
// single Alloc calls, with single Frees, both migrate types, PCP on and
// off, run to exhaustion and back. Every train must yield the frames
// `count` single calls yield, in the same order, and leave the same
// allocator state.
TEST(BuddyTest, BatchTrainsMatchSingles) {
  for (const bool pcp : {true, false}) {
    SCOPED_TRACE(pcp ? "pcp" : "no pcp");
    Buddy::Config config;
    config.cores = 2;
    config.pcp_batch = 8;
    config.pcp_enabled = pcp;
    Buddy batch(kFrames, config);
    Buddy single(kFrames, config);
    Rng rng(pcp ? 91 : 92);
    std::vector<std::vector<FrameId>> live(kMaxBuddyOrder + 1);
    uint64_t short_trains = 0;

    for (int step = 0; step < 1500; ++step) {
      const unsigned core = static_cast<unsigned>(rng.Below(2));
      static constexpr unsigned kOrders[] = {0, 0, 0, 0, 1, 3, 9};
      const unsigned order = kOrders[rng.Below(7)];
      // Allocation-heavy until step 900 (the zone runs dry), then mostly
      // frees.
      const bool alloc = rng.Chance(step < 900 ? 0.7 : 0.2);
      const bool use_batch = rng.Chance(0.8);
      if (alloc) {
        const unsigned count = 1 + static_cast<unsigned>(rng.Below(200));
        const AllocType type = static_cast<AllocType>(rng.Below(3));
        std::vector<FrameId> got;
        std::vector<FrameId> want;
        if (use_batch) {
          const unsigned n = batch.AllocBatch(core, order, count, type, &got);
          EXPECT_EQ(n, got.size());
        } else {
          for (unsigned i = 0; i < count; ++i) {
            const Result<FrameId> r = batch.Alloc(core, order, type);
            if (!r.ok()) {
              break;
            }
            got.push_back(*r);
          }
        }
        for (unsigned i = 0; i < count; ++i) {
          const Result<FrameId> r = single.Alloc(core, order, type);
          if (!r.ok()) {
            break;
          }
          want.push_back(*r);
        }
        ASSERT_EQ(got, want) << "step " << step;
        short_trains += got.size() < count ? 1 : 0;
        live[order].insert(live[order].end(), got.begin(), got.end());
      } else if (!live[order].empty()) {
        // Free a random tail of the live frames of this order, sometimes
        // with a double free in the middle (both sides must skip it; a
        // PCP-cached order-0 frame still looks allocated, so only where
        // the buddy can detect it).
        std::vector<FrameId>& frames = live[order];
        const size_t n = 1 + rng.Below(std::min<size_t>(frames.size(), 150));
        std::swap(frames[rng.Below(frames.size())], frames.back());
        std::vector<FrameId> train(frames.end() - static_cast<long>(n),
                                   frames.end());
        frames.resize(frames.size() - n);
        if ((order > 0 || !pcp) && rng.Chance(0.1)) {
          train.insert(train.begin() + static_cast<long>(train.size() / 2),
                       train.front());
        }
        unsigned freed = 0;
        for (const FrameId f : train) {
          freed += batch.Free(core, f, order).has_value() ? 0 : 1;
        }
        unsigned want = 0;
        for (const FrameId f : train) {
          want += single.Free(core, f, order).has_value() ? 0 : 1;
        }
        ASSERT_EQ(freed, want) << "step " << step;
        ASSERT_EQ(freed, n) << "step " << step;
      }
      ASSERT_EQ(batch.FreeFrames(), single.FreeFrames()) << "step " << step;
      ASSERT_EQ(batch.FreeFramesInLists(), single.FreeFramesInLists());
      ASSERT_EQ(batch.UsedHugeBlocks(), single.UsedHugeBlocks());
      ASSERT_TRUE(batch.Validate()) << "step " << step;
      ASSERT_TRUE(single.Validate()) << "step " << step;
    }
    EXPECT_GT(short_trains, 10u) << "the zone never ran dry";
    batch.DrainPcp();
    single.DrainPcp();
    for (unsigned o = 0; o <= kMaxBuddyOrder; ++o) {
      EXPECT_EQ(batch.FreeBlocksOfOrder(o), single.FreeBlocksOfOrder(o));
    }
    EXPECT_EQ(batch.FreeAlignedHugeRanges(), single.FreeAlignedHugeRanges());
  }
}

TEST(Buddy, FreeRunStopsAtTheFirstInvalidFrame) {
  Buddy::Config config;
  Buddy buddy(kFrames, config);
  std::vector<FrameId> frames;
  for (int i = 0; i < 3; ++i) {
    frames.push_back(*buddy.Alloc(0, 0, AllocType::kMovable));
  }
  const uint64_t free_before = buddy.FreeFrames();
  const std::vector<FrameId> run = {frames[0], kFrames + 5, frames[1]};
  EXPECT_EQ(buddy.FreeRun(0, run), AllocError::kInvalid);
  EXPECT_EQ(buddy.FreeFrames(), free_before + 1);
  EXPECT_FALSE(buddy.FreeRun(0, {frames.begin() + 1, frames.end()})
                   .has_value());
  EXPECT_EQ(buddy.FreeFrames(), kFrames);
  EXPECT_TRUE(buddy.Validate());
}

// The run paths against the per-frame ones on twin buddies: `runs`
// refills its PCP lists in carved blocks (through Alloc and AllocBatch)
// and frees order-0 frames with FreeRun; `singles` refills with one
// AllocCore(0) per frame and frees with one Free per frame. Seeded
// traffic of both migrate types with larger blocks mixed in, run to
// exhaustion and back. After every step both yield the same frames and
// hold the same free lists and PCP lists in the same order; a
// non-power-of-two batch never carves.
TEST(BuddyTest, RefillAndFreeRunsMatchSingles) {
  for (const unsigned pcp_batch : {8u, 32u, 6u}) {
    SCOPED_TRACE(pcp_batch);
    Buddy::Config config;
    config.cores = 2;
    config.pcp_batch = pcp_batch;
    // A quarter of kFrames, so the allocation-heavy phase runs it dry.
    Buddy runs(kFrames / 4, config);
    Buddy singles(kFrames / 4, config);
    Rng rng(100 + pcp_batch);
    std::vector<FrameId> live0;
    std::vector<std::pair<FrameId, unsigned>> live_blocks;
    uint64_t carved = 0;          // refills of Alloc that carve
    uint64_t single_refills = 0;  // and those that take small blocks
    uint64_t short_trains = 0;

    for (int step = 0; step < 1200; ++step) {
      const unsigned core = static_cast<unsigned>(rng.Below(2));
      const AllocType type = static_cast<AllocType>(rng.Below(3));
      const bool alloc = rng.Chance(step < 700 ? 0.7 : 0.3);
      if (alloc && rng.Chance(0.15)) {
        // A larger block, to leave small free blocks behind.
        const unsigned order = 1 + static_cast<unsigned>(rng.Below(4));
        const Result<FrameId> a = runs.Alloc(core, order, type);
        const Result<FrameId> b = singles.Alloc(core, order, type);
        ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
        if (a.ok()) {
          ASSERT_EQ(*a, *b) << "step " << step;
          live_blocks.emplace_back(*a, order);
        }
      } else if (alloc) {
        const unsigned count = 1 + static_cast<unsigned>(rng.Below(100));
        std::vector<FrameId> got;
        if (rng.Chance(0.5)) {
          runs.AllocBatch(core, 0, count, type, &got);
        } else {
          for (unsigned i = 0; i < count; ++i) {
            if (BuddyTestPeer::PcpEmpty(runs, core, type)) {
              ++(BuddyTestPeer::RefillCarves(runs, type) ? carved
                                                         : single_refills);
            }
            const Result<FrameId> r = runs.Alloc(core, 0, type);
            if (!r.ok()) {
              break;
            }
            got.push_back(*r);
          }
        }
        std::vector<FrameId> want;
        for (unsigned i = 0; i < count; ++i) {
          const Result<FrameId> r =
              BuddyTestPeer::SingleRefillAlloc(singles, core, type);
          if (!r.ok()) {
            break;
          }
          want.push_back(*r);
        }
        ASSERT_EQ(got, want) << "step " << step;
        short_trains += got.size() < count ? 1 : 0;
        live0.insert(live0.end(), got.begin(), got.end());
      } else if (!live0.empty() && rng.Chance(0.8)) {
        // A random run of live order-0 frames, in a random order.
        const size_t n = 1 + rng.Below(std::min<size_t>(live0.size(), 120));
        for (size_t i = 0; i < n; ++i) {
          std::swap(live0[live0.size() - 1 - i],
                    live0[rng.Below(live0.size() - i)]);
        }
        const std::vector<FrameId> run(live0.end() - static_cast<long>(n),
                                       live0.end());
        live0.resize(live0.size() - n);
        ASSERT_FALSE(runs.FreeRun(core, run).has_value());
        for (const FrameId f : run) {
          ASSERT_FALSE(singles.Free(core, f, 0).has_value());
        }
      } else if (!live_blocks.empty()) {
        const size_t i = rng.Below(live_blocks.size());
        const auto [frame, order] = live_blocks[i];
        live_blocks.erase(live_blocks.begin() + static_cast<long>(i));
        ASSERT_FALSE(runs.Free(core, frame, order).has_value());
        ASSERT_FALSE(singles.Free(core, frame, order).has_value());
      }
      ASSERT_EQ(BuddyTestPeer::Lists(runs), BuddyTestPeer::Lists(singles))
          << "step " << step;
      ASSERT_EQ(runs.FreeFrames(), singles.FreeFrames());
      ASSERT_EQ(runs.FreeFramesInLists(), singles.FreeFramesInLists());
      ASSERT_EQ(runs.UsedHugeBlocks(), singles.UsedHugeBlocks());
      ASSERT_TRUE(runs.Validate()) << "step " << step;
      ASSERT_TRUE(singles.Validate()) << "step " << step;
    }
    if (std::has_single_bit(pcp_batch)) {
      EXPECT_GT(carved, 10u) << "no refill carved a block";
    }
    EXPECT_GT(single_refills, 10u) << "no refill had small blocks to take";
    EXPECT_GT(short_trains, 5u) << "the buddy never ran dry";

    // The follow-on allocation sequence, PCP drained: the same blocks in
    // the same order.
    runs.DrainPcp();
    singles.DrainPcp();
    for (;;) {
      const Result<FrameId> a = runs.Alloc(0, 2, AllocType::kMovable);
      const Result<FrameId> b = singles.Alloc(0, 2, AllocType::kMovable);
      ASSERT_EQ(a.ok(), b.ok());
      if (!a.ok()) {
        break;
      }
      ASSERT_EQ(*a, *b);
    }
  }
}

}  // namespace
}  // namespace hyperalloc::buddy
