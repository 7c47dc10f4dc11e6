// White-box tests for the LLFree building blocks: the per-area bit field
// and the packed area/tree/reservation entries (paper §4.1 layouts), the
// per-slot tree search hints, and the tree reservation policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <set>
#include <vector>

#include "src/base/rng.h"
#include "src/llfree/bitfield.h"
#include "src/llfree/entries.h"
#include "src/llfree/llfree.h"

namespace hyperalloc::llfree {
namespace {

class AreaBitsTest : public ::testing::Test {
 protected:
  AreaBitsTest() : bits_(words_.data()) {
    for (auto& word : words_) {
      word.store(0);
    }
  }

  // One claim of one run: the lowest free run of 2^order frames.
  std::optional<unsigned> SetOne(unsigned order) {
    unsigned offset = 0;
    if (bits_.SetBatch(order, 1, &offset) == 0) {
      return std::nullopt;
    }
    return offset;
  }

  std::array<std::atomic<uint64_t>, kWordsPerArea> words_;
  AreaBits bits_;
};

TEST_F(AreaBitsTest, SetFindsFirstFreeRun) {
  const auto a = SetOne(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 0u);
  const auto b = SetOne(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(bits_.CountSet(), 2u);
}

TEST_F(AreaBitsTest, AlignedRunsPerOrder) {
  for (unsigned order = 0; order <= kMaxBitfieldOrder; ++order) {
    for (auto& word : words_) {
      word.store(0);
    }
    std::set<unsigned> offsets;
    for (;;) {
      const auto offset = SetOne(order);
      if (!offset.has_value()) {
        break;
      }
      EXPECT_EQ(*offset % (1u << order), 0u) << "order " << order;
      EXPECT_TRUE(offsets.insert(*offset).second) << "duplicate offset";
    }
    EXPECT_EQ(offsets.size(), kFramesPerHuge >> order) << "order " << order;
    EXPECT_EQ(bits_.CountSet(), kFramesPerHuge);
  }
}

TEST_F(AreaBitsTest, SetSkipsOccupiedRuns) {
  // Occupy bit 1: no order-1 run fits in [0,2), next run is [2,4).
  ASSERT_TRUE(SetOne(0).has_value());  // bit 0
  ASSERT_TRUE(SetOne(0).has_value());  // bit 1
  const auto run = SetOne(1);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(*run, 2u);
}

TEST_F(AreaBitsTest, ClearDetectsDoubleFree) {
  const auto offset = SetOne(3);
  ASSERT_TRUE(offset.has_value());
  EXPECT_TRUE(bits_.Clear(*offset, 3));
  EXPECT_FALSE(bits_.Clear(*offset, 3)) << "double free must fail";
  EXPECT_EQ(bits_.CountSet(), 0u);
}

TEST_F(AreaBitsTest, PartialClearRejected) {
  ASSERT_TRUE(SetOne(2).has_value());  // bits 0..3
  ASSERT_TRUE(bits_.Clear(0, 2));
  // Clearing again at a different order over the now-free range fails.
  EXPECT_FALSE(bits_.Clear(0, 1));
}

TEST_F(AreaBitsTest, IsFreeChecksWholeRun) {
  ASSERT_TRUE(SetOne(0).has_value());  // bit 0
  EXPECT_FALSE(bits_.IsFree(0, 0));
  EXPECT_FALSE(bits_.IsFree(0, 2));  // run [0,4) contains bit 0
  EXPECT_TRUE(bits_.IsFree(4, 2));
}

TEST_F(AreaBitsTest, FillAllMarksEverything) {
  bits_.FillAll();
  EXPECT_EQ(bits_.CountSet(), kFramesPerHuge);
  EXPECT_FALSE(SetOne(0).has_value());
}

TEST_F(AreaBitsTest, SetBatchClaimsWordAtATime) {
  unsigned offsets[kFramesPerHuge];
  const unsigned got = bits_.SetBatch(0, 70, offsets);
  ASSERT_EQ(got, 70u);
  for (unsigned i = 0; i < got; ++i) {
    EXPECT_EQ(offsets[i], i);
  }
  EXPECT_EQ(bits_.CountSet(), 70u);
}

TEST_F(AreaBitsTest, SetBatchSkipsOccupiedAndAligns) {
  // Occupy bit 1.
  ASSERT_TRUE(SetOne(0).has_value());
  ASSERT_TRUE(SetOne(0).has_value());
  ASSERT_TRUE(bits_.Clear(0, 0));
  unsigned offsets[8];
  const unsigned got = bits_.SetBatch(1, 3, offsets);
  ASSERT_EQ(got, 3u);
  EXPECT_EQ(offsets[0], 2u);  // pair [0,2) blocked by bit 1
  EXPECT_EQ(offsets[1], 4u);
  EXPECT_EQ(offsets[2], 6u);
}

TEST_F(AreaBitsTest, SetBatchStopsWhenFull) {
  bits_.FillAll();
  ASSERT_TRUE(bits_.Clear(17, 0));
  unsigned offsets[8];
  const unsigned got = bits_.SetBatch(0, 8, offsets);
  ASSERT_EQ(got, 1u);
  EXPECT_EQ(offsets[0], 17u);
}

TEST_F(AreaBitsTest, SetBatchMultiWordSkipsBlockedRunsAndRollsBack) {
  // Bit 200 sits in word 3, the second word of the order-7 run [128,256).
  words_[3].store(1ull << (200 % 64));
  unsigned offsets[4];
  ASSERT_EQ(bits_.SetBatch(7, 4, offsets), 3u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 256u);
  EXPECT_EQ(offsets[2], 384u);
  // The blocked run's first word was taken and given back.
  EXPECT_EQ(words_[2].load(), 0u);
  EXPECT_EQ(bits_.CountSet(), 3 * 128u + 1);
  EXPECT_EQ(bits_.SetBatch(8, 2, offsets), 0u);
}

TEST_F(AreaBitsTest, ClearMaskRoundTripAndDoubleFree) {
  unsigned offsets[64];
  ASSERT_EQ(bits_.SetBatch(0, 64, offsets), 64u);
  EXPECT_TRUE(bits_.ClearMask(0, ~0ull));
  EXPECT_FALSE(bits_.ClearMask(0, ~0ull)) << "double free must fail";
  EXPECT_EQ(bits_.CountSet(), 0u);
}

TEST_F(AreaBitsTest, ClearMaskRejectsPartiallyFreeWord) {
  unsigned offsets[4];
  ASSERT_EQ(bits_.SetBatch(0, 4, offsets), 4u);
  // Mask covers one free bit: the whole clear must be rejected and the
  // four set bits left intact (all-or-nothing, like Clear).
  EXPECT_FALSE(bits_.ClearMask(0, 0x1full));
  EXPECT_EQ(bits_.CountSet(), 4u);
}

TEST(AreaEntry, PackUnpackRoundTrip) {
  for (uint16_t free : {0u, 1u, 511u, 512u}) {
    for (const bool allocated : {false, true}) {
      for (const bool evicted : {false, true}) {
        AreaEntry entry;
        entry.free = free;
        entry.allocated = allocated;
        entry.evicted = evicted;
        EXPECT_EQ(AreaEntry::Unpack(entry.Pack()), entry);
      }
    }
  }
}

TEST(AreaEntry, SixteenBitsSuffice) {
  AreaEntry entry;
  entry.free = 512;
  entry.allocated = true;
  entry.evicted = true;
  // The paper's layout: 10-bit counter + A + E fit in 12 of 16 bits.
  EXPECT_LT(entry.Pack(), 1u << 12);
}

TEST(AreaEntry, IsFreeHugeSemantics) {
  AreaEntry entry;
  entry.free = 512;
  EXPECT_TRUE(entry.IsFreeHuge());
  entry.allocated = true;
  EXPECT_FALSE(entry.IsFreeHuge());
  entry.allocated = false;
  entry.free = 511;
  EXPECT_FALSE(entry.IsFreeHuge());
  // Evicted does not affect huge-freeness (it is a hint).
  entry.free = 512;
  entry.evicted = true;
  EXPECT_TRUE(entry.IsFreeHuge());
}

TEST(TreeEntry, PackUnpackRoundTrip) {
  for (uint32_t free : {0u, 4096u, 16384u, 65535u}) {
    for (const bool reserved : {false, true}) {
      for (const AllocType type :
           {AllocType::kUnmovable, AllocType::kMovable, AllocType::kHuge}) {
        TreeEntry entry;
        entry.free = free;
        entry.reserved = reserved;
        entry.type = type;
        EXPECT_EQ(TreeEntry::Unpack(entry.Pack()), entry);
      }
    }
  }
}

TEST(Reservation, PackUnpackRoundTrip) {
  Reservation r;
  r.active = true;
  r.tree = 0xdeadbeu;
  r.free = 4096;
  EXPECT_EQ(Reservation::Unpack(r.Pack()), r);
  EXPECT_EQ(Reservation::Unpack(Reservation{}.Pack()), Reservation{});
}

TEST(TreeHints, InitialHintsAreInRange) {
  // More slots than trees: the initial spread must still land in-range.
  Config config;
  config.mode = Config::ReservationMode::kPerType;  // 3 slots
  config.areas_per_tree = 8;
  SharedState state(2 * config.areas_per_tree * kFramesPerHuge,
                    config);  // 2 trees
  ASSERT_EQ(state.num_trees(), 2u);
  for (unsigned s = 0; s < config.NumSlots(); ++s) {
    EXPECT_LT(state.tree_hints()[s].load(), state.num_trees()) << "slot " << s;
  }
}

TEST(TreeHints, OutOfRangeHintIsToleratedAndReclamped) {
  // A view over a previous, larger shared state may have published a hint
  // beyond the current tree count (tree-count shrink). The allocator must
  // treat it as a biased search start, not an index, and the next
  // reservation must store the hint back in-range.
  Config config;
  config.mode = Config::ReservationMode::kPerType;
  config.areas_per_tree = 8;
  SharedState state(2 * config.areas_per_tree * kFramesPerHuge, config);
  const uint64_t n = state.num_trees();
  for (unsigned s = 0; s < config.NumSlots(); ++s) {
    state.tree_hints()[s].store(n * 1000 + s);  // far out of range
  }
  LLFree llfree(&state);
  const Result<FrameId> frame = llfree.Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(frame.ok());
  EXPECT_LT(*frame, state.frames());
  // The slot that just reserved a tree re-clamped its hint.
  bool any_reclamped = false;
  for (unsigned s = 0; s < config.NumSlots(); ++s) {
    any_reclamped |= state.tree_hints()[s].load() < n;
  }
  EXPECT_TRUE(any_reclamped);
  EXPECT_TRUE(llfree.Validate());
  EXPECT_FALSE(llfree.Put(*frame, 0).has_value());
}

// The reservation policy written as five sequential preference passes
// over the tree index, each in hint order (DESIGN.md §4.1). Returns the
// tree and the pass that accepted it. The allocator ranks every tree in
// one scan instead; this is the reference it must agree with.
struct PassPick {
  uint64_t tree = 0;
  int pass = 0;
};

std::optional<PassPick> FivePassPick(const std::vector<TreeEntry>& trees,
                                     const std::vector<uint32_t>& caps,
                                     uint64_t hint, AllocType type,
                                     unsigned need,
                                     std::optional<uint64_t> avoid) {
  const uint64_t n = trees.size();
  const auto compatible = [type](AllocType other) {
    return other == type || (other != AllocType::kUnmovable &&
                             type != AllocType::kUnmovable);
  };
  for (int pass = 0; pass < 5; ++pass) {
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t t = (hint + i) % n;
      if (avoid == t && pass < 4) {
        continue;
      }
      const TreeEntry& entry = trees[t];
      const uint32_t cap = caps[t];
      if (entry.reserved || entry.free < need) {
        continue;
      }
      const bool eligible =
          pass == 0   ? entry.type == type && entry.free < cap - cap / 8
          : pass == 1 ? compatible(entry.type) && entry.free < cap
          : pass == 2 ? entry.free == cap
          : pass == 3 ? entry.free < cap
                      : true;
      if (eligible) {
        return PassPick{t, pass};
      }
    }
  }
  return std::nullopt;
}

TEST(ReservationPolicy, OneScanPicksTheFivePassTree) {
  Rng rng(20250417);
  // Picks per accepting pass (index 5: no tree), so the test can prove
  // it reached every rank, the avoid tree and the dry index.
  std::array<int, 6> picks{};
  int avoid_rounds = 0;
  for (int round = 0; round < 4000; ++round) {
    Config config;
    config.mode = rng.Chance(0.75) ? Config::ReservationMode::kPerType
                                   : Config::ReservationMode::kPerCore;
    config.cores = 2;
    config.areas_per_tree = static_cast<unsigned>(2u << rng.Below(3));
    const uint64_t full_trees = rng.Range(0, 9);
    // The last tree is short about half the time.
    const uint64_t last_areas = rng.Chance(0.5)
                                    ? config.areas_per_tree
                                    : rng.Range(1, config.areas_per_tree);
    const uint64_t areas = full_trees * config.areas_per_tree + last_areas;
    SharedState state(areas * kFramesPerHuge, config);
    const uint64_t n = state.num_trees();
    ASSERT_EQ(n, full_trees + 1);

    std::vector<TreeEntry> trees(n);
    std::vector<uint32_t> caps(n);
    for (uint64_t t = 0; t < n; ++t) {
      caps[t] = static_cast<uint32_t>(
          std::min<uint64_t>(config.areas_per_tree,
                             areas - t * config.areas_per_tree) *
          kFramesPerHuge);
      const uint32_t cap = caps[t];
      const uint32_t seven_eighths = cap - cap / 8;
      TreeEntry& entry = trees[t];
      switch (rng.Below(5)) {
        case 0: entry.free = 0; break;
        case 1: entry.free = static_cast<uint32_t>(
                    rng.Range(1, seven_eighths - 1)); break;
        case 2: entry.free = seven_eighths; break;
        case 3: entry.free = static_cast<uint32_t>(
                    rng.Range(seven_eighths, cap)); break;
        default: entry.free = cap; break;
      }
      entry.reserved = rng.Chance(0.25);
      entry.type = static_cast<AllocType>(rng.Below(kNumAllocTypes));
      state.trees()[t].store(entry.Pack(), std::memory_order_relaxed);
    }

    const bool huge = rng.Chance(0.3);
    const bool batch = rng.Chance(0.5);
    const unsigned core = static_cast<unsigned>(rng.Below(2));
    const AllocType type = static_cast<AllocType>(rng.Below(kNumAllocTypes));
    const AllocType effective =
        huge && config.mode == Config::ReservationMode::kPerType
            ? AllocType::kHuge
            : type;
    const unsigned slot = config.mode == Config::ReservationMode::kPerCore
                              ? core
                              : static_cast<unsigned>(effective);
    const unsigned need = huge ? kFramesPerHuge : 1;
    // Hints past the index end wrap (the allocator clamps with % n).
    const uint64_t hint = rng.Below(3 * n);
    state.tree_hints()[slot].store(hint, std::memory_order_relaxed);

    // An avoid tree only arises inside Get: the slot's reserved tree
    // could not serve the request. Park a reservation over a tree whose
    // areas are all taken and whose index entry is (racily) unreserved.
    std::optional<uint64_t> avoid;
    if (!batch && rng.Chance(0.3)) {
      avoid = rng.Below(n);
      ++avoid_rounds;
      trees[*avoid].reserved = false;
      state.trees()[*avoid].store(trees[*avoid].Pack(),
                                  std::memory_order_relaxed);
      AreaEntry taken;
      taken.allocated = true;
      const uint64_t first = *avoid * config.areas_per_tree;
      for (uint64_t a = first; a < first + caps[*avoid] / kFramesPerHuge;
           ++a) {
        state.areas()[a].store(taken.Pack(), std::memory_order_relaxed);
      }
      Reservation parked;
      parked.active = true;
      parked.tree = static_cast<uint32_t>(*avoid);
      parked.free = static_cast<uint16_t>(need);
      state.reservations()[slot].store(parked.Pack(),
                                       std::memory_order_relaxed);
    }

    const std::optional<PassPick> want =
        FivePassPick(trees, caps, hint % n, effective, need, avoid);
    ++picks[want.has_value() ? want->pass : 5];

    LLFree alloc(&state);
    const unsigned order = huge ? kHugeOrder : 0;
    std::vector<FrameId> got;
    Result<FrameId> single = AllocError::kNoMemory;
    if (batch) {
      alloc.GetBatch(core, order, 1, type, &got);
    } else {
      single = alloc.Get(core, order, type);
    }
    const Reservation r = alloc.ReadReservation(slot);
    SCOPED_TRACE(testing::Message()
                 << "round " << round << " hint " << hint << " trees " << n
                 << " need " << need << " type " << static_cast<int>(effective));
    if (want.has_value() && want->tree != avoid) {
      // The chosen tree's areas are free, so the claim is served there.
      ASSERT_TRUE(r.active);
      EXPECT_EQ(r.tree, want->tree);
      const FrameId frame = batch ? (got.empty() ? ~0ull : got[0])
                                  : (single.ok() ? *single : ~0ull);
      EXPECT_EQ(frame / (config.areas_per_tree * kFramesPerHuge),
                want->tree);
    } else if (want.has_value()) {
      // Re-reserving the avoid tree cannot help: Get gives up after its
      // bounded attempts instead of falling back.
      ASSERT_FALSE(single.ok());
      EXPECT_EQ(single.error(), AllocError::kRetry);
      EXPECT_EQ(r.tree, *avoid);
    } else if (avoid.has_value()) {
      ASSERT_TRUE(r.active);
      EXPECT_EQ(r.tree, *avoid);  // no tree reserved: parked one stays
      EXPECT_FALSE(!single.ok() && single.error() == AllocError::kRetry);
    } else {
      EXPECT_FALSE(r.active);
    }
  }
  for (int pass = 0; pass < 6; ++pass) {
    EXPECT_GT(picks[pass], 20) << "pass " << pass;
  }
  EXPECT_GT(avoid_rounds, 200);
}

TEST(AtomicUpdate, RetriesAndAborts) {
  std::atomic<uint16_t> atom{5};
  // Successful update returns the previous value.
  const auto prev = AtomicUpdate(atom, [](uint16_t v) {
    return std::optional<uint16_t>(static_cast<uint16_t>(v + 1));
  });
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 5u);
  EXPECT_EQ(atom.load(), 6u);
  // Abort leaves the value untouched.
  const auto aborted = AtomicUpdate(
      atom, [](uint16_t) { return std::optional<uint16_t>(); });
  EXPECT_FALSE(aborted.has_value());
  EXPECT_EQ(atom.load(), 6u);
}

}  // namespace
}  // namespace hyperalloc::llfree
