#include "src/llfree/frame_cache.h"

#include <algorithm>

#include "src/base/check.h"

namespace hyperalloc::llfree {

FrameCache::FrameCache(LLFree* alloc, const CacheConfig& config)
    : alloc_(alloc), config_(config) {
  HA_CHECK(alloc != nullptr);
  HA_CHECK(config.slots > 0);
  HA_CHECK(config.refill > 0);
  HA_CHECK(config.refill <= config.capacity);
  slots_ = std::make_unique<Slot[]>(config.slots);
  for (unsigned s = 0; s < config.slots; ++s) {
    slots_[s].frames.write().reserve(config.capacity + 1);
  }
}

Result<FrameId> FrameCache::Get(unsigned core, unsigned order,
                                AllocType type) {
  if (order != 0 || type != AllocType::kMovable) {
    return alloc_->Get(core, order, type);
  }
  // A Get both pops and refills the stack, so the whole access is a
  // write under the one-thread-per-slot discipline.
  std::vector<FrameId>& frames = slots_[core % config_.slots].frames.write();
  if (!frames.empty()) {
    const FrameId frame = frames.back();
    frames.pop_back();
    hits_.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }
  // Miss: refill a batch, serve from it. GetBatch already falls back to
  // single Gets under pressure, so a partial refill is still correct —
  // and zero claimed means the allocator is genuinely dry.
  const unsigned got =
      alloc_->GetBatch(core, 0, config_.refill, type, &frames);
  if (got == 0) {
    return AllocError::kNoMemory;
  }
  refills_.fetch_add(1, std::memory_order_relaxed);
  const FrameId frame = frames.back();
  frames.pop_back();
  return frame;
}

unsigned FrameCache::Pop(unsigned core, unsigned max,
                         std::vector<FrameId>* out) {
  std::vector<FrameId>& frames = slots_[core % config_.slots].frames.write();
  const size_t n = std::min<size_t>(max, frames.size());
  out->insert(out->end(), frames.rbegin(),
              frames.rbegin() + static_cast<std::ptrdiff_t>(n));
  frames.resize(frames.size() - n);
  hits_.fetch_add(n, std::memory_order_relaxed);
  return static_cast<unsigned>(n);
}

std::optional<AllocError> FrameCache::Put(unsigned core, FrameId frame,
                                          unsigned order, AllocType type) {
  if (order != 0 || type != AllocType::kMovable) {
    // Non-movable frees bypass the cache so the frame returns through
    // LLFree's type-aware slot selection instead of being recycled into
    // a movable allocation (which would mix movability within areas).
    return alloc_->Put(frame, order);
  }
  return PutRun(core, std::span<const FrameId>(&frame, 1));
}

std::optional<AllocError> FrameCache::PutRun(unsigned core,
                                             std::span<const FrameId> run) {
  std::vector<FrameId>& frames = slots_[core % config_.slots].frames.write();
  size_t i = 0;
  while (i < run.size()) {
    // Push until the stack holds capacity + 1 frames, where a single Put
    // drains.
    const size_t end =
        std::min(run.size(), i + config_.capacity + 1 - frames.size());
    for (; i < end; ++i) {
      if (run[i] >= alloc_->frames()) {
        return AllocError::kInvalid;
      }
      HA_DCHECK(std::find(frames.begin(), frames.end(), run[i]) ==
                frames.end());  // double free into the same slot
      frames.push_back(run[i]);
    }
    if (frames.size() <= config_.capacity) {
      continue;
    }
    // Drain one batch from the cold end (the hot end keeps recency).
    const std::span<const FrameId> batch(frames.data(), config_.refill);
    const unsigned freed = alloc_->PutBatch(batch, 0);
    frames.erase(frames.begin(), frames.begin() + config_.refill);
    drains_.fetch_add(1, std::memory_order_relaxed);
    if (freed != config_.refill) {
      // The allocator refused part of the batch: some earlier Put fed
      // the cache a frame it did not own (double free). Surface the
      // error here, at the drain that detected it — the refused frames
      // are already owned by someone else, so dropping them is the only
      // state that cannot hand one frame to two callers.
      lost_.fetch_add(config_.refill - freed, std::memory_order_relaxed);
      return AllocError::kInvalid;
    }
  }
  return std::nullopt;
}

uint64_t FrameCache::Drain() {
  uint64_t refused = 0;
  for (unsigned s = 0; s < config_.slots; ++s) {
    std::vector<FrameId>& frames = slots_[s].frames.write();
    if (frames.empty()) {
      continue;
    }
    const unsigned freed = alloc_->PutBatch(frames, 0);
    refused += frames.size() - freed;
    frames.clear();
    drains_.fetch_add(1, std::memory_order_relaxed);
  }
  if (refused > 0) {
    lost_.fetch_add(refused, std::memory_order_relaxed);
  }
  return refused;
}

uint64_t FrameCache::CachedFrames() const {
  uint64_t total = 0;
  for (unsigned s = 0; s < config_.slots; ++s) {
    total += slots_[s].frames.read().size();
  }
  return total;
}

}  // namespace hyperalloc::llfree
