// Host-pool overload probe, run by every fleet_overcommit run outside its
// timed part: four threads reserve and release mixed batches (64-448
// frames) on one 32 MiB hv::HostMemory with no admission ledger. Each
// thread holds up to 64 batches, about eight times the pool between them,
// and releases one batch whenever a reservation is refused
// (bench_runner's host_reserve_release storm), so the pool runs at
// capacity and reservations raid peer shards: the cross-shard rebalance
// path the fleet, whose admission ledger keeps the pool below capacity,
// never reaches.
//
// On multicore hosts this storm falls into ROADMAP item 1's rebalance
// ping-pong (hundreds of thousands of rebalances per million operations)
// in most processes and not in others, so its speed is bimodal per
// process and cannot carry a bounded end-to-end metric. Its rebalance
// count is printed on every run and reported per layer; a refusal is the
// storm working as designed, not a failed operation.
#include <cstdio>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/base/rng.h"
#include "src/hv/host_memory.h"

namespace hyperalloc::perfbench {
namespace {

constexpr uint64_t kPoolFrames = 1 << 13;  // 32 MiB
constexpr unsigned kThreads = 4;
constexpr size_t kMaxBatches = 64;
constexpr uint64_t kOpsPerThread = 200000;
constexpr int kUnits = 8;

struct Unit {
  double wall_s = 0.0;
  uint64_t ops = 0;
  uint64_t reserves = 0;
  uint64_t refused = 0;
  uint64_t rebalances = 0;
  bool quiescent = false;

  double op_ns() const {
    return wall_s * 1e9 * kThreads / static_cast<double>(ops);
  }
};

struct ThreadTally {
  uint64_t ops = 0;
  uint64_t reserves = 0;
  uint64_t refused = 0;
};

void Worker(hv::HostMemory* pool, uint64_t seed, std::latch* ready,
            std::latch* go, ThreadTally* tally) {
  Rng rng(seed);
  std::vector<uint64_t> held;
  held.reserve(kMaxBatches);
  ready->count_down();
  go->wait();
  for (uint64_t i = 0; i < kOpsPerThread; ++i) {
    const uint64_t batch = (rng.Below(7) + 1) * 64;
    bool reserved = false;
    if (held.size() < kMaxBatches) {
      ++tally->reserves;
      reserved = pool->TryReserve(batch);
      if (reserved) {
        held.push_back(batch);
      } else {
        ++tally->refused;
      }
    }
    if (!reserved && !held.empty()) {
      pool->Release(held.back());
      held.pop_back();
    }
    ++tally->ops;
  }
  for (const uint64_t batch : held) {
    pool->Release(batch);
  }
}

Unit RunUnit(uint64_t seed) {
  Unit unit;
  hv::HostMemory pool(kPoolFrames);
  std::latch ready(kThreads);
  std::latch go(1);
  std::vector<ThreadTally> tallies(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back(Worker, &pool, RepSeed(seed, t), &ready, &go,
                         &tallies[t]);
  }
  ready.wait();

  const Clock::time_point start = Clock::now();
  go.count_down();
  for (std::thread& thread : threads) {
    thread.join();
  }
  unit.wall_s = SecondsSince(start);

  for (const ThreadTally& tally : tallies) {
    unit.ops += tally.ops;
    unit.reserves += tally.reserves;
    unit.refused += tally.refused;
  }
  unit.rebalances = pool.rebalances();
  unit.quiescent = pool.used_frames() == 0 &&
                   pool.DebugFreeCredits() == pool.total_frames();
  return unit;
}

}  // namespace

void RunPoolProbe(const Args& args, Report* report) {
  uint64_t ops = 0;
  uint64_t reserves = 0;
  uint64_t refused = 0;
  uint64_t rebalances = 0;
  std::vector<double> op_ns;
  std::string counts;
  for (int u = 0; u < kUnits; ++u) {
    const Unit unit =
        RunUnit(RepSeed(args.seed, 1000000 + static_cast<uint64_t>(u)));
    if (!unit.quiescent) {
      report->Fail("host-pool probe: quiescent pool invariant (used == 0, "
                   "credits == total) broken");
    }
    ops += unit.ops;
    reserves += unit.reserves;
    refused += unit.refused;
    rebalances += unit.rebalances;
    op_ns.push_back(unit.op_ns());
    counts += " " + std::to_string(unit.rebalances);
  }
  const double per_mop =
      static_cast<double>(rebalances) / (static_cast<double>(ops) / 1e6);
  const double refused_share =
      static_cast<double>(refused) / static_cast<double>(reserves);
  std::printf("host-pool overload probe: %d units of %llu ops on %u "
              "threads, median %.2f Mops/s, %.1f rebalances per Mop (per "
              "unit:%s), refused share %.3f\n",
              kUnits,
              static_cast<unsigned long long>(kOpsPerThread * kThreads),
              kThreads, 1e3 / Median(op_ns) * kThreads, per_mop,
              counts.c_str(), refused_share);
  if (args.trace) {
    report->Set("hv.host_pool.rebalances_per_mop", per_mop);
    report->Set("hv.host_pool.refused_share", refused_share);
    report->Set("hv.host_pool.op_ns", Median(op_ns));
  }
}

}  // namespace hyperalloc::perfbench
