// Tests for the deterministic fault-injection and recovery layer
// (DESIGN.md §4.9): schedule determinism from a 64-bit seed, plan
// parsing, retry-with-backoff, per-request timeouts with partial
// reclaim, and frame/VM quarantine.
#include <gtest/gtest.h>

#include "src/core/hyperalloc.h"
#include "src/fault/fault.h"
#include "src/guest/guest_vm.h"

namespace hyperalloc::fault {
namespace {

TEST(FaultPlan, ParseProbabilityAndSteps) {
  Plan plan;
  std::string error;
  ASSERT_TRUE(Plan::Parse("ept_unmap:0.01,install@0@7,iommu_unpin:0.5!",
                          &plan, &error))
      << error;
  EXPECT_DOUBLE_EQ(plan.spec(Site::kEptUnmap).probability, 0.01);
  EXPECT_EQ(plan.spec(Site::kEptUnmap).kind, Kind::kTransient);
  EXPECT_EQ(plan.spec(Site::kInstallHypercall).steps,
            (std::vector<uint64_t>{0, 7}));
  EXPECT_DOUBLE_EQ(plan.spec(Site::kIommuUnpin).probability, 0.5);
  EXPECT_EQ(plan.spec(Site::kIommuUnpin).kind, Kind::kPermanent);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, ParseAllSites) {
  Plan plan;
  ASSERT_TRUE(Plan::Parse("all:0.05", &plan, nullptr));
  for (unsigned i = 0; i < kNumSites; ++i) {
    EXPECT_DOUBLE_EQ(plan.sites[i].probability, 0.05);
  }
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  Plan plan;
  std::string error;
  EXPECT_FALSE(Plan::Parse("bogus_site:0.1", &plan, &error));
  EXPECT_NE(error.find("unknown fault site"), std::string::npos);
  EXPECT_FALSE(Plan::Parse("ept_unmap:1.5", &plan, &error));
  EXPECT_FALSE(Plan::Parse("ept_unmap", &plan, &error));
  EXPECT_FALSE(Plan::Parse("install@7@3", &plan, &error));
  EXPECT_NE(error.find("strictly increasing"), std::string::npos);
  EXPECT_FALSE(Plan::Parse("install@x", &plan, &error));
}

TEST(FaultPlan, ToStringRoundTrips) {
  Plan plan;
  plan.seed = 7;
  ASSERT_TRUE(Plan::Parse("ept_unmap:0.25,install@3@9!", &plan, nullptr));
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("seed=7"), std::string::npos);
  // The site list after "seed=N " re-parses to the same plan.
  Plan reparsed;
  ASSERT_TRUE(Plan::Parse(text.substr(text.find(' ') + 1), &reparsed,
                          nullptr));
  EXPECT_DOUBLE_EQ(reparsed.spec(Site::kEptUnmap).probability, 0.25);
  EXPECT_EQ(reparsed.spec(Site::kInstallHypercall).steps,
            (std::vector<uint64_t>{3, 9}));
  EXPECT_EQ(reparsed.spec(Site::kInstallHypercall).kind, Kind::kPermanent);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  Plan plan;
  plan.seed = 0xdeadbeef;
  ASSERT_TRUE(Plan::Parse("all:0.3", &plan, nullptr));
  Injector a(plan);
  Injector b(plan);
  // The decision for (site, index) is a pure function of the plan: two
  // injectors over the same plan produce byte-identical schedules, and
  // WouldFail predicts exactly what Poll later observes.
  for (unsigned s = 0; s < kNumSites; ++s) {
    const Site site = static_cast<Site>(s);
    for (uint64_t i = 0; i < 2000; ++i) {
      const bool predicted = a.WouldFail(site, i);
      EXPECT_EQ(a.Poll(site).has_value(), predicted);
      EXPECT_EQ(b.Poll(site).has_value(), predicted);
    }
  }
  EXPECT_EQ(a.injected_total(), b.injected_total());
  EXPECT_GT(a.injected_total(), 0u);
}

TEST(FaultInjector, DifferentSeedsDifferentSchedules) {
  Plan plan;
  ASSERT_TRUE(Plan::Parse("ept_unmap:0.5", &plan, nullptr));
  plan.seed = 1;
  Injector a(plan);
  plan.seed = 2;
  Injector b(plan);
  bool differs = false;
  for (uint64_t i = 0; i < 1000 && !differs; ++i) {
    differs = a.WouldFail(Site::kEptUnmap, i) !=
              b.WouldFail(Site::kEptUnmap, i);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, ProbabilityRoughlyCalibrated) {
  Plan plan;
  plan.seed = 99;
  ASSERT_TRUE(Plan::Parse("ept_unmap:0.1", &plan, nullptr));
  const Injector injector(plan);
  uint64_t hits = 0;
  constexpr uint64_t kTrials = 100000;
  for (uint64_t i = 0; i < kTrials; ++i) {
    hits += injector.WouldFail(Site::kEptUnmap, i) ? 1 : 0;
  }
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(FaultInjector, StepScheduleFiresExactlyOnListedOps) {
  Plan plan;
  ASSERT_TRUE(Plan::Parse("install@2@5", &plan, nullptr));
  Injector injector(plan);
  for (uint64_t i = 0; i < 10; ++i) {
    const std::optional<Kind> kind = injector.Poll(Site::kInstallHypercall);
    EXPECT_EQ(kind.has_value(), i == 2 || i == 5) << "op " << i;
  }
  EXPECT_EQ(injector.injected(Site::kInstallHypercall), 2u);
  EXPECT_EQ(injector.ops(Site::kInstallHypercall), 10u);
}

TEST(FaultInjector, DisabledInjectorNeverFires) {
  Injector injector;  // default: no plan
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.Poll(Site::kEptUnmap).has_value());
  }
  // The null-safe wrapper used by every call site.
  EXPECT_FALSE(Poll(nullptr, Site::kEptUnmap).has_value());
  EXPECT_FALSE(Poll(&injector, Site::kEptUnmap).has_value());
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;  // 20 us initial, x2, 1 ms cap
  EXPECT_EQ(policy.BackoffNs(0), 20'000u);
  EXPECT_EQ(policy.BackoffNs(1), 40'000u);
  EXPECT_EQ(policy.BackoffNs(2), 80'000u);
  EXPECT_EQ(policy.BackoffNs(10), 1'000'000u);  // capped
}

// --- Recovery end to end against the HyperAlloc monitor ---------------

constexpr uint64_t kVmBytes = 256 * kMiB;

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void Init(const std::string& plan_spec, core::HyperAllocConfig config = {},
            uint64_t seed = 42, bool vfio = false,
            guest::AllocatorKind allocator = guest::AllocatorKind::kLLFree) {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    guest::GuestConfig gc;
    gc.memory_bytes = kVmBytes;
    gc.vcpus = 4;
    gc.dma32_bytes = 64 * kMiB;
    gc.allocator = allocator;
    gc.vfio = vfio;
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), gc);
    monitor_ = std::make_unique<core::HyperAllocMonitor>(vm_.get(), config);
    if (!plan_spec.empty()) {
      Plan plan;
      plan.seed = seed;
      std::string error;
      ASSERT_TRUE(Plan::Parse(plan_spec, &plan, &error)) << error;
      injector_ = std::make_unique<Injector>(plan);
      vm_->SetFaultInjector(injector_.get());
      host_->SetFaultInjector(injector_.get());
    }
  }

  // Backs `huges` huge frames with host memory, then frees them so the
  // monitor has real (mapped) memory to reclaim.
  void PopulateAndFree(int huges) {
    std::vector<FrameId> frames;
    for (int i = 0; i < huges; ++i) {
      const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
      ASSERT_TRUE(r.ok());
      vm_->Touch(*r, kFramesPerHuge);
      frames.push_back(*r);
    }
    for (const FrameId f : frames) {
      vm_->Free(f, kHugeOrder);
    }
    vm_->PurgeAllocatorCaches();
  }

  hv::ResizeOutcome SetLimit(uint64_t bytes) {
    hv::ResizeOutcome outcome;
    bool done = false;
    monitor_->Request({.target_bytes = bytes,
                       .done = [&] { done = true; },
                       .on_outcome =
                           [&](const hv::ResizeOutcome& o) { outcome = o; }});
    while (!done) {
      EXPECT_TRUE(sim_->Step());
    }
    return outcome;
  }

  // Conservation oracles: the host pool backs exactly what the EPT maps,
  // and every guest frame is free, held by the monitor (hard-reclaimed or
  // quarantined) or one of the `allocated` frames the test holds.
  void ExpectConserved(uint64_t allocated = 0) {
    EXPECT_EQ(host_->used_frames() * kFrameSize, vm_->rss_bytes());
    EXPECT_EQ(host_->DebugFreeCredits() + host_->used_frames(),
              host_->total_frames());
    EXPECT_EQ(vm_->FreeFrames() + allocated +
                  (kVmBytes - monitor_->limit_bytes()) / kFrameSize,
              vm_->total_frames());
  }

  uint64_t CountState(core::ReclaimState state) const {
    uint64_t count = 0;
    for (HugeId h = 0; h < HugesForFrames(vm_->total_frames()); ++h) {
      count += monitor_->StateOf(h) == state ? 1 : 0;
    }
    return count;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<guest::GuestVm> vm_;
  std::unique_ptr<core::HyperAllocMonitor> monitor_;
  std::unique_ptr<Injector> injector_;
};

TEST_F(FaultRecoveryTest, InstallRetriesTransientFaultThenSucceeds) {
  Init("install@0");  // exactly the first install hypercall fails
  const sim::Time before = sim_->now();
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  // The retry made the install succeed anyway...
  EXPECT_EQ(monitor_->installs(), 1u);
  EXPECT_EQ(monitor_->StateOf(FrameToHuge(*r)), core::ReclaimState::kInstalled);
  EXPECT_FALSE(monitor_->vm_quarantined());
  // ...at the cost of one observed fault, one retry, and its backoff in
  // virtual time.
  EXPECT_EQ(monitor_->faults_seen(), 1u);
  EXPECT_EQ(monitor_->fault_retries(), 1u);
  EXPECT_GE(sim_->now() - before, RetryPolicy{}.BackoffNs(0));
  // The second install consumes op index >= 1: no further faults.
  ASSERT_TRUE(vm_->Alloc(kHugeOrder, AllocType::kHuge).ok());
  EXPECT_EQ(monitor_->faults_seen(), 1u);
}

TEST_F(FaultRecoveryTest, TransientUnmapFaultsRollBackAndStillComplete) {
  Init("ept_unmap:0.2", {}, /*seed=*/7);
  PopulateAndFree(64);
  const hv::ResizeOutcome outcome = SetLimit(kVmBytes / 2);
  // Transient faults are absorbed by retry + rollback: the request still
  // reaches its target, only slower.
  EXPECT_TRUE(outcome.complete);
  EXPECT_FALSE(outcome.quarantined);
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes / 2);
  EXPECT_GT(monitor_->faults_seen(), 0u);
  EXPECT_EQ(monitor_->quarantined_huge(), 0u);
  // Whatever was rolled back must be in a legal, reclaimable state:
  // growing back to full size must succeed completely.
  const hv::ResizeOutcome grow = SetLimit(kVmBytes);
  EXPECT_TRUE(grow.complete);
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes);
}

TEST_F(FaultRecoveryTest, RequestTimeoutYieldsPartialReclaim) {
  // Measure how long a clean full shrink takes...
  core::HyperAllocConfig config;
  config.hugepages_per_slice = 8;  // many slices -> many deadline checks
  Init("", config);
  PopulateAndFree(64);
  const sim::Time t0 = sim_->now();
  ASSERT_TRUE(SetLimit(0).complete);
  const sim::Time clean_ns = sim_->now() - t0;
  ASSERT_GT(clean_ns, 0u);

  // ...then give an identical VM only half that budget: the request must
  // end partially, flagged timed_out, with every frame in a legal state.
  config.retry.request_timeout_ns = clean_ns / 2;
  Init("", config);
  PopulateAndFree(64);
  const hv::ResizeOutcome outcome = SetLimit(0);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(monitor_->fault_timeouts(), 1u);
  EXPECT_EQ(outcome.achieved_bytes, monitor_->limit_bytes());
  // Partial: some progress, but not all the way to the target.
  EXPECT_LT(monitor_->limit_bytes(), kVmBytes);
  EXPECT_GT(monitor_->limit_bytes(), 0u);
  // Degraded, not poisoned: the next (deadline-free) request finishes.
  config.retry.request_timeout_ns = 0;
  Init("", config);
  PopulateAndFree(64);
  EXPECT_TRUE(SetLimit(0).complete);
}

TEST_F(FaultRecoveryTest, PermanentFaultsQuarantineFramesThenVm) {
  core::HyperAllocConfig config;
  config.quarantine_frame_limit = 4;
  Init("ept_unmap:1!", config);  // every unmap fails permanently
  PopulateAndFree(64);
  const hv::ResizeOutcome outcome = SetLimit(0);
  // Permanent faults poison frames until the VM-level limit trips.
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_TRUE(monitor_->vm_quarantined());
  EXPECT_GE(monitor_->quarantined_huge(), 4u);
  EXPECT_FALSE(outcome.complete);
  uint64_t quarantined_states = 0;
  for (HugeId h = 0; h < HugesForFrames(vm_->total_frames()); ++h) {
    quarantined_states +=
        monitor_->StateOf(h) == core::ReclaimState::kQuarantined ? 1 : 0;
  }
  EXPECT_EQ(quarantined_states, monitor_->quarantined_huge());
  // A poisoned VM refuses further resizes: the request completes
  // immediately, reporting quarantine, without touching any state.
  const uint64_t limit = monitor_->limit_bytes();
  const hv::ResizeOutcome again = SetLimit(kVmBytes);
  EXPECT_TRUE(again.quarantined);
  EXPECT_EQ(monitor_->limit_bytes(), limit);
}

TEST_F(FaultRecoveryTest, InjectionDisabledIsByteIdenticalToNoInjector) {
  // A VM with a null injector and one with an armed-but-empty plan must
  // produce identical virtual timelines (the injection-off determinism
  // guarantee the perf gate relies on).
  Init("");
  PopulateAndFree(32);
  SetLimit(kVmBytes / 2);
  const sim::Time without = sim_->now();

  Init("");
  injector_ = std::make_unique<Injector>(Plan{});  // enabled() == false
  vm_->SetFaultInjector(injector_.get());
  host_->SetFaultInjector(injector_.get());
  PopulateAndFree(32);
  SetLimit(kVmBytes / 2);
  EXPECT_EQ(sim_->now(), without);
  EXPECT_EQ(monitor_->faults_seen(), 0u);
}

// --- The same recovery on a buddy guest (aux (A, E) bridge) -----------

constexpr uint64_t kVmHuge = kVmBytes / kHugeSize;

TEST_F(FaultRecoveryTest, BuddyTransientUnmapFaultRollsBackThroughGuest) {
  core::HyperAllocConfig config;
  config.hugepages_per_slice = 1;  // observe the first slice on its own
  // Every attempt on the first unmap fails transiently.
  Init("ept_unmap@0@1@2@3", config, 42, false, guest::AllocatorKind::kBuddy);
  PopulateAndFree(kVmHuge);  // every frame is host-backed
  const uint64_t guest_free = vm_->FreeFrames();
  bool done = false;
  monitor_->Request(
      {.target_bytes = 0, .done = [&] { done = true; }, .on_outcome = {}});
  // The first slice took one frame out of the guest, failed to unmap it
  // and handed it back through the guest's free path: R=S, no frame held.
  EXPECT_EQ(monitor_->fault_rollbacks(), 1u);
  EXPECT_EQ(monitor_->fault_retries(), 3u);
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes);
  EXPECT_EQ(vm_->FreeFrames(), guest_free);
  EXPECT_EQ(CountState(core::ReclaimState::kSoft), 1u);
  ExpectConserved();
  while (!done) {
    ASSERT_TRUE(sim_->Step());
  }
  EXPECT_TRUE(monitor_->last_outcome().complete);
  EXPECT_EQ(monitor_->limit_bytes(), 0u);
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  ExpectConserved();
  EXPECT_TRUE(SetLimit(kVmBytes).complete);
  ExpectConserved();
}

TEST_F(FaultRecoveryTest, BuddyPermanentUnmapFaultQuarantinesForGood) {
  Init("ept_unmap@0!", {}, 42, false, guest::AllocatorKind::kBuddy);
  PopulateAndFree(kVmHuge);
  EXPECT_TRUE(SetLimit(kVmBytes / 2).complete);
  ASSERT_EQ(monitor_->quarantined_huge(), 1u);
  ASSERT_EQ(CountState(core::ReclaimState::kQuarantined), 1u);
  ExpectConserved();
  // Growing back returns every hard-reclaimed frame but not the poisoned
  // one, which stays mapped and host-backed.
  const hv::ResizeOutcome grow = SetLimit(kVmBytes);
  EXPECT_FALSE(grow.complete);
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes - kHugeSize);
  ExpectConserved();
  // The guest can allocate everything else, but never the poisoned frame.
  uint64_t allocated = 0;
  for (Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge); r.ok();
       r = vm_->Alloc(kHugeOrder, AllocType::kHuge)) {
    EXPECT_NE(monitor_->StateOf(FrameToHuge(*r)),
              core::ReclaimState::kQuarantined);
    allocated += kFramesPerHuge;
  }
  EXPECT_EQ(allocated, (kVmHuge - 1) * kFramesPerHuge);
  ExpectConserved(allocated);
}

TEST_F(FaultRecoveryTest, BuddyPermanentFaultOnSoftReclaimClaimsTheFrame) {
  Init("ept_unmap@0!", {}, 42, false, guest::AllocatorKind::kBuddy);
  PopulateAndFree(4);
  // The auto pass soft-reclaims the four free frames; the first unmap
  // fails permanently, so that frame is claimed out of the buddy lists.
  EXPECT_EQ(monitor_->AutoReclaimPass(), 3u);
  ASSERT_EQ(monitor_->quarantined_huge(), 1u);
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes - kHugeSize);
  ExpectConserved();
  uint64_t allocated = 0;
  for (Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge); r.ok();
       r = vm_->Alloc(kHugeOrder, AllocType::kHuge)) {
    EXPECT_NE(monitor_->StateOf(FrameToHuge(*r)),
              core::ReclaimState::kQuarantined);
    allocated += kFramesPerHuge;
  }
  EXPECT_EQ(allocated, (kVmHuge - 1) * kFramesPerHuge);
  ExpectConserved(allocated);
}

TEST_F(FaultRecoveryTest, BuddyInstallFaultsRetryThenQuarantineVm) {
  // Every attempt of the first install hypercall fails transiently.
  Init("install@0@1@2@3", {}, 42, false, guest::AllocatorKind::kBuddy);
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  // The allocation is handed over anyway, but the install's DMA-safety
  // guarantee no longer holds: retries exhausted, the VM is poisoned.
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(monitor_->faults_seen(), 4u);
  EXPECT_EQ(monitor_->fault_retries(), 3u);
  EXPECT_TRUE(monitor_->vm_quarantined());
  EXPECT_EQ(monitor_->installs(), 1u);
  ExpectConserved(1);
  const hv::ResizeOutcome outcome = SetLimit(kVmBytes / 2);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes);
  ExpectConserved(1);
}

}  // namespace
}  // namespace hyperalloc::fault
