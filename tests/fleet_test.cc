// Fleet engine tests (DESIGN.md §4.12): cross-thread determinism at
// 512 VMs, policy behavior on canned pressure traces, admission-control
// rejection accounting, arrival-process determinism, and fault-plan
// composition through the fleet VM factory path.
//
// The VM factory here is built from src/ parts only (GuestVm +
// HyperAllocMonitor) — deliberately NOT bench/candidates.h, so the test
// covers the public orchestration API without a src-test -> bench
// dependency.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "src/core/hyperalloc.h"
#include "src/fault/fault.h"
#include "src/fleet/agents.h"
#include "src/fleet/arrival.h"
#include "src/fleet/fleet.h"
#include "src/fleet/policy.h"
#include "src/guest/guest_vm.h"
#include "src/trace/trace.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::fleet {
namespace {

// src-only VM factory: LLFree guest + HyperAlloc monitor, optional
// per-VM decorrelated fault plan (same seed derivation as the bench
// factory: plan.seed + index).
VmFactory TestVmFactory(uint64_t vm_bytes, fault::Plan plan = {},
                        core::HyperAllocConfig monitor = {}) {
  return [vm_bytes, plan, monitor](sim::Simulation* sim,
                                   hv::HostMemory* host, uint64_t index,
                                   const std::string& name) {
    guest::GuestConfig gc;
    gc.name = name;
    gc.memory_bytes = vm_bytes;
    gc.vcpus = 1;
    gc.allocator = guest::AllocatorKind::kLLFree;
    gc.dma32_bytes = 0;

    FleetVmParts parts;
    parts.vm = std::make_unique<guest::GuestVm>(sim, host, gc);
    parts.deflator =
        std::make_unique<core::HyperAllocMonitor>(parts.vm.get(), monitor);
    if (plan.enabled()) {
      fault::Plan mine = plan;
      mine.seed += index;
      parts.fault = std::make_unique<fault::Injector>(mine);
      parts.vm->SetFaultInjector(parts.fault.get());
    }
    return parts;
  };
}

// ---------------------------------------------------------------------
// Determinism: byte-identical per-VM outcomes across worker threads.
// ---------------------------------------------------------------------

FleetResult RunDeterminismFleet(unsigned threads, uint64_t vms,
                                bool huge = false) {
  const uint64_t vm_bytes = 64 * kMiB;
  PolicyConfig pc;

  FleetConfig config;
  config.vms = vms;
  config.threads = threads;
  config.vm_bytes = vm_bytes;
  // ~1.6x overcommit, same shape as the bench scenario.
  config.host_bytes = vms * 40 * kMiB;
  config.horizon = 2 * sim::kMin;
  config.epoch = 5 * sim::kSec;
  config.record_series = false;
  config.initial_limit_bytes = pc.min_limit_bytes + pc.headroom_bytes;
  config.spike = {sim::kMin, std::min<uint64_t>(vms / 8, 32), 16 * kMiB};

  ArrivalConfig ac;
  ac.kind = ArrivalKind::kBursty;
  ac.horizon = config.horizon;
  ac.peak_bytes = 48 * kMiB;
  auto arrivals = std::make_shared<std::unique_ptr<ArrivalProcess>>(
      MakeArrivalProcess(ac));

  FleetEngine engine(
      config, TestVmFactory(vm_bytes),
      [arrivals, huge](uint64_t index) {
        DemandAgentConfig dc;
        dc.trace = (*arrivals)->Generate(index);
        if (huge) {
          // §4.14 fast-path mode: all demand THP-backed, so population
          // and reclaim both move at 2 MiB granularity.
          dc.thp_fraction = 1.0;
        }
        return std::make_unique<DemandAgent>(dc);
      },
      MakeProportionalShare(pc));
  return engine.Run();
}

TEST(FleetDeterminism, ByteIdenticalAcross1And4And16Threads) {
  const uint64_t kVms = 512;
  const FleetResult one = RunDeterminismFleet(1, kVms);
  ASSERT_EQ(one.vm_digests.size(), kVms);
  EXPECT_GT(one.slo.resizes, 0u);

  for (const unsigned threads : {4u, 16u}) {
    const FleetResult many = RunDeterminismFleet(threads, kVms);
    EXPECT_EQ(one.fleet_digest, many.fleet_digest)
        << "fleet digest diverged at " << threads << " threads";
    ASSERT_EQ(one.vm_digests.size(), many.vm_digests.size());
    for (uint64_t i = 0; i < kVms; ++i) {
      ASSERT_EQ(one.vm_digests[i], many.vm_digests[i])
          << "VM " << i << " diverged at " << threads << " threads";
    }
    EXPECT_EQ(one.slo.resizes, many.slo.resizes);
    EXPECT_EQ(one.final_limit_bytes, many.final_limit_bytes);
  }
}

// Huge-frame fast-path mode (§4.14): the fleet-wide huge-reclaim split
// is aggregated at the engine barrier from per-VM deflator counters, so
// it must be byte-identical across worker-thread counts too — and the
// counters must actually move (the share gate would be vacuous on an
// idle fleet).
TEST(FleetDeterminism, HugeModeDigestsByteIdenticalAt512Vms) {
  const uint64_t kVms = 512;
  const FleetResult one = RunDeterminismFleet(1, kVms, /*huge=*/true);
  ASSERT_EQ(one.vm_digests.size(), kVms);
  EXPECT_GT(one.slo.resizes, 0u);
  ASSERT_GT(one.huge_reclaim.total(), 0u)
      << "huge mode reclaimed nothing: the share metric is vacuous";
  EXPECT_GE(one.huge_reclaim.Share(), 0.0);
  EXPECT_LE(one.huge_reclaim.Share(), 1.0);

  for (const unsigned threads : {4u, 16u}) {
    const FleetResult many = RunDeterminismFleet(threads, kVms, true);
    EXPECT_EQ(one.fleet_digest, many.fleet_digest)
        << "huge-mode fleet digest diverged at " << threads
        << " threads";
    for (uint64_t i = 0; i < kVms; ++i) {
      ASSERT_EQ(one.vm_digests[i], many.vm_digests[i])
          << "VM " << i << " diverged at " << threads << " threads";
    }
    EXPECT_EQ(one.huge_reclaim.untouched, many.huge_reclaim.untouched);
    EXPECT_EQ(one.huge_reclaim.via_2m, many.huge_reclaim.via_2m);
    EXPECT_EQ(one.huge_reclaim.via_4k, many.huge_reclaim.via_4k);
  }

  // The THP-backed fleet must not regress the huge-granular share below
  // the perf-gate floor the bench enforces (scripts/perf_gate.py).
  EXPECT_GE(one.huge_reclaim.Share(), 0.8);
}

// ---------------------------------------------------------------------
// Telemetry determinism: the barrier-sampled stream and the flight
// recorder are pure functions of virtual time, so their digests must be
// byte-identical across worker-thread counts even with a fault plan
// driving VMs into quarantine mid-run (DESIGN.md §4.13).
// ---------------------------------------------------------------------

#if HYPERALLOC_TRACE
FleetResult RunTelemetryFleet(unsigned threads) {
  const uint64_t kVms = 512;
  const uint64_t vm_bytes = 64 * kMiB;
  PolicyConfig pc;

  FleetConfig config;
  config.vms = kVms;
  config.threads = threads;
  config.vm_bytes = vm_bytes;
  config.host_bytes = kVms * 40 * kMiB;  // ~1.6x overcommit
  config.horizon = 2 * sim::kMin;
  config.epoch = 5 * sim::kSec;
  config.record_series = false;
  config.initial_limit_bytes = pc.min_limit_bytes + pc.headroom_bytes;
  config.spike = {sim::kMin, 32, 16 * kMiB};
  // Telemetry on (the default), span emission off: the test runs without
  // the global tracers and must not depend on their state.
  config.telemetry.emit_spans = false;

  // Permanent unmap faults push frames toward the per-VM quarantine
  // limit; under 1.6x overcommit the policy keeps deflating (every
  // deflate is an unmap site), so some VMs quarantine mid-run and the
  // flight recorder freezes a bundle. The limit is tightened from its
  // default 16 so quarantine trips within the short test horizon (the
  // per-VM fault budget here is ~1-2 permanent faults).
  fault::Plan plan;
  std::string error;
  EXPECT_TRUE(fault::Plan::Parse("ept_unmap:0.6!", &plan, &error)) << error;
  plan.seed = 42;
  core::HyperAllocConfig monitor;
  monitor.quarantine_frame_limit = 2;

  ArrivalConfig ac;
  ac.kind = ArrivalKind::kBursty;
  ac.horizon = config.horizon;
  ac.peak_bytes = 48 * kMiB;
  auto arrivals = std::make_shared<std::unique_ptr<ArrivalProcess>>(
      MakeArrivalProcess(ac));

  FleetEngine engine(
      config, TestVmFactory(vm_bytes, plan, monitor),
      [arrivals](uint64_t index) {
        DemandAgentConfig dc;
        dc.trace = (*arrivals)->Generate(index);
        return std::make_unique<DemandAgent>(dc);
      },
      MakeProportionalShare(pc));
  return engine.Run();
}
#endif  // HYPERALLOC_TRACE

TEST(FleetTelemetry, DigestsByteIdenticalAcross1And4And16Threads) {
#if !HYPERALLOC_TRACE
  GTEST_SKIP() << "telemetry compiled out (HYPERALLOC_TRACE=0)";
#else
  const FleetResult one = RunTelemetryFleet(1);
  ASSERT_TRUE(one.telemetry.enabled);
  EXPECT_GT(one.telemetry.epochs, 0u);
  EXPECT_NE(one.telemetry.telemetry_digest, 0u);
  // The fault plan must actually drive the flight recorder, otherwise
  // flight-digest equality below is vacuous.
  ASSERT_GT(one.telemetry.flight_dumps, 0u);
  EXPECT_NE(one.telemetry.flight_digest, 0u);

  for (const unsigned threads : {4u, 16u}) {
    const FleetResult many = RunTelemetryFleet(threads);
    EXPECT_EQ(one.fleet_digest, many.fleet_digest)
        << "fleet digest diverged at " << threads << " threads";
    EXPECT_EQ(one.telemetry.telemetry_digest, many.telemetry.telemetry_digest)
        << "telemetry stream diverged at " << threads << " threads";
    EXPECT_EQ(one.telemetry.flight_digest, many.telemetry.flight_digest)
        << "flight bundles diverged at " << threads << " threads";
    EXPECT_EQ(one.telemetry.epochs, many.telemetry.epochs);
    EXPECT_EQ(one.telemetry.alerts, many.telemetry.alerts);
    EXPECT_EQ(one.telemetry.flight_dumps, many.telemetry.flight_dumps);
    // Byte-level check on the serialized bundles, not just the digest.
    ASSERT_EQ(one.telemetry.dumps.size(), many.telemetry.dumps.size());
    for (size_t i = 0; i < one.telemetry.dumps.size(); ++i) {
      EXPECT_EQ(one.telemetry.dumps[i].json, many.telemetry.dumps[i].json);
      EXPECT_EQ(one.telemetry.dumps[i].perfetto,
                many.telemetry.dumps[i].perfetto);
    }
  }
#endif  // HYPERALLOC_TRACE
}

// ---------------------------------------------------------------------
// Instant records: every event a fleet VM emits carries that VM's id and
// is stamped from that VM's own simulation (no process-global clock), so
// each VM's event stream is a pure function of virtual time.
// ---------------------------------------------------------------------

#if HYPERALLOC_TRACE
// The virtual fields of one instant record.
using Instant =
    std::tuple<uint64_t, trace::Category, trace::Op, uint64_t, uint64_t>;

// Each VM's instant records in emission order, from a small fleet run
// with instant recording on (and spans off).
std::vector<std::vector<Instant>> RunEventFleet(unsigned threads,
                                                uint64_t vms) {
  trace::SpanTracer& tracer = trace::SpanTracer::Global();
  tracer.SetCapacity(1 << 19);
  tracer.ResetForTest();
  tracer.SetEventsEnabled(true);
  const FleetResult result = RunDeterminismFleet(threads, vms);
  tracer.SetEventsEnabled(false);
  std::vector<trace::SpanRecord> records = tracer.Drain();
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  tracer.SetCapacity(1 << 16);
  EXPECT_GT(result.slo.resizes, 0u);

  std::sort(records.begin(), records.end(),
            [](const trace::SpanRecord& a, const trace::SpanRecord& b) {
              return a.seq < b.seq;
            });
  std::vector<std::vector<Instant>> per_vm(vms);
  for (const trace::SpanRecord& r : records) {
    EXPECT_TRUE(r.instant());
    EXPECT_LT(r.vm, vms);
    if (r.vm < vms) {
      per_vm[r.vm].emplace_back(r.begin_vns, r.category, r.op, r.arg0,
                                r.arg1);
    }
  }
  return per_vm;
}
#endif  // HYPERALLOC_TRACE

TEST(FleetEvents, PerVmClockAndStreamIdenticalAcross1And4Threads) {
#if !HYPERALLOC_TRACE
  GTEST_SKIP() << "events compiled out (HYPERALLOC_TRACE=0)";
#else
  const uint64_t kVms = 8;
  const std::vector<std::vector<Instant>> one = RunEventFleet(1, kVms);
  const std::vector<std::vector<Instant>> four = RunEventFleet(4, kVms);
  for (uint64_t vm = 0; vm < kVms; ++vm) {
    // A VM boots and first installs at its own t = 0; from then on its
    // clock only moves forward, and its run takes it past the first
    // epoch — a stream stamped from an unset global clock reads 0.
    ASSERT_FALSE(one[vm].empty()) << "VM " << vm << " recorded no events";
    for (size_t i = 1; i < one[vm].size(); ++i) {
      ASSERT_LE(std::get<0>(one[vm][i - 1]), std::get<0>(one[vm][i]))
          << "VM " << vm << " event " << i << " went back in time";
    }
    EXPECT_GE(std::get<0>(one[vm].back()), 5 * sim::kSec) << "VM " << vm;
    EXPECT_TRUE(one[vm] == four[vm])
        << "VM " << vm << " event stream diverged at 4 threads";
  }
#endif  // HYPERALLOC_TRACE
}

// ---------------------------------------------------------------------
// Policies on canned signals.
// ---------------------------------------------------------------------

std::vector<ResizeAction> Decide(ResizePolicy* policy,
                                 const PoolSignal& pool,
                                 const std::vector<VmSignal>& vms) {
  // Same pre-set as the engine: "keep the current limit".
  std::vector<ResizeAction> actions(vms.size());
  for (size_t i = 0; i < vms.size(); ++i) {
    actions[i] = {vms[i].limit_bytes, 0};
  }
  policy->Decide(pool, vms, &actions);
  return actions;
}

VmSignal Signal(uint64_t memory, uint64_t limit, uint64_t want) {
  VmSignal vm;
  vm.memory_bytes = memory;
  vm.limit_bytes = limit;
  vm.wss_bytes = want;
  vm.demand_bytes = want;
  return vm;
}

TEST(ProportionalSharePolicy, UncontendedGetsWantPlusHeadroom) {
  PolicyConfig pc;
  auto policy = MakeProportionalShare(pc);
  PoolSignal pool;
  pool.capacity_bytes = kGiB;
  const std::vector<VmSignal> vms(4, Signal(64 * kMiB, 20 * kMiB,
                                            40 * kMiB));
  const auto actions = Decide(policy.get(), pool, vms);
  for (const ResizeAction& action : actions) {
    EXPECT_EQ(action.target_bytes, 40 * kMiB + pc.headroom_bytes);
    EXPECT_EQ(action.deadline, pc.deadline);
  }
}

TEST(ProportionalSharePolicy, OvercommitScalesBackProportionally) {
  PolicyConfig pc;
  auto policy = MakeProportionalShare(pc);
  PoolSignal pool;
  pool.capacity_bytes = 128 * kMiB;
  // Everyone wants their full 64 MiB: 4x the usable pool.
  const std::vector<VmSignal> vms(4, Signal(64 * kMiB, 24 * kMiB,
                                            60 * kMiB));
  const auto actions = Decide(policy.get(), pool, vms);
  const uint64_t usable = static_cast<uint64_t>(
      static_cast<double>(pool.capacity_bytes) * (1.0 - pc.share_reserve));
  uint64_t sum = 0;
  for (const ResizeAction& action : actions) {
    EXPECT_GE(action.target_bytes, pc.min_limit_bytes);
    EXPECT_LT(action.target_bytes, 64 * kMiB);
    EXPECT_EQ(action.target_bytes, actions[0].target_bytes)
        << "identical VMs must get identical shares";
    sum += action.target_bytes;
  }
  EXPECT_LE(sum, usable);
}

TEST(ProportionalSharePolicy, HysteresisAndBusySuppressRequests) {
  PolicyConfig pc;
  auto policy = MakeProportionalShare(pc);
  PoolSignal pool;
  pool.capacity_bytes = kGiB;
  // VM 0: want is within hysteresis of the limit; VM 1: busy.
  std::vector<VmSignal> vms = {
      Signal(64 * kMiB, 42 * kMiB, 40 * kMiB - pc.headroom_bytes),
      Signal(64 * kMiB, 20 * kMiB, 60 * kMiB)};
  vms[1].busy = true;
  const auto actions = Decide(policy.get(), pool, vms);
  EXPECT_EQ(actions[0].target_bytes, vms[0].limit_bytes);
  EXPECT_EQ(actions[1].target_bytes, vms[1].limit_bytes);
}

TEST(PressurePidPolicy, OverPressureFreezesGrowsButPassesShrinks) {
  PolicyConfig pc;
  auto policy = MakePressurePid(pc);
  PoolSignal pool;
  pool.capacity_bytes = kGiB;
  pool.pressure = 1.0;  // far above the 0.85 setpoint
  const std::vector<VmSignal> vms = {
      Signal(64 * kMiB, 20 * kMiB, 60 * kMiB),  // wants to grow
      Signal(64 * kMiB, 60 * kMiB, 20 * kMiB)};  // wants to shrink
  const auto actions = Decide(policy.get(), pool, vms);
  EXPECT_EQ(actions[0].target_bytes, vms[0].limit_bytes)
      << "grow must be frozen above the setpoint";
  EXPECT_EQ(actions[1].target_bytes, 20 * kMiB + pc.headroom_bytes)
      << "shrinks always pass (they relieve pressure)";
}

TEST(PressurePidPolicy, UnderPressureGrantsGrowsInIndexOrder) {
  PolicyConfig pc;
  auto policy = MakePressurePid(pc);
  PoolSignal pool;
  pool.capacity_bytes = kGiB;
  pool.pressure = 0.2;  // well below the setpoint: growth welcome
  const std::vector<VmSignal> vms(2, Signal(64 * kMiB, 20 * kMiB,
                                            50 * kMiB));
  const auto actions = Decide(policy.get(), pool, vms);
  for (const ResizeAction& action : actions) {
    EXPECT_EQ(action.target_bytes, 50 * kMiB + pc.headroom_bytes);
  }
}

TEST(MarketPolicyAdapter, HigherUtilizationGrantsLess) {
  PolicyConfig pc;
  const std::vector<VmSignal> vms = {Signal(64 * kMiB, 20 * kMiB,
                                            48 * kMiB)};
  PoolSignal idle;
  idle.capacity_bytes = kGiB;
  idle.used_bytes = 64 * kMiB;
  PoolSignal loaded = idle;
  loaded.used_bytes = static_cast<uint64_t>(0.97 * kGiB);

  // Fresh policy per reading: the adapter itself is stateless, but keep
  // the comparison clean.
  const auto cheap = Decide(MakeMarketPolicy(pc).get(), idle, vms);
  const auto dear = Decide(MakeMarketPolicy(pc).get(), loaded, vms);
  EXPECT_GE(cheap[0].target_bytes, dear[0].target_bytes)
      << "a dearer spot price must never grant more memory";
  EXPECT_GE(dear[0].target_bytes, pc.min_limit_bytes);
  EXPECT_LE(cheap[0].target_bytes, 64 * kMiB);
}

// ---------------------------------------------------------------------
// Admission control near pool exhaustion.
// ---------------------------------------------------------------------

TEST(FleetAdmission, RejectsGrowsNearExhaustionAndKeepsLedgerFeasible) {
  const uint64_t vm_bytes = 64 * kMiB;
  PolicyConfig pc;

  FleetConfig config;
  config.vms = 8;
  config.threads = 1;
  config.vm_bytes = vm_bytes;
  // Deep overcommit (~2.7x): every VM wanting its peak cannot fit, so
  // the ledger must clip and then reject grows.
  config.host_bytes = 8 * 24 * kMiB;
  config.horizon = 90 * sim::kSec;
  config.epoch = 5 * sim::kSec;
  config.record_series = false;
  config.initial_limit_bytes = pc.min_limit_bytes + pc.headroom_bytes;

  // Constant saturating demand from every VM.
  ArrivalConfig ac;
  ac.kind = ArrivalKind::kDiurnal;
  ac.horizon = config.horizon;
  ac.peak_bytes = vm_bytes;
  ac.duty = 1.0;
  auto arrivals = std::make_shared<std::unique_ptr<ArrivalProcess>>(
      MakeArrivalProcess(ac));

  FleetEngine engine(
      config, TestVmFactory(vm_bytes),
      [arrivals](uint64_t index) {
        DemandAgentConfig dc;
        dc.trace = (*arrivals)->Generate(index);
        return std::make_unique<DemandAgent>(dc);
      },
      MakeProportionalShare(pc));
  const FleetResult result = engine.Run();

  // Deep overcommit: grows still pass while there is headroom (clipped
  // to it once it runs short), and are refused near exhaustion.
  EXPECT_GT(result.admission.granted + result.admission.clipped, 0u);
  EXPECT_GT(result.admission.rejected, 0u)
      << "a 2.7x-overcommitted fleet must see grow rejections";

  // The ledger invariant the determinism contract rides on:
  // sum(final limits) stays within the reserve-adjusted capacity. The
  // pool rounds host_bytes up to its shard granularity, so read the
  // real capacity back from the engine.
  const uint64_t capacity = engine.host()->total_frames() * kFrameSize;
  const uint64_t usable = static_cast<uint64_t>(
      static_cast<double>(capacity) * (1.0 - config.admission_reserve));
  uint64_t committed = 0;
  for (const uint64_t limit : result.final_limit_bytes) {
    committed += limit;
  }
  EXPECT_LE(committed, usable);
}

// ---------------------------------------------------------------------
// Arrival processes.
// ---------------------------------------------------------------------

TEST(ArrivalProcessTest, DeterministicPerVmAndBounded) {
  for (const ArrivalKind kind :
       {ArrivalKind::kBursty, ArrivalKind::kDiurnal,
        ArrivalKind::kHeavyTailed}) {
    ArrivalConfig ac;
    ac.kind = kind;
    const auto process = MakeArrivalProcess(ac);
    const auto again = MakeArrivalProcess(ac);
    bool any_difference = false;
    for (uint64_t vm = 0; vm < 8; ++vm) {
      const std::vector<Arrival> trace = process->Generate(vm);
      const std::vector<Arrival> replay = again->Generate(vm);
      ASSERT_FALSE(trace.empty());
      ASSERT_EQ(trace.size(), replay.size());
      for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].at, replay[i].at);
        EXPECT_EQ(trace[i].bytes, replay[i].bytes);
        EXPECT_LT(trace[i].at, ac.horizon);
        EXPECT_GE(trace[i].bytes, ac.floor_bytes);
        EXPECT_LE(trace[i].bytes, ac.peak_bytes);
        EXPECT_EQ(trace[i].bytes % ac.quantum_bytes, 0u);
        if (i > 0) {
          EXPECT_GE(trace[i].at, trace[i - 1].at);
        }
      }
      if (vm > 0 &&
          !(trace.size() == process->Generate(0).size() &&
            std::equal(trace.begin(), trace.end(),
                       process->Generate(0).begin(),
                       [](const Arrival& a, const Arrival& b) {
                         return a.at == b.at && a.bytes == b.bytes;
                       }))) {
        any_difference = true;
      }
    }
    EXPECT_TRUE(any_difference)
        << "per-VM seed mixing produced identical traces for all of "
        << "8 VMs (" << process->name() << ")";
  }
}

TEST(ArrivalProcessTest, StepResizeTraceIsTheLegacySchedule) {
  const std::vector<Arrival> trace = StepResizeTrace(16 * kGiB);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].at, kShrinkAt);
  EXPECT_EQ(trace[0].bytes, kResizeTarget);
  EXPECT_EQ(trace[1].at, kGrowAt);
  EXPECT_EQ(trace[1].bytes, 16 * kGiB);
}

// ---------------------------------------------------------------------
// Fault composition through the fleet factory path.
// ---------------------------------------------------------------------

// One shrink with real reclaim work, as in bench_faults' probe.
class ShrinkProbe : public VmAgent {
 public:
  void Start(VmContext* context) override {
    context_ = context;
    workloads::MemoryPool pool(context->vm);
    const uint64_t memory = context->vm->config().memory_bytes;
    const uint64_t region =
        pool.AllocRegion(memory / 2, /*thp_fraction=*/0.9, 0);
    pool.FreeRegion(region, 0);
    context->vm->PurgeAllocatorCaches();
    issued_ = context->sim->now();
    context->deflator->Request(
        {.target_bytes = context->vm->config().memory_bytes / 4,
         .done = [this] {
           elapsed_ = context_->sim->now() - issued_;
           done_ = true;
         }});
  }
  bool finished() const override { return done_; }
  uint64_t demand_bytes() const override { return 0; }
  sim::Time elapsed() const { return elapsed_; }

 private:
  VmContext* context_ = nullptr;
  sim::Time issued_ = 0;
  sim::Time elapsed_ = 0;
  bool done_ = false;
};

struct FaultRun {
  hv::ResizeOutcome outcome;
  uint64_t injected = 0;
  sim::Time elapsed = 0;
};

FaultRun RunFaultedShrink(uint64_t seed) {
  fault::Plan plan;
  plan.seed = seed;
  plan.spec(fault::Site::kEptUnmap).probability = 0.05;
  plan.spec(fault::Site::kEptUnmap).kind = fault::Kind::kTransient;

  FleetConfig config;
  config.vms = 1;
  config.threads = 1;
  config.vm_bytes = 256 * kMiB;
  config.host_bytes = kGiB;
  config.run_to_completion = true;
  config.record_series = false;

  ShrinkProbe* probe = nullptr;
  FleetEngine engine(config, TestVmFactory(config.vm_bytes, plan),
                     [&probe](uint64_t) {
                       auto agent = std::make_unique<ShrinkProbe>();
                       probe = agent.get();
                       return agent;
                     },
                     /*policy=*/nullptr);
  engine.Run();

  FaultRun run;
  run.outcome = engine.deflator(0)->last_outcome();
  run.injected = engine.injector(0)->injected_total();
  run.elapsed = probe->elapsed();
  return run;
}

TEST(FleetFaults, InjectionComposesAndRecoversDeterministically) {
  const FaultRun first = RunFaultedShrink(/*seed=*/7);
  EXPECT_GT(first.injected, 0u) << "the armed plan never fired";
  EXPECT_GT(first.outcome.faults, 0u);
  EXPECT_TRUE(first.outcome.complete)
      << "transient EPT-unmap faults must be retried to completion";
  EXPECT_FALSE(first.outcome.quarantined);

  // Same seed => identical failure schedule => identical virtual cost.
  const FaultRun replay = RunFaultedShrink(/*seed=*/7);
  EXPECT_EQ(first.injected, replay.injected);
  EXPECT_EQ(first.outcome.faults, replay.outcome.faults);
  EXPECT_EQ(first.outcome.retries, replay.outcome.retries);
  EXPECT_EQ(first.elapsed, replay.elapsed);
}

}  // namespace
}  // namespace hyperalloc::fleet
