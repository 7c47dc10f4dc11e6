// fleet_overcommit: 1024 HyperAlloc VMs of 64 MiB on a host pool 1.6x
// overcommitted, bursty demand, the proportional-share policy under
// admission control, the 32-VM pressure spike at 2 min and telemetry on,
// driven by 4 worker threads over a 4-minute virtual horizon.
//
// One repetition is that committed scenario. A run repeats it with fresh
// per-repetition arrival seeds for as long as --seconds allows, which
// lengthens the run without changing the traffic mix (a longer horizon
// would: admission rejections grow far faster than resizes). The virtual
// metrics come from the first kVirtReps repetitions only, so they repeat
// exactly for a given seed however fast the host is. After the timed
// repetitions the run also drives the host-pool overload probe (pool.cc).
//
// The end-to-end time is the repetitions' median process CPU time: on a
// shared multicore VM the 4-thread epoch barrier waits for whichever vCPU
// the host has taken away, so the wall time of the same repetition moves
// by up to 2x from one minute to the next (run.wall_s, the 10th
// percentile of the walls, still shows it).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/core/hyperalloc.h"
#include "src/fleet/agents.h"
#include "src/fleet/arrival.h"
#include "src/fleet/fleet.h"
#include "src/fleet/policy.h"

namespace hyperalloc::perfbench {
namespace {

constexpr uint64_t kVms = 1024;
constexpr uint64_t kVmBytes = 64 * kMiB;
constexpr double kOvercommit = 1.6;
constexpr unsigned kThreads = 4;
constexpr sim::Time kHorizon = 4 * sim::kMin;
constexpr sim::Time kEpoch = 5 * sim::kSec;
constexpr uint64_t kVirtReps = 4;
constexpr uint64_t kMinReps = 6;

// Times every Decide call of the wrapped policy.
class TimedPolicy : public fleet::ResizePolicy {
 public:
  TimedPolicy(std::unique_ptr<fleet::ResizePolicy> inner, double* seconds)
      : inner_(std::move(inner)), seconds_(seconds) {}

  const char* name() const override { return inner_->name(); }

  void Decide(const fleet::PoolSignal& pool,
              const std::vector<fleet::VmSignal>& vms,
              std::vector<fleet::ResizeAction>* actions) override {
    const Clock::time_point start = Clock::now();
    inner_->Decide(pool, vms, actions);
    *seconds_ += SecondsSince(start);
  }

 private:
  std::unique_ptr<fleet::ResizePolicy> inner_;
  double* seconds_;
};

struct Rep {
  double build_s = 0.0;   // summed VmFactory calls
  double run_s = 0.0;     // FleetEngine::Run minus build_s
  double build_cpu_s = 0.0;  // build_s in CPU time
  double cpu_s = 0.0;        // run_s in process CPU time
  double policy_s = 0.0;  // summed ResizePolicy::Decide calls
  uint64_t refills = 0;
  uint64_t drains = 0;
  uint64_t rebalances = 0;
  uint64_t resizes = 0;
  uint64_t failed = 0;
  uint64_t partial_shrinks = 0;
  fleet::FleetResult result;
};

// A HyperAlloc VM built like bench::MakeVmBundle builds one, without
// pointing the event tracer's process-global clock at this VM's
// simulation: that clock is read from the worker threads.
// The engine calls it on the thread that runs FleetEngine::Run.
fleet::VmFactory TimedFactory(Rep* rep) {
  return [rep](sim::Simulation* sim, hv::HostMemory* host, uint64_t,
               const std::string& name) {
    const Clock::time_point start = Clock::now();
    const double cpu_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    guest::GuestConfig gc;
    gc.name = name;
    gc.memory_bytes = kVmBytes;
    gc.allocator = guest::AllocatorKind::kLLFree;
    gc.dma32_bytes = 0;  // smaller than the 2 GiB DMA32 zone
    fleet::FleetVmParts parts;
    parts.vm = std::make_unique<guest::GuestVm>(sim, host, gc);
    parts.deflator = std::make_unique<core::HyperAllocMonitor>(
        parts.vm.get(), core::HyperAllocConfig{});
    rep->build_s += SecondsSince(start);
    rep->build_cpu_s += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
    return parts;
  };
}

Rep RunRep(uint64_t seed, unsigned threads, bool telemetry) {
  const fleet::PolicyConfig policy_config;
  fleet::FleetConfig config;
  config.vms = kVms;
  config.threads = threads;
  config.vm_bytes = kVmBytes;
  config.host_bytes = static_cast<uint64_t>(
      static_cast<double>(kVms * kVmBytes) / kOvercommit);
  config.horizon = kHorizon;
  config.epoch = kEpoch;
  config.record_series = true;
  config.initial_limit_bytes =
      policy_config.min_limit_bytes + policy_config.headroom_bytes;
  config.spike = fleet::PressureSpike{2 * sim::kMin, 32, 32 * kMiB};
  config.telemetry.enabled = telemetry;

  fleet::ArrivalConfig arrival;
  arrival.kind = fleet::ArrivalKind::kBursty;
  arrival.horizon = kHorizon;
  arrival.seed = seed;
  arrival.peak_bytes = std::min(arrival.peak_bytes, kVmBytes);
  std::shared_ptr<fleet::ArrivalProcess> process =
      fleet::MakeArrivalProcess(arrival);

  Rep rep;
  fleet::FleetEngine engine(
      config, TimedFactory(&rep),
      [process](uint64_t index) {
        fleet::DemandAgentConfig agent;
        agent.trace = process->Generate(index);
        return std::make_unique<fleet::DemandAgent>(agent);
      },
      std::make_unique<TimedPolicy>(
          fleet::MakeProportionalShare(policy_config), &rep.policy_s));
  const Clock::time_point start = Clock::now();
  const double cpu_start = CpuSeconds();
  rep.result = engine.Run();
  rep.run_s = SecondsSince(start) - rep.build_s;
  rep.cpu_s = CpuSeconds() - cpu_start - rep.build_cpu_s;
  rep.refills = engine.host()->refills();
  rep.drains = engine.host()->drains();
  rep.rebalances = engine.host()->rebalances();
  rep.resizes = rep.result.resizes.size();
  for (const fleet::ResizeRecord& record : rep.result.resizes) {
    // A shrink that ends above its target is the partial-reclaim contract
    // at work (the guest still uses the memory the policy asked for); a
    // timed-out resize or a grow that falls short is a failure.
    if (record.timed_out ||
        (!record.complete && record.achieved_bytes < record.target_bytes)) {
      ++rep.failed;
    } else if (!record.complete) {
      ++rep.partial_shrinks;
    }
  }
  return rep;
}

}  // namespace

void RunFleet(const Args& args, Report* report) {
  // Reference digest: the first repetition on one worker thread. Outside
  // the timed part.
  const Rep reference = RunRep(RepSeed(args.seed, 0), 1, true);

  // Untraced runs: one telemetry-on repetition per seed. Traced runs:
  // per seed, the same scenario traced (A), untraced (B) and untraced
  // with telemetry off (C); A/B give the tracing overhead, B/C the
  // telemetry overhead, and B the benchmark-timer metrics.
  std::vector<Rep> reps;  // telemetry on, untraced
  std::vector<double> traced_wall;
  std::vector<double> telemetry_off_wall;
  SpanTally tally;
  const uint64_t dropped_before = trace::SpanTracer::Global().dropped_spans();
  const Clock::time_point run_start = Clock::now();
  for (uint64_t r = 0;
       r < kMinReps || SecondsSince(run_start) < args.seconds; ++r) {
    const uint64_t seed = RepSeed(args.seed, r);
    if (args.trace) {
      EnableSpans(true, size_t{1} << 19);
      const Rep traced = RunRep(seed, kThreads, true);
      EnableSpans(false);
      tally.Add(trace::SpanTracer::Global().Drain());
      traced_wall.push_back(traced.run_s);
    }
    reps.push_back(RunRep(seed, kThreads, true));
    if (r >= kVirtReps) {
      reps.back().result = fleet::FleetResult{};  // keep the timings only
    }
    if (r == 0) {
      // Peak RSS over one 4-thread repetition (and the 1-thread
      // reference before it); later repetitions only add allocator-arena
      // noise from the worker threads.
      report->Set("host_rss_mib", PeakRssMib());
    }
    if (args.trace) {
      telemetry_off_wall.push_back(RunRep(seed, kThreads, false).run_s);
    }
  }

  const fleet::FleetResult& first = reps.front().result;
  if (first.fleet_digest != reference.result.fleet_digest ||
      first.vm_digests != reference.result.vm_digests) {
    report->Fail("fleet_overcommit: 4-thread fleet digest differs from the "
                 "1-thread reference");
  }
  RunPoolProbe(args, report);

  std::vector<double> build;
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> policy;
  std::vector<double> latencies_ms;
  double footprint = 0.0;
  uint64_t resizes = 0;
  uint64_t clipped = 0;
  uint64_t rejected = 0;
  std::vector<double> refills;
  std::vector<double> drains;
  std::vector<double> rebalances;
  uint64_t partial_shrinks = 0;
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    build.push_back(rep.build_s);
    wall.push_back(rep.run_s);
    cpu.push_back(rep.cpu_s);
    policy.push_back(rep.policy_s);
    report->attempted += rep.resizes;
    report->failed += rep.failed;
    if (i < kVirtReps) {
      for (const fleet::ResizeRecord& record : rep.result.resizes) {
        latencies_ms.push_back(
            static_cast<double>(record.completed - record.issued) /
            static_cast<double>(sim::kMs));
      }
      footprint += rep.result.footprint_gib_min / kVirtReps;
      partial_shrinks += rep.partial_shrinks;
      resizes += rep.result.slo.resizes;
      clipped += rep.result.admission.clipped;
      rejected += rep.result.admission.rejected;
    }
    refills.push_back(static_cast<double>(rep.refills));
    drains.push_back(static_cast<double>(rep.drains));
    rebalances.push_back(static_cast<double>(rep.rebalances));
  }
  const double p50 = fleet::PercentileMs(latencies_ms, 0.50);
  const double p99 = fleet::PercentileMs(latencies_ms, 0.99);
  std::vector<double> sorted = wall;
  std::sort(sorted.begin(), sorted.end());
  const double wall_p10 = sorted[sorted.size() / 10];
  std::printf("fleet_overcommit: repetition wall p10 %.3f / p50 %.3f / p90 "
              "%.3f s\n",
              wall_p10, Median(wall), sorted[sorted.size() * 9 / 10]);
  std::printf("fleet_overcommit: %zu repetitions; median wall %.3f s, "
              "CPU %.3f s, build %.3f s; first %" PRIu64
              " repetitions: %" PRIu64 " resizes (%" PRIu64 " partial shrinks), p50 %.3f ms, p99 %.3f ms (%zu samples), "
              "admission clipped %" PRIu64 " rejected %" PRIu64
              ", footprint %.3f GiB-min, median pool rebalances %.0f\n",
              reps.size(), Median(wall), Median(cpu), Median(build),
              kVirtReps, resizes,
              partial_shrinks, p50, p99, latencies_ms.size(), clipped, rejected, footprint,
              Median(rebalances));

  if (!args.trace) {
    report->Set("setup_s", Median(build));
    report->Set("cpu_s", Median(cpu));
    return;
  }
  const uint64_t dropped =
      trace::SpanTracer::Global().dropped_spans() - dropped_before;
  if (dropped != 0) {
    report->Fail("fleet_overcommit: span rings dropped spans");
  }
  const double epochs = static_cast<double>(kHorizon / kEpoch);
  report->Set("run.wall_s", wall_p10);
  report->Set("fleet.build_s", Median(build));
  report->Set("fleet.policy_s", Median(policy));
  report->Set("fleet.wall_ms_per_epoch", wall_p10 * 1e3 / epochs);
  report->Set("fleet.resizes", static_cast<double>(resizes));
  report->Set("fleet.admission_clipped", static_cast<double>(clipped));
  report->Set("fleet.admission_rejected", static_cast<double>(rejected));
  report->Set("fleet.partial_shrinks", static_cast<double>(partial_shrinks));
  report->Set("telemetry.overhead_share",
              Median(wall) / Median(telemetry_off_wall) - 1.0);
  report->Set("trace.overhead_share",
              Median(traced_wall) / Median(wall) - 1.0);
  report->Set("trace.dropped_spans", static_cast<double>(dropped));
  report->Set("hv.host_pool.refills", Median(refills));
  report->Set("hv.host_pool.drains", Median(drains));
  report->Set("hv.host_pool.rebalances", Median(rebalances));
  const double traced_reps = static_cast<double>(traced_wall.size());
  report->Set("hv.ept.populate_s",
              tally.NamedSelfS("ept.populate") / traced_reps);
  report->Set("llfree.charge_share", tally.ChargeShare(trace::Layer::kLLFree));
  report->Set("hv.ept.charge_share", tally.ChargeShare(trace::Layer::kEpt));
  report->Set("hv.iommu.charge_share",
              tally.ChargeShare(trace::Layer::kIommu));
  report->Set("core.auto_pass_s",
              tally.NamedSelfS("monitor.auto_reclaim_pass") / traced_reps);
  report->Set("virt.footprint_gib_min", footprint);
  report->Set("virt.resize_p50_ms", p50);
  report->Set("virt.resize_p99_ms", p99);
  report->Set("virt.resize_samples", static_cast<double>(latencies_ms.size()));
  tally.Export(report, traced_reps);
}

}  // namespace hyperalloc::perfbench
