// compile_tight: the Fig. 7 clang build (workloads::CompileWorkload, in
// bench_compiling's shape with fewer compile units) with automatic
// reclamation on a HyperAlloc VM only slightly larger than the build's
// peak working set. Under that pressure the guest evicts page cache, the
// monitor soft-reclaims what the build frees, and freed huge frames are
// installed again on re-touch: LLFree's allocating side, where
// fig4_reclaim exercises its reclaiming side. Most of the wall time goes
// to 4 KiB allocations in a zone whose huge frames are all taken.
//
// A run does the same kBuilds builds (build seeds 1 and 2, as
// bench_compiling uses) and reports medians; the virtual metrics are means
// over those builds. The run seed is not used: a build's wall time depends
// on its inputs by up to 2x (10.5-20.5 s over ten seeds, while the same
// build repeats within about 10 %), far more than any regression bound
// could absorb. Fig. 7 itself builds in a 16 GiB VM, so these numbers have
// no paper reference.
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/candidates.h"
#include "perfbench/perfbench.h"
#include "src/metrics/timeseries.h"
#include "src/sim/vcpu.h"
#include "src/workloads/compile.h"
#include "src/workloads/interference_hub.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::perfbench {
namespace {

constexpr uint64_t kMemory = 8 * kGiB;
constexpr unsigned kUnits = 275;
constexpr int kBuilds = 2;
// VM constructions per build for the set-up median.
constexpr int kSetupSamples = 9;

struct Build {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t steps = 0;
  bool finished = false;
  uint64_t samples_over_limit = 0;
  double footprint_gib_min = 0.0;
  double runtime_min = 0.0;
  double reclaim_cpu_s = 0.0;
  uint64_t oom_events = 0;
  uint64_t cache_evictions = 0;
  uint64_t installs = 0;
  uint64_t soft_reclaims = 0;
  uint64_t scan_cache_lines = 0;
  uint64_t unmap_ops = 0;
  uint64_t tlb_range_flushes = 0;
  uint64_t refills = 0;
  uint64_t drains = 0;
  uint64_t rebalances = 0;
};

Build RunBuild(uint64_t seed) {
  Build build;
  std::vector<double> setups;
  for (int i = 1; i < kSetupSamples; ++i) {
    const Clock::time_point start = Clock::now();
    bench::SetupOptions options;
    options.memory_bytes = kMemory;
    bench::Setup scratch =
        bench::MakeSetup(bench::Candidate::kHyperAlloc, options);
    setups.push_back(SecondsSince(start));
  }
  const Clock::time_point setup_start = Clock::now();
  bench::SetupOptions options;
  options.memory_bytes = kMemory;
  bench::Setup setup =
      bench::MakeSetup(bench::Candidate::kHyperAlloc, options);
  guest::GuestVm& vm = *setup.vm;
  workloads::MemoryPool pool(&vm);
  pool.DisableMigrationTracking();
  sim::VcpuSet vcpus(vm.config().vcpus);
  workloads::InterferenceHub hub(&vcpus, {});
  vm.SetInterferenceSink(&hub);
  setup.deflator->StartAuto();
  setups.push_back(SecondsSince(setup_start));
  build.setup_s = Median(setups);

  workloads::CompileConfig config;
  config.seed = seed;
  config.compile_units = kUnits;
  config.link_jobs = 16;
  config.thp_fraction = 0.6;
  config.cache_read_per_unit = 5 * kMiB;
  config.artifact_per_unit = 8 * kMiB;

  const Clock::time_point start = Clock::now();
  const double cpu_start = CpuSeconds();
  const sim::Time t0 = setup.sim->now();
  // 1 Hz RSS sampler (Fig. 8), which also checks the limit. The check
  // reads the host pool's side of the VM's memory (the only reservations
  // on this per-setup pool are the EPT's) against the monitor's current
  // limit: EPT-mapped bytes alone cannot exceed the VM's size.
  metrics::TimeSeries rss;
  bool sampling = true;
  std::function<void()> tick = [&] {
    if (!sampling) {
      return;
    }
    rss.Sample(setup.sim->now() - t0, static_cast<double>(vm.rss_bytes()) /
                                          static_cast<double>(kGiB));
    if (setup.host->used_bytes() > setup.deflator->limit_bytes()) {
      ++build.samples_over_limit;
    }
    setup.sim->After(sim::kSec, tick);
  };
  tick();
  workloads::CompileWorkload compile(&vm, &pool, &vcpus, config);
  compile.Start([&] { build.finished = true; });
  while (!build.finished && setup.sim->Step()) {
    ++build.steps;
  }
  sampling = false;
  build.wall_s = SecondsSince(start);
  build.cpu_s = CpuSeconds() - cpu_start;

  build.runtime_min = static_cast<double>(setup.sim->now() - t0) /
                      static_cast<double>(sim::kMin);
  build.footprint_gib_min = rss.IntegralPerMinute();
  build.reclaim_cpu_s =
      static_cast<double>(setup.deflator->cpu().total()) / 1e9;
  build.oom_events = vm.oom_events();
  build.cache_evictions = vm.cache_evictions();
  const auto& monitor =
      dynamic_cast<const core::HyperAllocMonitor&>(*setup.deflator);
  build.installs = monitor.installs();
  build.soft_reclaims = monitor.soft_reclaims();
  build.scan_cache_lines = monitor.scan_cache_lines_total();
  build.unmap_ops = vm.ept().total_unmapped_ops();
  build.tlb_range_flushes = vm.ept().tlb_range_flushes();
  build.refills = setup.host->refills();
  build.drains = setup.host->drains();
  build.rebalances = setup.host->rebalances();
  setup.deflator->StopAuto();
  trace::Tracer::Global().SetTimeSource(nullptr);
  return build;
}

double Mean(const std::vector<Build>& builds, double Build::*field) {
  double sum = 0.0;
  for (const Build& build : builds) {
    sum += build.*field;
  }
  return sum / static_cast<double>(builds.size());
}

double Mean(const std::vector<Build>& builds, uint64_t Build::*field) {
  double sum = 0.0;
  for (const Build& build : builds) {
    sum += static_cast<double>(build.*field);
  }
  return sum / static_cast<double>(builds.size());
}

}  // namespace

void RunCompile(const Args& args, Report* report) {
  (void)args.seed;
  // Traced runs build every seed twice, traced then untraced: the pair
  // gives the tracing overhead, the untraced builds the timer metrics.
  std::vector<Build> builds;
  std::vector<double> traced_wall;
  SpanTally tally;
  double unspanned_s = 0.0;
  const uint64_t dropped_before = trace::SpanTracer::Global().dropped_spans();
  for (int b = 0; b < kBuilds; ++b) {
    const uint64_t seed = static_cast<uint64_t>(b) + 1;
    if (args.trace) {
      EnableSpans(true);
      const Build traced = RunBuild(seed);
      EnableSpans(false);
      const double covered_before = tally.root_cover_s();
      tally.Add(trace::SpanTracer::Global().Drain());
      unspanned_s += traced.wall_s - (tally.root_cover_s() - covered_before);
      traced_wall.push_back(traced.wall_s);
    }
    builds.push_back(RunBuild(seed));
  }

  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const Build& build : builds) {
    setup.push_back(build.setup_s);
    wall.push_back(build.wall_s);
    cpu.push_back(build.cpu_s);
    report->attempted += 1;
    if (!build.finished || build.oom_events != 0 ||
        build.samples_over_limit != 0) {
      ++report->failed;
      report->Fail("compile_tight: the build ran out of memory or its RSS "
                   "exceeded the VM limit");
    }
    std::printf("compile_tight build: wall %.3f s, %llu steps, virtual "
                "%.3f min, footprint %.3f GiB-min, %llu evictions, %llu "
                "installs, %llu soft reclaims, %llu OOM\n",
                build.wall_s, static_cast<unsigned long long>(build.steps),
                build.runtime_min, build.footprint_gib_min,
                static_cast<unsigned long long>(build.cache_evictions),
                static_cast<unsigned long long>(build.installs),
                static_cast<unsigned long long>(build.soft_reclaims),
                static_cast<unsigned long long>(build.oom_events));
  }
  std::printf("compile_tight: %d builds of %u units in a %llu GiB VM; "
              "median wall %.3f s, CPU %.3f s (no paper reference: Fig. 7 "
              "builds in a 16 GiB VM)\n",
              kBuilds, kUnits,
              static_cast<unsigned long long>(kMemory / kGiB), Median(wall),
              Median(cpu));

  if (!args.trace) {
    report->Set("setup_s", Median(setup));
    report->Set("cpu_s", Median(cpu));
    return;
  }
  const uint64_t dropped =
      trace::SpanTracer::Global().dropped_spans() - dropped_before;
  if (dropped != 0) {
    report->Fail("compile_tight: span rings dropped spans");
  }
  const double n = static_cast<double>(kBuilds);
  const uint64_t passes = tally.NamedCount("monitor.auto_reclaim_pass");
  report->Set("run.wall_s", Median(wall));
  report->Set("guest.unspanned_s", unspanned_s / n);
  report->Set("guest.cache_evictions", Mean(builds, &Build::cache_evictions));
  report->Set("guest.oom_events", Mean(builds, &Build::oom_events));
  report->Set("core.installs", Mean(builds, &Build::installs));
  report->Set("core.soft_reclaims", Mean(builds, &Build::soft_reclaims));
  report->Set("core.scan_cache_lines_per_gib",
              passes == 0 ? 0.0
                          : Mean(builds, &Build::scan_cache_lines) * n /
                                static_cast<double>(passes) /
                                static_cast<double>(kMemory / kGiB));
  report->Set("core.auto_pass_s",
              tally.NamedSelfS("monitor.auto_reclaim_pass") / n);
  report->Set("llfree.charge_share", tally.ChargeShare(trace::Layer::kLLFree));
  report->Set("hv.ept.charge_share", tally.ChargeShare(trace::Layer::kEpt));
  report->Set("hv.iommu.charge_share",
              tally.ChargeShare(trace::Layer::kIommu));
  report->Set("hv.ept.populate_s", tally.NamedSelfS("ept.populate") / n);
  report->Set("hv.ept.unmap_ops", Mean(builds, &Build::unmap_ops));
  report->Set("hv.ept.tlb_range_flushes",
              Mean(builds, &Build::tlb_range_flushes));
  report->Set("hv.host_pool.refills", Mean(builds, &Build::refills));
  report->Set("hv.host_pool.drains", Mean(builds, &Build::drains));
  report->Set("hv.host_pool.rebalances", Mean(builds, &Build::rebalances));
  report->Set("sim.steps", Mean(builds, &Build::steps));
  report->Set("sim.wall_ns_per_step", Mean(builds, &Build::wall_s) * 1e9 /
                                          Mean(builds, &Build::steps));
  report->Set("trace.overhead_share",
              Median(traced_wall) / Median(wall) - 1.0);
  report->Set("trace.dropped_spans", static_cast<double>(dropped));
  tally.Export(report, n);
  report->Set("virt.footprint_gib_min",
              Mean(builds, &Build::footprint_gib_min));
  report->Set("virt.workload_min", Mean(builds, &Build::runtime_min));
  report->Set("virt.reclaim_cpu_s", Mean(builds, &Build::reclaim_cpu_s));
}

}  // namespace hyperalloc::perfbench
