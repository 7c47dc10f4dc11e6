// fig4_reclaim: the paper's Fig. 4 procedure (bench_inflate), once per
// candidate on a fresh 20 GiB VM:
//   prepare           allocate and touch 19 GiB at 95 % THP, free it
//   reclaim           shrink the limit 20 GiB -> 2 GiB
//   return            grow 2 GiB -> 20 GiB (no access)
//   reclaim untouched shrink again
//   return+install    grow again, then allocate and touch 18 GiB
// Rates are GiB/s of limit change in virtual time and equal
// `bench_inflate --reps=1`. The procedure has no random input; the seed
// is not used.
//
// Allocations go through MemoryPool::AllocRegion in two calls — the huge
// part, then the base part, sized exactly as AllocRegion sizes them in
// one call — so the guest sees the same allocation sequence while the
// 2 MiB and 4 KiB costs are timed apart.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/candidates.h"
#include "perfbench/perfbench.h"
#include "src/balloon/virtio_balloon.h"
#include "src/core/hyperalloc.h"
#include "src/vmem/virtio_mem.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::perfbench {
namespace {

using bench::Candidate;

constexpr uint64_t kMemory = 20 * kGiB;
constexpr uint64_t kSmall = 2 * kGiB;
constexpr uint64_t kPrepare = 19 * kGiB;
constexpr uint64_t kInstall = 18 * kGiB;
constexpr uint64_t kDelta = kMemory - kSmall;
constexpr double kThp = 0.95;
// Extra VM constructions per candidate for the set-up median.
constexpr int kSetupSamples = 3;

const Candidate kCandidates[] = {
    Candidate::kHyperAlloc, Candidate::kHyperAllocVfio,
    Candidate::kHyperAllocGeneric, Candidate::kBalloon, Candidate::kVmem};

enum Phase { kReclaim, kReturn, kReclaimUntouched, kReturnInstall, kPhases };

struct Alloc {
  double huge_s = 0.0;
  double base_s = 0.0;
  uint64_t huge_allocs = 0;
  uint64_t base_allocs = 0;
};

struct CandidateResult {
  Candidate candidate = Candidate::kHyperAlloc;
  double setup_s = 0.0;  // median of the VM constructions
  double wall_s = 0.0;   // prepare + the four phases
  double cpu_s = 0.0;    // the same, process CPU time
  double free_s = 0.0;
  Alloc alloc;
  sim::Time virt_ns[kPhases] = {};
  double phase_wall_s[kPhases] = {};
  uint64_t steps = 0;
  double step_wall_s = 0.0;  // wall time of the driven Step loops
  uint64_t resizes = 0;
  uint64_t resizes_failed = 0;
  uint64_t allocs_failed = 0;
  uint64_t unmap_ops = 0;
  uint64_t tlb_range_flushes = 0;
  uint64_t iommu_maps = 0;
  uint64_t iotlb_flushes = 0;
  uint64_t cache_evictions = 0;
  uint64_t oom_events = 0;
  uint64_t installs = 0;
  uint64_t hypercalls = 0;
  uint64_t madvise_calls = 0;
  uint64_t migrated_frames = 0;
  uint64_t unpluggable_failures = 0;
  uint64_t refills = 0;
  uint64_t drains = 0;
  uint64_t rebalances = 0;

  double Gibps(Phase phase) const {
    return static_cast<double>(kDelta) / static_cast<double>(kGiB) /
           (static_cast<double>(virt_ns[phase]) / 1e9);
  }
};

// Allocates `bytes` at `thp` huge share into a new region, as one
// AllocRegion call would.
uint64_t TimedAlloc(workloads::MemoryPool* pool, uint64_t bytes, Alloc* t) {
  const uint64_t frames = FramesForBytes(bytes);
  const uint64_t huge_frames =
      HugesForFrames(static_cast<uint64_t>(static_cast<double>(frames) *
                                           kThp)) *
      kFramesPerHuge;
  const uint64_t base_frames = frames > huge_frames ? frames - huge_frames : 0;
  Clock::time_point start = Clock::now();
  const uint64_t region = pool->AllocRegion(huge_frames * kFrameSize, 1.0, 0);
  t->huge_s += SecondsSince(start);
  t->huge_allocs += huge_frames / kFramesPerHuge;
  start = Clock::now();
  pool->GrowRegion(region, base_frames * kFrameSize, 0.0, 0);
  t->base_s += SecondsSince(start);
  t->base_allocs += base_frames;
  return region;
}

// Drives one limit change to completion, counting the simulation steps.
sim::Time Resize(bench::Setup* setup, uint64_t target, CandidateResult* r,
                 double* wall_s) {
  const Clock::time_point start = Clock::now();
  const sim::Time v0 = setup->sim->now();
  bool done = false;
  hv::ResizeRequest request;
  request.target_bytes = target;
  request.done = [&] { done = true; };
  setup->deflator->Request(request);
  while (!done && setup->sim->Step()) {
    ++r->steps;
  }
  *wall_s = SecondsSince(start);
  r->step_wall_s += *wall_s;
  ++r->resizes;
  if (!done || setup->deflator->limit_bytes() != target) {
    ++r->resizes_failed;
  }
  return setup->sim->now() - v0;
}

// Traced-run state: spans drained after every phase.
struct TraceSink {
  bool on = false;
  SpanTally tally;
  TraceCharge ha_reclaim;    // HyperAlloc's reclaim request
  TraceCharge vfio_reclaim;  // HyperAlloc+VFIO's reclaim request
  uint64_t roots_checked = 0;
  bool closed = true;

  void Collect(Candidate candidate, Phase phase) {
    if (!on) {
      return;
    }
    const std::vector<trace::SpanRecord> spans =
        trace::SpanTracer::Global().Drain();
    tally.Add(spans);
    closed = ChargeClosed(spans, &roots_checked) && closed;
    if (phase == kReclaim && candidate == Candidate::kHyperAlloc) {
      ha_reclaim = ChargeOfTrace(spans, "request.inflate");
    }
    if (phase == kReclaim && candidate == Candidate::kHyperAllocVfio) {
      vfio_reclaim = ChargeOfTrace(spans, "request.inflate");
    }
  }
};

CandidateResult RunCandidate(Candidate candidate, TraceSink* sink) {
  CandidateResult r;
  r.candidate = candidate;
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point start = Clock::now();
    bench::Setup scratch = bench::MakeSetup(candidate);
    setups.push_back(SecondsSince(start));
  }
  const Clock::time_point setup_start = Clock::now();
  bench::Setup setup = bench::MakeSetup(candidate);
  workloads::MemoryPool pool(setup.vm.get());
  setups.push_back(SecondsSince(setup_start));
  r.setup_s = Median(setups);

  const Clock::time_point start = Clock::now();
  const double cpu_start = CpuSeconds();
  const uint64_t prep = TimedAlloc(&pool, kPrepare, &r.alloc);
  if (pool.RegionBytes(prep) < kPrepare) {
    ++r.allocs_failed;
  }
  Clock::time_point free_start = Clock::now();
  pool.FreeRegion(prep, 0);
  r.free_s += SecondsSince(free_start);
  setup.vm->PurgeAllocatorCaches();
  sink->Collect(candidate, kPhases);  // install roots of the preparation

  r.virt_ns[kReclaim] =
      Resize(&setup, kSmall, &r, &r.phase_wall_s[kReclaim]);
  sink->Collect(candidate, kReclaim);
  r.virt_ns[kReturn] = Resize(&setup, kMemory, &r, &r.phase_wall_s[kReturn]);
  sink->Collect(candidate, kReturn);
  r.virt_ns[kReclaimUntouched] =
      Resize(&setup, kSmall, &r, &r.phase_wall_s[kReclaimUntouched]);
  sink->Collect(candidate, kReclaimUntouched);

  const Clock::time_point install_start = Clock::now();
  const sim::Time v0 = setup.sim->now();
  double grow_wall = 0.0;
  Resize(&setup, kMemory, &r, &grow_wall);
  const uint64_t install = TimedAlloc(&pool, kInstall, &r.alloc);
  r.virt_ns[kReturnInstall] = setup.sim->now() - v0;
  r.phase_wall_s[kReturnInstall] = SecondsSince(install_start);
  if (pool.RegionBytes(install) < kInstall) {
    ++r.allocs_failed;
  }
  free_start = Clock::now();
  pool.FreeRegion(install, 0);
  r.free_s += SecondsSince(free_start);
  r.wall_s = SecondsSince(start);
  r.cpu_s = CpuSeconds() - cpu_start;
  sink->Collect(candidate, kReturnInstall);

  guest::GuestVm& vm = *setup.vm;
  r.unmap_ops = vm.ept().total_unmapped_ops();
  r.tlb_range_flushes = vm.ept().tlb_range_flushes();
  if (vm.iommu() != nullptr) {
    r.iommu_maps = vm.iommu()->map_ops();
    r.iotlb_flushes = vm.iommu()->iotlb_flushes();
  }
  r.cache_evictions = vm.cache_evictions();
  r.oom_events = vm.oom_events();
  r.migrated_frames = vm.migrated_frames();
  if (const auto* m = dynamic_cast<const core::HyperAllocMonitor*>(
          setup.deflator.get())) {
    r.installs = m->installs();
  }
  if (const auto* b = dynamic_cast<const balloon::VirtioBalloon*>(
          setup.deflator.get())) {
    r.hypercalls = b->total_hypercalls();
    r.madvise_calls = b->total_madvise_calls();
  }
  if (const auto* v =
          dynamic_cast<const vmem::VirtioMem*>(setup.deflator.get())) {
    r.unpluggable_failures = v->unpluggable_failures();
  }
  r.refills = setup.host->refills();
  r.drains = setup.host->drains();
  r.rebalances = setup.host->rebalances();
  trace::Tracer::Global().SetTimeSource(nullptr);
  return r;
}

struct Unit {
  std::vector<CandidateResult> results;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  const CandidateResult& Of(Candidate candidate) const {
    for (const CandidateResult& r : results) {
      if (r.candidate == candidate) {
        return r;
      }
    }
    HA_CHECK(false);
    return results.front();
  }
};

Unit RunUnit(TraceSink* sink) {
  Unit unit;
  for (const Candidate candidate : kCandidates) {
    unit.results.push_back(RunCandidate(candidate, sink));
    unit.setup_s += unit.results.back().setup_s;
    unit.wall_s += unit.results.back().wall_s;
    unit.cpu_s += unit.results.back().cpu_s;
  }
  return unit;
}

// Paper values from EXPERIMENTS.md (HyperAlloc, Fig. 4 and §5.3).
struct Reference {
  const char* name;
  double paper;
};

void PrintResults(const Unit& unit) {
  std::printf("fig4_reclaim: GiB/s of limit change in virtual time\n");
  std::printf("  %-20s %12s %12s %12s %12s %9s %9s\n", "candidate",
              "reclaim", "untouched", "return", "ret+install", "setup_s",
              "wall_s");
  for (const CandidateResult& r : unit.results) {
    std::printf("  %-20s %12.2f %12.2f %12.2f %12.2f %9.3f %9.3f\n",
                bench::Name(r.candidate), r.Gibps(kReclaim),
                r.Gibps(kReclaimUntouched), r.Gibps(kReturn),
                r.Gibps(kReturnInstall), r.setup_s, r.wall_s);
  }
  const CandidateResult& ha = unit.Of(Candidate::kHyperAlloc);
  const double vs_balloon =
      ha.Gibps(kReclaim) / unit.Of(Candidate::kBalloon).Gibps(kReclaim);
  const double vs_vmem =
      ha.Gibps(kReclaim) / unit.Of(Candidate::kVmem).Gibps(kReclaim);
  const std::pair<Reference, double> rows[] = {
      {{"reclaim_gibps", 344.8}, ha.Gibps(kReclaim)},
      {{"reclaim_untouched_gibps", 5038.0}, ha.Gibps(kReclaimUntouched)},
      {{"return_gibps", 8530.0}, ha.Gibps(kReturn)},
      {{"return_install_gibps", 4.0}, ha.Gibps(kReturnInstall)},
      {{"reclaim_vs_balloon_x", 362.0}, vs_balloon},
      {{"reclaim_vs_vmem_x", 10.0}, vs_vmem},
  };
  std::printf("  HyperAlloc vs the paper (EXPERIMENTS.md):\n");
  for (const auto& [ref, measured] : rows) {
    std::printf("    %-24s simulated %10.2f  paper %8.1f  rel. error %+.3f\n",
                ref.name, measured, ref.paper,
                (measured - ref.paper) / ref.paper);
  }
}

}  // namespace

void RunFig4(const Args& args, Report* report) {
  (void)args.seed;
  TraceSink sink;
  const uint64_t dropped_before = trace::SpanTracer::Global().dropped_spans();
  Unit traced;
  if (args.trace) {
    sink.on = true;
    EnableSpans(true);
    traced = RunUnit(&sink);
    EnableSpans(false);
    sink.on = false;
  }
  const Unit unit = RunUnit(&sink);
  PrintResults(unit);
  for (size_t i = 0; i < traced.results.size(); ++i) {
    for (int phase = 0; phase < kPhases; ++phase) {
      if (traced.results[i].virt_ns[phase] != unit.results[i].virt_ns[phase]) {
        report->Fail("fig4_reclaim: tracing changed a virtual-time result");
      }
    }
  }
  const double traced_wall = traced.wall_s;

  for (const CandidateResult& r : unit.results) {
    report->attempted += r.resizes + 2;  // resizes plus the two regions
    report->failed += r.resizes_failed + r.allocs_failed;
    if (r.resizes_failed != 0) {
      report->Fail(std::string("fig4_reclaim: ") + bench::Name(r.candidate) +
                   ": a limit change did not reach its target");
    }
    if (r.allocs_failed != 0 || r.oom_events != 0) {
      report->Fail(std::string("fig4_reclaim: ") + bench::Name(r.candidate) +
                   ": an allocation failed");
    }
  }
  if (!args.trace) {
    report->Set("setup_s", unit.setup_s);
    report->Set("cpu_s", unit.cpu_s);
    return;
  }

  const uint64_t dropped =
      trace::SpanTracer::Global().dropped_spans() - dropped_before;
  if (dropped != 0) {
    report->Fail("fig4_reclaim: span rings dropped spans");
  }
  if (!sink.closed || sink.roots_checked == 0 || !sink.ha_reclaim.found) {
    report->Fail("fig4_reclaim: span charge closure does not hold");
  }
  const CandidateResult& ha = unit.Of(Candidate::kHyperAlloc);
  const CandidateResult& balloon = unit.Of(Candidate::kBalloon);
  const CandidateResult& vmem = unit.Of(Candidate::kVmem);
  Alloc alloc;
  double free_s = 0.0;
  uint64_t steps = 0;
  double step_wall = 0.0;
  for (const CandidateResult& r : unit.results) {
    alloc.huge_s += r.alloc.huge_s;
    alloc.base_s += r.alloc.base_s;
    alloc.huge_allocs += r.alloc.huge_allocs;
    alloc.base_allocs += r.alloc.base_allocs;
    free_s += r.free_s;
    steps += r.steps;
    step_wall += r.step_wall_s;
    report->Add("hv.ept.unmap_ops", static_cast<double>(r.unmap_ops));
    report->Add("hv.ept.tlb_range_flushes",
                static_cast<double>(r.tlb_range_flushes));
    report->Add("hv.iommu.map_ops", static_cast<double>(r.iommu_maps));
    report->Add("hv.iommu.iotlb_flushes",
                static_cast<double>(r.iotlb_flushes));
    report->Add("guest.cache_evictions",
                static_cast<double>(r.cache_evictions));
    report->Add("guest.oom_events", static_cast<double>(r.oom_events));
    report->Add("core.installs", static_cast<double>(r.installs));
    report->Add("hv.host_pool.refills", static_cast<double>(r.refills));
    report->Add("hv.host_pool.drains", static_cast<double>(r.drains));
    report->Add("hv.host_pool.rebalances", static_cast<double>(r.rebalances));
  }
  report->Set("run.wall_s", unit.wall_s);
  report->Set("guest.alloc_s", alloc.huge_s + alloc.base_s);
  report->Set("guest.alloc_ns_per_2m",
              alloc.huge_s * 1e9 / static_cast<double>(alloc.huge_allocs));
  report->Set("guest.alloc_ns_per_4k",
              alloc.base_s * 1e9 / static_cast<double>(alloc.base_allocs));
  report->Set("guest.free_s", free_s);
  report->Set("guest.unspanned_s",
              traced_wall - sink.tally.root_cover_s());
  report->Set("core.shrink_s", ha.phase_wall_s[kReclaim]);
  report->Set("core.grow_s", ha.phase_wall_s[kReturn]);
  report->Set("core.install_s", ha.phase_wall_s[kReturnInstall]);
  report->Set("llfree.charge_share",
              sink.ha_reclaim.Share(trace::Layer::kLLFree));
  report->Set("hv.ept.charge_share", sink.ha_reclaim.Share(trace::Layer::kEpt));
  report->Set("hv.iommu.charge_share",
              sink.vfio_reclaim.Share(trace::Layer::kIommu));
  report->Set("hv.ept.populate_s", sink.tally.NamedSelfS("ept.populate"));
  report->Set("balloon.shrink_s", balloon.phase_wall_s[kReclaim]);
  report->Set("balloon.hypercalls", static_cast<double>(balloon.hypercalls));
  report->Set("balloon.madvise_calls",
              static_cast<double>(balloon.madvise_calls));
  report->Set("vmem.shrink_s", vmem.phase_wall_s[kReclaim]);
  report->Set("vmem.migrated_frames",
              static_cast<double>(vmem.migrated_frames));
  report->Set("vmem.unpluggable_failures",
              static_cast<double>(vmem.unpluggable_failures));
  report->Set("sim.steps", static_cast<double>(steps));
  report->Set("sim.wall_ns_per_step",
              step_wall * 1e9 / static_cast<double>(steps));
  report->Set("trace.overhead_share", traced_wall / unit.wall_s - 1.0);
  report->Set("trace.dropped_spans", static_cast<double>(dropped));
  sink.tally.Export(report, 1.0);
  report->Set("virt.reclaim_gibps", ha.Gibps(kReclaim));
  report->Set("virt.reclaim_untouched_gibps", ha.Gibps(kReclaimUntouched));
  report->Set("virt.return_gibps", ha.Gibps(kReturn));
  report->Set("virt.return_install_gibps", ha.Gibps(kReturnInstall));
  report->Set("virt.reclaim_vs_balloon_x",
              ha.Gibps(kReclaim) / balloon.Gibps(kReclaim));
  report->Set("virt.reclaim_vs_vmem_x",
              ha.Gibps(kReclaim) / vmem.Gibps(kReclaim));
}

}  // namespace hyperalloc::perfbench
