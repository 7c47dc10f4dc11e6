// Full-size bench scenarios, gated as tests: the compile fleet in
// run-to-completion mode, the span attribution of a HyperAlloc resize,
// the 1024-VM policy fleet and the huge-frame compaction study
// (DESIGN.md §4.7, §4.8, §4.12, §4.14). Every scenario is a
// deterministic virtual-time simulation, so besides the behavioural
// checks each test pins the scenario's results exactly; a change that
// moves one on purpose updates the pin and says so in CHANGES.md.
//
// The scenarios are built from the bench-side clients (bench/candidates,
// bench/fleet_bench) so they run exactly what the benches run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench/candidates.h"
#include "bench/fleet_bench.h"
#include "bench/trace_io.h"
#include "src/core/hyperalloc.h"
#include "src/guest/compaction.h"
#include "src/trace/trace.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {
namespace {

// ---------------------------------------------------------------------
// Compile fleet, run to completion: 8 HyperAlloc VMs building clang,
// staggered by 30 s. The per-VM RSS series, the digests and the per-VM
// span streams must be identical at 1 and 4 host threads.
// ---------------------------------------------------------------------

CompileFleetOptions MultiVmConfig(unsigned threads) {
  CompileFleetOptions config;
  config.vms = 8;
  config.threads = threads;
  config.candidate = Candidate::kHyperAlloc;
  config.offset = true;
  config.builds_per_vm = 1;
  config.gap = sim::kMin;
  config.offset_step = 30 * sim::kSec;
  config.vm_bytes = kGiB;
  config.host_slack_bytes = 2 * kGiB;
  config.compile.seed = 100;
  config.compile.workers = 4;
  config.compile.compile_units = 120;
  config.compile.link_jobs = 2;
  config.compile.max_parallel_links = 1;
  config.compile.unit_ws_min = 8 * kMiB;
  config.compile.unit_ws_max = 32 * kMiB;
  config.compile.link_ws_min = 64 * kMiB;
  config.compile.link_ws_max = 96 * kMiB;
  config.compile.cache_read_per_unit = kMiB;
  config.compile.artifact_per_unit = kMiB;
  config.compile.slab_per_job = kMiB;
  return config;
}

#if HYPERALLOC_TRACE
// Each VM's spans in its program order. `seq` comes from one global
// counter at emission and a VM's spans are emitted in program order on
// whichever thread runs it, so sorting by seq restores that order.
// Host-pool spans are dropped: refills and rebalances depend on the OS
// interleaving by design.
std::vector<std::vector<trace::SpanRecord>> PerVmStreams(
    std::vector<trace::SpanRecord> spans, int vms) {
  std::sort(spans.begin(), spans.end(),
            [](const trace::SpanRecord& a, const trace::SpanRecord& b) {
              return a.seq < b.seq;
            });
  std::vector<std::vector<trace::SpanRecord>> streams(
      static_cast<size_t>(vms));
  for (const trace::SpanRecord& span : spans) {
    if (span.layer != trace::Layer::kHostPool &&
        span.vm < static_cast<uint32_t>(vms)) {
      streams[span.vm].push_back(span);
    }
  }
  return streams;
}

// Virtual-time fields only: wall stamps and ids differ run to run.
bool SameSpan(const trace::SpanRecord& a, const trace::SpanRecord& b) {
  return a.layer == b.layer && std::strcmp(a.name, b.name) == 0 &&
         a.begin_vns == b.begin_vns && a.end_vns == b.end_vns &&
         a.charge_ns == b.charge_ns && a.frames == b.frames;
}
#endif  // HYPERALLOC_TRACE

TEST(BenchScenarios, MultiVmRunToCompletionIsThreadCountInvariant) {
  trace::SpanTracer& tracer = trace::SpanTracer::Global();
  tracer.SetCapacity(size_t{1} << 19);
  const uint64_t dropped_before = tracer.dropped_spans();
  (void)tracer.Drain();
  tracer.SetEnabled(true);
  CompileFleetOptions config = MultiVmConfig(1);
  const fleet::FleetResult single = RunCompileFleet(config);
  const std::vector<trace::SpanRecord> single_spans = tracer.Drain();
  config.threads = 4;
  const fleet::FleetResult parallel = RunCompileFleet(config);
  const std::vector<trace::SpanRecord> parallel_spans = tracer.Drain();
  tracer.SetEnabled(false);

  EXPECT_EQ(single.fleet_digest, parallel.fleet_digest);
  EXPECT_EQ(single.vm_digests, parallel.vm_digests);
  ASSERT_EQ(single.per_vm_rss.size(), 8u);
  ASSERT_EQ(parallel.per_vm_rss.size(), 8u);
  for (size_t i = 0; i < single.per_vm_rss.size(); ++i) {
    EXPECT_TRUE(
        fleet::SeriesEqual(single.per_vm_rss[i], parallel.per_vm_rss[i]))
        << "RSS series of VM " << i << " differs between 1 and 4 threads";
  }

#if HYPERALLOC_TRACE
  ASSERT_EQ(tracer.dropped_spans(), dropped_before)
      << "span rings overflowed; the stream comparison would be partial";
  ASSERT_FALSE(single_spans.empty());
  const auto a = PerVmStreams(single_spans, config.vms);
  const auto b = PerVmStreams(parallel_spans, config.vms);
  for (int vm = 0; vm < config.vms; ++vm) {
    const auto& sa = a[static_cast<size_t>(vm)];
    const auto& sb = b[static_cast<size_t>(vm)];
    ASSERT_EQ(sa.size(), sb.size()) << "VM " << vm;
    for (size_t i = 0; i < sa.size(); ++i) {
      ASSERT_TRUE(SameSpan(sa[i], sb[i]))
          << "VM " << vm << " span " << i << " (" << sa[i].name << " vs "
          << sb[i].name << ")";
    }
  }
#else
  (void)dropped_before;
#endif

  EXPECT_DOUBLE_EQ(single.footprint_gib_min, 7.67822265625);
  EXPECT_DOUBLE_EQ(single.peak_gib, 1.828125);
}

// ---------------------------------------------------------------------
// Span attribution: a HyperAlloc 8 GiB VM with 6 GiB touched and freed
// shrinks to 2 GiB, then grows back. Every cost-model charge of a
// request lands in exactly one span of its trace, so the charges of a
// trace sum to its root's virtual duration.
// ---------------------------------------------------------------------

#if HYPERALLOC_TRACE
struct PhaseCharges {
  bool found = false;
  uint64_t total_vns = 0;
  uint64_t charged_ns = 0;
  uint64_t layer_ns[trace::kNumLayers] = {};
};

PhaseCharges Charges(const std::vector<trace::SpanRecord>& spans,
                     const char* root_name) {
  PhaseCharges phase;
  const trace::SpanRecord* root = nullptr;
  for (const trace::SpanRecord& span : spans) {
    if (span.layer == trace::Layer::kRequest &&
        std::strcmp(span.name, root_name) == 0) {
      root = &span;
      break;
    }
  }
  if (root == nullptr) {
    return phase;
  }
  phase.found = true;
  phase.total_vns = root->virtual_ns();
  for (const trace::SpanRecord& span : spans) {
    if (span.trace_id == root->trace_id) {
      phase.charged_ns += span.charge_ns;
      phase.layer_ns[static_cast<unsigned>(span.layer)] += span.charge_ns;
    }
  }
  return phase;
}
#endif  // HYPERALLOC_TRACE

TEST(BenchScenarios, AttributionChargesCloseOnBothRequestRoots) {
#if !HYPERALLOC_TRACE
  GTEST_SKIP() << "spans are compiled out";
#else
  trace::SpanTracer& tracer = trace::SpanTracer::Global();
  tracer.SetCapacity(size_t{1} << 18);
  const uint64_t dropped_before = tracer.dropped_spans();
  tracer.SetEnabled(true);
  SetupOptions options;
  options.memory_bytes = 8 * kGiB;
  options.host_bytes = 16 * kGiB;
  bench::Setup setup = MakeSetup(Candidate::kHyperAlloc, options);
  workloads::MemoryPool pool(setup.vm.get());
  const uint64_t prep = pool.AllocRegion(6 * kGiB, /*thp_fraction=*/0.95, 0);
  pool.FreeRegion(prep, 0);
  setup.vm->PurgeAllocatorCaches();
  (void)tracer.Drain();  // the prep phase's install traces

  setup.SetLimit(2 * kGiB);
  const PhaseCharges inflate = Charges(tracer.Drain(), "request.inflate");
  setup.SetLimit(8 * kGiB);
  const PhaseCharges deflate = Charges(tracer.Drain(), "request.deflate");
  tracer.SetEnabled(false);
  EXPECT_EQ(tracer.dropped_spans(), dropped_before);

  ASSERT_TRUE(inflate.found);
  ASSERT_TRUE(deflate.found);
  EXPECT_EQ(inflate.charged_ns, inflate.total_vns);
  EXPECT_EQ(deflate.charged_ns, deflate.total_vns);

  EXPECT_EQ(inflate.total_vns, 17190336u);
  EXPECT_EQ(deflate.total_vns, 703488u);
  uint64_t inflate_expected[trace::kNumLayers] = {};
  inflate_expected[static_cast<unsigned>(trace::Layer::kLLFree)] = 1191936;
  inflate_expected[static_cast<unsigned>(trace::Layer::kEpt)] = 15998400;
  uint64_t deflate_expected[trace::kNumLayers] = {};
  deflate_expected[static_cast<unsigned>(trace::Layer::kLLFree)] = 703488;
  for (unsigned layer = 0; layer < trace::kNumLayers; ++layer) {
    const char* name = trace::Name(static_cast<trace::Layer>(layer));
    EXPECT_EQ(inflate.layer_ns[layer], inflate_expected[layer])
        << "inflate " << name;
    EXPECT_EQ(deflate.layer_ns[layer], deflate_expected[layer])
        << "deflate " << name;
  }
#endif
}

// ---------------------------------------------------------------------
// Policy fleet: 1024 64 MiB VMs on a 1.6x-overcommitted host, bursty
// demand, proportional-share policy, a 32-VM pressure spike probing the
// time-to-reclaim SLO. (The 1-vs-N digest check is FleetDeterminism's.)
// ---------------------------------------------------------------------

TEST(BenchScenarios, FleetMeetsSpikeSloAndSpansReproduceItsLatencies) {
  FleetScenarioOptions options;
  options.vms = 1024;
  options.threads = 4;
  options.overcommit = 1.6;
  const fleet::FleetResult result = RunFleetScenario(options);
  EXPECT_GE(result.slo.resizes, 1u);
  EXPECT_TRUE(result.slo.spike_applied);
  EXPECT_TRUE(result.slo.spike_satisfied);
  EXPECT_EQ(result.slo.resizes, 2614u);
  EXPECT_DOUBLE_EQ(result.slo.p99_resize_ms, 0.062292);
  EXPECT_DOUBLE_EQ(result.slo.time_to_reclaim_ms, 5000.0);
  EXPECT_DOUBLE_EQ(result.footprint_gib_min, 115.66267903645833);
  EXPECT_DOUBLE_EQ(result.peak_gib, 36.115234375);

#if HYPERALLOC_TRACE
  // A traced 32-VM fleet: every resize the control loop issues opens a
  // request root span on the VM's virtual clock whose duration is the
  // engine's (completed - issued). The t = 0 initial-limit shrinks are
  // the only request spans the engine does not record.
  FleetScenarioOptions traced = options;
  traced.vms = 32;
  traced.threads = 1;
  traced.spike.vms = 8;
  trace::SpanTracer& tracer = trace::SpanTracer::Global();
  tracer.SetCapacity(size_t{1} << 19);
  (void)tracer.Drain();
  tracer.SetEnabled(true);
  const fleet::FleetResult traced_result = RunFleetScenario(traced);
  const std::vector<trace::SpanRecord> spans = tracer.Drain();
  tracer.SetEnabled(false);
  std::vector<double> span_ms;
  for (const trace::SpanRecord& span : spans) {
    if (span.layer == trace::Layer::kRequest && span.begin_vns > 0) {
      span_ms.push_back(static_cast<double>(span.virtual_ns()) / 1e6);
    }
  }
  ASSERT_GT(traced_result.slo.resizes, 0u);
  ASSERT_EQ(span_ms.size(), traced_result.slo.resizes);
  EXPECT_EQ(fleet::PercentileMs(span_ms, 0.99),
            traced_result.slo.p99_resize_ms);
#endif
}

// ---------------------------------------------------------------------
// Huge-frame reclaim and compaction (§4.14): churn a 4 GiB HyperAlloc VM
// so that a 64-frame straggler pins every churned area, then shrink to a
// quarter. Without compaction only the never-churned areas can go; the
// compaction pass migrates the stragglers out first.
// ---------------------------------------------------------------------

struct HugeFrameRun {
  double frag_before = 0.0;
  double frag_after = 0.0;
  uint64_t compaction_blocks = 0;
  uint64_t compaction_migrations = 0;
  double share = 0.0;
  uint64_t reclaimed_mib = 0;
  double flush_savings = 0.0;  // 1 - entries flushed / all-4K entries
};

HugeFrameRun RunHugeFrame(bool compact) {
  SetupOptions options;
  options.memory_bytes = 4 * kGiB;
  options.host_bytes = 2 * options.memory_bytes;
  Setup setup = MakeSetup(Candidate::kHyperAlloc, options);
  workloads::MemoryPool pool(setup.vm.get());

  // Allocate every region first (they pack areas densely), then free
  // seven of every eight: each churned area keeps one straggler run.
  const uint64_t region_bytes = 64 * kFrameSize;
  const uint64_t regions = options.memory_bytes / 2 / region_bytes;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < regions; ++i) {
    const uint64_t id = pool.AllocRegion(region_bytes, /*thp_fraction=*/0.0,
                                         /*core=*/0);
    if (id == 0) {
      break;
    }
    ids.push_back(id);
  }
  for (uint64_t i = 0; i < ids.size(); ++i) {
    if (i % 8 != 0) {
      pool.FreeRegion(ids[i], 0);
    }
  }
  setup.vm->PurgeAllocatorCaches();

  HugeFrameRun run;
  run.frag_before = setup.vm->FragmentationScore();
  if (compact) {
    guest::Compactor compactor(setup.vm.get(), guest::CompactionConfig{});
    compactor.CompactPass(~0ull);
    run.compaction_blocks = compactor.blocks_compacted();
    run.compaction_migrations = compactor.frames_migrated();
  }
  run.frag_after = setup.vm->FragmentationScore();

  setup.SetLimit(options.memory_bytes / 4);
  const auto* monitor =
      static_cast<const core::HyperAllocMonitor*>(setup.deflator.get());
  run.share = monitor->HugeReclaimShare();
  run.reclaimed_mib = monitor->hard_reclaimed_bytes() / kMiB;
  const hv::Ept& ept = setup.vm->ept();
  if (ept.tlb_flushed_frames() > 0) {
    run.flush_savings =
        1.0 - static_cast<double>(ept.entries_invalidated_2m() +
                                  ept.entries_invalidated_4k()) /
                  static_cast<double>(ept.tlb_flushed_frames());
  }
  return run;
}

TEST(BenchScenarios, HugeFrameCompactionReclaimsMoreAtHugeGranularity) {
  const HugeFrameRun plain = RunHugeFrame(false);
  const HugeFrameRun compacted = RunHugeFrame(true);

  EXPECT_GT(compacted.compaction_blocks, 0u);
  EXPECT_LT(compacted.frag_after, compacted.frag_before);
  EXPECT_GE(compacted.reclaimed_mib, plain.reclaimed_mib);
  EXPECT_GE(plain.share, 0.8);
  EXPECT_GE(compacted.share, 0.8);
  EXPECT_GE(compacted.flush_savings, 0.9);
  EXPECT_GE(compacted.compaction_migrations, 1u);

  EXPECT_EQ(plain.reclaimed_mib, 2048u);
  EXPECT_EQ(compacted.reclaimed_mib, 3072u);
  EXPECT_DOUBLE_EQ(plain.share, 1.0);
  EXPECT_DOUBLE_EQ(compacted.share, 1.0);
  EXPECT_DOUBLE_EQ(compacted.flush_savings, 0.998046875);
  EXPECT_EQ(compacted.compaction_migrations, 66560u);
}

// An unwritable --trace-out path ends the bench before it runs, naming
// the path, instead of aborting in the export after the whole run.
TEST(TraceOutputDeathTest, UnwritablePathExitsBeforeTheRun) {
#if HYPERALLOC_TRACE
  char prog[] = "bench";
  char flag[] = "--trace-out=no_such_dir/run.csv";
  char* argv[] = {prog, flag};
  EXPECT_EXIT(TraceOutput(2, argv), ::testing::ExitedWithCode(2),
              "no_such_dir/run.csv");
#else
  GTEST_SKIP() << "built with HYPERALLOC_TRACE=0: --trace-out is ignored";
#endif
}

}  // namespace
}  // namespace hyperalloc::bench
