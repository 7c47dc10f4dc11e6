#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "perfbench/perfbench.h"
#include "src/base/check.h"

namespace hyperalloc::perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"cpu_s", "s"},
      {"host_rss_mib", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> m = {
        // the end-to-end work in wall time
        {"run.wall_s", "s"},
        // workloads / guest
        {"guest.alloc_s", "s"},
        {"guest.alloc_ns_per_4k", "ns"},
        {"guest.alloc_ns_per_2m", "ns"},
        {"guest.free_s", "s"},
        {"guest.unspanned_s", "s"},
        {"guest.cache_evictions", "count"},
        {"guest.oom_events", "count"},
        // core (HyperAlloc monitor)
        {"core.shrink_s", "s"},
        {"core.grow_s", "s"},
        {"core.install_s", "s"},
        {"core.scan_cache_lines_per_gib", "lines/GiB"},
        {"core.installs", "count"},
        {"core.soft_reclaims", "count"},
        {"core.auto_pass_s", "s"},
        // llfree / hv
        {"llfree.charge_share", "share"},
        {"hv.ept.charge_share", "share"},
        {"hv.iommu.charge_share", "share"},
        {"hv.ept.populate_s", "s"},
        {"hv.ept.unmap_ops", "count"},
        {"hv.ept.tlb_range_flushes", "count"},
        {"hv.iommu.map_ops", "count"},
        {"hv.iommu.iotlb_flushes", "count"},
        // hv.host_pool
        {"hv.host_pool.refills", "count"},
        {"hv.host_pool.drains", "count"},
        {"hv.host_pool.rebalances", "count"},
        {"hv.host_pool.rebalances_per_mop", "1/Mop"},
        {"hv.host_pool.refused_share", "share"},
        {"hv.host_pool.op_ns", "ns"},
        // balloon / vmem
        {"balloon.shrink_s", "s"},
        {"balloon.hypercalls", "count"},
        {"balloon.madvise_calls", "count"},
        {"vmem.shrink_s", "s"},
        {"vmem.migrated_frames", "count"},
        {"vmem.unpluggable_failures", "count"},
        // fleet / telemetry
        {"fleet.build_s", "s"},
        {"fleet.policy_s", "s"},
        {"fleet.wall_ms_per_epoch", "ms"},
        {"fleet.resizes", "count"},
        {"fleet.admission_clipped", "count"},
        {"fleet.admission_rejected", "count"},
        {"fleet.partial_shrinks", "count"},
        {"telemetry.overhead_share", "share"},
        // sim / trace
        {"sim.steps", "count"},
        {"sim.wall_ns_per_step", "ns"},
        {"trace.overhead_share", "share"},
        {"trace.dropped_spans", "count"},
    };
    // Wall self-time and virtual charge per span layer.
    static std::vector<std::string> names;
    names.reserve(2 * trace::kNumLayers);
    for (unsigned l = 0; l < trace::kNumLayers; ++l) {
      const std::string layer = trace::Name(static_cast<trace::Layer>(l));
      names.push_back("span." + layer + ".self_s");
      names.push_back("span." + layer + ".charge_s");
    }
    for (const std::string& name : names) {
      m.push_back({name.c_str(), "s"});
    }
    // Simulated results of the modelled system (the paper's numbers).
    const MetricDef virt[] = {
        {"virt.reclaim_gibps", "GiB/s"},
        {"virt.reclaim_untouched_gibps", "GiB/s"},
        {"virt.return_gibps", "GiB/s"},
        {"virt.return_install_gibps", "GiB/s"},
        {"virt.reclaim_vs_balloon_x", "x"},
        {"virt.reclaim_vs_vmem_x", "x"},
        {"virt.footprint_gib_min", "GiB-min"},
        {"virt.workload_min", "min"},
        {"virt.reclaim_cpu_s", "s"},
        {"virt.resize_p50_ms", "ms"},
        {"virt.resize_p99_ms", "ms"},
        {"virt.resize_samples", "count"},
    };
    m.insert(m.end(), std::begin(virt), std::end(virt));
    return m;
  }();
  return kMetrics;
}

namespace {

bool Known(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *table) {
      if (name == def.name) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  HA_CHECK(Known(name));
  values[name] = value;
}

void Report::Add(const std::string& name, double value) {
  HA_CHECK(Known(name));
  values[name] += value;
}

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double PeakRssMib() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the parent's memory from before exec.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

uint64_t RepSeed(uint64_t seed, uint64_t rep) {
  // splitmix64 over (seed, rep).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + rep + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) % 1000000007ull + 1;
}

void SpanTally::Add(const std::vector<trace::SpanRecord>& spans) {
  std::unordered_map<uint64_t, uint64_t> child_wall;
  child_wall.reserve(spans.size());
  for (const trace::SpanRecord& span : spans) {
    if (span.parent_id != 0) {
      child_wall[span.parent_id] += span.wall_ns();
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> roots;
  for (const trace::SpanRecord& span : spans) {
    const auto it = child_wall.find(span.span_id);
    const uint64_t children = it == child_wall.end() ? 0 : it->second;
    const uint64_t self_ns =
        span.wall_ns() > children ? span.wall_ns() - children : 0;
    const unsigned layer = static_cast<unsigned>(span.layer);
    self_s_[layer] += static_cast<double>(self_ns) / 1e9;
    charge_s_[layer] += static_cast<double>(span.charge_ns) / 1e9;
    auto& named = named_[span.name];
    named.first += static_cast<double>(self_ns) / 1e9;
    named.second += 1;
    if (span.parent_id == 0) {
      roots.emplace_back(span.begin_wall_ns, span.end_wall_ns);
    }
  }
  // Union of the root intervals (roots of different traces may overlap).
  std::sort(roots.begin(), roots.end());
  uint64_t covered = 0;
  uint64_t cur_begin = 0;
  uint64_t cur_end = 0;
  for (const auto& [begin, end] : roots) {
    if (begin > cur_end) {
      covered += cur_end - cur_begin;
      cur_begin = begin;
      cur_end = end;
    } else if (end > cur_end) {
      cur_end = end;
    }
  }
  covered += cur_end - cur_begin;
  root_cover_s_ += static_cast<double>(covered) / 1e9;
}

double SpanTally::ChargeShare(trace::Layer layer) const {
  double total = 0.0;
  for (const double charge : charge_s_) {
    total += charge;
  }
  return total == 0.0 ? 0.0
                      : charge_s_[static_cast<unsigned>(layer)] / total;
}

double SpanTally::NamedSelfS(const char* name) const {
  const auto it = named_.find(name);
  return it == named_.end() ? 0.0 : it->second.first;
}

uint64_t SpanTally::NamedCount(const char* name) const {
  const auto it = named_.find(name);
  return it == named_.end() ? 0 : it->second.second;
}

void SpanTally::Export(Report* report, double units) const {
  for (unsigned l = 0; l < trace::kNumLayers; ++l) {
    const std::string layer = trace::Name(static_cast<trace::Layer>(l));
    report->Set("span." + layer + ".self_s", self_s_[l] / units);
    report->Set("span." + layer + ".charge_s", charge_s_[l] / units);
  }
}

uint64_t TraceCharge::total_ns() const {
  uint64_t total = 0;
  for (const uint64_t ns : layer_ns) {
    total += ns;
  }
  return total;
}

double TraceCharge::Share(trace::Layer layer) const {
  const uint64_t total = total_ns();
  return total == 0 ? 0.0
                    : static_cast<double>(
                          layer_ns[static_cast<unsigned>(layer)]) /
                          static_cast<double>(total);
}

TraceCharge ChargeOfTrace(const std::vector<trace::SpanRecord>& spans,
                          const char* root_name) {
  TraceCharge result;
  const trace::SpanRecord* root = nullptr;
  for (const trace::SpanRecord& span : spans) {
    if (span.parent_id == 0 && span.layer == trace::Layer::kRequest &&
        std::strcmp(span.name, root_name) == 0) {
      root = &span;
      break;
    }
  }
  if (root == nullptr) {
    return result;
  }
  result.found = true;
  for (const trace::SpanRecord& span : spans) {
    if (span.trace_id == root->trace_id) {
      result.layer_ns[static_cast<unsigned>(span.layer)] += span.charge_ns;
    }
  }
  return result;
}

bool ChargeClosed(const std::vector<trace::SpanRecord>& spans,
                  uint64_t* roots_checked) {
  std::unordered_map<uint64_t, uint64_t> charge;
  for (const trace::SpanRecord& span : spans) {
    charge[span.trace_id] += span.charge_ns;
  }
  bool closed = true;
  for (const trace::SpanRecord& span : spans) {
    if (span.parent_id == 0 && span.layer == trace::Layer::kRequest) {
      ++*roots_checked;
      if (charge[span.trace_id] != span.virtual_ns()) {
        closed = false;
      }
    }
  }
  return closed;
}

void EnableSpans(bool on, size_t capacity) {
  trace::SpanTracer& tracer = trace::SpanTracer::Global();
  if (on && !tracer.enabled()) {
    tracer.SetCapacity(capacity);
  }
  tracer.SetEnabled(on);
}

}  // namespace hyperalloc::perfbench
