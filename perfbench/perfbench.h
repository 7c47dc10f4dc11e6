// Shared pieces of the end-to-end benchmark: run arguments, the metric
// tables (names and units, in the order BENCHMARK.json lists them), the
// per-run report, and the span accounting that turns a drained span
// stream into per-layer wall self-time and virtual charge.
//
// Clocks: `cpu_s` is process CPU time; every other `*_s` / `*_ns*` metric
// without a `virt.` prefix is host wall time (std::chrono::steady_clock);
// `virt.*` metrics and `span.*.charge_s` are simulated (virtual) time from
// the cost model and repeat exactly for a given seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "src/trace/span.h"

namespace hyperalloc::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of the whole process (default) or of the calling thread, in
// seconds. Unlike wall time it leaves out the time a thread waits for a
// core, at a barrier or while the host runs another VM on it (steal),
// which on a shared multicore VM moves wall time by up to 2x between runs
// of the same work.
inline double CpuSeconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports with tracing off, and
// the per-layer metrics every workload reports in its traced run (0 where
// the workload does not exercise that layer).
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// One run's result. `Set` accepts only names from the tables above.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;

  void Set(const std::string& name, double value);
  void Add(const std::string& name, double value);
  // Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

// Median of `values` (mean of the middle two for an even count; 0 when
// empty).
double Median(std::vector<double> values);

// Peak resident set of this process so far, MiB.
double PeakRssMib();

// Decorrelated per-repetition seed, so repetition r of seed s never
// reuses the input of another (seed, repetition) pair.
uint64_t RepSeed(uint64_t seed, uint64_t rep);

// Accumulates drained spans into per-layer wall self-time (a span's wall
// duration minus its children's) and virtual charge, plus the wall time
// covered by root spans.
class SpanTally {
 public:
  void Add(const std::vector<trace::SpanRecord>& spans);

  double root_cover_s() const { return root_cover_s_; }
  // The layer's share of all span-attributed virtual charge.
  double ChargeShare(trace::Layer layer) const;
  // Wall self-time and count of the spans called `name`.
  double NamedSelfS(const char* name) const;
  uint64_t NamedCount(const char* name) const;
  // Writes the span.<layer>.self_s / span.<layer>.charge_s metrics as
  // per-unit means over `units` traced units of work.
  void Export(Report* report, double units) const;

 private:
  double self_s_[trace::kNumLayers] = {};
  double charge_s_[trace::kNumLayers] = {};
  double root_cover_s_ = 0.0;
  std::map<std::string, std::pair<double, uint64_t>> named_;
};

// Virtual charge per layer of the trace rooted at the first request span
// called `root_name` (all zero if there is none).
struct TraceCharge {
  bool found = false;
  uint64_t layer_ns[trace::kNumLayers] = {};
  uint64_t total_ns() const;
  double Share(trace::Layer layer) const;
};
TraceCharge ChargeOfTrace(const std::vector<trace::SpanRecord>& spans,
                          const char* root_name);

// Charge closure: for every request root span, the charge summed over
// its trace equals the root's virtual duration. Counts the roots checked.
bool ChargeClosed(const std::vector<trace::SpanRecord>& spans,
                  uint64_t* roots_checked);

// Turns the span tracer on with per-thread rings of `capacity` spans
// (tracing an already enabled tracer is a no-op), or off. Only the span
// tracer: the event tracer stays off, because its process-global clock
// is not safe to read from the fleet's worker threads.
void EnableSpans(bool on, size_t capacity = size_t{1} << 18);

// One workload: fills end-to-end metrics (untraced) or per-layer
// metrics (traced) into `report`.
void RunFig4(const Args& args, Report* report);
void RunFleet(const Args& args, Report* report);
void RunCompile(const Args& args, Report* report);

// The host-pool overload probe (pool.cc), run by RunFleet outside its
// timed part: prints its result and fills the hv.host_pool probe metrics
// in traced runs.
void RunPoolProbe(const Args& args, Report* report);

}  // namespace hyperalloc::perfbench
