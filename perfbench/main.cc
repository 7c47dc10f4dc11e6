// perfbench — the repository's end-to-end benchmark binary.
//
//   perfbench --workload <fig4_reclaim|fleet_overcommit|compile_tight>
//             --seed N --seconds S --trace <0|1> [--commit ID]
//
// Prints a context line, human-readable results, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when an output check fails and 2 on bad arguments;
// refuses (exit 3) to report wall-clock metrics from a 1-core host or an
// unoptimised build. README.md lists every metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace hyperalloc::perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--commit ID]\n",
               why);
  return 2;
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void PrintMetrics(const std::vector<MetricDef>& table, const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < table.size(); ++i) {
    const auto it = report.values.find(table[i].name);
    const double value = it == report.values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", table[i].name, value, table[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload) {
    return Usage("missing --workload or a flag value");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    return Usage("--seconds must be in (0, 600]");
  }
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "fig4_reclaim") {
    run = RunFig4;
  } else if (args.workload == "fleet_overcommit") {
    run = RunFleet;
  } else if (args.workload == "compile_tight") {
    run = RunCompile;
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"hardware_concurrency\": %u, "
              "\"build_type\": \"%s\", \"optimized\": %s, "
              "\"hyperalloc_trace\": %d, \"commit\": \"%s\"}}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, cores, PERFBENCH_BUILD_TYPE,
              Optimized() ? "true" : "false", HYPERALLOC_TRACE,
              commit.c_str());
  if (cores <= 1 || !Optimized()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report wall-clock metrics from a "
                 "%u-core host / %s build\n",
                 cores, Optimized() ? "optimised" : "unoptimised");
    return 3;
  }

  Report report;
  run(args, &report);
  if (!args.trace && report.values.count("host_rss_mib") == 0) {
    report.Set("host_rss_mib", PeakRssMib());
  }
  const auto& table = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricDef& def : table) {
    const auto it = report.values.find(def.name);
    if (it != report.values.end() && !std::isfinite(it->second)) {
      report.Fail(std::string("metric ") + def.name + " is not finite");
      report.values.erase(it);
    }
  }
  PrintMetrics(table, report);
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace hyperalloc::perfbench

int main(int argc, char** argv) {
  return hyperalloc::perfbench::Main(argc, argv);
}
