// Command-line glue between the benchmark harness and the tracing layer.
//
// Every bench binary constructs one TraceOutput at the top of main(). If
// --trace-out=PATH (or "--trace-out PATH") is present on the command line,
// spans and instant records are enabled with an enlarged per-thread ring
// and the artifact set (JSON or CSV, chosen by extension — see
// src/trace/export.h) is written when the object is destroyed, i.e.
// after the benchmark ran. A PATH that cannot be opened for writing is
// reported and exits with status 2 before the benchmark starts.
#ifndef HYPERALLOC_BENCH_TRACE_IO_H_
#define HYPERALLOC_BENCH_TRACE_IO_H_

#include <string>

namespace hyperalloc::bench {

class TraceOutput {
 public:
  TraceOutput(int argc, char** argv);
  ~TraceOutput();

  TraceOutput(const TraceOutput&) = delete;
  TraceOutput& operator=(const TraceOutput&) = delete;

  bool enabled() const { return !path_.empty(); }

 private:
  std::string path_;
};

}  // namespace hyperalloc::bench

#endif  // HYPERALLOC_BENCH_TRACE_IO_H_
