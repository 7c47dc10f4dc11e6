#include "bench/trace_io.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include <unistd.h>

#include "src/trace/export.h"
#include "src/trace/trace.h"

namespace hyperalloc::bench {

TraceOutput::TraceOutput(int argc, char** argv) {
  constexpr std::string_view kFlag = "--trace-out";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() > kFlag.size() + 1 && arg.substr(0, kFlag.size()) == kFlag &&
        arg[kFlag.size()] == '=') {
      path_ = std::string(arg.substr(kFlag.size() + 1));
    } else if (arg == kFlag && i + 1 < argc) {
      path_ = argv[++i];
    }
  }
  if (path_.empty()) {
    return;
  }
#if HYPERALLOC_TRACE
  // Fail before the run, not after it: the artifacts are written next to
  // PATH, so a PATH that cannot be opened for writing ends the bench now.
  const bool existed = access(path_.c_str(), F_OK) == 0;
  std::FILE* probe = std::fopen(path_.c_str(), "a");
  if (probe == nullptr) {
    std::fprintf(stderr, "error: cannot write --trace-out path %s\n",
                 path_.c_str());
    std::exit(2);
  }
  std::fclose(probe);
  if (!existed) {
    std::remove(path_.c_str());
  }
  // Benches emit from a single thread; one big ring keeps whole runs.
  trace::SpanTracer& tracer = trace::SpanTracer::Global();
  tracer.SetCapacity(size_t{1} << 20);
  tracer.SetEnabled(true);
  tracer.SetEventsEnabled(true);
#else
  std::fprintf(stderr,
               "warning: --trace-out ignored (built with "
               "HYPERALLOC_TRACE=0)\n");
  path_.clear();
#endif
}

TraceOutput::~TraceOutput() {
#if HYPERALLOC_TRACE
  if (path_.empty()) {
    return;
  }
  trace::SpanTracer& tracer = trace::SpanTracer::Global();
  tracer.SetEnabled(false);
  tracer.SetEventsEnabled(false);
  tracer.SetTimeSource(nullptr);
  trace::WriteTraceArtifact(path_);
  std::fprintf(stderr, "trace written to %s\n", path_.c_str());
#endif
}

}  // namespace hyperalloc::bench
