#include "src/trace/span.h"

#include <chrono>

namespace hyperalloc::trace {

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if HYPERALLOC_TRACE

SpanContext& ThreadSpanContext() {
  thread_local SpanContext context;
  return context;
}

Span*& Span::Innermost() {
  thread_local Span* innermost = nullptr;
  return innermost;
}

#endif  // HYPERALLOC_TRACE

}  // namespace hyperalloc::trace
