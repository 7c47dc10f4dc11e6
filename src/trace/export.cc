#include "src/trace/export.h"

#include <cinttypes>
#include <cstdio>

#include "src/base/check.h"

namespace hyperalloc::trace {

namespace {

// Counter/histogram names are dotted lowercase identifiers, but escape
// defensively so a stray name cannot corrupt the document.
void PrintJsonString(std::FILE* file, const std::string& s) {
  std::fputc('"', file);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', file);
      std::fputc(c, file);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(file, "\\u%04x", c);
    } else {
      std::fputc(c, file);
    }
  }
  std::fputc('"', file);
}

// Prometheus metric names: dotted lowercase -> underscore-separated with
// the hyperalloc_ namespace prefix. Lossy on its own: "a.b" and "a_b"
// both mangle to "hyperalloc_a_b" (PrometheusNameMap resolves that).
std::string PrometheusName(const std::string& name) {
  std::string out = "hyperalloc_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

uint64_t Fnv1aHash(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void PrintHistogramJson(std::FILE* file, const Histogram::Snapshot& snap) {
  std::fprintf(file, "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                     ",\"mean\":%.3f,\"buckets\":[",
               snap.count, snap.sum, snap.Mean());
  // Sparse: only non-empty buckets, as [lower_bound, count] pairs.
  bool first = true;
  for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
    if (snap.buckets[b] == 0) {
      continue;
    }
    std::fprintf(file, "%s[%" PRIu64 ",%" PRIu64 "]", first ? "" : ",",
                 Histogram::BucketLowerBound(b), snap.buckets[b]);
    first = false;
  }
  std::fprintf(file, "]}");
}

}  // namespace

std::map<std::string, std::string> PrometheusNameMap(
    const std::vector<std::string>& names) {
  std::map<std::string, std::string> out;
  // Count distinct dotted names per mangled form; a form claimed by more
  // than one dotted name is a collision group and every member gets the
  // hash suffix (the suffix is a pure function of the dotted name, so a
  // member's final form is stable no matter who else collides with it).
  std::map<std::string, std::vector<std::string>> groups;
  for (const std::string& name : names) {
    if (out.count(name) != 0) {
      continue;  // duplicate input
    }
    out.emplace(name, std::string());
    groups[PrometheusName(name)].push_back(name);
  }
  for (const auto& [mangled, members] : groups) {
    for (const std::string& name : members) {
      if (members.size() == 1) {
        out[name] = mangled;
      } else {
        char suffix[16];
        std::snprintf(suffix, sizeof(suffix), "_x%08x",
                      static_cast<unsigned>(Fnv1aHash(name) & 0xffffffffu));
        out[name] = mangled + suffix;
      }
    }
  }
  return out;
}

void WriteJson(const std::string& path,
               const std::vector<SpanRecord>& records) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);

  std::fprintf(file, "{\n  \"counters\": {");
  bool first = true;
  for (const auto& [name, value] : CounterRegistry::Global().Counters()) {
    std::fprintf(file, "%s\n    ", first ? "" : ",");
    PrintJsonString(file, name);
    std::fprintf(file, ": %" PRIu64, value);
    first = false;
  }
  std::fprintf(file, "\n  },\n");

  std::fprintf(file, "  \"histograms\": {");
  first = true;
  for (const auto& [name, snap] : CounterRegistry::Global().Histograms()) {
    std::fprintf(file, "%s\n    ", first ? "" : ",");
    PrintJsonString(file, name);
    std::fprintf(file, ": ");
    PrintHistogramJson(file, snap);
    first = false;
  }
  std::fprintf(file, "\n  },\n");

  // Instant records as compact [t_ns, "category", "op", arg0, arg1] rows,
  // already sorted by (virtual time, emission order).
  std::fprintf(file, "  \"events\": [");
  first = true;
  for (const SpanRecord& event : records) {
    if (!event.instant()) {
      continue;
    }
    std::fprintf(file,
                 "%s\n    [%" PRIu64 ",\"%s\",\"%s\",%" PRIu64 ",%" PRIu64
                 "]",
                 first ? "" : ",", event.begin_vns, Name(event.category),
                 Name(event.op), event.arg0, event.arg1);
    first = false;
  }
  std::fprintf(file, "\n  ],\n");

  // Spans as compact [trace_id, span_id, parent_id, vm, "layer", "name",
  // begin_vns, end_vns, charge_ns, frames, huge_frames, faults,
  // retries] rows.
  std::fprintf(file, "  \"dropped_spans\": %" PRIu64 ",\n",
               SpanTracer::Global().dropped_spans());
  std::fprintf(file, "  \"spans\": [");
  first = true;
  for (const SpanRecord& span : records) {
    if (span.instant()) {
      continue;
    }
    std::fprintf(file,
                 "%s\n    [%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%u,\"%s\",",
                 first ? "" : ",", span.trace_id, span.span_id,
                 span.parent_id, span.vm, Name(span.layer));
    PrintJsonString(file, span.name);
    std::fprintf(file,
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 "]",
                 span.begin_vns, span.end_vns, span.charge_ns, span.frames,
                 span.huge_frames, span.faults, span.retries);
    first = false;
  }
  std::fprintf(file, "\n  ]\n}\n");
  std::fclose(file);
}

void WriteCountersCsv(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);
  std::fprintf(file, "name,value\n");
  for (const auto& [name, value] : CounterRegistry::Global().Counters()) {
    std::fprintf(file, "%s,%" PRIu64 "\n", name.c_str(), value);
  }
  for (const auto& [name, snap] : CounterRegistry::Global().Histograms()) {
    std::fprintf(file, "%s.count,%" PRIu64 "\n", name.c_str(), snap.count);
    std::fprintf(file, "%s.sum,%" PRIu64 "\n", name.c_str(), snap.sum);
    std::fprintf(file, "%s.mean,%.3f\n", name.c_str(), snap.Mean());
  }
  std::fclose(file);
}

void WriteEventsCsv(const std::string& path,
                    const std::vector<SpanRecord>& records) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);
  std::fprintf(file, "time_ns,category,op,arg0,arg1\n");
  for (const SpanRecord& event : records) {
    if (event.instant()) {
      std::fprintf(file, "%" PRIu64 ",%s,%s,%" PRIu64 ",%" PRIu64 "\n",
                   event.begin_vns, Name(event.category), Name(event.op),
                   event.arg0, event.arg1);
    }
  }
  std::fclose(file);
}

void WritePerfettoJson(const std::string& path,
                       const std::vector<SpanRecord>& records) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);
  std::fprintf(file, "{\"traceEvents\":[");
  bool first = true;

  // Name the tracks: one "process" per VM, one "thread" per layer.
  // seen[vm] is a bitmask of layers with at least one span, plus bit
  // kNumLayers for a VM with instant records.
  std::vector<uint32_t> seen;
  for (const SpanRecord& record : records) {
    if (record.vm >= seen.size()) {
      seen.resize(record.vm + 1, 0);
    }
    seen[record.vm] |=
        1u << (record.instant() ? kNumLayers
                                : static_cast<unsigned>(record.layer));
  }
  for (uint32_t vm = 0; vm < seen.size(); ++vm) {
    if (seen[vm] == 0) {
      continue;
    }
    std::fprintf(file,
                 "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"vm%u\"}}",
                 first ? "" : ",", vm, vm);
    first = false;
    for (unsigned layer = 0; layer < kNumLayers; ++layer) {
      if ((seen[vm] & (1u << layer)) == 0) {
        continue;
      }
      std::fprintf(file,
                   "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                   "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                   first ? "" : ",", vm, layer,
                   Name(static_cast<Layer>(layer)));
    }
  }

  // Spans as ph:"X" complete events, instants as process-scoped ph:"i"
  // events; ts/dur are µs of virtual time.
  for (const SpanRecord& record : records) {
    std::fprintf(file, "%s\n{\"name\":", first ? "" : ",");
    PrintJsonString(file, record.name);
    first = false;
    if (record.instant()) {
      std::fprintf(
          file,
          ",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"p\",\"pid\":%u,"
          "\"ts\":%.3f,\"args\":{\"trace_id\":%" PRIu64
          ",\"parent_id\":%" PRIu64 ",\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64
          "}}",
          Name(record.category), record.vm,
          static_cast<double>(record.begin_vns) / 1000.0, record.trace_id,
          record.parent_id, record.arg0, record.arg1);
      continue;
    }
    std::fprintf(
        file,
        ",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
        ",\"parent_id\":%" PRIu64 ",\"charge_ns\":%" PRIu64
        ",\"frames\":%" PRIu64 ",\"huge_frames\":%" PRIu64
        ",\"faults\":%" PRIu64 ",\"retries\":%" PRIu64
        ",\"wall_ns\":%" PRIu64 "}}",
        record.vm, static_cast<unsigned>(record.layer),
        static_cast<double>(record.begin_vns) / 1000.0,
        static_cast<double>(record.virtual_ns()) / 1000.0, record.trace_id,
        record.span_id, record.parent_id, record.charge_ns, record.frames,
        record.huge_frames, record.faults, record.retries, record.wall_ns());
  }
  std::fprintf(file, "\n],\"displayTimeUnit\":\"ns\"}\n");
  std::fclose(file);
}

void WriteSpansCsv(const std::string& path,
                   const std::vector<SpanRecord>& records) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);
  std::fprintf(file,
               "trace_id,span_id,parent_id,vm,layer,name,begin_vns,"
               "end_vns,charge_ns,frames,huge_frames,faults,retries,"
               "begin_wall_ns,end_wall_ns\n");
  for (const SpanRecord& span : records) {
    std::fprintf(file,
                 "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%u,%s,%s,%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                 span.trace_id, span.span_id, span.parent_id, span.vm,
                 span.instant() ? Name(span.category) : Name(span.layer),
                 span.name, span.begin_vns, span.end_vns,
                 span.charge_ns, span.frames, span.huge_frames,
                 span.faults, span.retries, span.begin_wall_ns,
                 span.end_wall_ns);
  }
  std::fclose(file);
}

void WritePrometheus(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);
  const auto counters = CounterRegistry::Global().Counters();
  const auto histograms = CounterRegistry::Global().Histograms();
  // Counters and histograms share one exposition namespace, so collision
  // detection must span both snapshots.
  std::vector<std::string> names;
  names.reserve(counters.size() + histograms.size());
  for (const auto& [name, value] : counters) {
    names.push_back(name);
  }
  for (const auto& [name, snap] : histograms) {
    names.push_back(name);
  }
  const std::map<std::string, std::string> metric_names =
      PrometheusNameMap(names);
  for (const auto& [name, value] : counters) {
    const std::string& metric = metric_names.at(name);
    std::fprintf(file, "# TYPE %s counter\n", metric.c_str());
    std::fprintf(file, "%s %" PRIu64 "\n", metric.c_str(), value);
  }
  for (const auto& [name, snap] : histograms) {
    const std::string& metric = metric_names.at(name);
    std::fprintf(file, "# TYPE %s histogram\n", metric.c_str());
    // Cumulative buckets; bucket b spans [BucketLowerBound(b),
    // BucketLowerBound(b+1)), so its inclusive upper bound `le` is the
    // next bucket's lower bound minus one.
    uint64_t cumulative = 0;
    for (unsigned b = 0; b + 1 < Histogram::kBuckets; ++b) {
      cumulative += snap.buckets[b];
      if (snap.buckets[b] == 0 && b != 0) {
        continue;  // keep the exposition sparse (le="0" anchors it)
      }
      std::fprintf(file, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                   metric.c_str(), Histogram::BucketLowerBound(b + 1) - 1,
                   cumulative);
    }
    std::fprintf(file, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", metric.c_str(),
                 snap.count);
    std::fprintf(file, "%s_sum %" PRIu64 "\n", metric.c_str(), snap.sum);
    std::fprintf(file, "%s_count %" PRIu64 "\n", metric.c_str(), snap.count);
  }
  std::fclose(file);
}

void WriteTraceArtifact(const std::string& path) {
  const std::vector<SpanRecord> records = SpanTracer::Global().Drain();
  WriteSpansCsv(path + ".spans.csv", records);
  WritePerfettoJson(path + ".perfetto.json", records);
  WritePrometheus(path + ".prom");
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json) {
    WriteJson(path, records);
    return;
  }
  WriteEventsCsv(path, records);
  WriteCountersCsv(path + ".counters.csv");
}

}  // namespace hyperalloc::trace
