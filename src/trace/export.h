// Exporters for the observability layer: serialize the global counter
// registry and one drain of the tracer (spans and instant records) to
// JSON, CSV, Chrome-trace/Perfetto, or Prometheus artifacts that the
// bench harness emits via --trace-out (see bench/trace_io.h). Every
// writer of an artifact set takes the same drained records.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace hyperalloc::trace {

// Writes one JSON document holding counters, histogram snapshots, the
// instant records as `events` ([t_ns, category, op, arg0, arg1] rows),
// the dropped-record count, and the spans.
void WriteJson(const std::string& path,
               const std::vector<SpanRecord>& records);

// Writes counters (and histogram count/sum/mean rows) as
// "name,value" CSV lines.
void WriteCountersCsv(const std::string& path);

// Writes the instant records as "time_ns,category,op,arg0,arg1" CSV
// lines.
void WriteEventsCsv(const std::string& path,
                    const std::vector<SpanRecord>& records);

// Chrome trace-event / Perfetto JSON (https://ui.perfetto.dev loads it
// directly): every span becomes a ph:"X" complete event on the
// pid = VM id, tid = layer track, with ts/dur in µs of *virtual* time
// and trace_id/charge_ns/frames in args; every instant record becomes a
// ph:"i" event on its VM's process track. Metadata events name the
// process ("vm<N>") and thread (layer) tracks.
void WritePerfettoJson(const std::string& path,
                       const std::vector<SpanRecord>& records);

// All records as CSV ("trace_id,span_id,parent_id,vm,layer,name,
// begin_vns,end_vns,charge_ns,frames,huge_frames,faults,retries,
// begin_wall_ns,end_wall_ns" — the format tools/ha_trace_tool reads).
// Instant records have span_id 0 and their category in the layer column.
void WriteSpansCsv(const std::string& path,
                   const std::vector<SpanRecord>& records);

// Maps every dotted metric name to its Prometheus exposition name
// (`hyperalloc_` prefix, non-alphanumerics to '_'). Two *distinct*
// dotted names can mangle identically ("a.b" vs "a_b"); every member of
// such a collision group gets a stable `_x<8-hex FNV-1a of the dotted
// name>` suffix, so no sample silently overwrites another and a name's
// disambiguated form never depends on registration order.
std::map<std::string, std::string> PrometheusNameMap(
    const std::vector<std::string>& names);

// Prometheus text exposition: counters as `hyperalloc_<name>` counter
// samples, histograms as cumulative `_bucket{le=...}` series (power-of-2
// bounds) plus `_sum`/`_count`. Dots in names become underscores, with
// PrometheusNameMap's suffix rule breaking mangling collisions.
void WritePrometheus(const std::string& path);

// Drains the tracer once and dispatches on the extension: "*.json"
// produces one JSON artifact; anything else writes the instant records
// as CSV to `path` plus the counters to `path + ".counters.csv"`. Either
// way, sibling artifacts carry every record (`path + ".spans.csv"`,
// `path + ".perfetto.json"`) and the Prometheus exposition
// (`path + ".prom"`).
void WriteTraceArtifact(const std::string& path);

}  // namespace hyperalloc::trace
