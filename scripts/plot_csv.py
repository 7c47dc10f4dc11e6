#!/usr/bin/env python3
"""Renders repo CSV artifacts as a standalone SVG (no external
dependencies).

Time-series mode (default) plots bench_out/*.csv series, e.g.:

  scripts/plot_csv.py fig8.svg \
      bench_out/compiling_detail_balloon_rss.csv \
      bench_out/compiling_detail_balloon_small.csv \
      bench_out/compiling_detail_balloon_cached.csv

Each CSV must have a `time_s,<name>` header as written by
metrics::TimeSeries::WriteCsv.

Spans mode plots the fault-injection annotations of a spans CSV (the
.spans.csv written via --trace-out; columns are read by header name,
instant records are skipped, and traces without faults/retries columns
plot as flat zero lines):

  scripts/plot_csv.py --spans faults.svg trace.spans.csv

Fleet mode plots columns of the fleet telemetry CSV (PREFIX.fleet.csv
written by bench_fleet --telemetry-out=PREFIX); pick columns with
--cols (comma-separated header names):

  scripts/plot_csv.py --fleet burn.svg telemetry.fleet.csv \
      --cols=pressure,latency_burn_fast,pressure_burn_fast
"""
import sys


PALETTE = ["#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951",
           "#ff8ab7", "#a463f2", "#97bbf5"]
WIDTH, HEIGHT = 960, 480
MARGIN = {"left": 70, "right": 180, "top": 30, "bottom": 50}

FLEET_DEFAULT_COLS = ["pressure", "latency_burn_fast", "pressure_burn_fast"]


def read_series(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        name = header[1] if len(header) > 1 else path
        points = []
        for line in handle:
            parts = line.strip().split(",")
            if len(parts) < 2:
                continue
            points.append((float(parts[0]), float(parts[1])))
    return path.rsplit("/", 1)[-1].removesuffix(".csv"), name, points


def read_spans(path):
    """Cumulative injected faults/retries over virtual time, from a spans
    CSV. Columns are found by header name (end_vns, faults, retries);
    instant records (span_id 0) are skipped, and traces older than the
    faults/retries columns plot as flat zero lines."""
    events = []
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        if "end_vns" not in header or "span_id" not in header:
            sys.exit(f"{path}: not a spans CSV (no end_vns/span_id column)")
        span_col = header.index("span_id")
        end_col = header.index("end_vns")
        count_cols = [header.index(name) if name in header else None
                      for name in ("faults", "retries")]
        for line in handle:
            parts = line.strip().split(",")
            if len(parts) != len(header) or parts[span_col] == "0":
                continue
            fault_count, retry_count = (
                int(parts[col]) if col is not None else 0
                for col in count_cols)
            events.append((float(parts[end_col]) / 1e9, fault_count,
                           retry_count))
    if not events:
        sys.exit(f"no spans in {path}")
    events.sort()
    faults = []
    retries = []
    fault_total = retry_total = 0
    for end_s, fault_count, retry_count in events:
        fault_total += fault_count
        retry_total += retry_count
        faults.append((end_s, fault_total))
        retries.append((end_s, retry_total))
    return [("faults", "cumulative faults", faults),
            ("retries", "cumulative retries", retries)]


def read_fleet(path, cols):
    """Selected columns of a telemetry fleet CSV, one series each. The
    header row names the columns (time_s first)."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        if not header or header[0] != "time_s":
            sys.exit(f"{path}: not a fleet telemetry CSV "
                     f"(header must start with time_s)")
        missing = [c for c in cols if c not in header]
        if missing:
            sys.exit(f"{path}: no such column(s) {','.join(missing)}; "
                     f"have {','.join(header[1:])}")
        indices = [header.index(c) for c in cols]
        rows = []
        for line in handle:
            parts = line.strip().split(",")
            if len(parts) != len(header):
                continue
            rows.append(parts)
    return [(col, col, [(float(r[0]), float(r[i])) for r in rows])
            for col, i in zip(cols, indices)]


def nice_ticks(lo, hi, count=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    magnitude = 10 ** int(f"{raw:e}".split("e")[1])
    for step in (1, 2, 5, 10):
        if raw <= step * magnitude:
            step *= magnitude
            break
    first = int(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step / 2:
        if value >= lo - step / 2:
            ticks.append(value)
        value += step
    return ticks


def render(series, out_path, x_label):
    xs = [p[0] for _, _, pts in series for p in pts]
    ys = [p[1] for _, _, pts in series for p in pts]
    if not xs:
        sys.exit("no data points")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0

    plot_w = WIDTH - MARGIN["left"] - MARGIN["right"]
    plot_h = HEIGHT - MARGIN["top"] - MARGIN["bottom"]

    def sx(x):
        return MARGIN["left"] + (x - x_lo) / (x_hi - x_lo or 1) * plot_w

    def sy(y):
        return MARGIN["top"] + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # Axes and grid.
    for tick in nice_ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(f'<line x1="{MARGIN["left"]}" y1="{y:.1f}" '
                     f'x2="{MARGIN["left"] + plot_w}" y2="{y:.1f}" '
                     'stroke="#e0e0e0"/>')
        parts.append(f'<text x="{MARGIN["left"] - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{tick:g}</text>')
    for tick in nice_ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{MARGIN["top"]}" '
                     f'x2="{x:.1f}" y2="{MARGIN["top"] + plot_h}" '
                     'stroke="#f0f0f0"/>')
        parts.append(f'<text x="{x:.1f}" y="{MARGIN["top"] + plot_h + 18}" '
                     f'text-anchor="middle">{tick:g}</text>')
    parts.append(f'<text x="{MARGIN["left"] + plot_w / 2}" '
                 f'y="{HEIGHT - 10}" text-anchor="middle">{x_label}</text>')

    # Series.
    for i, (label, _, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        path = " ".join(f'{"M" if j == 0 else "L"}{sx(x):.1f},{sy(y):.1f}'
                        for j, (x, y) in enumerate(pts))
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = MARGIN["top"] + 16 * i + 10
        lx = MARGIN["left"] + plot_w + 10
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly + 4}">{label}</text>')

    parts.append("</svg>")
    with open(out_path, "w") as handle:
        handle.write("\n".join(parts))
    print(f"wrote {out_path} ({len(series)} series)")


def main():
    args = sys.argv[1:]
    mode = "series"
    cols = FLEET_DEFAULT_COLS
    positional = []
    for arg in args:
        if arg == "--spans":
            mode = "spans"
        elif arg == "--fleet":
            mode = "fleet"
        elif arg.startswith("--cols="):
            cols = [c for c in arg[len("--cols="):].split(",") if c]
        elif arg.startswith("--"):
            sys.exit(__doc__)
        else:
            positional.append(arg)
    if len(positional) < 2:
        sys.exit(__doc__)
    out_path = positional[0]

    if mode == "spans":
        if len(positional) != 2:
            sys.exit(__doc__)
        render(read_spans(positional[1]), out_path, "virtual time [s]")
    elif mode == "fleet":
        if len(positional) != 2:
            sys.exit(__doc__)
        render(read_fleet(positional[1], cols), out_path, "time [s]")
    else:
        render([read_series(path) for path in positional[1:]], out_path,
               "time [s]")


if __name__ == "__main__":
    main()
