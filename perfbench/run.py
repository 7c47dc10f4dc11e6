#!/usr/bin/env python3
"""End-to-end benchmark of the HyperAlloc simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig4_reclaim --seed 1 --seconds 10 --trace 0

Builds `perfbench` (an optimised CMake build of the simulator sources) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, runs one workload and prints its results. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (README.md lists them). `--workload all` runs every workload.
The exit code is non-zero when the build fails, an output check fails or the
result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig4_reclaim", "fleet_overcommit", "compile_tight"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/ (expected src/)")
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    for command in (configure,
                    ["cmake", "--build", out, "--target", "perfbench",
                     "-j", jobs]):
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            fail("build failed: " + " ".join(command))
    return os.path.join(out, "perfbench")


def commit_id():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(binary, workload, args):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id()]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": timed out")
    lines = result.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if result.returncode != 0:
        fail("%s: perfbench exited with %d" % (workload, result.returncode))
    report = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    if declared is not None:
        got = {name: m["unit"] for name, m in report["metrics"].items()}
        if got != declared:
            fail(workload + ": metrics differ from BENCHMARK.json")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    reports = [run_workload(binary, w, args) for w in workloads]
    if len(reports) > 1:
        for workload, report in zip(workloads, reports):
            print(workload + ": " + json.dumps(report))
        report = {"correct": all(r["correct"] for r in reports),
                  "attempted": sum(r["attempted"] for r in reports),
                  "failed": sum(r["failed"] for r in reports),
                  "metrics": {}}
    else:
        report = reports[0]
    for name, metric in report["metrics"].items():
        print("  %-36s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
