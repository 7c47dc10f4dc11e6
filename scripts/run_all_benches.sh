#!/bin/sh
# Regenerates every table and figure of the paper's evaluation.
# Outputs: stdout tables (tee'd to bench_output.txt by CI) and
# bench_out/*.csv time series.
set -e
cd "$(dirname "$0")/.."
BUILD=${BUILD:-build}

$BUILD/bench/bench_inflate                   # Fig. 4 + Table 1
$BUILD/bench/bench_stream                    # Fig. 5 + Table 2 (STREAM)
$BUILD/bench/bench_ftq                       # Fig. 6 + Table 2 (FTQ)
$BUILD/bench/bench_compiling --runs=2        # Fig. 7 (add --extra for sweep)
$BUILD/bench/bench_compiling --detail        # Fig. 8
$BUILD/bench/bench_vfio_compile --runs=1     # Fig. 9
$BUILD/bench/bench_blender                   # Fig. 10
$BUILD/bench/bench_multivm                   # Fig. 11
$BUILD/bench/bench_overcommit                # 6 overcommit extension
$BUILD/bench/bench_fleet                     # 4.12 fleet orchestration
$BUILD/bench/bench_ablation                  # 4.2 ablation
$BUILD/bench/bench_scan                      # 3.3 scan cost (real time)
$BUILD/bench/bench_llfree                    # LLFree ops (real time)
