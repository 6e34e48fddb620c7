#!/usr/bin/env bash
# Fixed-seed perf smoke: runs a small, fast subset of the figure benches
# (both workload morphologies x {LLP-Prim, LLP-Boruvka} and friends) with
# --bench-json, producing llpmst-bench records that tools/bench_compare.py
# gates against the committed baseline bench/baselines/ci-smoke.json.
#
#   tools/perf_smoke.sh [build-dir] [out-dir]
#   tools/perf_smoke.sh --update-baseline [build-dir]
#
# With --update-baseline the fresh records are merged into the committed
# baseline (pretty-printed JSON array) instead of being compared — run this
# after an intentional perf change and commit the result.
set -euo pipefail

UPDATE=0
if [[ "${1:-}" == "--update-baseline" ]]; then
  UPDATE=1
  shift
fi
BUILD="${1:-build}"
OUT="${2:-perf-smoke-out}"
TOOLS="$(cd "$(dirname "$0")" && pwd)"
BASELINE="$TOOLS/../bench/baselines/ci-smoke.json"

trap 'echo "error: perf smoke failed at: $BASH_COMMAND" >&2' ERR

if [[ ! -d "$BUILD/bench" ]]; then
  echo "error: $BUILD/bench not found — build with -DLLPMST_BUILD_BENCHMARKS=ON first" >&2
  exit 1
fi
mkdir -p "$OUT"

# Smoke scales: small enough for CI minutes, large enough that the medians
# are not pure overhead.  The workload generators are seeded, so the graphs
# are bit-identical across runs and machines.
# Repetitions err high: the smoke graphs are small, so each datapoint is
# cheap, and the IQR noise guard is only as honest as the sample it sees.
echo "=== bench_fig2_single_thread (smoke) ==="
"$BUILD/bench/bench_fig2_single_thread" --road-side 128 --scale 11 --reps 9 \
  --bench-json "$OUT/fig2.bench.jsonl" > "$OUT/fig2.txt"
echo "=== bench_fig3_scaling (smoke) ==="
"$BUILD/bench/bench_fig3_scaling" --road-side 128 --threads 1,2 --reps 9 \
  --bench-json "$OUT/fig3.bench.jsonl" > "$OUT/fig3.txt"
echo "=== bench_fig3_scaling (scenario smoke) ==="
# A scenario-registry workload (--workload scenario:NAME) so the smoke
# also covers the regime the adversarial/conformance tests run, keyed by
# regime name ("scenario:geo-road-hybrid") rather than instance size.
"$BUILD/bench/bench_fig3_scaling" --workload scenario:geo-road-hybrid \
  --threads 1,2 --reps 9 \
  --bench-json "$OUT/fig3-scenario.bench.jsonl" > "$OUT/fig3-scenario.txt"
echo "=== bench_fig3_scaling (4-thread throughput smoke) ==="
# The one 4-thread datapoint: a road graph large enough that the 4T rows
# time the engines rather than team dispatch.  Its records key on
# "Road 262,144", so they never collide with the 128-side rows above.
"$BUILD/bench/bench_fig3_scaling" --road-side 512 --threads 1,4 --reps 9 \
  --bench-json "$OUT/fig3-4t.bench.jsonl" > "$OUT/fig3-4t.txt"
echo "=== bench_fig3_scaling (4-thread Graph500 smoke) ==="
# Graph500 s16 at 1 and 4 threads: the skewed shape whose late Boruvka
# rounds leave a few live roots under most of the edges, so it catches
# contraction sweeps contending on per-component slots.  Its records key
# on "Graph500 s16", which no other fig3 row uses.
"$BUILD/bench/bench_fig3_scaling" --workload rmat:16 --threads 1,4 --reps 9 \
  --bench-json "$OUT/fig3-rmat-4t.bench.jsonl" > "$OUT/fig3-rmat-4t.txt"
echo "=== bench_fig4_graph_types (smoke) ==="
"$BUILD/bench/bench_fig4_graph_types" --road-side 128 --scale-small 10 \
  --scale-big 11 --low 1 --high 2 --reps 9 \
  --bench-json "$OUT/fig4.bench.jsonl" > "$OUT/fig4.txt"

python3 "$TOOLS/check_report_schema.py" "$OUT"/*.bench.jsonl

if [[ "$UPDATE" == 1 ]]; then
  mkdir -p "$(dirname "$BASELINE")"
  python3 - "$BASELINE" "$OUT" <<'EOF'
import json, sys
from pathlib import Path

baseline_path, out_dir = Path(sys.argv[1]), Path(sys.argv[2])
docs = []
for f in sorted(out_dir.glob("*.bench.jsonl")):
    for line in f.read_text().splitlines():
        if line.strip():
            docs.append(json.loads(line))
baseline_path.write_text(json.dumps(docs, indent=1) + "\n")
print(f"wrote {len(docs)} record(s) to {baseline_path}")
EOF
else
  # --iqr-mult 3: the smoke datapoints are a few ms each and CI machines
  # are shared, so cross-run medians wander more than a single run's IQR
  # suggests.  A regression must clear 3x the worse of the two IQRs on
  # top of the 25% median threshold before the gate trips; a genuine 2x
  # slowdown still exceeds both by a wide margin.
  python3 "$TOOLS/bench_compare.py" "$BASELINE" "$OUT" \
    --threshold 0.25 --iqr-mult 3

  # Profiler-overhead gate: re-run the fig3 smoke with the sampling
  # profiler armed (default 97 Hz) and hold the profiled medians to
  # within 3% of the unprofiled baseline.  The records share keys with
  # the baseline's fig3 rows, so bench_compare's regression rule doubles
  # as the overhead assertion; they live in a sibling directory because
  # a duplicate (bench, workload, algo, threads) key inside one record
  # set is a hard error.  Where the profiler is unavailable (non-Linux,
  # LLPMST_OBS=0) the bench prints a note and runs unprofiled, so this
  # degrades to a plain noise check instead of failing the smoke.
  PROF_OUT="$OUT-profiled"
  mkdir -p "$PROF_OUT"
  echo "=== bench_fig3_scaling (profiled, overhead gate) ==="
  "$BUILD/bench/bench_fig3_scaling" --road-side 128 --threads 1,2 --reps 9 \
    --profile --bench-json "$PROF_OUT/fig3.bench.jsonl" \
    > "$PROF_OUT/fig3.txt"
  python3 "$TOOLS/check_report_schema.py" "$PROF_OUT"/*.bench.jsonl
  python3 "$TOOLS/bench_compare.py" "$BASELINE" "$PROF_OUT" \
    --threshold 0.03 --iqr-mult 3

  # Obs-overhead A/B gate: the same fig3 smoke twice in this session, once
  # plain and once with --metrics-json (which turns obs on: phase timers,
  # round records), compared with each other rather than with the
  # committed baseline, so machine drift cancels.  Bounds, from both sides
  # of the PhaseLaps change measured twice each on a 4-vCPU VM (see
  # docs/performance.md): llp-prim-parallel with obs on read +141..+163%
  # and +20.7k allocs/rep with per-super-step PhaseTimers, and +19..+60%
  # and +5.2k allocs/rep with PhaseLaps (one RoundRecord per sweep is
  # left).  --threshold 1.0 and --alloc-floor 10000 sit between the two;
  # the allocation counts repeat exactly, the timings do not.
  OBS_OUT="$OUT-obs"
  mkdir -p "$OBS_OUT"
  echo "=== bench_fig3_scaling (obs off / obs on, overhead gate) ==="
  "$BUILD/bench/bench_fig3_scaling" --road-side 128 --threads 1,2 --reps 9 \
    --bench-json "$OBS_OUT/off.bench.jsonl" > "$OBS_OUT/off.txt"
  "$BUILD/bench/bench_fig3_scaling" --road-side 128 --threads 1,2 --reps 9 \
    --metrics-json "$OBS_OUT/on.report.json" \
    --bench-json "$OBS_OUT/on.bench.jsonl" > "$OBS_OUT/on.txt"
  python3 "$TOOLS/check_report_schema.py" "$OBS_OUT"/*.bench.jsonl
  python3 "$TOOLS/bench_compare.py" "$OBS_OUT/off.bench.jsonl" \
    "$OBS_OUT/on.bench.jsonl" --threshold 1.0 --iqr-mult 3 \
    --alloc-floor 10000
fi
