#!/usr/bin/env sh
# Builds and runs the engine microbenchmarks, writing the google-benchmark
# JSON to BENCH_ENGINE.json at the repo root.  The Sparse/Dense benchmark
# pairs measure the active-set scheduler against the exhaustive dense
# fallback on the same workloads (bit-identical stats, see docs/PERF.md);
# compare their real_time entries to read off the speedup.
#
# Engine scenarios also carry critical-path counters (critpath_ns,
# critpath_len, critpath_pct -- longest causal dependence chain, its step
# count, and its share of the engine phase wall-clock; see docs/PERF.md,
# "Critical-path profiling").  A per-scenario table is printed after the run.
#
# Extra arguments are forwarded to the bench binary, e.g.:
#   scripts/bench_engine.sh --benchmark_min_time=0.01s
#
# --compare OLD.json NEW.json skips the run and instead diffs two previously
# captured benchmark JSON files via scripts/bench_compare.py (per-scenario
# real_time and critpath_ns deltas; exits non-zero on a >5% real_time
# regression -- tune with --threshold PCT placed after the two files).
set -e
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--compare" ]; then
  shift
  exec python3 scripts/bench_compare.py "$@"
fi

if [ -f build/build.ninja ]; then
  cmake --build build --target bench_engine_micro
else
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build --target bench_engine_micro -j
fi

./build/bench/bench_engine_micro \
  --benchmark_out=BENCH_ENGINE.json --benchmark_out_format=json "$@"

echo "wrote $(pwd)/BENCH_ENGINE.json"

# Critical-path summary per scenario, read back from the benchmark JSON.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json

with open("BENCH_ENGINE.json") as f:
    doc = json.load(f)
rows = [b for b in doc.get("benchmarks", []) if "critpath_ns" in b]
if rows:
    print()
    print("critical path per scenario (deterministic chain; docs/PERF.md):")
    for b in rows:
        print("  %-32s chain %6d steps  %10.3f ms  %5.1f%% of engine wall"
              % (b["name"], int(b["critpath_len"]),
                 b["critpath_ns"] / 1e6, b["critpath_pct"]))
EOF
fi
