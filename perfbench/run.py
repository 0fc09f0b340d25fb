#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository.  The first run configures and
builds into .bench_build/ (CMake, Release); later runs rebuild only what
changed.  The binary's report is forwarded to stdout; the last line is the
result object {"correct", "attempted", "failed", "metrics"}.  With
--trace 1 the spans are written to .bench_out/ and validated with the
repository's json_lint.

Extra options, used by perfbench/selftest.py:
    --tiny            self-test sizes (ER n=32, RMAT scale 6)
    --expected FILE   canary values instead of perfbench/expected.json
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 120
MIN_COVERAGE = 0.9


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    args = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to perfbench/ "
             "(run from a checkout of the repository)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    with open(args.expected) as f:
        canary = json.load(f)["canary"]

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--canary", "%d,%d,%d" % (canary["rounds"], canary["messages"],
                                     canary["message_bytes"])]
    spans = os.path.join(OUT, "spans-%s-%d.json" % (args.workload,
                                                    args.seed))
    if args.trace == "1":
        cmd += ["--spans", spans]
    if args.tiny:
        cmd.append("--tiny")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=args.seconds + RUN_SLACK_S)
    lines = r.stdout.splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        sys.stdout.write(r.stdout)
        fail("the benchmark printed no result (exit %d)" % r.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    ok = r.returncode == 0 and result["correct"]

    # The metric set must be exactly the one BENCHMARK.json declares.
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print("metric names or units differ from BENCHMARK.json")
        ok = False

    if ok and args.trace == "1":
        with open(spans) as f:
            lint = subprocess.run([os.path.join(BUILD, "json_lint"), "--doc"],
                                  stdin=f, stdout=subprocess.PIPE, text=True)
        print("spans: %s: %s" % (os.path.relpath(spans, ROOT),
                                 lint.stdout.strip()))
        coverage = result["metrics"]["trace.coverage"]["value"]
        if lint.returncode != 0 or coverage < MIN_COVERAGE:
            print("traced run failed: json_lint exit %d, coverage %.4f"
                  % (lint.returncode, coverage))
            ok = False

    result["correct"] = ok
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
