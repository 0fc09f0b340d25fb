#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (ER n=32, RMAT scale 6).

    python3 perfbench/selftest.py

Run it from the root of the repository; it builds like run.py does.  It
checks that every workload prints every metric BENCHMARK.json declares, in
both modes; that a corrupted canary value fails the run; that the
deterministic counts repeat for one seed; and that the benchmark refuses to
run without the library sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=1, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    lines = r.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return r.returncode, result, r.stdout


class Selftest(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, out = run(w["name"], trace)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)
                    if trace == 1:
                        self.assertIn("ok: valid JSON document", out)

    def test_corrupted_canary_fails(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        expected["canary"]["rounds"] += 1
        os.makedirs(SCRATCH, exist_ok=True)
        path = os.path.join(SCRATCH, "expected-wrong-rounds.json")
        with open(path, "w") as f:
            json.dump(expected, f)
        code, result, out = run("congest_apsp", 0, extra=("--expected", path))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("canary counts", out)

    def test_counts_repeat_for_one_seed(self):
        names = ("congest.rounds", "congest.messages", "congest.message_bytes")
        runs = [run("congest_apsp", 1, seed=5)[1]["metrics"] for _ in range(2)]
        for name in names:
            self.assertEqual(runs[0][name]["value"], runs[1][name]["value"])
            self.assertGreater(runs[0][name]["value"], 0)

    def test_refuses_without_library_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run("congest_apsp", 0, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
