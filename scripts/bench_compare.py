#!/usr/bin/env python3
"""Compare two google-benchmark JSON files scenario by scenario.

Usage: bench_compare.py OLD.json NEW.json [--threshold PCT] [--out FILE]

Matches benchmarks by name, prints per-scenario real_time deltas plus
critpath_ns deltas where both sides carry the counter (the engine
microbenches do; see docs/PERF.md), and exits non-zero when any scenario's
real_time regresses by more than --threshold percent (default 5).  Scenarios
present on only one side are listed but never fail the run, so adding or
retiring a benchmark does not break CI.

The threshold gate is one-sided: improvements of any size pass.  CI calls
this with a wide threshold (noisy shared runners); locally the default 5% is
a useful guard when iterating on delivery-path changes.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used;
        # raw iterations carry run_type "iteration" (absent in old versions).
        if b.get("run_type", "iteration") != "iteration":
            continue
        out[b["name"]] = b
    return out


def fmt_ns(ns):
    if ns >= 1e9:
        return "%.3f s" % (ns / 1e9)
    if ns >= 1e6:
        return "%.3f ms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.3f us" % (ns / 1e3)
    return "%.0f ns" % ns


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return value * scale.get(unit, 1.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_json")
    ap.add_argument("new_json")
    ap.add_argument("--threshold", type=float, default=5.0,
                    help="max tolerated real_time regression in percent "
                         "(default 5)")
    ap.add_argument("--out", help="also write the report to FILE")
    args = ap.parse_args()

    old = load(args.old_json)
    new = load(args.new_json)
    common = [n for n in old if n in new]
    only_old = [n for n in old if n not in new]
    only_new = [n for n in new if n not in old]

    lines = []
    lines.append("benchmark compare: %s -> %s  (threshold %.1f%%)"
                 % (args.old_json, args.new_json, args.threshold))
    lines.append("%-36s %12s %12s %8s %10s" %
                 ("scenario", "old", "new", "delta", "critpath"))
    regressions = []
    for name in common:
        o, n = old[name], new[name]
        o_ns = to_ns(o["real_time"], o.get("time_unit", "ns"))
        n_ns = to_ns(n["real_time"], n.get("time_unit", "ns"))
        pct = 100.0 * (n_ns - o_ns) / o_ns if o_ns > 0 else 0.0
        crit = ""
        if "critpath_ns" in o and "critpath_ns" in n and o["critpath_ns"] > 0:
            cpct = 100.0 * (n["critpath_ns"] - o["critpath_ns"]) / o["critpath_ns"]
            crit = "%+.1f%%" % cpct
        lines.append("%-36s %12s %12s %+7.1f%% %10s" %
                     (name, fmt_ns(o_ns), fmt_ns(n_ns), pct, crit))
        if pct > args.threshold:
            regressions.append((name, pct))
    for name in only_old:
        lines.append("%-36s %12s %12s   (removed)" % (name, "-", "-"))
    for name in only_new:
        lines.append("%-36s %12s %12s   (new)" % (name, "-", "-"))

    if regressions:
        lines.append("")
        lines.append("FAIL: %d scenario(s) regressed past %.1f%%:"
                     % (len(regressions), args.threshold))
        for name, pct in regressions:
            lines.append("  %s  +%.1f%%" % (name, pct))
    else:
        lines.append("")
        lines.append("OK: no scenario regressed past %.1f%%" % args.threshold)

    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
