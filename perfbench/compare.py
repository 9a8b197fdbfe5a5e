#!/usr/bin/env python3
"""Summarize one set of benchmark runs, or compare two.

Usage, from the repository root:

    python3 perfbench/compare.py runs.jsonl            # one set: spreads
    python3 perfbench/compare.py base.jsonl new.jsonl  # two sets: verdicts

Inputs are files written by perfbench/sweep.py. For every workload and
metric it prints the median and quartiles (statistics.quantiles, n=4) of
each set, and the spread: the interquartile range as a share of the
median.

One set: each end-to-end metric is marked "ok" when its spread is within
a third of its bound in BENCHMARK.json, "wide" when it is within the
bound, and "unsteady" beyond it (setup_s is exempt from the spread
check). Exit status 1 when a metric is unsteady.

Two sets: each end-to-end metric is marked "regression" when the new
median is worse than the base median by more than the bound, and
"unresolved" when either set's spread is wider than the bound, unless
every new run reads better than every base run. Otherwise the change is
"better" or "same". Exit status 1 on any regression. Per-layer metrics
have no bound and are printed for reading only.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = rec["workload"]
                for name, m in rec["result"]["metrics"].items():
                    runs.setdefault(key, {}).setdefault(name, []).append(
                        m["value"])
    return runs


def stats(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = stats(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in argv[1:]]
    bad = False
    for workload in sorted(set().union(*sets)):
        print("== %s" % workload)
        names = sorted(set().union(*(s.get(workload, {}) for s in sets)))
        for name in names:
            cols = []
            for s in sets:
                vals = s.get(workload, {}).get(name, [])
                if vals:
                    q1, med, q3 = stats(vals)
                    cols.append("n=%-2d med %-12.6g q1 %-12.6g q3 %-12.6g "
                                "spread %6.2f%%" % (len(vals), med, q1, q3,
                                                    100 * spread(vals)))
                else:
                    cols.append("(absent)")
            verdict = ""
            m = bounds.get(name)
            if m and len(sets) == 1 and name in sets[0].get(workload, {}):
                sp = spread(sets[0][workload][name])
                if name == "setup_s" or sp <= m["bound"] / 3:
                    verdict = "ok"
                elif sp <= m["bound"]:
                    verdict = "wide"
                else:
                    verdict, bad = "unsteady", True
            elif m and len(sets) == 2:
                verdict = judge(m, sets[0].get(workload, {}).get(name, []),
                                sets[1].get(workload, {}).get(name, []))
                bad |= verdict == "regression"
            print("  %-36s %s  %s" % (name, " | ".join(cols), verdict))
    return 1 if bad else 0


def judge(metric, base, new):
    if not base or not new:
        return "missing"
    lower = metric["better"] == "lower"
    bm, nm = stats(base)[1], stats(new)[1]
    worse = (nm - bm) if lower else (bm - nm)
    better_all = (max(new) < min(base)) if lower else (min(new) > max(base))
    wide = max(spread(base), spread(new)) > metric["bound"]
    if wide and not better_all:
        return "unresolved"
    if worse > metric["bound"] * abs(bm):
        return "regression"
    return "better" if worse < 0 else "same"


if __name__ == "__main__":
    sys.exit(main(sys.argv))
