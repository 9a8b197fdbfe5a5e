#!/usr/bin/env python3
"""Run the benchmark over several seeds and record every result.

Usage, from the repository root:

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] \
        [--seeds 1-10] [--seconds N] [--trace 0|1]

Each run goes through perfbench/run.py exactly as a single run would. One
JSON object per run is appended to --out: {"workload", "seed", "trace",
"result"}, where result is the run's last output line. Defaults: every
workload in BENCHMARK.json, seeds 1-10, its run_seconds, trace 0.
Summarize or compare the files with perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    failures = 0
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", args.trace]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode),
                          file=sys.stderr)
                    failures += 1
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": int(args.trace),
                                      "result": result}) + "\n")
                out.flush()
                print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                    workload, seed, result["correct"], result["attempted"],
                    result["failed"]), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
