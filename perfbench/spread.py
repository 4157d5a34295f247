#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload fault_storm --seeds 1-10 [--trace 0]
    python3 perfbench/spread.py --workload fault_storm --seeds 1x10

--seeds takes a comma-separated list of seeds, ranges (1-10) and repeats
(1x10: seed 1 ten times).  Seeds 1-10 give the spread across captures;
1x10 gives the spread between runs of one capture, which is what a
comparison of two commits on the same seed sees.  For every metric it prints the median of the per-run values and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json fixes
for it.  Runs execute one after another from the checkout root, with the
run_seconds BENCHMARK.json names.  --out writes every run's result as JSON
lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "x" in part:
            seed, times = part.split("x")
            seeds.extend([int(seed)] * int(times))
        elif "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    results = []
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, "result": result})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    if args.out:
        with open(args.out, "w") as f:
            for r in results:
                f.write(json.dumps(r) + "\n")
    print("%-28s %14s %8s %7s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        print("%-28s %14.6g %8.4f %7s" % (
            name, med, spread, "" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
