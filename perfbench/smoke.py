#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs all three workloads at a tiny size (--scale 0.05, --seconds 1), once
untraced and once traced, through the same command BENCHMARK.json names.
Every run evaluates every correctness gate (zero reports, repetition and
traced/untraced digests, quarantined frames, the stream flow ledger, shed
records, the journal read-back) on its own passing replays, so a gate that
trips fails the smoke test; no input here is built to make a gate trip.
It then checks that each result line has exactly the contract's keys, that
the metric names and units printed are exactly those BENCHMARK.json lists
(end_to_end untraced, per_layer traced), and that the benchmark refuses to
run, without printing a result, in a directory holding only BENCHMARK.json
and the benchmark's own files.  Exits 0 when everything holds.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.05"


def fail(msg):
    print("smoke: FAIL: " + msg)
    return 1


def run_bench(cwd, command, workload, trace, seed="1"):
    cmd = command + ["--workload", workload, "--seed", seed, "--seconds", "1",
                     "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(bench, proc, workload, trace):
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return "%s exited %d: %s" % (where, proc.returncode,
                                     proc.stderr.strip()[-500:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return where + " printed nothing"
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "%s result keys are %s" % (where, sorted(result))
    if result["correct"] is not True or result["failed"] != 0:
        return "%s reported correct=%s failed=%s" % (
            where, result["correct"], result["failed"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "%s attempted=%r" % (where, result["attempted"])
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "%s metric mismatch: missing %s, extra %s, unit differs %s" % (
            where, missing, extra, units)
    if any(not isinstance(v["value"], (int, float))
           for v in result["metrics"].values()):
        return where + " printed a non-numeric metric"
    return None


def check_bare_directory(bench):
    """The benchmark must fail, printing no result, without the sources."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(bare, bench["command"], "fault_storm", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return "benchmark exited 0 in a directory without the sources"
    for line in proc.stdout.splitlines():
        if line.startswith("{") and '"correct"' in line:
            return "benchmark printed a result without the sources"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, bench["command"], w["name"], trace)
            err = check_result(bench, proc, w["name"], trace)
            if err:
                return fail(err)
            print("smoke: ok %s --trace %d" % (w["name"], trace), flush=True)
    err = check_bare_directory(bench)
    if err:
        return fail(err)
    print("smoke: ok bare directory refused")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
