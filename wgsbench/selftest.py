#!/usr/bin/env python3
"""Self-test of the WGS benchmark, at a tiny input size.

    python3 wgsbench/selftest.py

1. Runs every workload once with --trace 0 and once with --trace 1 and
   checks the result line: the keys, correct/failed, and that the metric
   names and units are exactly those BENCHMARK.json declares (end_to_end
   for --trace 0, per_layer for --trace 1), each declared with a
   direction.
2. Corrupts one repetition's VCF and checks that it counts as a failed
   operation and the run as incorrect.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's own files, and checks that it exits non-zero without
   printing a result.

Exits non-zero on the first failed check.  Takes about two minutes after
the build.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(args, cwd=ROOT, timeout=600):
    cmd = [sys.executable, os.path.join(cwd, "wgsbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)


def result_of(p, what):
    if p.returncode != 0:
        fail(f"{what}: exit {p.returncode}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{what}: last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{what}: attempted {result['attempted']!r}")
    return result


def check_names(result, declared, what):
    got = result["metrics"]
    if list(got) != [m["name"] for m in declared]:
        missing = {m["name"] for m in declared} - set(got)
        extra = set(got) - {m["name"] for m in declared}
        fail(f"{what}: metric names differ from BENCHMARK.json "
             f"(missing {sorted(missing)}, extra {sorted(extra)})")
    for m in declared:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{what}: {m['name']} unit {got[m['name']]['unit']} "
                 f"!= {m['unit']}")
        if m.get("better") not in ("lower", "higher"):
            fail(f"{what}: {m['name']} has no direction")
        if not isinstance(got[m["name"]]["value"], (int, float)):
            fail(f"{what}: {m['name']} value is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    common = ["--seed", "7", "--seconds", "1", "--size", "tiny"]

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{w['name']} --trace {trace}"
            result = result_of(
                run(["--workload", w["name"], "--trace", str(trace)] + common),
                what)
            if not result["correct"] or result["failed"] != 0:
                fail(f"{what}: correct={result['correct']} "
                     f"failed={result['failed']}")
            check_names(result, bench[key], what)
            print(f"ok   {what}: {result['attempted']} repetitions, "
                  f"{len(result['metrics'])} metrics")

    # Repetition 2 is the first timed one (0 and 1 are the check runs of
    # the two inputs).
    what = "corrupted VCF"
    result = result_of(run(["--workload", "wgs_uniform", "--trace", "0",
                            "--corrupt-rep", "2"] + common), what)
    if result["correct"] or result["failed"] != 1:
        fail(f"{what}: correct={result['correct']} failed={result['failed']}"
             " (expected the corrupted repetition to count as failed)")
    print(f"ok   {what}: 1 of {result['attempted']} repetitions failed")

    what = "benchmark files only"
    bare = os.path.join(ROOT, ".bench_out", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    p = run(["--workload", "wgs_uniform", "--trace", "0"] + common, cwd=bare,
            timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"correct"' in p.stdout:
        fail(f"{what}: exit {p.returncode}, stdout {p.stdout[-300:]!r}")
    print(f"ok   {what}: exit {p.returncode}, no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
