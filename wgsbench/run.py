#!/usr/bin/env python3
"""End-to-end WGS pipeline benchmark with per-layer attribution.

    python3 wgsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the GPF libraries and the wgsbench tool from source (into
.bench_build/ at the checkout root), simulates the workload's inputs from
the seed (untimed), then runs closed-loop repetitions of the real
`core::run_wgs_pipeline`, each in a fresh process, for S seconds.

--trace 0 prints the end-to-end metrics: two or three inputs (INPUTS), the
repetitions alternating between them, each metric the median of the
per-input medians.  --trace 1 prints the per-layer metrics from the first
input: half the time runs untraced repetitions, half runs traced ones
(TraceRecorder on, plus the tool's own bench.* spans), then the
single-threaded layer replay runs once.

Every repetition is an operation.  It fails when it exits non-zero, when
its VCF hash differs from its input's check run (one untimed repetition
on another backend or without --adaptive, see WORKLOADS), or when it
differs from the other repetitions of its input.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Without the GPF sources next to this directory the build fails and the
script exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
TOOL = os.path.join(BUILD, "wgsbench")
sys.path.insert(0, HERE)
import tracesum  # noqa: E402

# Spill budget: far below the ~10 MB a full-size run shuffles, so every
# shuffle block is encoded, written, evicted, mapped and decoded.
SPILL_BUDGET = "65536"
SPILL = ["--backend", "spill", "--store-budget", SPILL_BUDGET]
INPROCESS = ["--backend", "inprocess"]

# shape: which simulated inputs; run: how the timed repetitions run;
# check: the one untimed repetition whose VCF every timed one must match;
# spills: every timed repetition must write shuffle bytes to the store and
# evict some of them under the budget, or it did not run the path the
# workload exists for (the store writes every block at any budget; only
# evictions show that blocks left memory); inputs: see INPUTS.
WORKLOADS = {
    "wgs_uniform": {"shape": "uniform", "run": INPROCESS, "check": SPILL},
    "wgs_skew": {"shape": "skew", "run": INPROCESS + ["--adaptive"],
                 "check": INPROCESS, "inputs": 3},
    "wgs_spill": {"shape": "uniform", "run": SPILL, "check": INPROCESS,
                  "spills": True},
    "wgs_distributed": {"shape": "uniform",
                        "run": ["--backend", "distributed", "--workers", "2"],
                        "check": INPROCESS},
}

# A run whose VCF scores below this F1 against the simulator's truth is
# wrong, whatever its hashes say.  Skewed inputs leave the rest of the
# genome at about 7x, so their floor is lower; tiny inputs are the
# self-test's.
MIN_F1 = {("uniform", "full"): 0.85, ("skew", "full"): 0.70,
          ("uniform", "tiny"): 0.5, ("skew", "tiny"): 0.5}

# Inputs per --trace 0 run, each simulated from its own sub-seed.  Between
# seeds, the content of one input moves wall_s by 10-20% (IQR / median over
# ten seeds), while repetitions of one input differ by 2-5%.  So the timed
# repetitions alternate between the inputs and the run reports the median
# of the per-input medians.  wgs_skew takes three: its per-input wall has
# a heavy tail (a hard hot spot can add half), which the median of three
# drops.  The traced run uses the first input only.
INPUTS = 2

# Fewest repetitions per timed phase, even when S seconds run out first
# (the traced mode has two phases).
MIN_REPS = {0: 3, 1: 2}
# A repetition takes seconds; one still running after this has hung.
REP_TIMEOUT_S = 60

# The traced repetition's Process walls must add up to the untraced median
# wall within that repetition's tracing overhead plus this share of the
# wall (the benchmark's own spans: pipeline construction, VCF write).
ATTRIBUTION_SLACK = 0.05

# Metric names and units come from BENCHMARK.json.  Per-layer values come
# from the traced repetitions (median), the replay, or the trace summary.
REPLAY_PREFIXES = ("align.", "cleaner.", "caller.", "compress.")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("GPF sources (src/) not found next to wgsbench/")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "wgsbench",
                  "-j", jobs])
    with open(build_log, "w") as f:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
            if done.returncode:
                raise RuntimeError(f"build failed: {' '.join(cmd)} "
                                   f"(see {build_log})")


def tool(args, timeout=REP_TIMEOUT_S):
    """Runs the wgsbench tool in its own process group, so that worker
    processes it spawned are killed with it if it hangs."""
    # Temp files (if any layer makes them) stay inside the checkout.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with subprocess.Popen([TOOL] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, TMPDIR=tmp),
                          start_new_session=True) as p:
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            raise
    return subprocess.CompletedProcess(p.args, p.returncode, out, err)


def vcf_sites(path):
    """(contig, pos, ref, alt) of every non-header VCF row."""
    sites = set()
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            cols = line.rstrip("\n").split("\t")
            for alt in cols[4].split(","):
                sites.add((cols[0], cols[1], cols[3], alt))
    return sites


def f1_score(called, truth):
    tp = len(called & truth)
    if tp == 0:
        return 0.0
    precision = tp / len(called)
    recall = tp / len(truth)
    return 2 * precision * recall / (precision + recall)


class Runner:
    """Runs repetitions of one workload and keeps their outcomes."""

    def __init__(self, work, corrupt_rep):
        self.work = work
        self.corrupt_rep = corrupt_rep
        # dicts: inputs, ok, hash, metrics, trace, vcf, error, label
        self.reps = []

    @staticmethod
    def warm_inputs(inputs):
        """Reads the inputs once so that set-up parses from the page cache:
        setup_s measures parsing, not the disk."""
        for name in os.listdir(inputs):
            with open(os.path.join(inputs, name), "rb") as f:
                while f.read(1 << 20):
                    pass

    def run(self, inputs, args, label, trace=False):
        n = len(self.reps)
        self.warm_inputs(inputs)
        vcf = os.path.join(self.work, f"rep{n}.vcf")
        metrics = os.path.join(self.work, f"rep{n}.json")
        trace_path = os.path.join(self.work, f"rep{n}.trace.json")
        spill = os.path.join(self.work, f"spill{n}")
        cmd = ["run", "--in", inputs, "--out", vcf, "--metrics", metrics,
               "--spill-dir", spill] + args
        if trace:
            cmd += ["--trace", trace_path]
        rep = {"inputs": inputs, "ok": False, "hash": None, "metrics": None,
               "label": label, "trace": trace_path if trace else None,
               "vcf": vcf, "error": None}
        try:
            p = tool(cmd)
            if p.returncode != 0:
                rep["error"] = f"exit {p.returncode}: {p.stderr.strip()[-300:]}"
            else:
                if self.corrupt_rep == n:
                    # Self-test hook: damage this repetition's output the
                    # way a torn or wrong write would.
                    with open(vcf, "r+b") as f:
                        f.seek(-2, os.SEEK_END)
                        f.write(b"X\n")
                with open(vcf, "rb") as f:
                    rep["hash"] = hashlib.sha256(f.read()).hexdigest()
                with open(metrics) as f:
                    rep["metrics"] = json.load(f)
                rep["ok"] = True
        except (subprocess.TimeoutExpired, OSError, ValueError) as e:
            rep["error"] = repr(e)
        shutil.rmtree(spill, ignore_errors=True)
        self.reps.append(rep)
        return rep

    def run_for(self, inputs, args, seconds, min_reps, label, trace=False):
        """Closed loop over the input directories in turn."""
        start = time.monotonic()
        done = []
        while len(done) < min_reps or time.monotonic() - start < seconds:
            done.append(self.run(inputs[len(done) % len(inputs)], args, label,
                                 trace))
        return done


def judge(reps, check_hash, spills):
    """Marks each repetition failed or not; returns the failure count."""
    hashes = [r["hash"] for r in reps if r["ok"]]
    modal = max(set(hashes), key=hashes.count) if hashes else None
    reference = check_hash if check_hash is not None else modal
    failed = 0
    for r in reps:
        r["failed"] = (not r["ok"]) or r["hash"] != reference \
            or r["hash"] != modal
        if spills and r["ok"] and r["label"] != "check" and (
                r["metrics"]["store.bytes_spilled"] <= 0
                or r["metrics"]["store.residency_evictions"] <= 0):
            r["failed"] = True
            r["error"] = "no shuffle block was spilled and evicted"
        failed += r["failed"]
    return failed


def median_of(reps, name):
    values = [r["metrics"][name] for r in reps
              if r["ok"] and name in r["metrics"]]
    return statistics.median(values) if values else 0.0


def describe(values):
    values = sorted(values)
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return (f"n={len(values)} min={values[0]:.4f} q1={q[0]:.4f} "
            f"median={statistics.median(values):.4f} q3={q[2]:.4f} "
            f"max={values[-1]:.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (wgsbench/selftest.py).
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-rep", type=int, default=-1,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]

    try:
        build()
    except RuntimeError as e:
        log(str(e))
        return 1

    work = os.path.join(OUT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work, args.corrupt_rep)
    inputs = []
    n_inputs = spec.get("inputs", INPUTS)
    for i in range(n_inputs if args.trace == 0 else 1):
        d = os.path.join(work, f"input{i}")
        gen = tool(["gen", "--out", d, "--seed", str(args.seed * n_inputs + i),
                    "--shape", spec["shape"], "--size", args.size])
        if gen.returncode != 0:
            log(f"input generation failed: {gen.stderr.strip()}")
            return 1
        print(f"input {i}: {gen.stdout.strip()}")
        inputs.append(d)

    checks = [runner.run(d, spec["check"], "check") for d in inputs]
    if args.trace == 0:
        timed = runner.run_for(inputs, spec["run"], args.seconds,
                               MIN_REPS[0], "timed")
    else:
        untraced = runner.run_for(inputs, spec["run"], args.seconds / 2,
                                  MIN_REPS[1], "untraced")
        traced = runner.run_for(inputs, spec["run"], args.seconds / 2,
                                MIN_REPS[1], "traced", trace=True)
        replay_metrics = os.path.join(work, "replay.json")
        replay = tool(["replay", "--in", inputs[0], "--metrics",
                       replay_metrics, "--trace",
                       os.path.join(work, "replay.trace.json")])

    failed = 0
    for d, check in zip(inputs, checks):
        failed += judge([r for r in runner.reps if r["inputs"] == d],
                        check["hash"] if check["ok"] else None,
                        spec.get("spills", False))
    attempted = len(runner.reps)
    for r in runner.reps:
        if r["failed"]:
            log(f"failed {r['label']} repetition: "
                f"{r['error'] or 'VCF hash ' + str(r['hash'])[:16]}")

    # Per input: F1 of its VCF against its truth, and, with the timed
    # median, a comparison with its check run.  The check run is the
    # workload's baseline configuration: static scheduling on wgs_skew,
    # the in-process backend on spill and distributed, the spill backend
    # on uniform.
    f1s, wall_vs_check = [], []
    for i, (d, check) in enumerate(zip(inputs, checks)):
        good = [r for r in runner.reps if r["inputs"] == d and not r["failed"]]
        f1 = 0.0
        if good:
            truth = vcf_sites(os.path.join(d, "truth.vcf"))
            f1 = f1_score(vcf_sites(good[0]["vcf"]), truth)
        f1s.append(f1)
        print(f"input {i} check run ({' '.join(spec['check'])}): "
              f"{'ok' if check['ok'] else check['error']}; VCF sha256 "
              f"{str(check['hash'])[:16]}; variant F1 {f1:.4f}")
        timed_ok = [r for r in good if r["label"] in ("timed", "untraced")]
        if check["ok"] and timed_ok:
            wall_vs_check.append(median_of(timed_ok, "wall_s") /
                                 check["metrics"]["wall_s"])
            print(f"input {i} timed median vs check run: " + "; ".join(
                f"{name} {median_of(timed_ok, name):.4g} vs "
                f"{check['metrics'][name]:.4g}"
                for name in ("wall_s", "core.MyHaplotypeCaller.wall_s",
                             "sched.caller.tasks", "sched.adaptive_merges")))
    correct = failed == 0 and min(f1s) >= MIN_F1[spec["shape"], args.size]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    metrics = {}
    if args.trace == 0:
        ok = [r for r in timed if not r["failed"]]
        for m in declared["end_to_end"]:
            name = m["name"]
            if name == "variant_f1":
                value = statistics.median(f1s)
            else:
                value = statistics.median(
                    median_of([r for r in ok if r["inputs"] == d], name)
                    for d in inputs)
                print(f"{name}: {describe([r['metrics'][name] for r in ok])}")
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        if replay.returncode != 0:
            log(f"layer replay failed: {replay.stderr.strip()}")
            correct = False
            replay_values = {}
        else:
            with open(replay_metrics) as f:
                replay_values = json.load(f)
        ok_traced = [r for r in traced if not r["failed"]]
        ok_untraced = [r for r in untraced if not r["failed"]]
        untraced_wall = median_of(ok_untraced, "wall_s")
        traced_wall = median_of(ok_traced, "wall_s")
        summary = None
        if ok_traced:
            # Summarize the traced repetition with the median wall.
            by_wall = sorted(ok_traced, key=lambda r: r["metrics"]["wall_s"])
            pick = by_wall[(len(by_wall) - 1) // 2]
            try:
                summary = tracesum.summarize(
                    pick["trace"], int(pick["metrics"]["engine.threads"]))
            except (OSError, ValueError, KeyError) as e:
                log(f"trace summary failed: {e!r}")
                correct = False
                summary = None
        if summary and untraced_wall:
            # Attribution: the summarized repetition's Process spans
            # account for the untraced wall, up to what tracing added to
            # that repetition.  Its own overhead, not the median's, because
            # two traced repetitions can differ by several percent.
            gap = abs(summary["process_sum_s"] - untraced_wall) / untraced_wall
            overhead = pick["metrics"]["wall_s"] / untraced_wall - 1.0
            limit = abs(overhead) + ATTRIBUTION_SLACK
            print(f"attribution: |Process sum - untraced wall| = {gap:.4f} "
                  f"of the wall, limit {limit:.4f}")
            if gap > limit:
                log("traced Process walls do not add up to the untraced "
                    "wall")
                correct = False
        if summary:
            print(tracesum.format_table(summary))
            with open(os.path.join(work, "trace_summary.json"), "w") as f:
                json.dump(summary, f, indent=1)
        derived = {
            "ratio.wall_vs_check": wall_vs_check[0] if wall_vs_check else 0.0,
            "trace.overhead_frac":
                traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
            "trace.wall_s": summary["wall_s"] if summary else 0.0,
            "trace.process_sum_s":
                summary["process_sum_s"] if summary else 0.0,
            "trace.bench_self_s": summary["bench_self_s"] if summary else 0.0,
            "trace.attributed_frac":
                summary["process_sum_s"] / summary["wall_s"]
                if summary and summary["wall_s"] else 0.0,
        }
        for m in declared["per_layer"]:
            name = m["name"]
            if name in derived:
                value = derived[name]
            elif name.startswith(REPLAY_PREFIXES):
                value = replay_values.get(name)
            elif ok_traced and name in ok_traced[0]["metrics"]:
                value = median_of(ok_traced, name)
            else:
                value = None
            if value is None:
                log(f"no value for {name}")
                correct = False
                value = 0.0
            metrics[name] = {"value": value, "unit": m["unit"]}
        if replay_values:
            print("replay work counts: " + ", ".join(
                f"{k}={v:g}" for k, v in replay_values.items()
                if k not in metrics))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
