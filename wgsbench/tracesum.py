"""Summarize a Chrome trace written by `wgsbench run --trace`.

For every pipeline Process and every engine stage the summary gives:

- wall: the span's duration on the driver track;
- self: wall minus the time its direct children on the same track cover
  (for a Process this is work outside its engine stages, such as the
  FM-index build inside MyBwaMapping);
- busy: task time on the pool threads inside the span (the sum of clipped
  task-span durations; for a stage only tasks carrying its name count);
- idle: pool thread-time inside the span not spent in tasks, as a share of
  wall x threads.

Spans named "bench.*" are the benchmark's own calls (parsing, backend
construction, the pipeline call, the VCF write).
"""

import json

ROOT_SPAN = "bench.pipeline"


def load_events(path):
    with open(path) as f:
        doc = json.load(f)
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


def _end(span):
    return span["ts"] + span["dur"]


def _nest(spans):
    """Direct-children lists for spans of one track, by interval nesting."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
    children = {i: [] for i in order}
    stack = []
    for i in order:
        start = spans[i]["ts"]
        while stack and start >= _end(spans[stack[-1]]):
            stack.pop()
        if stack:
            children[stack[-1]].append(i)
        stack.append(i)
    return children


def _clipped(tasks, lo, hi):
    total = 0.0
    for t in tasks:
        a = max(lo, t["ts"])
        b = min(hi, _end(t))
        if b > a:
            total += b - a
    return total


def summarize(path, threads):
    """Returns a dict with per-Process and per-stage rows (seconds) and
    the totals the benchmark reports as trace.* metrics."""
    events = load_events(path)
    roots = [e for e in events if e["name"] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"{path}: expected one {ROOT_SPAN} span")
    root = roots[0]
    driver = root["tid"]
    lo, hi = root["ts"], _end(root)
    track = [e for e in events if e["tid"] == driver and
             e["cat"] in ("process", "stage", "parse") and
             e["ts"] >= lo and _end(e) <= hi + 1.0]
    children = _nest(track)
    tasks = [e for e in events if e["cat"] == "task"]

    def row(i, same_name_tasks):
        span = track[i]
        start, wall = span["ts"], span["dur"]
        covered = sum(track[c]["dur"] for c in children[i])
        pool = [t for t in tasks if t["name"] == span["name"]] \
            if same_name_tasks else tasks
        busy = _clipped(pool, start, start + wall)
        capacity = wall * threads
        return {
            "name": span["name"],
            "wall_s": wall / 1e6,
            "self_s": max(0.0, wall - covered) / 1e6,
            "busy_s": busy / 1e6,
            "idle_frac":
                max(0.0, 1.0 - busy / capacity) if capacity > 0 else 0.0,
        }

    processes, stages = [], []
    bench_self = 0.0
    for i, span in enumerate(track):
        if span["name"].startswith("bench."):
            covered = sum(track[c]["dur"] for c in children[i])
            bench_self += max(0.0, span["dur"] - covered) / 1e6
        elif span["cat"] == "process":
            processes.append(row(i, same_name_tasks=False))
        elif span["cat"] == "stage":
            stages.append(row(i, same_name_tasks=True))

    # Every microsecond of the root span is either inside a Process span
    # or is self time of a bench.* span (pipeline construction, plan
    # lowering, the VCF write), so these two add up to the traced wall.
    process_sum = sum(p["wall_s"] for p in processes)
    return {
        "threads": threads,
        "wall_s": root["dur"] / 1e6,
        "process_sum_s": process_sum,
        "bench_self_s": bench_self,
        "processes": processes,
        "stages": stages,
    }


def format_table(summary):
    lines = [f"{'span':<34} {'wall_s':>8} {'self_s':>8} {'busy_s':>8} "
             f"{'idle':>6}"]
    for kind in ("processes", "stages"):
        for r in summary[kind]:
            indent = "" if kind == "processes" else "  "
            lines.append(f"{indent + r['name']:<34} {r['wall_s']:8.4f} "
                         f"{r['self_s']:8.4f} {r['busy_s']:8.4f} "
                         f"{r['idle_frac']:6.1%}")
    lines.append(f"{'traced wall (bench.pipeline)':<34} "
                 f"{summary['wall_s']:8.4f}")
    lines.append(f"{'sum of Process walls':<34} "
                 f"{summary['process_sum_s']:8.4f}")
    lines.append(f"{'bench.* self time':<34} {summary['bench_self_s']:8.4f}")
    return "\n".join(lines)
