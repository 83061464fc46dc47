#!/usr/bin/env python3
"""seqamp benchmark: wall time of the harness's Monte-Carlo and SE items.

Run from the repository root:

    python3 perfbench/run.py --workload desk_paired --seed 1 --seconds 30 --trace 0

Load is a closed loop in one process: one item at a time, ``workers=1``,
OpenBLAS threads capped at nproc.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off.  With ``--trace 1`` each item runs
twice, untraced and traced in alternating order, and the run reports the
per-layer metrics of the traced copies, the tracing overhead, and whether
the two copies wrote byte-identical CSVs.  Either way every item's output
is checked (no error rows, finite values, converged SE fixpoints, quality
within tolerance of reference.json), a human-readable report goes first,
and the last line of standard output is one JSON object with the metrics
listed in BENCHMARK.json.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bench_env
import bench_stats
import bench_trace as bt
import bench_workloads as bw

SETUP_REPEATS = 5
WORK_DIR = ".perfbench"
# units of the report's metrics that BENCHMARK.json does not list
REPORT_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "se_points_per_s": "1/s",
                "item_s.tail": "s", "fail_ratio": "ratio", "nmse_h_gain_db": "dB",
                "dep_ratio": "ratio", "se_gain_db": "dB"}

# Import plus load_config in a fresh interpreter; prints seconds.
SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from seqamp import experiments
experiments.load_config(None, json.loads(sys.argv[2]), desk=sys.argv[3] == "1")
elapsed = time.perf_counter() - start
if not experiments.__file__.startswith(sys.argv[1]):
    sys.exit("seqamp imported from outside " + sys.argv[1])
print(elapsed)
"""


def measure_setup(workload, flags: dict) -> list[float]:
    """Seconds for import + load_config, once per fresh interpreter."""
    src = os.path.abspath("src")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, src, json.dumps(flags),
             "1" if workload.desk else "0"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class SeProbe:
    """Keeps the ``converged`` flag of every SE trace ``run_se`` computes.

    ``run_se`` drops the flag, so it is read where ``seqamp.experiments``
    looks up ``se_sequential_trace``.  Installed for untraced and traced
    runs alike, so it costs both the same.
    """

    def __init__(self, ex, patch):
        self.flags: list[bool] = []
        original = ex.se_sequential_trace

        def probed(*args, **kwargs):
            trace = original(*args, **kwargs)
            self.flags.append(bool(trace.converged))
            return trace

        patch.set(ex, "se_sequential_trace", probed)


def run_items(ex, workload, seed: int, seconds: float, csv_path: str, trace: bool,
              reference: dict):
    """The measured closed loop; returns per-item results and the recorder."""
    seeds = bw.item_seeds(workload, seed, reference)
    recorder = bt.Recorder() if trace else None
    items = []
    clock = time.perf_counter
    start = clock()
    while clock() - start < seconds:
        item_seed, index = next(seeds), len(items)
        item = {"seed": item_seed, "runs": {}, "errors": []}
        # traced runs alternate which copy goes first
        copies = (False,) if not trace else ((False, True) if index % 2 == 0
                                             else (True, False))
        for traced in copies:
            try:
                with bt.Patch() as patch:
                    if traced:
                        bt.install_tracing(recorder, patch)
                    item["runs"][traced] = bw.execute_item(
                        ex, workload, item_seed, csv_path, clock,
                        recorder if traced else None, index)
            except Exception:
                item["errors"].append(traceback.format_exc(limit=3))
        items.append(item)
    return items, clock() - start, recorder


def check_items(workload, items, reference, trace: bool):
    """Failed algorithm runs, failed checks, checked qualities, baseline CSV matches."""
    failed, problems, good, matches = 0, [], [], 0
    known = reference.get(workload.name, {})
    for item in items:
        tag = f"item seed {item['seed']}"
        if item["errors"] or False not in item["runs"]:
            failed += workload.runs_per_item
            problems += [f"{tag}: raised\n{e}" for e in item["errors"]]
            continue
        _, text, errors = item["runs"][False]
        quality, item_problems = bw.item_quality(workload, text)
        failed += len(item_problems)
        problems += [f"{tag}: {p}" for p in item_problems + errors]
        if trace and item["runs"][True][1] != text:
            problems.append(f"{tag}: traced CSV differs from the untraced CSV")
        if not item_problems:
            good.append((item["seed"], quality))
        matches += known.get(str(item["seed"]), {}).get("csv_sha256") == bw.csv_digest(text)
    if good:
        problems += [f"reference: {p}"
                     for p in bw.compare_to_reference(workload, good, reference)]
    return failed, problems, good, matches


def trace_report(recorder, items, times, problems, path) -> dict:
    """Per-layer metrics of the traced copies, plus overhead and shares."""
    layer = bt.layer_metrics(recorder.spans)
    traced = sum(it["runs"][True][0] for it in items if True in it["runs"])
    layer["trace.overhead_s"] = traced - sum(times)
    item_s = layer.get("trace.item_s", 0.0)
    self_sum = sum(layer.get(f"{name}.self_s", 0.0) for name in bt.LAYERS)
    if abs(self_sum - item_s) > 1e-9 * max(1.0, item_s):
        problems.append(f"layer self times sum to {self_sum}, traced items took {item_s}")
    bt.write_spans(recorder.spans, path)
    shares = {name: round(layer.get(f"{name}.self_s", 0.0) / item_s, 4)
              for name in bt.LAYERS} if item_s else {}
    print("layer shares of traced item time: " + json.dumps(shares))
    print(f"{len(recorder.spans)} spans written to {path}")
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqamp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(bw.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    trace = args.trace == 1

    bench_env.pin_blas_threads()
    try:
        ex = bench_env.import_experiments(os.getcwd())
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = bw.WORKLOADS[args.workload]
    reference = bw.load_reference()
    print(f"seqamp benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(bench_env.environment()))

    setup = [] if trace else measure_setup(workload, workload.flags(bw.POOL_BASE))
    bw.warm_up(ex)
    os.makedirs(WORK_DIR, exist_ok=True)
    csv_path = os.path.join(WORK_DIR, f"{workload.name}-{args.seed}-{os.getpid()}.csv")
    try:
        with bt.Patch() as probe_patch:
            probe = SeProbe(ex, probe_patch) if workload.kind == "se" else None
            bindings = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in bt.SITES}
            items, wall, recorder = run_items(ex, workload, args.seed, args.seconds,
                                              csv_path, trace, reference)
            leftover = [f"{m}.{a}" for (m, a), fn in bindings.items()
                        if getattr(sys.modules[m], a) is not fn]
    finally:
        if os.path.exists(csv_path):
            os.remove(csv_path)

    failed, problems, good, matches = check_items(workload, items, reference, trace)
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")
    if probe is not None and probe.flags.count(False):
        failed += probe.flags.count(False)
        problems.append(f"{probe.flags.count(False)} SE traces did not converge")
    attempted = max(1, len(items) * workload.runs_per_item)
    times = [it["runs"][False][0] for it in items if False in it["runs"]]

    units = dict(REPORT_UNITS,
                 **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    notes = {"item_s.p50": f"median of {len(times)} items"}
    points = len(items) * (1 if workload.kind == "mc" else len(bw.SE_POWERS_DBM))
    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "fail_ratio": failed / attempted}
    if not trace:   # a traced run's wall time holds two copies of each item
        metrics["wall_s"] = wall
        metrics["points_per_s"] = points / wall
        metrics["trials_per_s" if workload.kind == "mc" else "se_points_per_s"] = (
            metrics["points_per_s"])
    if times:
        metrics["item_s.p50"] = statistics.median(times)
        tail = bench_stats.tail_percentile(times)
        if tail:
            metrics["item_s.tail"] = tail[1]
            notes["item_s.tail"] = f"p{tail[0]:g} of {len(times)} items, {tail[2]} beyond"
        else:
            print(f"item_s.tail omitted: {len(times)} items leave fewer than "
                  f"{bench_stats.MIN_BEYOND} beyond the 90th percentile")
    if setup:
        metrics["setup_s"] = statistics.median(setup)
        notes["setup_s"] = f"median of {len(setup)} fresh interpreters"
    if good:
        metrics.update(bw.summary_quality(workload, [q for _, q in good]))
        print(f"CSVs byte-identical to the baseline reference: {matches}/{len(good)}")
    if trace:
        spans_path = os.path.join(WORK_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
        metrics.update(trace_report(recorder, items, times, problems, spans_path))
    for name in sorted(metrics):
        unit = units.get(name, "count")
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {metrics[name]:.6g} {unit}{note}")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not problems and failed == 0

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
