"""Run the benchmark repeatedly and summarise the spread of each metric.

Run from the repository root:

    python3 perfbench/repeat.py --workload desk_paired --seeds 1-10
    python3 perfbench/repeat.py --workload full_all_algos --seeds 1-3 --threads 1,2

Each seed is one run of run.py (untraced).  For every end-to-end metric it
prints the median, the quartiles and the quartile spread (Q3 - Q1) as a
share of the median, next to a third of the metric's bound from
BENCHMARK.json, which is the spread a steady benchmark stays below.  With
``--threads`` each seed runs once per OpenBLAS thread count, alternating
which count goes first, and the summary is given per count.  Raw results
are saved to .perfbench/repeat-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import bench_stats


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--threads", help="comma list of OPENBLAS_NUM_THREADS values")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    threads = args.threads.split(",") if args.threads else [None]
    runs = {t: [] for t in threads}
    for k, seed in enumerate(_seeds(args.seeds)):
        for t in (threads if k % 2 == 0 else threads[::-1]):
            env = dict(os.environ)
            if t is not None:
                env["OPENBLAS_NUM_THREADS"] = t
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", f"{seconds:g}", "--trace", "0"],
                capture_output=True, text=True, env=env, timeout=900)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result.update(seed=seed, exit=done.returncode,
                          run_s=time.perf_counter() - start)
            runs[t].append(result)
            print(f"seed {seed} threads {t or 'default'}: exit {done.returncode} "
                  f"correct {result['correct']} in {result['run_s']:.1f}s "
                  + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                  flush=True)
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", f"repeat-{args.workload}.json"), "w") as fh:
        json.dump({str(t): r for t, r in runs.items()}, fh, indent=1)

    for t, results in runs.items():
        print(f"\n{args.workload}, threads {t or 'default'}, {len(results)} runs")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:14s} median {statistics.median(values):.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {bench_stats.quartile_spread(values):.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f})")
    return 0 if all(r["exit"] == 0 for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
