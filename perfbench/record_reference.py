"""Record the baseline quality of every pool item into reference.json.

Run from the repository root, at the commit that defines the baseline:

    python3 perfbench/record_reference.py                  # all workloads
    python3 perfbench/record_reference.py --workload se_sweep

For each pool seed it runs the item exactly as the benchmark does and
stores the item's quality values, the SHA-256 of its CSV and its time.
The benchmark checks that a run's mean quality stays within tolerance of
these values (see bench_workloads.compare_to_reference), and walks the
pool in the order of these times (see bench_workloads.item_seeds).  Run
it on an otherwise idle machine, since the times set that order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import bench_env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to record (repeatable; default all)")
    args = parser.parse_args(argv)

    bench_env.pin_blas_threads()
    ex = bench_env.import_experiments(os.getcwd())
    import bench_workloads as bw

    names = args.workload or list(bw.WORKLOADS)
    reference = (bw.load_reference() if os.path.exists(bw.REFERENCE_PATH) else {})
    os.makedirs(".perfbench", exist_ok=True)
    csv_path = os.path.join(".perfbench", f"reference-{os.getpid()}.csv")
    bw.warm_up(ex)
    try:
        for name in names:
            workload = bw.WORKLOADS[name]
            entries = {}
            for k in range(workload.pool_size):
                seed = bw.POOL_BASE + k
                elapsed, text, errors = bw.execute_item(
                    ex, workload, seed, csv_path, time.perf_counter)
                quality, problems = bw.item_quality(workload, text)
                if problems or errors:
                    print(f"{name} seed {seed}: {problems + errors}", file=sys.stderr)
                    return 1
                entries[str(seed)] = {"quality": quality, "item_s": elapsed,
                                      "csv_sha256": bw.csv_digest(text)}
                print(f"{name} {seed} {elapsed:.4f}", flush=True)
            reference[name] = entries
    finally:
        if os.path.exists(csv_path):
            os.remove(csv_path)
    with open(bw.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
