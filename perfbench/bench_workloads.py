"""The benchmark's workloads, their item seeds and the checks on their output.

An item is one ``run_experiment`` or ``run_se`` call, made exactly as the
``seqamp`` CLI makes it: ``load_config`` resolves a spec from flags, the
run function executes it with ``workers=1``, and ``write_csv`` /
``write_se_csv`` emits the CSV that is checked afterwards.

Item seeds come from a fixed pool per workload, so the quality of every
measured item can be checked against values recorded at the baseline
(``reference.json``, written by ``record_reference.py``).  The workload
seed picks where the walk over the pool starts; the pools are larger
than the number of items one run completes, so no run repeats an input
unless the machine is several times faster than the one the pools were
sized on.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import statistics
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "MC_ALGOS", "SE_POWERS_DBM", "item_seeds",
           "execute_item", "warm_up", "item_quality", "summary_quality",
           "compare_to_reference", "load_reference", "csv_digest"]

MC_ALGOS = ("s_amp", "amp_mmse", "amp_soft", "omp", "oracle_ls")
SE_POWERS_DBM = (27, 30, 33, 36)
POOL_BASE = 10_000          # pool seed k is POOL_BASE + k
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Allowed drift of run means from the baseline reference, per quality key.
# Refactors that only reorder floating-point work move these means by
# about 1e-14 dB; stopping AMP at a relative change of 1e-3 instead of
# 1e-6 moves them by 1e-3 dB and 1e-4 in DEP.  The bounds sit between, so
# a speed-up that does less work fails the check.  A single flipped
# decision in a desk run moves a mean DEP by about 2e-5.
TOL_DB = 2e-4        # NMSE and state-evolution levels, dB
TOL_DEP = 5e-5       # detection error probability, absolute
TOL_RATIO = 5e-4     # dep_ratio, relative


@dataclass(frozen=True)
class Workload:
    """One workload: which CLI spec an item resolves and how many seeds it has."""

    name: str
    kind: str                       # "mc" -> run_experiment, "se" -> run_se
    desk: bool                      # the CLI's --desk profile
    algorithms: tuple[str, ...]     # Monte-Carlo algorithms ("mc" only)
    pool_size: int

    def flags(self, item_seed: int) -> dict:
        """CLI flags of one item, as ``load_config`` takes them."""
        if self.kind == "se":
            return {"seed": item_seed,
                    "tx_power_dbm": ",".join(str(p) for p in SE_POWERS_DBM)}
        return {"seed": item_seed, "n_trials": 1,
                "algos": ",".join(self.algorithms)}

    @property
    def runs_per_item(self) -> int:
        """Algorithm runs (mc) or SE sweep points (se) in one item."""
        return len(SE_POWERS_DBM) if self.kind == "se" else len(self.algorithms)


WORKLOADS = {w.name: w for w in (
    Workload("desk_paired", "mc", True, ("s_amp", "amp_mmse"), 512),
    Workload("full_all_algos", "mc", False, MC_ALGOS, 32),
    Workload("se_sweep", "se", False, (), 48),
)}


def item_seeds(workload: Workload, seed: int, reference: dict):
    """Endless pool seeds, spread evenly over the pool's baseline item times.

    Item time depends on the input (AMP sweeps to converge, OMP
    selections), and a run completes only a handful of full-scale items, so
    a plain random draw makes a run's median swing with the seeds it
    happens to get.  Instead the pool is ranked by the item times stored in
    the reference and walked with a golden-ratio step from a start point
    drawn from ``seed``: any prefix of the walk covers the ranking evenly,
    fast and slow items alike.  The ranking rests on one timing per item,
    so it is approximate.  No seed repeats until the pool is used up.
    """
    times = {int(s): entry["item_s"] for s, entry in reference[workload.name].items()}
    ranked = sorted(times, key=lambda s: (times[s], s))
    start = random.Random(f"{workload.name}/{seed}").random()
    used: set[int] = set()
    for k in itertools.count():
        if len(used) == len(ranked):
            used.clear()
        rank = int((start + k * GOLDEN) % 1.0 * len(ranked))
        while rank in used:
            rank = (rank + 1) % len(ranked)
        used.add(rank)
        yield ranked[rank]


def execute_item(ex, workload: Workload, item_seed: int, csv_path: str,
                 clock, recorder=None, item_index: int | None = None):
    """Resolve, run and write one item the way the CLI does.

    ``ex`` is ``seqamp.experiments``.  Only the run call is timed; with a
    recorder, spans opened during that call belong to ``item_index``.
    Returns (seconds, CSV text, error lines reported by the run).
    """
    spec = ex.load_config(None, workload.flags(item_seed), desk=workload.desk)
    if recorder is not None:
        recorder.item = item_index
    try:
        start = clock()
        if workload.kind == "mc":
            records, errors = ex.run_experiment(spec)
        else:
            rows, errors = ex.run_se(spec), []
        elapsed = clock() - start
    finally:
        if recorder is not None:
            recorder.item = None
    if workload.kind == "mc":
        ex.write_csv(records, csv_path)
    else:
        ex.write_se_csv(rows, csv_path)
    with open(csv_path) as fh:
        return elapsed, fh.read(), errors


def warm_up(ex) -> None:
    """Run every code path once at desk size so lazy set-up is not timed."""
    spec = ex.load_config(None, {"seed": 1, "n_trials": 1,
                                 "algos": ",".join(MC_ALGOS)}, desk=True)
    ex.run_experiment(spec)
    ex.run_se(ex.load_config(None, {"seed": 1}, desk=True), n_samples=2000)


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def item_quality(workload: Workload, text: str):
    """(quality values, problems) of one item's CSV.

    A problem is an error row (NaN metrics), a non-finite value or a
    missing algorithm; each names the algorithm or SE point it hit.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    quality: dict[str, float] = {}
    problems: list[str] = []
    if workload.kind == "mc":
        for algo in workload.algorithms:
            mine = [r for r in rows if r["algorithm"] == algo]
            bad = [r["adt"] for r in mine
                   if not all(_finite(r[k]) for k in ("nmse_x_db", "nmse_h_db", "dep"))]
            total = [r for r in mine if r["adt"] == "all"]
            if bad or len(total) != 1:
                problems.append(f"{algo}: error or non-finite rows at adt {bad or 'all'}")
                continue
            for key in ("nmse_x_db", "nmse_h_db", "dep"):
                quality[f"{algo}.{key}"] = float(total[0][key])
        return quality, problems
    for power in SE_POWERS_DBM:
        for algo in ("s_amp", "amp_mmse"):
            mine = [r for r in rows
                    if r["algorithm"] == algo and float(r["tx_power_dbm"]) == power]
            if not mine or not all(_finite(r["nor_ct"]) and float(r["nor_ct"]) > 0
                                   for r in mine):
                problems.append(f"{algo} @ {power} dBm: missing or non-positive nor_ct")
                continue
            last = max(mine, key=lambda r: int(r["t"]))
            quality[f"{power}.{algo}.nor_last_db"] = 10.0 * math.log10(float(last["nor_ct"]))
    return quality, problems


def summary_quality(workload: Workload, qualities: list[dict]) -> dict[str, float]:
    """The headline quality metrics over a run's items.

    nmse_h_gain_db: mean over items of AMP-MMSE minus S-AMP channel NMSE.
    dep_ratio: mean S-AMP DEP over mean AMP-MMSE DEP.
    se_gain_db: mean over items and powers of 10*log10(c_static/c_seq) at
    the last ADT.
    """
    if workload.kind == "mc":
        gains = [q["amp_mmse.nmse_h_db"] - q["s_amp.nmse_h_db"] for q in qualities]
        dep_seq = statistics.fmean(q["s_amp.dep"] for q in qualities)
        dep_static = statistics.fmean(q["amp_mmse.dep"] for q in qualities)
        return {"nmse_h_gain_db": statistics.fmean(gains),
                "dep_ratio": dep_seq / dep_static if dep_static else float("nan")}
    gains = [q[f"{p}.amp_mmse.nor_last_db"] - q[f"{p}.s_amp.nor_last_db"]
             for q in qualities for p in SE_POWERS_DBM]
    return {"se_gain_db": statistics.fmean(gains)}


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _tolerance(key: str) -> float:
    return TOL_DEP if key.endswith(".dep") else TOL_DB


def compare_to_reference(workload: Workload, items: list[tuple[int, dict]],
                         reference: dict) -> list[str]:
    """Problems where the run's mean quality left the baseline's tolerance.

    ``items`` pairs each item seed with its quality values.  Means are
    taken over the run's items and over the reference values of the same
    seeds, so the comparison is exact at the baseline commit and tolerates
    rounding-level drift afterwards.
    """
    ref = reference.get(workload.name, {})
    missing = [s for s, _ in items if str(s) not in ref]
    if missing:
        return [f"no reference for item seeds {missing[:5]}"]
    refs = [ref[str(s)]["quality"] for s, _ in items]
    mine = [q for _, q in items]
    problems = []
    for key in refs[0]:
        got = statistics.fmean(q[key] for q in mine)
        want = statistics.fmean(r[key] for r in refs)
        if not abs(got - want) <= _tolerance(key):
            problems.append(f"{key}: mean {got:.6g}, reference {want:.6g}")
    got, want = summary_quality(workload, mine), summary_quality(workload, refs)
    for key, value in got.items():
        tol = TOL_RATIO * abs(want[key]) if key == "dep_ratio" else TOL_DB
        if not abs(value - want[key]) <= tol:
            problems.append(f"{key}: {value:.6g}, reference {want[key]:.6g}")
    return problems
