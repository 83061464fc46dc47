"""Outside-in tracing of seqamp: spans around the package's public functions.

Nothing in the package is instrumented.  Instead, :class:`Patch` replaces a
function with a timing wrapper at every place it is looked up: seqamp's
modules import names (``from .amp import amp_run``), so
``seqamp.sequential.amp_run`` and ``seqamp.amp.amp_run`` are separate
bindings and the wrapper must sit on the one the caller reads.  Every
replacement is undone by :meth:`Patch.restore`.

Spans are kept in memory by :class:`Recorder` and aggregated into
per-layer metrics by :func:`layer_metrics`.  A layer's self time is the
time its spans were open minus the part covered by their child spans, so
the self times of all spans inside an item add up to the item's time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Recorder", "Patch", "SITES", "LAYERS", "METRICS",
           "install_tracing", "self_times", "layer_metrics", "write_spans"]


@dataclass
class Span:
    """One timed call: layer and function name, interval, parent, counts."""

    layer: str
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None   # index of the enclosing span, None at the root
    item: int | None = None     # benchmark item the call belongs to
    counts: dict = field(default_factory=dict)


class Recorder:
    """In-memory span list with a stack of the spans currently open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.item: int | None = None   # set by the benchmark around each item
        self._open: list[int] = []

    def open(self, layer: str, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(layer, name, self.clock(), parent=parent,
                               item=self.item))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError("spans must close in the order they opened")
        self._open.pop()
        self.spans[index].end = self.clock()

    def wrap(self, layer: str, name: str, fn, count=None):
        """Timing wrapper around ``fn``; ``count(result, args, kwargs)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                self.spans[index].counts = count(result, args, kwargs)
            return result

        return traced


class Patch:
    """Replaces module attributes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _amp_counts(state, args, kwargs):
    s_mat, cfg = _arg(args, kwargs, 1, "s_mat"), _arg(args, kwargs, 3, "cfg")
    sweeps = state.iter
    # two products per sweep (S^H z and S mu) plus the final phi refresh
    matvecs = 2 * sweeps + (1 if sweeps > 0 else 0)
    return {"sweeps": sweeps, "cap_hit": int(sweeps >= cfg.amp_iters),
            "matvecs": matvecs, "matvec_bytes": matvecs * s_mat.nbytes}


def _denoiser_counts(result, args, kwargs):
    return {"elements": int(getattr(_arg(args, kwargs, 0, "phi"), "size", 1))}


def _soft_counts(result, args, kwargs):
    return {"sweeps": result.iterations}


def _omp_counts(result, args, kwargs):
    return {"selections": result.iterations,
            "rank_limit_hits": int(result.hit_rank_limit)}


def _fixpoint_counts(result, args, kwargs):
    return {"iters": result.iters, "nonconverged": int(not result.converged)}


def _se_trace_counts(result, args, kwargs):
    return {"samples": result.n_samples}


def _csv_counts(result, args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (module, attribute, layer, counter): every binding a traced call goes through.
SITES = (
    ("seqamp.experiments", "load_config", "config", None),
    ("seqamp.experiments", "run_experiment", "experiments", None),
    ("seqamp.experiments", "run_se", "experiments", None),
    ("seqamp.experiments", "write_csv", "experiments", _csv_counts),
    ("seqamp.experiments", "write_se_csv", "experiments", _csv_counts),
    ("seqamp.experiments", "make_scenario", "scenario", None),
    ("seqamp.experiments", "s_amp_run", "sequential", None),
    ("seqamp.experiments", "detect_sequence", "detection", None),
    ("seqamp.experiments", "detection_counts", "detection", None),
    ("seqamp.experiments", "se_sequential_trace", "state_evolution", _se_trace_counts),
    # amp_mmse is the S-AMP loop with propagation off, not a baseline
    ("seqamp.baselines", "amp_mmse", "sequential", None),
    ("seqamp.baselines", "amp_soft", "baselines", _soft_counts),
    ("seqamp.baselines", "omp", "baselines", _omp_counts),
    ("seqamp.baselines", "oracle_ls", "baselines", None),
    ("seqamp.baselines", "calibrate_soft_alpha", "baselines", None),
    ("seqamp.baselines", "metric_nmse", "detection", None),
    ("seqamp.sequential", "amp_run", "amp", _amp_counts),
    ("seqamp.sequential", "posterior_update", "sequential", None),
    ("seqamp.sequential", "channel_vars", "scenario", None),
    ("seqamp.sequential", "ar_coeffs", "scenario", None),
    ("seqamp.amp", "denoise_mean", "denoiser", _denoiser_counts),
    ("seqamp.amp", "denoise_var", "denoiser", _denoiser_counts),
    ("seqamp.amp", "denoise_deriv", "denoiser", _denoiser_counts),
    ("seqamp.scenario", "stream", "rng", None),
    ("seqamp.scenario", "gen_user_profiles", "scenario", None),
    ("seqamp.state_evolution", "se_fixpoint", "state_evolution", _fixpoint_counts),
    ("seqamp.state_evolution", "se_step", "state_evolution", None),
    ("seqamp.state_evolution", "denoise_mean", "denoiser", _denoiser_counts),
    ("seqamp.state_evolution", "gen_user_profiles", "scenario", None),
    ("seqamp.state_evolution", "markov_activity", "scenario", None),
    ("seqamp.state_evolution", "ar1_channels", "scenario", None),
    ("seqamp.state_evolution", "stream", "rng", None),
    ("seqamp.state_evolution", "moment_match", "sequential", None),
)

# layers whose self times add up to an item's time
LAYERS = ("experiments", "scenario", "rng", "sequential", "amp", "denoiser",
          "detection", "baselines", "state_evolution")

# every metric layer_metrics reports, zero where a workload skips the layer
METRICS = (
    "amp.runs", "amp.sweeps", "amp.sweeps_per_run", "amp.cap_hits",
    "amp.converged_ratio", "amp.matvecs", "amp.matvec_gb_computed",
    "denoiser.calls", "denoiser.calls_per_sweep", "denoiser.elements",
    "baselines.amp_soft.sweeps", "baselines.amp_soft.self_s",
    "baselines.omp.selections", "baselines.omp.rank_limit_hits",
    "baselines.omp.self_s", "baselines.oracle_ls.self_s",
    "baselines.calibrate.self_s",
    "state_evolution.fixpoints", "state_evolution.fixpoint_iters",
    "state_evolution.nonconverged", "state_evolution.step_self_s",
    "state_evolution.samples",
    "scenario.calls", "scenario.profiles_s", "rng.streams",
    "sequential.posterior_updates",
    "experiments.csv_bytes", "experiments.csv_write_s", "config.load_s",
    "trace.items", "trace.item_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS)


def install_tracing(recorder: Recorder, patch: Patch, sites=SITES) -> None:
    """Wrap every site with a span of ``recorder``; ``patch`` undoes it."""
    for module_name, attr, layer, count in sites:
        module = importlib.import_module(module_name)
        patch.set(module, attr, recorder.wrap(layer, attr, getattr(module, attr), count))


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(spans[k].start, span.start), min(spans[k].end, span.end))
                   for k in kids]
        out.append((span.end - span.start)
                   - _covered((a, b) for a, b in clipped if b > a))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times; self times count only spans inside items.

    Ratios whose base is zero (a layer the workload never calls) read 0.
    """
    selfs = self_times(spans)
    m: dict[str, float] = dict.fromkeys(METRICS, 0.0)
    m["denoiser.amp_calls"] = 0.0
    loads = []
    for span, own in zip(spans, selfs):
        duration = span.end - span.start
        if span.item is None:            # spec loading and CSV writing
            if span.layer == "config":
                loads.append(duration)
            elif span.name in ("write_csv", "write_se_csv"):
                m["experiments.csv_write_s"] += duration
                m["experiments.csv_bytes"] += span.counts.get("bytes", 0)
            continue
        m[f"{span.layer}.self_s"] += own
        c = span.counts
        if span.parent is None:
            m["trace.items"] += 1
            m["trace.item_s"] += duration
        if span.layer == "amp":
            m["amp.runs"] += 1
            m["amp.sweeps"] += c.get("sweeps", 0)
            m["amp.cap_hits"] += c.get("cap_hit", 0)
            m["amp.matvecs"] += c.get("matvecs", 0)
            m["amp.matvec_gb_computed"] += c.get("matvec_bytes", 0) / 1e9
        elif span.layer == "denoiser":
            m["denoiser.calls"] += 1
            m["denoiser.elements"] += c.get("elements", 0)
            if span.parent is not None and spans[span.parent].layer == "amp":
                m["denoiser.amp_calls"] += 1
        elif span.name == "amp_soft":
            m["baselines.amp_soft.sweeps"] += c.get("sweeps", 0)
            m["baselines.amp_soft.self_s"] += own
        elif span.name == "omp":
            m["baselines.omp.selections"] += c.get("selections", 0)
            m["baselines.omp.rank_limit_hits"] += c.get("rank_limit_hits", 0)
            m["baselines.omp.self_s"] += own
        elif span.name == "oracle_ls":
            m["baselines.oracle_ls.self_s"] += own
        elif span.name == "calibrate_soft_alpha":
            m["baselines.calibrate.self_s"] += own
        elif span.name == "se_fixpoint":
            m["state_evolution.fixpoints"] += 1
            m["state_evolution.fixpoint_iters"] += c.get("iters", 0)
            m["state_evolution.nonconverged"] += c.get("nonconverged", 0)
        elif span.name == "se_step":
            m["state_evolution.step_self_s"] += own
        elif span.name == "se_sequential_trace":
            m["state_evolution.samples"] += c.get("samples", 0)
        elif span.name == "make_scenario":
            m["scenario.calls"] += 1
        elif span.name == "gen_user_profiles":
            m["scenario.profiles_s"] += duration
        elif span.layer == "rng":
            m["rng.streams"] += 1
        elif span.name == "posterior_update":
            m["sequential.posterior_updates"] += 1
    m["amp.sweeps_per_run"] = _ratio(m["amp.sweeps"], m["amp.runs"])
    m["amp.converged_ratio"] = _ratio(m["amp.runs"] - m["amp.cap_hits"], m["amp.runs"])
    m["denoiser.calls_per_sweep"] = _ratio(m.pop("denoiser.amp_calls"), m["amp.sweeps"])
    m["config.load_s"] = statistics.median(loads) if loads else 0.0
    return m


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per span, in the order the spans opened."""
    with open(path, "w") as fh:
        for index, s in enumerate(spans):
            fh.write(json.dumps({
                "id": index, "parent": s.parent, "item": s.item, "layer": s.layer,
                "name": s.name, "start": s.start, "end": s.end, **s.counts,
            }) + "\n")
