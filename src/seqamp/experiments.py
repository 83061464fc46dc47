"""Experiment harness: config parsing, seeded sweeps, CSV emission.

The config file is line-oriented ``key = value`` text with ``#`` comments.
Keys are the SystemConfig fields (``lambda`` maps to the ``lam`` field;
``r0`` sets ``r_scale = 1/2**r0``); a value reads as an int, or else a
float, and SystemConfig types and checks every field.  Exactly one of the
``SWEEP_KEYS`` may carry a comma-separated list, which becomes the sweep
axis.  CLI flags override file values, which override defaults.  The file,
or the flags, may give each setting only once; ``r0`` and ``r_scale``
spell one setting, and a flag for either replaces the file's.

Every (sweep point, trial) pair owns hash-derived streams, all requested
algorithms consume the identical Scenario (paired comparison), and rows are
sorted deterministically before writing, so a repeated run with the same
config and seed produces a byte-identical CSV.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import baselines
from .config import SystemConfig, desk_config, parse_number
from .detection import dep_from_counts, detect_sequence, detection_counts, nmse_db
from .scenario import Scenario, make_scenario
from .sequential import s_amp_run
from .state_evolution import (NOR_REF_DBM, SE_SWEEP_KEYS, SE_TRACE_SAMPLES, se_draws,
                              se_sequential_trace)

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "MetricsRecord",
    "load_config",
    "run_experiment",
    "run_se",
    "write_csv",
    "write_se_csv",
    "ALGORITHMS",
    "SCALAR_KEYS",
    "CONFIG_KEYS",
    "SWEEP_KEYS",
    "check_se_axis",
]

ALGORITHMS = ("s_amp", "amp_mmse", "amp_soft", "omp", "oracle_ls")
SWEEP_KEYS = ("tx_power_dbm", "pilot_len", "r0", "lambda", "adp_duration_s")
CSV_HEADER = "sweep_axis,sweep_value,algorithm,adt,nmse_x_db,nmse_h_db,dep,trials,seed"
SE_CSV_HEADER = "t,algorithm,nor_ct,pilot_len,tx_power_dbm"
CALIBRATION_TRIAL = -1  # held-out trial index for soft-threshold tuning
# ADTs per OMP call: a block shares one GEMM over S per round, but keeps its
# columns' QR bases resident at once (about 60 rows of L each at full
# scale), so the block size trades S's passes against peak memory
_OMP_BLOCK_ADTS = 10

# SystemConfig fields whose config keys differ from the field name:
# ``lambda`` sets ``lam``, and ``r0`` is a second spelling of ``r_scale``
# (r_scale = 1/2**r0).  Every other field is keyed by its own name.
_FIELD_KEYS = {"lam": ("lambda",), "r_scale": ("r_scale", "r0")}
_KEY_FIELD = {key: name for name, keys in _FIELD_KEYS.items() for key in keys}
SCALAR_KEYS = tuple(key for f in fields(SystemConfig)
                    for key in _FIELD_KEYS.get(f.name, (f.name,)))
# every config key: the SystemConfig keys, then the two string keys
CONFIG_KEYS = SCALAR_KEYS + ("algos", "out")


class ConfigError(ValueError):
    """Malformed or contradictory experiment configuration."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A resolved experiment: base config, one optional sweep axis, outputs.

    ``out`` is the CSV path; None leaves the choice to the command, which
    writes ``results.csv`` for ``run`` and ``se_trace.csv`` for ``se``.
    Each sweep point's config is built once, here, as ``base`` with the
    axis field replaced; SystemConfig refuses a point whose powers the
    kernels cannot carry.  ``base`` is the first point that builds.
    """

    base: SystemConfig
    axis: str | None = None
    values: tuple = ()
    algorithms: tuple[str, ...] = ("s_amp", "amp_mmse")
    out: str | None = None
    workers: int = 1
    _points: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ConfigError(f"unknown algorithm(s): {', '.join(bad)}")
        if self.axis is None and self.values:
            raise ConfigError("sweep values given without a sweep axis")
        if self.axis is not None and self.axis not in SWEEP_KEYS:
            raise ConfigError(f"{self.axis} is not a sweepable key")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ConfigError(f"algorithm listed twice: {', '.join(self.algorithms)}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.out == "":
            raise ConfigError("out is empty: give a CSV path or leave out unset")
        if self.axis is not None and not self.values:
            raise ConfigError(f"sweep axis {self.axis} has no values")
        points = {}  # each point's config -> the value it runs at: its field, or float(r0)
        for value in self.values:
            try:
                cfg = self.base.with_(**_field_values({self.axis: value}))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"sweep point {self.axis} = {value}: {exc}") from exc
            if cfg in points:
                raise ConfigError(f"sweep point {self.axis} = {value} repeats {points[cfg]}")
            points[cfg] = (float(value) if self.axis == "r0"
                           else getattr(cfg, _KEY_FIELD.get(self.axis, self.axis)))
        object.__setattr__(self, "_points", points)

    @property
    def label(self) -> str:
        """The sweep axis as rows and error lines name it; "none" without one."""
        return self.axis or "none"

    def sweep_points(self) -> list[tuple[object, SystemConfig]]:
        """The (value, config) pairs built with the spec; (0, base) without an axis."""
        return [(v, cfg) for cfg, v in self._points.items()] or [(0, self.base)]


@dataclass(frozen=True)
class MetricsRecord:
    sweep_axis: str
    sweep_value: object
    algorithm: str
    adt: object              # 1-based int or "all"
    nmse_x_db: float
    nmse_h_db: float
    dep: float
    trials: int
    wall_time_s: float
    seed: int


def _field_values(entries: dict) -> dict:
    """SystemConfig field values of scalar config ``entries``; ``r0`` becomes ``r_scale``."""
    values = {_KEY_FIELD.get(key, key): val for key, val in entries.items()}
    if "r0" in entries:
        try:
            values["r_scale"] = 1.0 / 2.0 ** float(entries["r0"])
        except (OverflowError, ZeroDivisionError):
            raise ConfigError(f"r0 = {entries['r0']} is out of range") from None
    return values


def _parse_scalar(key: str, text: str, where: str):
    if key not in SCALAR_KEYS:
        return text
    try:
        return parse_number(text)
    except ValueError:
        raise ConfigError(f"{where}: malformed value {text!r} for key {key!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into the entries of :func:`_entries`."""
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        items.append((key.strip(), value.strip(), f"line {lineno}"))
    return _entries(items)


def _entries(items) -> dict:
    """{setting: (key, value, where)} from one source's (key, text, where) triples.

    Values are parsed, lists for sweeps.  A source gives each setting once:
    r0 and r_scale spell one setting, every other key is its own, and a
    second key for a setting is a ConfigError naming both places.
    """
    entries: dict = {}
    for key, text, where in items:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        setting = "r_scale" if key in _FIELD_KEYS["r_scale"] else key
        if setting in entries:
            first_key, _, first = entries[setting]
            raise ConfigError(f"{setting} set twice: {first} ({first_key}) and "
                              f"{where} ({key})")
        entries[setting] = (key, _parse_entry(key, text, where), where)
    return entries


def _parse_entry(key: str, value: str, where: str):
    if "," in value and key in SCALAR_KEYS:
        if key not in SWEEP_KEYS:
            raise ConfigError(f"{where}: key {key!r} does not accept a list")
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{where}: empty list for key {key!r}")
        return [_parse_scalar(key, p, where) for p in parts]
    return _parse_scalar(key, value, where)


def _build_spec(entries: dict, desk: bool, workers: int) -> ExperimentSpec:
    defaults = desk_config() if desk else SystemConfig()
    sweeps = [key for key, val in entries.items() if isinstance(val, list)]
    if len(sweeps) > 1:
        raise ConfigError(f"two sweep axes given ({sweeps[0]} and {sweeps[1]}); "
                          "exactly one is allowed")
    axis = sweeps[0] if sweeps else None
    values = tuple(entries[axis]) if sweeps else ()
    # base: the first point that builds; points all failing alike blame a fixed setting
    fixed = {key: val for key, val in entries.items() if key in SCALAR_KEYS and key != axis}
    errors = []
    for point in [{axis: value} for value in values] or [{}]:
        try:
            base = defaults.with_(**_field_values({**fixed, **point}))
            break
        except (TypeError, ValueError) as exc:
            errors.append(exc)
    else:
        alike = len({str(exc) for exc in errors}) == 1
        point = "" if alike else f"sweep point {axis} = {values[0]}: "
        raise ConfigError(f"{point}{errors[0]}") from errors[0]
    algorithms = ExperimentSpec.algorithms
    if "algos" in entries:
        algorithms = tuple(a.strip() for a in entries["algos"].split(",") if a.strip())
    return ExperimentSpec(base, axis, values, algorithms, entries.get("out"), workers)


def load_config(path: str | None = None, flags: dict | None = None,
                desk: bool = False, workers: int = 1) -> ExperimentSpec:
    """Resolve an ExperimentSpec from defaults <- desk <- file <- flags."""
    entries: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        entries = parse_config_text(text)
    # a flag replaces the file's value of its setting, under either spelling
    entries.update(_entries((key, str(value), f"flag --{key}")
                            for key, value in (flags or {}).items() if value is not None))
    return _build_spec({key: val for key, val, _ in entries.values()}, desk, workers)


# ---------------------------------------------------------------------------
# sweep execution


def _algo_matrices(name: str, scenario: Scenario, cfg: SystemConfig,
                   alpha: float | None):
    """(x_hat, decisions) as (N, T) matrices for one algorithm on one scenario."""
    if name in ("s_amp", "amp_mmse"):
        run = s_amp_run if name == "s_amp" else baselines.amp_mmse
        result = run(scenario, cfg)
        return result.x_hat, detect_sequence(result)
    if name == "amp_soft":
        # the ADTs are independent columns of one block
        res = baselines.amp_soft(scenario.received, scenario.pilots, cfg, alpha)
        return res.estimate, res.support
    t_total = scenario.received.shape[1]
    if name == "omp":
        results = [baselines.omp(scenario.received[:, t:t + _OMP_BLOCK_ADTS],
                                 scenario.pilots, cfg)
                   for t in range(0, t_total, _OMP_BLOCK_ADTS)]
    else:
        results = [baselines.oracle_ls(scenario.received[:, t], scenario.pilots,
                                       scenario.activity[:, t])
                   for t in range(t_total)]
    return (np.column_stack([r.estimate for r in results]),
            np.column_stack([r.support for r in results]))


def _trial_raw(cfg: SystemConfig, trial: int, algorithms: tuple[str, ...],
               alpha: float | None) -> dict:
    """Per-ADT error/energy/count sums for every algorithm on one scenario."""
    scenario = make_scenario(cfg, trial)
    truth_x = scenario.sparse_signal
    truth_h = scenario.channels
    active = scenario.activity.astype(bool)
    t_total = truth_x.shape[1]
    out: dict = {}
    for name in algorithms:
        try:
            x_hat, decisions = _algo_matrices(name, scenario, cfg, alpha)
            raw = np.empty((8, t_total))
            for t in range(t_total):
                m = active[:, t]
                raw[0, t] = np.sum(np.abs(x_hat[:, t] - truth_x[:, t]) ** 2)
                raw[1, t] = np.sum(np.abs(truth_x[:, t]) ** 2)
                raw[2, t] = np.sum(np.abs(x_hat[m, t] - truth_h[m, t]) ** 2)
                raw[3, t] = np.sum(np.abs(truth_h[m, t]) ** 2)
                fa, md, n_in, n_act = detection_counts(decisions[:, t],
                                                       scenario.activity[:, t])
                raw[4:8, t] = fa, md, n_in, n_act
            out[name] = raw
        except Exception as exc:  # error row downstream; other algos continue
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


def _pooled_records(axis_name: str, value, cfg: SystemConfig, algorithms,
                    trial_results: list[dict], elapsed: float):
    """Aggregate pooled metrics into MetricsRecords (per ADT and overall).

    An algorithm that failed in any trial gets one all-NaN ``all`` row.
    """
    records = []
    errors = []
    n_trials = len(trial_results)
    for name in algorithms:
        raws = [tr[name] for tr in trial_results]
        failures = [r for r in raws if isinstance(r, str)]
        if failures:
            errors.append(f"{name} @ {axis_name}={value}: {failures[0]}")
            rows = [("all", (float("nan"),) * 3)]
        else:
            total = np.sum(np.stack(raws), axis=0)  # (8, T)
            columns = [*enumerate(total.T, start=1), ("all", total.sum(axis=1))]
            rows = [(adt, (nmse_db(s[0], s[1]), nmse_db(s[2], s[3]),
                           dep_from_counts(*s[4:8])))
                    for adt, s in columns]
        records.extend(MetricsRecord(axis_name, value, name, adt, *metrics,
                                     n_trials, elapsed, cfg.seed)
                       for adt, metrics in rows)
    return records, errors


@contextmanager
def _task_map(workers: int):
    """The ``map`` that runs a command's tasks on ``workers`` processes.

    One worker gets the builtin ``map``: the tasks run in this process, in
    order, and no process-pool module is imported.  More workers get the
    ``map`` of one process pool, opened here and shut down on exit, which
    serves every task of the command.
    """
    if workers == 1:
        yield map
        return
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def run_experiment(spec: ExperimentSpec):
    """Execute the sweep; returns (records, errors).  Errors -> exit code 2.

    All algorithms at a sweep point consume identical scenarios (paired
    trials).  The soft-threshold multiplier is calibrated per sweep point on
    a held-out calibration trial before any scoring run; a failed
    calibration becomes amp_soft's error row at that point, and the other
    algorithms still run.  With ``spec.workers > 1`` one process pool runs
    the trials of every sweep point.
    """
    records: list[MetricsRecord] = []
    errors: list[str] = []
    with _task_map(spec.workers) as trial_map:
        for value, cfg in spec.sweep_points():
            t0 = time.perf_counter()
            run_algos, cal_error, alpha = spec.algorithms, None, None
            if "amp_soft" in run_algos:
                try:
                    alpha = baselines.calibrate_soft_alpha(
                        make_scenario(cfg, CALIBRATION_TRIAL), cfg)
                except Exception as exc:  # error row downstream; other algos continue
                    cal_error = f"calibration: {type(exc).__name__}: {exc}"
                    run_algos = tuple(a for a in run_algos if a != "amp_soft")
            n = cfg.n_trials
            trial_results = list(trial_map(_trial_raw, [cfg] * n, range(n),
                                           [run_algos] * n, [alpha] * n))
            if cal_error is not None:
                for tr in trial_results:
                    tr["amp_soft"] = cal_error
            elapsed = time.perf_counter() - t0
            recs, errs = _pooled_records(spec.label, value, cfg, spec.algorithms,
                                         trial_results, elapsed)
            records.extend(recs)
            errors.extend(errs)
    # the "all" row sorts before ADT 1
    records.sort(key=lambda r: (float(r.sweep_value), r.algorithm,
                                0 if r.adt == "all" else r.adt))
    return records, errors


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(records: list[MetricsRecord], path: str) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.sweep_axis, _fmt(r.sweep_value), r.algorithm, str(r.adt),
            _fmt(r.nmse_x_db), _fmt(r.nmse_h_db), _fmt(r.dep),
            str(r.trials), str(r.seed),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def check_se_axis(spec: ExperimentSpec) -> None:
    """Raise ConfigError unless ``se`` can run the spec's sweep axis.

    An SE row shows only the ``SE_SWEEP_KEYS`` fields, so a sweep over any
    other axis would give rows that nothing tells apart.  The same rule
    lets every sweep point share one set of trajectory draws.
    """
    if spec.axis not in (None, *SE_SWEEP_KEYS):
        raise ConfigError(f"se cannot sweep {spec.axis}: an SE row shows "
                          f"only {' and '.join(SE_SWEEP_KEYS)}")


def run_se(spec: ExperimentSpec, n_samples: int = SE_TRACE_SAMPLES,
           errors: list[str] | None = None):
    """Per-ADT normalised fixpoint rows for the sequential and static priors.

    Raises ConfigError for a sweep axis ``se`` cannot run
    (:func:`check_se_axis`).  Serially the trajectories' draws are made
    once and shared by every sweep point.  With ``spec.workers > 1`` one
    process pool computes the points' traces, and each trace redraws the
    same draws from the same streams: at full scale that is faster than
    sending each task the pickled draws (13.5 MB), and it keeps no copy in
    this process.  A sweep point whose trace has a fixpoint that did not
    converge gets NaN ``nor_ct`` in all its rows, and ``errors``, if given,
    receives ``"<axis>=<value>: fixpoint did not converge"`` for it.
    """
    check_se_axis(spec)
    draws = se_draws(spec.base, n_samples) if spec.workers == 1 else None
    rows = []
    points = spec.sweep_points()
    n = len(points)
    with _task_map(spec.workers) as point_map:
        traces = list(point_map(se_sequential_trace, [cfg for _, cfg in points],
                                [n_samples] * n, [draws] * n))
    for (value, cfg), trace in zip(points, traces):
        nor = 10.0 ** ((cfg.tx_power_dbm - NOR_REF_DBM) / 10.0)   # P/P0
        nor_seq, nor_static = nor * trace.c_seq, nor * trace.c_static
        if not trace.converged:
            nor_seq = nor_static = np.full(cfg.n_adts, np.nan)
            if errors is not None:
                errors.append(f"{spec.label}={value}: fixpoint did not converge")
        for t in range(1, cfg.n_adts + 1):
            for algo, nor in (("s_amp", nor_seq), ("amp_mmse", nor_static)):
                rows.append((t, algo, nor[t - 1], cfg.pilot_len, cfg.tx_power_dbm))
    rows.sort(key=lambda r: (r[3], r[4], r[0], r[1]))
    return rows


def write_se_csv(rows, path: str) -> None:
    lines = [SE_CSV_HEADER]
    for t, algo, nor_ct, pilot_len, power in rows:
        lines.append(f"{t},{algo},{_fmt(float(nor_ct))},{pilot_len},{_fmt(float(power))}")
    Path(path).write_text("\n".join(lines) + "\n")
