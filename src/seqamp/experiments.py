"""Experiment harness: config parsing, seeded sweeps, CSV emission.

The config file is line-oriented ``key = value`` text with ``#`` comments.
Keys mirror the SystemConfig fields (``lambda`` maps to the ``lam`` field;
``r0`` sets ``r_scale = 1/2**r0``; range fields split into ``dist_min_km``
etc.).  Exactly one of the sweepable keys (tx_power_dbm, pilot_len, r0,
lambda, adp_duration_s) may carry a comma-separated list, which becomes the
sweep axis.  CLI flags override file values, which override defaults.
``r0`` and ``r_scale`` spell one setting: the file, or the flags, may give
only one of them, and a flag for either replaces the file's.

Every (sweep point, trial) pair owns hash-derived streams, all requested
algorithms consume the identical Scenario (paired comparison), and rows are
sorted deterministically before writing, so a repeated run with the same
config and seed produces a byte-identical CSV.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import baselines
from .config import SystemConfig, desk_config
from .detection import dep_from_counts, detect_sequence, detection_counts, nmse_db
from .scenario import Scenario, make_scenario
from .sequential import s_amp_run
from .state_evolution import SE_TRACE_SAMPLES, se_draws, se_sequential_trace

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
    "SWEEP_KEYS",
    "SE_SWEEP_KEYS",
    "check_se_axis",
]

ALGORITHMS = ("s_amp", "amp_mmse", "amp_soft", "omp", "oracle_ls")
SWEEP_KEYS = ("tx_power_dbm", "pilot_len", "r0", "lambda", "adp_duration_s")
CSV_HEADER = "sweep_axis,sweep_value,algorithm,adt,nmse_x_db,nmse_h_db,dep,trials,seed"
SE_CSV_HEADER = "t,algorithm,nor_ct,pilot_len,tx_power_dbm"
SE_SWEEP_KEYS = ("pilot_len", "tx_power_dbm")  # the only sweep values an SE row shows
CALIBRATION_TRIAL = -1  # held-out trial index for soft-threshold tuning

# SystemConfig fields whose config keys differ from the field name:
# ``lambda`` sets ``lam``, ``r0`` is a second spelling of ``r_scale``
# (r_scale = 1/2**r0), and a range field is set one end at a time.  Every
# other field is keyed by its own name.
_FIELD_KEYS = {
    "lam": ("lambda",),
    "r_scale": ("r_scale", "r0"),
    "dist_range_km": ("dist_min_km", "dist_max_km"),
    "speed_range_kmh": ("speed_min_kmh", "speed_max_kmh"),
}
_KEY_FIELD = {key: name for name, keys in _FIELD_KEYS.items() for key in keys}
SCALAR_KEYS = tuple(key for f in fields(SystemConfig)
                    for key in _FIELD_KEYS.get(f.name, (f.name,)))
_FIELD_TYPES = get_type_hints(SystemConfig)
_INT_KEYS = {name for name, kind in _FIELD_TYPES.items() if kind is int}
_STR_KEYS = {"algos", "out"}
_ALL_KEYS = set(SCALAR_KEYS) | _STR_KEYS


class ConfigError(ValueError):
    """Malformed or contradictory experiment configuration."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A resolved experiment: base config, one optional sweep axis, outputs.

    ``out`` is the CSV path; None leaves the choice to the command, which
    writes ``results.csv`` for ``run`` and ``se_trace.csv`` for ``se``.
    """

    base: SystemConfig
    axis: str | None = None
    values: tuple = ()
    algorithms: tuple[str, ...] = ("s_amp", "amp_mmse")
    out: str | None = None
    workers: int = 1

    def __post_init__(self):
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ConfigError(f"unknown algorithm(s): {', '.join(bad)}")
        if (self.axis is not None or self.values) and self.axis not in SWEEP_KEYS:
            raise ConfigError(f"{self.axis} is not a sweepable key")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        for value in self.values:
            try:
                self._point(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"sweep point {self.axis} = {value}: {exc}") from exc

    def _point(self, value) -> SystemConfig:
        return self.base.with_(**_field_values(self.base, {self.axis: value}))

    def sweep_points(self) -> list[tuple[object, SystemConfig]]:
        """(value, config) pairs; a single (None, base) point without an axis."""
        if self.axis is None:
            return [(None, self.base)]
        return [(v, self._point(v)) for v in self.values]


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


def _field_values(base: SystemConfig, entries: dict) -> dict:
    """SystemConfig field values set by scalar config ``entries``.

    Each value is cast by its field's type; ``r0`` becomes ``r_scale`` and
    a range end replaces its end of ``base``'s range.
    """
    values: dict = {}
    for key, val in entries.items():
        name = _KEY_FIELD.get(key, key)
        if key == "r0":
            val = _r_scale_from_r0(val)
        elif name in ("dist_range_km", "speed_range_kmh"):
            bounds = list(values.get(name, getattr(base, name)))
            bounds[_FIELD_KEYS[name].index(key)] = float(val)
            val = tuple(bounds)
        else:
            val = _FIELD_TYPES[name](val)
        values[name] = val
    return values


def _r_scale_from_r0(r0) -> float:
    try:
        return 1.0 / 2.0 ** float(r0)
    except (OverflowError, ZeroDivisionError):
        raise ConfigError(f"r0 = {r0} is out of range") from None


def _parse_scalar(key: str, text: str, where: str):
    if key in _STR_KEYS:
        return text
    try:
        return int(text) if key in _INT_KEYS else float(text)
    except ValueError:
        raise ConfigError(f"{where}: malformed value {text!r} for key {key!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a raw entry dict (lists for sweeps)."""
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        entries[key] = _parse_entry(key, value, f"line {lineno}")
    return entries


def _parse_entry(key: str, value: str, where: str):
    if "," in value and key not in _STR_KEYS:
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
    scalars = {key: val for key, val in entries.items()
               if key != axis and key not in _STR_KEYS}
    try:
        base = defaults.with_(**_field_values(defaults, scalars))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    algos = entries.get("algos", "s_amp,amp_mmse")
    algorithms = tuple(a.strip() for a in algos.split(",") if a.strip())
    out = entries.get("out")
    return ExperimentSpec(base, axis, values, algorithms, out, workers)


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
        _check_one_r_spelling(entries, f"config file {path}")
    flag_entries = {}
    for key, value in (flags or {}).items():
        if value is None:
            continue
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown config key {key!r} from flags")
        flag_entries[key] = _parse_entry(key, str(value), f"flag --{key}")
    _check_one_r_spelling(flag_entries, "flags")
    if any(key in flag_entries for key in _FIELD_KEYS["r_scale"]):
        # a flag for r overrides the file's r under either spelling
        for key in _FIELD_KEYS["r_scale"]:
            entries.pop(key, None)
    entries.update(flag_entries)
    return _build_spec(entries, desk, workers)


def _check_one_r_spelling(entries: dict, where: str) -> None:
    """r0 and r_scale spell one setting: one source may give only one."""
    if all(key in entries for key in _FIELD_KEYS["r_scale"]):
        raise ConfigError(f"{where} set both r_scale and r0; give only one")


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
    n, t_total = scenario.sparse_signal.shape
    x_hat = np.zeros((n, t_total), dtype=complex)
    dec = np.zeros((n, t_total), dtype=np.int8)
    for t in range(t_total):
        y = scenario.received[:, t]
        if name == "omp":
            res = baselines.omp(y, scenario.pilots, cfg)
        else:
            res = baselines.oracle_ls(y, scenario.pilots, scenario.activity[:, t])
        x_hat[:, t] = res.estimate
        dec[:, t] = res.support
    return x_hat, dec


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
    value_repr = 0 if value is None else value
    for name in algorithms:
        raws = [tr[name] for tr in trial_results]
        failures = [r for r in raws if isinstance(r, str)]
        if failures:
            errors.append(f"{name} @ {axis_name}={value_repr}: {failures[0]}")
            rows = [("all", (float("nan"),) * 3)]
        else:
            total = np.sum(np.stack(raws), axis=0)  # (8, T)
            columns = [*enumerate(total.T, start=1), ("all", total.sum(axis=1))]
            rows = [(adt, (nmse_db(s[0], s[1]), nmse_db(s[2], s[3]),
                           dep_from_counts(*s[4:8])))
                    for adt, s in columns]
        records.extend(MetricsRecord(axis_name, value_repr, name, adt, *metrics,
                                     n_trials, elapsed, cfg.seed)
                       for adt, metrics in rows)
    return records, errors


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
    axis_name = spec.axis if spec.axis is not None else "none"
    with (ProcessPoolExecutor(max_workers=spec.workers) if spec.workers > 1
          else nullcontext()) as pool:
        trial_map = map if pool is None else pool.map
        for value, cfg in spec.sweep_points():
            t0 = time.perf_counter()
            run_algos, cal_error, alpha = spec.algorithms, None, None
            if "amp_soft" in run_algos:
                cal = make_scenario(cfg, CALIBRATION_TRIAL)
                try:
                    alpha = baselines.calibrate_soft_alpha(cal, cfg)
                except Exception as exc:  # error row downstream; other algos continue
                    cal_error = f"calibration: {type(exc).__name__}: {exc}"
                    run_algos = tuple(a for a in run_algos if a != "amp_soft")
                finally:
                    del cal  # the trials build their own scenarios
            n = cfg.n_trials
            trial_results = list(trial_map(_trial_raw, [cfg] * n, range(n),
                                           [run_algos] * n, [alpha] * n))
            if cal_error is not None:
                for tr in trial_results:
                    tr["amp_soft"] = cal_error
            elapsed = time.perf_counter() - t0
            recs, errs = _pooled_records(axis_name, value, cfg, spec.algorithms,
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

    An SE row shows only pilot_len and tx_power_dbm, so a sweep over any
    other axis would give rows that nothing tells apart.  The same rule
    lets every sweep point share one set of trajectory draws.
    """
    if spec.axis not in (None, *SE_SWEEP_KEYS):
        raise ConfigError(f"se cannot sweep {spec.axis}: an SE row shows "
                          "only pilot_len and tx_power_dbm")


def run_se(spec: ExperimentSpec, n_samples: int = SE_TRACE_SAMPLES,
           errors: list[str] | None = None):
    """Per-ADT normalised fixpoint rows for the sequential and static priors.

    Raises ConfigError for a sweep axis ``se`` cannot run
    (:func:`check_se_axis`).  The trajectories' draws are made once and
    shared by every sweep point.  A sweep point whose trace has a fixpoint
    that did not converge gets NaN ``nor_ct`` in all its rows, and
    ``errors``, if given, receives ``"<axis>=<value>: fixpoint did not
    converge"`` for it.
    """
    check_se_axis(spec)
    draws = se_draws(spec.base, n_samples)
    rows = []
    axis_name = spec.axis if spec.axis is not None else "none"
    for value, cfg in spec.sweep_points():
        trace = se_sequential_trace(cfg, n_samples=n_samples, draws=draws)
        nor_seq, nor_static = trace.nor_seq, trace.nor_static
        if not trace.converged:
            nor_seq = nor_static = np.full(len(trace.adt), np.nan)
            if errors is not None:
                errors.append(f"{axis_name}={0 if value is None else value}: "
                              "fixpoint did not converge")
        for i, t in enumerate(trace.adt):
            rows.append((int(t), "s_amp", nor_seq[i],
                         cfg.pilot_len, cfg.tx_power_dbm))
            rows.append((int(t), "amp_mmse", nor_static[i],
                         cfg.pilot_len, cfg.tx_power_dbm))
    rows.sort(key=lambda r: (r[3], r[4], r[0], r[1]))
    return rows


def write_se_csv(rows, path: str) -> None:
    lines = [SE_CSV_HEADER]
    for t, algo, nor_ct, pilot_len, power in rows:
        lines.append(f"{t},{algo},{_fmt(float(nor_ct))},{pilot_len},{_fmt(float(power))}")
    Path(path).write_text("\n".join(lines) + "\n")
