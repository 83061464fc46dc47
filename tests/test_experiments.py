"""Config parsing, sweep execution, CSV emission, CLI plumbing."""

import gc
import math
import os
import subprocess
import sys
import tempfile
import weakref
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqamp.cli import main as cli_main
from seqamp.config import SystemConfig, desk_config
from seqamp.experiments import (ALGORITHMS, CALIBRATION_TRIAL, CSV_HEADER,
                                SCALAR_KEYS, SWEEP_KEYS, ConfigError,
                                ExperimentSpec, load_config, parse_config_text,
                                run_experiment, run_se, write_csv, write_se_csv)
from seqamp.state_evolution import NOR_REF_DBM

# every config key that sets a float (the int fields are keyed by their names)
FLOAT_KEYS = [key for key in SCALAR_KEYS
              if get_type_hints(SystemConfig).get(key) is not int]


def all_finite(cfg: SystemConfig) -> bool:
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        for x in (value if isinstance(value, tuple) else (value,)):
            if isinstance(x, float) and not math.isfinite(x):
                return False
    return True


# two points per sweep key, both off the defaults
SWEEP_VALUES = {"tx_power_dbm": "27,30", "pilot_len": "100,200", "r0": "0,3",
                "lambda": "0.1,0.2", "adp_duration_s": "2e-4,5e-5"}

config_floats = st.one_of(st.floats().map(repr),
                          st.sampled_from(["nan", "inf", "-inf", "1e999"]))
config_values = st.one_of(
    config_floats,
    st.integers().map(str),
    st.lists(config_floats, min_size=1, max_size=3).map(", ".join),
    st.sampled_from(ALGORITHMS),
    st.text(max_size=12),
)
known_key_lines = st.tuples(st.sampled_from(SCALAR_KEYS + ("algos", "out")),
                            config_values).map(" = ".join)
config_lines = st.one_of(known_key_lines, known_key_lines, known_key_lines,
                         st.text(max_size=20))


class TestConfigParsing:
    def test_empty_file_gives_reference_defaults(self):
        spec = load_config(None, {})
        cfg = spec.base
        assert cfg.n_users == 2000 and cfg.pilot_len == 400 and cfg.n_adts == 20
        assert cfg.lam == 0.05 and cfg.r_scale == 0.1
        assert cfg.adp_duration_s == pytest.approx(100e-6)
        assert cfg.noise_psd_dbm_hz == -169.0 and cfg.bandwidth_hz == 1e7
        assert cfg.carrier_hz == 3.5e9
        assert cfg.pathloss_intercept_db == -128.1 and cfg.pathloss_slope == -36.7
        assert cfg.dist_range_km == (0.05, 1.0)
        assert cfg.speed_range_kmh == (0.0, 50.0)
        assert NOR_REF_DBM == 13.0

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("lambda = 0.05\n")
        spec = load_config(str(path), {"lambda": "0.1"})
        assert spec.base.lam == 0.1

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# header\n\nn_users = 100  # trailing\npilot_len = 50\n")
        spec = load_config(str(path), {})
        assert spec.base.n_users == 100 and spec.base.pilot_len == 50

    def test_two_sweep_axes_rejected(self):
        with pytest.raises(ConfigError, match="sweep"):
            load_config(None, {"pilot_len": "100,200,300",
                               "tx_power_dbm": "20,30"})

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("n_users = 10\nbogus_key = 3\n")

    def test_malformed_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("n_users = ten\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")

    def test_r0_scalar_maps_to_r_scale(self):
        spec = load_config(None, {"r0": "3"})
        assert spec.base.r_scale == pytest.approx(1.0 / 8.0)

    def test_r0_sweep_axis(self):
        spec = load_config(None, {"r0": "0,1,2"})
        assert spec.axis == "r0" and spec.values == (0.0, 1.0, 2.0)
        points = spec.sweep_points()
        assert [cfg.r_scale for _, cfg in points] == [1.0, 0.5, 0.25]

    def test_range_keys(self):
        spec = load_config(None, {"dist_min_km": "0.2", "dist_max_km": "0.8",
                                  "speed_max_kmh": "10"})
        assert spec.base.dist_range_km == (0.2, 0.8)
        assert spec.base.speed_range_kmh == (0.0, 10.0)

    def test_nonsweepable_list_rejected(self):
        with pytest.raises(ConfigError, match="does not accept a list"):
            load_config(None, {"n_users": "100,200"})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            load_config(None, {"algos": "s_amp,wizardry"})

    def test_desk_profile(self):
        spec = load_config(None, {}, desk=True)
        assert (spec.base.n_users, spec.base.pilot_len,
                spec.base.n_adts, spec.base.n_trials) == (500, 125, 10, 20)
        assert spec.base == desk_config()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            load_config(None, {}, workers=workers)

    def test_undecodable_file_is_config_error(self, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"n_users = \xd0\xff\n")
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(path), {})

    def test_invalid_field_value_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config(None, {"lambda": "1.5"})

    def test_every_scalar_field_round_trips_with_its_type(self, tmp_path):
        # lam is keyed as lambda; each value differs from the default
        types = get_type_hints(SystemConfig)
        want = {f.name: (f.default + 1 if types[f.name] is int else f.default / 2)
                for f in fields(SystemConfig) if types[f.name] in (int, float)}
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{'lambda' if name == 'lam' else name} = {value}\n"
                                for name, value in want.items()))
        cfg = load_config(str(path), {}).base
        for name, value in want.items():
            got = getattr(cfg, name)
            assert got == value and type(got) is types[name], name

    @pytest.mark.parametrize("text, flags", [
        ("r0 = 3\nr_scale = 0.5\n", {}),          # the file sets both
        ("", {"r0": "3", "r_scale": "0.5"}),        # the flags set both
        ("r0 = 0,1,2\nr_scale = 0.5\n", {}),      # an r0 axis with r_scale
    ])
    def test_r0_and_r_scale_together_rejected(self, tmp_path, text, flags):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="both r_scale and r0"):
            load_config(str(path), flags)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError):
            load_config(None, {key: value})

    def test_doppler_argument_capped(self):
        # 2*pi*f_D*T_ADP at 50 km/h and 3.5 GHz is 0.102 at the 100 us
        # default ADP; the cap is 1e4
        assert SystemConfig(adp_duration_s=9.0).adp_duration_s == 9.0
        with pytest.raises(ValueError, match="Doppler argument"):
            SystemConfig(adp_duration_s=10.0)
        with pytest.raises(ConfigError, match="Doppler argument"):
            load_config(None, {"speed_max_kmh": "1e7"})

    @pytest.mark.parametrize("key, values", [
        ("tx_power_dbm", "30,nan"), ("pilot_len", "100,5000"), ("r0", "3,-5000"),
        ("lambda", "0.1,2"), ("adp_duration_s", "1e-4,-1")])
    def test_every_sweep_point_resolved_at_load(self, key, values):
        with pytest.raises(ConfigError, match=f"sweep point {key} = "):
            load_config(None, {key: values})

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(config_lines, max_size=4), desk=st.booleans())
    def test_fuzzed_config_is_finite_or_config_error(self, lines, desk):
        # any text either resolves to finite configs or is a ConfigError
        text = "\n".join(lines) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            path.write_text(text, encoding="utf-8")
            try:
                parse_config_text(text)
                spec = load_config(str(path), {}, desk=desk)
            except ConfigError:
                return
        assert all_finite(spec.base)
        assert all(all_finite(cfg) for _, cfg in spec.sweep_points())

    @pytest.mark.parametrize("key", SWEEP_KEYS)
    def test_sweep_point_config_equals_scalar_config(self, key):
        # a sweep point resolves its key exactly as a scalar entry does
        points = load_config(None, {key: SWEEP_VALUES[key]}).sweep_points()
        assert len(points) == 2
        for value, cfg in points:
            assert cfg == load_config(None, {key: value}).base

    def test_direct_spec_values_cast_by_field_type(self):
        spec = ExperimentSpec(SystemConfig(), axis="pilot_len",
                              values=("100", np.int64(200), 300.0))
        pilot_lens = [cfg.pilot_len for _, cfg in spec.sweep_points()]
        assert pilot_lens == [100, 200, 300]
        assert all(type(n) is int for n in pilot_lens)
        spec = ExperimentSpec(SystemConfig(), axis="tx_power_dbm",
                              values=("30", np.float32(27.5)))
        powers = [cfg.tx_power_dbm for _, cfg in spec.sweep_points()]
        assert powers == [30.0, 27.5] and all(type(p) is float for p in powers)

    def test_r_flag_overrides_other_spelling_in_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("r0 = 3\n")
        assert load_config(str(path), {"r_scale": "0.5"}).base.r_scale == 0.5
        assert load_config(str(path), {"lambda": "0.1"}).base.r_scale == 0.125
        path.write_text("r_scale = 0.5\n")
        assert load_config(str(path), {"r0": "2"}).base.r_scale == 0.25
        spec = load_config(str(path), {"r0": "0,1"})
        assert spec.axis == "r0" and [c.r_scale for _, c in spec.sweep_points()] == [1.0, 0.5]


def tiny_spec(**kw):
    base = SystemConfig(n_users=60, pilot_len=20, n_adts=2, n_trials=2, seed=9)
    defaults = dict(base=base, axis="pilot_len", values=(15, 20),
                    algorithms=("oracle_ls",), out="unused.csv")
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_one_aggregate_row_per_sweep_value(self):
        records, errors = run_experiment(tiny_spec())
        assert not errors
        agg = [r for r in records if r.adt == "all"]
        assert len(agg) == 2  # one per sweep value for the single algorithm
        per_adt = [r for r in records if r.adt != "all"]
        assert len(per_adt) == 2 * 2  # T=2 per sweep value

    def test_paired_scenarios_across_algorithms(self):
        records, _ = run_experiment(tiny_spec(algorithms=("s_amp", "amp_mmse")))
        # T=1-free check: both algorithms summarise the same truth energy, so
        # their aggregate rows exist for both sweep values
        algos = {(r.sweep_value, r.algorithm) for r in records if r.adt == "all"}
        assert algos == {(15, "s_amp"), (15, "amp_mmse"),
                         (20, "s_amp"), (20, "amp_mmse")}

    def test_records_sorted_deterministically(self):
        records, _ = run_experiment(tiny_spec())
        keys = [(float(r.sweep_value), r.algorithm,
                 0 if r.adt == "all" else int(r.adt), r.seed) for r in records]
        assert keys == sorted(keys)

    def test_byte_identical_rerun(self, tmp_path):
        spec = tiny_spec(algorithms=("s_amp", "oracle_ls"))
        outs = []
        for name in ("a.csv", "b.csv"):
            records, _ = run_experiment(spec)
            path = tmp_path / name
            write_csv(records, str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = tiny_spec(algorithms=("s_amp", "oracle_ls"))
        parallel = tiny_spec(algorithms=("s_amp", "oracle_ls"), workers=2)
        outs = []
        for name, spec in (("serial.csv", serial), ("parallel.csv", parallel)):
            records, _ = run_experiment(spec)
            path = tmp_path / name
            write_csv(records, str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_one_pool_per_run(self, monkeypatch):
        import seqamp.experiments as experiments
        opened = []
        pool_class = experiments.ProcessPoolExecutor

        def counting(*args, **kwargs):
            opened.append(kwargs)
            return pool_class(*args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", counting)
        run_experiment(tiny_spec(workers=2))   # two sweep points
        assert opened == [{"max_workers": 2}]
        run_experiment(tiny_spec())
        assert len(opened) == 1

    def test_csv_schema(self, tmp_path):
        records, _ = run_experiment(tiny_spec())
        path = tmp_path / "out.csv"
        write_csv(records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert all(len(line.split(",")) == 9 for line in lines)

    def test_power_sweep_dominance(self):
        # sequential rows beat static rows in channel NMSE at every power point
        base = SystemConfig(n_users=250, pilot_len=60, n_adts=6, n_trials=4,
                            seed=11)
        spec = ExperimentSpec(base, axis="tx_power_dbm", values=(30.0, 36.0),
                              algorithms=("s_amp", "amp_mmse"), out="unused")
        records, errors = run_experiment(spec)
        assert not errors
        agg = {(r.sweep_value, r.algorithm): r for r in records if r.adt == "all"}
        for power in (30.0, 36.0):
            assert agg[(power, "s_amp")].nmse_h_db < agg[(power, "amp_mmse")].nmse_h_db

    def test_calibration_scenario_freed_before_trial_scenarios(self, monkeypatch):
        # the held-out calibration scenario holds a pilot matrix as large as
        # a trial's; it must be gone before any trial builds its own
        import seqamp.experiments as ex
        original = ex.make_scenario
        calibration, alive_at_trial = [], []

        def tracked(cfg, trial=0, profiles=None):
            if trial == CALIBRATION_TRIAL:
                scenario = original(cfg, trial, profiles)
                calibration.append(weakref.ref(scenario))
                return scenario
            gc.collect()
            alive_at_trial.append(sum(ref() is not None for ref in calibration))
            return original(cfg, trial, profiles)

        monkeypatch.setattr(ex, "make_scenario", tracked)
        records, errors = run_experiment(tiny_spec(algorithms=("amp_soft",)))
        assert not errors and records
        assert len(calibration) == 2  # one per sweep point
        assert alive_at_trial == [0] * 4  # two trials per sweep point

    def test_algorithm_failure_produces_error_row(self):
        # lam*N >> L makes the oracle support exceed L: oracle_ls must fail,
        # the row must be recorded, and other algorithms must still report
        base = SystemConfig(n_users=40, pilot_len=2, n_adts=2, n_trials=1,
                            lam=0.5, seed=3)
        spec = ExperimentSpec(base, algorithms=("oracle_ls", "omp"),
                              out="unused.csv")
        records, errors = run_experiment(spec)
        assert errors and "oracle_ls" in errors[0]
        failed = [r for r in records if r.algorithm == "oracle_ls"]
        assert len(failed) == 1 and np.isnan(failed[0].nmse_x_db)
        assert any(r.algorithm == "omp" and r.adt == "all"
                   and np.isfinite(r.nmse_x_db) for r in records)


class TestRunSe:
    def test_rows_and_t1_equality(self, tmp_path):
        base = SystemConfig(n_users=200, pilot_len=50, n_adts=3, n_trials=1)
        spec = ExperimentSpec(base, out="unused")
        rows = run_se(spec, n_samples=3000)
        assert len(rows) == 6  # 3 ADTs x 2 algorithms
        t1 = {r[1]: r[2] for r in rows if r[0] == 1}
        assert t1["s_amp"] == pytest.approx(t1["amp_mmse"], rel=0.01)
        path = tmp_path / "se.csv"
        write_se_csv(rows, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "t,algorithm,nor_ct,pilot_len,tx_power_dbm"

    def test_nonconverged_point_gets_nan_rows_and_error(self, monkeypatch):
        import seqamp.state_evolution as se
        base = SystemConfig(n_users=200, pilot_len=50, n_adts=2, n_trials=1)
        errors = []
        rows = run_se(ExperimentSpec(base), n_samples=2000, errors=errors)
        assert errors == [] and all(math.isfinite(r[2]) for r in rows)
        monkeypatch.setattr(se, "FIXPOINT_MAX_ITERS", 1)
        rows = run_se(ExperimentSpec(base), n_samples=2000, errors=errors)
        assert len(rows) == 4 and all(math.isnan(r[2]) for r in rows)
        assert errors == ["none=0: fixpoint did not converge"]


class TestCli:
    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--n-users", "60", "--pilot-len", "20",
                         "--n-adts", "2", "--trials", "1", "--seed", "4",
                         "--algos", "oracle_ls", "--out", str(out)])
        assert code == 0
        assert out.exists() and out.read_text().startswith(CSV_HEADER)

    @pytest.mark.parametrize("args", [["--soft-alpha", "1.9"], ["--seed", "x"]])
    @pytest.mark.parametrize("command", ["run", "se"])
    def test_usage_error_exits_1(self, tmp_path, monkeypatch, capsys, command, args):
        # exit 2 means "results written, some rows failed", so an unknown
        # flag or a malformed value is a configuration error like any other
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--desk", *args])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: seqamp") and not captured.out
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: seqamp run")

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("pilot_len = 100,200\ntx_power_dbm = 10,20\n")
        assert cli_main(["run", "--config", str(bad)]) == 1

    def test_se_subcommand(self, tmp_path):
        out = tmp_path / "se.csv"
        code = cli_main(["se", "--n-users", "100", "--pilot-len", "25",
                         "--n-adts", "2", "--out", str(out)])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("command, out_args, written", [
        ("se", ["--out", "results.csv"], "results.csv"),
        ("se", [], "se_trace.csv"),
        ("run", ["--algos", "oracle_ls", "--trials", "1"], "results.csv"),
    ])
    def test_out_path_default_per_command(self, tmp_path, monkeypatch, command,
                                          out_args, written):
        monkeypatch.chdir(tmp_path)
        code = cli_main([command, "--n-users", "100", "--pilot-len", "25",
                         "--n-adts", "1", *out_args])
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == [written]

    def test_se_nonconvergence_exits_2(self, tmp_path, capsys, monkeypatch):
        import seqamp.state_evolution as se
        monkeypatch.setattr(se, "FIXPOINT_MAX_ITERS", 1)
        out = tmp_path / "se.csv"
        code = cli_main(["se", "--n-users", "100", "--pilot-len", "25",
                         "--n-adts", "2", "--tx-power-dbm", "27,33",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"state-evolution error: tx_power_dbm={p}: fixpoint did not converge"
            for p in (27.0, 33.0)]
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 8 and all(r.split(",")[2] == "nan" for r in rows)

    @pytest.mark.parametrize("flags, named", [
        (["--algos", "s_amp"], "--algos"),
        (["--workers", "2"], "--workers"),
        (["--workers", "1"], "--workers"),
        (["--algos", "s_amp", "--workers", "2"], "--algos or --workers"),
        (["--trials", "3"], "--trials"),
        (["--amp-iters", "10"], "--amp-iters"),
    ])
    def test_se_rejects_run_only_flags(self, tmp_path, capsys, flags, named):
        # se would ignore them, so they are refused rather than dropped
        out = tmp_path / "se.csv"
        code = cli_main(["se", "--n-users", "100", "--pilot-len", "25",
                         "--n-adts", "1", *flags, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: se does not take {named}\n"
        assert not captured.out and not out.exists()

    @pytest.mark.parametrize("key, values", [("lambda", "0.05,0.1"), ("r0", "0,3"),
                                             ("adp_duration_s", "1e-4,2e-4")])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_se_refuses_axes_its_csv_cannot_label(self, tmp_path, capsys, source,
                                                  key, values):
        # SE rows show only pilot_len and tx_power_dbm, so two points of any
        # other axis would write rows nothing tells apart
        base = ["--n-users", "100", "--pilot-len", "25", "--n-adts", "2"]
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{key} = {values}\n")
        sweep = ([f"--{key.replace('_', '-')}", values] if source == "flag"
                 else ["--config", str(cfg)])
        out = tmp_path / "se.csv"
        assert cli_main(["se", *base, *sweep, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"config error: se cannot sweep {key}: an SE row "
                                "shows only pilot_len and tx_power_dbm\n")
        assert not captured.out and not out.exists()

    def test_se_accepts_a_pilot_len_sweep(self, tmp_path):
        out = tmp_path / "se.csv"
        assert cli_main(["se", "--desk", "--pilot-len", "100,125", "--n-adts", "2",
                         "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert sorted({r[3] for r in rows}) == ["100", "125"] and len(rows) == 8

    def test_se_accepts_algos_from_a_shared_config_file(self, tmp_path):
        # run and se share config files, so the file's algos key is allowed
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("n_users = 100\npilot_len = 25\nn_adts = 1\n"
                       "algos = s_amp,omp\n")
        out = tmp_path / "se.csv"
        assert cli_main(["se", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_se_accepts_trial_keys_from_a_shared_config_file(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("n_users = 100\npilot_len = 25\nn_adts = 1\n"
                       "n_trials = 3\namp_iters = 10\n")
        out = tmp_path / "se.csv"
        assert cli_main(["se", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("key, value", [("soft_alpha", "1.9"), ("c0_factor", "100"),
                                            ("nor_ref_dbm", "13")])
    @pytest.mark.parametrize("command", ["run", "se"])
    def test_fixed_constant_key_is_config_error(self, tmp_path, capsys, command,
                                                key, value):
        # the soft threshold is calibrated, c0 and P0 are constants: a file
        # setting one would change nothing, so it is refused
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n_users = 100\npilot_len = 25\nn_adts = 1\n{key} = {value}\n")
        out = tmp_path / "out.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: line 4: unknown key {key!r}\n"
        assert not captured.out and not out.exists()

    def test_amp_soft_runs_at_the_calibrated_alpha(self, monkeypatch):
        from seqamp import baselines
        seen = []
        original = baselines.amp_soft

        def probed(y, s_mat, cfg, alpha):
            seen.append(alpha)
            return original(y, s_mat, cfg, alpha)

        monkeypatch.setattr(baselines, "calibrate_soft_alpha", lambda scn, cfg: 1.7)
        monkeypatch.setattr(baselines, "amp_soft", probed)
        spec = ExperimentSpec(desk_config(n_users=100, pilot_len=25, n_adts=2,
                                          n_trials=2), algorithms=("amp_soft",))
        records, errors = run_experiment(spec)
        assert not errors and seen == [1.7, 1.7]

    def test_huge_doppler_argument_is_config_error(self, tmp_path, capsys):
        # 50 km/h at 3.5 GHz over a 20 s ADP: 2*pi*f_D*T_ADP is about 2e4
        out = tmp_path / "r.csv"
        assert cli_main(["run", "--desk", "--adp-duration-s", "20",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: Doppler argument ")
        assert not captured.out and not out.exists()

    def test_se_trace_is_not_a_run_algorithm(self, tmp_path, capsys):
        # state-evolution traces come from the se command only
        out = tmp_path / "r.csv"
        assert cli_main(["run", "--algos", "s_amp,se_trace", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: unknown algorithm(s): se_trace\n"
        assert not captured.out and not out.exists()

    def test_missing_config_file(self):
        assert cli_main(["run", "--config", "/nonexistent/path.cfg"]) == 1

    @pytest.mark.parametrize("criteria", ["x", "11", "3,x"])
    def test_bad_criteria_list_is_config_error(self, capsys, criteria):
        assert cli_main(["check", "--criteria", criteria]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and not captured.out

    @pytest.mark.parametrize("sweep", ["lambda = 0.1, 2", "tx_power_dbm = 30, nan"])
    def test_bad_sweep_point_is_config_error(self, tmp_path, capsys, sweep):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n_users = 60\npilot_len = 20\nn_adts = 2\nn_trials = 1\n"
                       f"algos = oracle_ls\n{sweep}\n")
        out = tmp_path / "r.csv"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and not captured.out
        assert not out.exists()

    def test_python_m_seqamp(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-m", "seqamp", "check", "--criteria", "x"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert done.stderr.startswith("config error: ") and not done.stdout

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import seqamp.cli; "
                "print('scipy.stats' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "False"

    def test_run_and_se_load_no_scipy(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import seqamp; "
                "from seqamp.cli import main; out = sys.argv[2]; "
                "codes = [main(['run', '--desk', '--trials', '1', '--n-adts', '2', "
                "'--algos', sys.argv[3], '--out', out + '/r.csv']), "
                "main(['se', '--desk', '--n-adts', '2', '--out', out + '/se.csv'])]; "
                "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))")
        done = subprocess.run([sys.executable, "-c", code, str(src), str(tmp_path),
                               ",".join(ALGORITHMS)],
                              capture_output=True, text=True, timeout=300, check=True)
        assert done.stdout.splitlines()[-1] == "[0, 0] []"

    def test_zero_workers_is_config_error(self, capsys):
        assert cli_main(["run", "--workers", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and not captured.out

    def test_partial_failure_exit_code(self, tmp_path):
        # oracle support exceeds L at lambda = 0.5, L = 2: exit code 2 with
        # the remaining algorithm still reported
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--n-users", "40", "--pilot-len", "2",
                         "--n-adts", "2", "--trials", "1", "--seed", "3",
                         "--lambda", "0.5", "--algos", "oracle_ls,omp",
                         "--out", str(out)])
        assert code == 2
        assert "omp" in out.read_text()

    def test_failed_calibration_is_amp_soft_error_row(self, tmp_path, capsys):
        # lam = 0.01 leaves calibration ADT 0 without an active user, so the
        # calibration NMSE is undefined: amp_soft gets an error row, exit
        # code 2, and S-AMP's rows are still written
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--n-users", "100", "--pilot-len", "40",
                         "--n-adts", "3", "--trials", "1", "--lambda", "0.01",
                         "--seed", "2", "--algos", "s_amp,amp_soft",
                         "--out", str(out)])
        assert code == 2
        assert "amp_soft @ none=0: calibration: ValueError" in capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        soft = [r for r in rows if r[2] == "amp_soft"]
        assert [r[3:7] for r in soft] == [["all", "nan", "nan", "nan"]]
        s_amp = [r for r in rows if r[2] == "s_amp"]
        assert len(s_amp) == 4 and all(math.isfinite(float(r[4])) for r in s_amp)

    def test_calibration_uses_first_adt_with_an_active_user(self, tmp_path, capsys):
        # at seed 8 the calibration scenario has active users in ADT 3 only,
        # which is enough to calibrate the threshold
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--n-users", "100", "--pilot-len", "40",
                         "--n-adts", "3", "--trials", "1", "--lambda", "0.01",
                         "--seed", "8", "--algos", "s_amp,amp_soft",
                         "--out", str(out)])
        assert code == 0
        assert not capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        soft = [r for r in rows if r[2] == "amp_soft"]
        assert [r[3] for r in soft] == ["all", "1", "2", "3"]
        assert all(math.isfinite(float(x)) for r in soft for x in r[4:7])
