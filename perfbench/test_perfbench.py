"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import itertools
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench_env  # noqa: E402
import bench_stats  # noqa: E402
import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402

ex = bench_env.import_experiments(ROOT)

SMALL = {"n_users": 40, "pilot_len": 20, "n_adts": 3, "n_trials": 1, "seed": 3}


class TestTailPercentile:
    def test_too_few_samples_gives_no_tail(self):
        assert bench_stats.tail_percentile(range(1, 100)) is None

    def test_hundred_samples_give_p90_with_ten_beyond(self):
        assert bench_stats.tail_percentile(range(1, 101)) == (90.0, 90, 10)

    def test_thousand_samples_give_p99(self):
        assert bench_stats.tail_percentile(range(1, 1001)) == (99.0, 990, 10)

    def test_beyond_counts_only_strictly_larger_samples(self):
        assert bench_stats.tail_percentile([1.0] * 500) is None
        samples = [1.0] * 95 + [2.0] * 10
        assert bench_stats.tail_percentile(samples) == (90.0, 1.0, 10)

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(1, 201))
        assert (bench_stats.tail_percentile(samples[::-1])
                == bench_stats.tail_percentile(samples))

    def test_quartile_spread(self):
        assert bench_stats.quartile_spread([10.0] * 10) == 0.0
        assert bench_stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3.0)


def _span(start, end, parent=None, layer="x", item=0):
    return bt.Span(layer, "f", start, end, parent=parent, item=item)


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [_span(0, 10), _span(1, 4, 0), _span(2, 3, 1), _span(5, 9, 0)]
        assert bt.self_times(spans) == [3, 2, 1, 4]
        assert sum(bt.self_times(spans)) == spans[0].end - spans[0].start

    def test_overlapping_children_count_once(self):
        spans = [_span(0, 10), _span(1, 4, 0), _span(3, 6, 0)]
        assert bt.self_times(spans)[0] == 5

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(0, 10), _span(8, 12, 0)]
        assert bt.self_times(spans)[0] == 8

    def test_recorder_nests_by_call_order(self):
        rec = bt.Recorder(clock=itertools.count().__next__)
        outer = rec.open("a", "outer")
        inner = rec.open("b", "inner")
        rec.close(inner)
        rec.close(outer)
        assert rec.spans[inner].parent == outer and rec.spans[outer].parent is None
        assert bt.self_times(rec.spans) == [2, 1]

    def test_recorder_rejects_out_of_order_close(self):
        rec = bt.Recorder()
        outer = rec.open("a", "outer")
        rec.open("b", "inner")
        with pytest.raises(RuntimeError):
            rec.close(outer)

    def test_layer_metrics_self_times_sum_to_item_time(self):
        spans = [_span(0, 10, layer="experiments"), _span(1, 4, 0, layer="amp"),
                 _span(2, 3, 1, layer="denoiser"), _span(5, 9, 0, layer="scenario"),
                 _span(20, 21, layer="config", item=None)]
        spans[1].name, spans[1].counts = "amp_run", {
            "sweeps": 2, "cap_hit": 0, "matvecs": 5, "matvec_bytes": 5e9}
        m = bt.layer_metrics(spans)
        assert m["trace.item_s"] == 10 and m["trace.items"] == 1
        assert sum(m[f"{layer}.self_s"] for layer in bt.LAYERS) == 10
        assert (m["experiments.self_s"], m["amp.self_s"], m["denoiser.self_s"],
                m["scenario.self_s"]) == (3, 2, 1, 4)
        assert m["denoiser.calls_per_sweep"] == 0.5
        assert m["amp.matvec_gb_computed"] == 5.0
        assert m["config.load_s"] == 1


class TestPatch:
    def test_set_and_restore_on_a_module(self):
        mod = types.ModuleType("m")
        mod.f = original = lambda: 1
        with bt.Patch() as patch:
            patch.set(mod, "f", lambda: 2)
            assert mod.f() == 2
        assert mod.f is original

    def test_restore_after_an_exception(self):
        mod = types.ModuleType("m")
        mod.f = original = lambda: 1
        with pytest.raises(ZeroDivisionError):
            with bt.Patch() as patch:
                patch.set(mod, "f", lambda: 2)
                1 / 0
        assert mod.f is original

    def test_install_wraps_every_site_and_restore_puts_originals_back(self):
        modules = {m: sys.modules[m] for m, _, _, _ in bt.SITES}
        before = {(m, a): getattr(modules[m], a) for m, a, _, _ in bt.SITES}
        with bt.Patch() as patch:
            bt.install_tracing(bt.Recorder(), patch)
            for (m, a), fn in before.items():
                assert getattr(modules[m], a) is not fn
                assert getattr(modules[m], a).__wrapped__ is fn
        for (m, a), fn in before.items():
            assert getattr(modules[m], a) is fn


def _traced(run):
    rec = bt.Recorder()
    with bt.Patch() as patch:
        bt.install_tracing(rec, patch)
        rec.item = 0
        out = run()
        rec.item = None
    return out, rec


class TestTracedRuns:
    def test_traced_sweep_writes_identical_csv(self, tmp_path):
        flags = dict(SMALL, algos=",".join(bw.MC_ALGOS))
        spec = ex.load_config(None, flags)
        plain, (traced, rec) = ex.run_experiment(spec), _traced(lambda: ex.run_experiment(spec))
        ex.write_csv(plain[0], tmp_path / "a.csv")
        ex.write_csv(traced[0], tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

        m = bt.layer_metrics(rec.spans)
        assert sum(m[f"{layer}.self_s"] for layer in bt.LAYERS) == pytest.approx(
            m["trace.item_s"], rel=1e-9)
        assert m["denoiser.calls_per_sweep"] == 3
        assert m["amp.runs"] == 2 * SMALL["n_adts"]
        assert m["amp.matvecs"] == 2 * m["amp.sweeps"] + m["amp.runs"]
        assert m["scenario.calls"] == 2           # calibration + the trial
        assert m["baselines.omp.selections"] > 0 and m["baselines.amp_soft.sweeps"] > 0

    def test_traced_se_writes_identical_rows(self):
        spec = ex.load_config(None, dict(SMALL, tx_power_dbm="27,33"))
        plain = ex.run_se(spec, n_samples=500)
        traced, rec = _traced(lambda: ex.run_se(spec, n_samples=500))
        assert plain == traced
        m = bt.layer_metrics(rec.spans)
        assert m["amp.runs"] == 0
        assert m["state_evolution.fixpoints"] == 2 * 2 * SMALL["n_adts"]
        assert m["state_evolution.samples"] == 2 * 500
        assert m["state_evolution.nonconverged"] == 0


class TestQualityChecks:
    def test_error_row_is_a_problem(self, tmp_path):
        workload = bw.WORKLOADS["desk_paired"]
        rec = ex.MetricsRecord("none", 0, "s_amp", "all", float("nan"), 1.0, 0.1, 1, 0.0, 1)
        ok = ex.MetricsRecord("none", 0, "amp_mmse", "all", -20.0, -21.0, 0.2, 1, 0.0, 1)
        ex.write_csv([ok, rec], tmp_path / "r.csv")
        quality, problems = bw.item_quality(workload, (tmp_path / "r.csv").read_text())
        assert len(problems) == 1 and problems[0].startswith("s_amp")
        assert quality["amp_mmse.dep"] == 0.2

    def test_reference_tolerance(self):
        workload = bw.WORKLOADS["desk_paired"]
        q = {"s_amp.nmse_x_db": -25.0, "s_amp.nmse_h_db": -26.0, "s_amp.dep": 0.10,
             "amp_mmse.nmse_x_db": -23.0, "amp_mmse.nmse_h_db": -24.0, "amp_mmse.dep": 0.15}
        reference = {workload.name: {"7": {"quality": q}}}
        assert bw.compare_to_reference(workload, [(7, dict(q))], reference) == []
        drifted = dict(q, **{"s_amp.nmse_h_db": -25.9})
        problems = bw.compare_to_reference(workload, [(7, drifted)], reference)
        assert any(p.startswith("s_amp.nmse_h_db") for p in problems)
        assert any(p.startswith("nmse_h_gain_db") for p in problems)
        assert bw.compare_to_reference(workload, [(8, q)], reference)

    def test_item_seeds_follow_the_workload_seed(self):
        workload = bw.WORKLOADS["se_sweep"]
        times = {str(bw.POOL_BASE + k): {"item_s": 1.0 + (k * 7) % 10} for k in range(10)}
        reference = {workload.name: times}

        def walk(seed, n=10):
            return list(itertools.islice(bw.item_seeds(workload, seed, reference), n))

        assert walk(1) == walk(1) and walk(1) != walk(2)
        assert sorted(walk(1)) == sorted(int(s) for s in times)   # no repeats in a pass
        assert sorted(walk(1, 20)[10:]) == sorted(int(s) for s in times)
        # any four consecutive draws reach both halves of the time ranking
        slow = {int(s) for s, t in times.items() if t["item_s"] >= 6}
        first = walk(3, 4)
        assert slow & set(first) and set(first) - slow


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} == set(bt.METRICS) | {"trace.overhead_s"}
    assert {w["name"] for w in spec["workloads"]} == set(bw.WORKLOADS)
