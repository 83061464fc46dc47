"""State-evolution step, fixpoint and sequential traces."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqamp.state_evolution as se
from seqamp.amp import amp_run
from seqamp.config import SystemConfig, desk_config
from seqamp.denoiser import BgPrior, denoise_mean
from seqamp.quadrature import x_moments
from seqamp.rng import stream
from seqamp.experiments import load_config, run_se
from seqamp.state_evolution import (NOR_REF_DBM, SeSamples, se_draws, se_fixpoint,
                                    se_sequential_trace, se_step)

from helpers import noise_config


def se_levels(rows, algorithm):
    """The ``nor_ct`` column of one sweep point's ``run_se`` rows for one algorithm, by ADT."""
    return np.array([nor for _, algo, nor, _, _ in rows if algo == algorithm])


def bg_samples(m, lam, rho, rng):
    """A Bernoulli-Gaussian batch and its static prior (lam, 0, rho)."""
    active = rng.random(m) < lam
    x = active * np.sqrt(rho / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    prior = BgPrior(np.full(m, lam), np.zeros(m, dtype=complex), np.full(m, rho))
    v = np.sqrt(0.5) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return SeSamples(x, v), prior


def mmse_by_radial_quadrature(lam, rho, c, n_radial=400):
    """Independent oracle: E|F(Phi) - X|^2 = E[Var(X | Phi)] via the MMSE
    identity, integrating the quadrature posterior variance against the
    radially symmetric marginal of Phi (xi = 0 case)."""
    r_max = 8.0 * np.sqrt(rho + c)
    rs = np.linspace(1e-6, r_max, n_radial)
    density = 2 * rs * ((1 - lam) * np.exp(-rs**2 / c) / c
                        + lam * np.exp(-rs**2 / (rho + c)) / (rho + c))
    var = np.array([x_moments(r, c, lam, 0.0, rho)[1] for r in rs])
    return float(np.trapezoid(density * var, rs))


class TestSeStep:
    def test_excess_vanishes_with_load(self):
        # the excess over the noise floor is linear in N/L, so it tends to 0
        # with the load (N/L -> 0 itself is outside the config invariant)
        samples, prior = bg_samples(20_000, 0.05, 1.0, stream(0, 0, "se"))
        noise_var = 0.01
        excess = [se_step(1.0, samples, prior,
                          noise_config(noise_var, n_users=n, pilot_len=100)) - noise_var
                  for n in (400, 200, 100)]
        assert excess[1] == pytest.approx(excess[0] / 2, rel=1e-9)
        assert excess[2] == pytest.approx(excess[0] / 4, rel=1e-9)

    def test_perfect_denoiser_stub(self, monkeypatch):
        cfg = noise_config(0.37, n_users=500, pilot_len=100)
        samples, prior = bg_samples(5_000, cfg.lam, 1.0, stream(0, 0, "se"))
        # se_step's denoiser is the parts kernel, bound as se.denoise_mean
        monkeypatch.setattr(se, "denoise_mean",
                            lambda re, im, c, pr: (samples.x_re, samples.x_im))
        parts_before = samples.x_re.copy(), samples.x_im.copy()
        assert se_step(2.0, samples, prior, cfg) == pytest.approx(0.37)
        # the denoiser's output is the samples' own parts: se_step must not write to it
        assert np.array_equal(samples.x_re, parts_before[0])
        assert np.array_equal(samples.x_im, parts_before[1])

    def test_against_radial_quadrature(self):
        # batch sized so the 1% tolerance sits at ~3 sigma of the MC noise
        lam, rho, c, noise_var = 0.05, 1.0, 1.0, 0.01
        cfg = noise_config(noise_var, n_users=500, pilot_len=100, lam=lam)
        samples, prior = bg_samples(2_000_000, lam, rho, stream(1, 0, "se-quad"))
        mc = se_step(c, samples, prior, cfg)
        ref = noise_var + (cfg.n_users / cfg.pilot_len) * \
            mmse_by_radial_quadrature(lam, rho, c)
        assert mc == pytest.approx(ref, rel=0.01)

    def test_monotone_in_load(self):
        samples, prior = bg_samples(50_000, 0.05, 1.0, stream(2, 0, "se"))
        outs = [se_step(0.5, samples, prior, noise_config(0.01, n_users=n, pilot_len=100))
                for n in (100, 200, 400, 800)]
        assert all(a <= b for a, b in zip(outs, outs[1:]))

    def test_never_below_noise_floor(self):
        cfg = noise_config(0.05, n_users=300, pilot_len=100)
        samples, prior = bg_samples(20_000, cfg.lam, 1.0, stream(3, 0, "se"))
        for c in (0.01, 0.1, 1.0, 10.0):
            assert se_step(c, samples, prior, cfg) >= 0.05

    def test_mmse_monotone_in_noise_level(self):
        # quadrature MSE of the exact posterior mean grows with c
        vals = [mmse_by_radial_quadrature(0.05, 1.0, c, n_radial=200)
                for c in (0.05, 0.2, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def complex_se_step(c, samples, prior, cfg):
    """The complex expressions se_step's part-wise form replaced, verbatim."""
    phi = samples.x + np.sqrt(c) * samples.v
    err = denoise_mean(phi, c, prior) - samples.x
    mse = float(np.mean(err.real ** 2 + err.imag ** 2))
    return cfg.noise_var + (cfg.n_users / cfg.pilot_len) * mse


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def step_cases(draw):
    """(c, samples, prior): per-sample or scalar priors, zero-mean and boundary pi."""
    m = draw(st.integers(1, 12))

    def vec(elements):
        return np.array(draw(st.lists(elements, min_size=m, max_size=m)))

    per_sample = draw(st.booleans())
    param = vec if per_sample else draw
    pi = param(st.one_of(st.sampled_from([0.0, 1.0]), _finite(0.0, 1.0)))
    if draw(st.booleans()):
        xi = np.zeros(m, dtype=complex) if per_sample else 0j
    else:
        xi = param(_finite(-3.0, 3.0)) + 1j * param(_finite(-3.0, 3.0))
    psi = param(_finite(1e-3, 10.0))
    active = vec(st.booleans())
    x = active * (vec(_finite(-5.0, 5.0)) + 1j * vec(_finite(-5.0, 5.0)))
    v = vec(_finite(-4.0, 4.0)) + 1j * vec(_finite(-4.0, 4.0))
    return draw(_finite(1e-4, 10.0)), SeSamples(x, v), BgPrior(pi, xi, psi)


class TestSeStepPartwise:
    @given(step_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_complex_step(self, case):
        c, samples, prior = case
        cfg = SystemConfig()
        assert se_step(c, samples, prior, cfg) == complex_se_step(c, samples, prior, cfg)


class TestSeFixpoint:
    def test_perfect_denoiser_converges_immediately(self, monkeypatch):
        cfg = noise_config(0.2, n_users=500, pilot_len=100)
        samples, prior = bg_samples(5_000, cfg.lam, 1.0, stream(0, 0, "se"))
        monkeypatch.setattr(se, "denoise_mean",
                            lambda re, im, c, pr: (samples.x_re, samples.x_im))
        fp = se_fixpoint(samples, prior, cfg)
        assert fp.converged and fp.c == pytest.approx(0.2)
        assert fp.iters <= 2

    def test_sparse_limit_returns_noise_floor(self):
        cfg = noise_config(0.1, n_users=500, pilot_len=100, lam=1e-4)
        samples, prior = bg_samples(50_000, cfg.lam, 1.0, stream(4, 0, "se"))
        fp = se_fixpoint(samples, prior, cfg)
        assert fp.converged
        assert fp.c == pytest.approx(0.1, rel=0.02)

    def test_fixpoint_above_noise_floor(self):
        cfg = noise_config(0.01, n_users=500, pilot_len=100, lam=0.05)
        samples, prior = bg_samples(100_000, cfg.lam, 1.0, stream(5, 0, "se"))
        fp = se_fixpoint(samples, prior, cfg)
        assert fp.converged and fp.c >= 0.01

    @pytest.mark.parametrize("cfg", [desk_config(),
                                     noise_config(0.01, n_users=500, pilot_len=100)],
                             ids=["desk", "noise-0.01"])
    def test_seeded_at_amp_init_c(self, cfg, monkeypatch):
        # state evolution predicts AMP's c, so it starts where amp_run does
        seeds = []
        original = se.se_step

        def probed(c, samples, prior, cfg):
            seeds.append(c)
            return original(c, samples, prior, cfg)

        monkeypatch.setattr(se, "se_step", probed)
        se_fixpoint(*bg_samples(1_000, cfg.lam, 1.0, stream(6, 0, "se")), cfg)
        s_mat = np.zeros((cfg.pilot_len, cfg.n_users), dtype=complex)
        start = amp_run(np.zeros(cfg.pilot_len, dtype=complex), s_mat,
                        BgPrior(cfg.lam, 0.0, 1.0), cfg.with_(amp_iters=0))
        assert seeds[0] == start.c


class TestSequentialTrace:
    def test_first_adt_traces_equal(self):
        cfg = desk_config(n_adts=4)
        tr = se_sequential_trace(cfg, n_samples=4000)
        assert tr.c_seq[0] == tr.c_static[0]

    def test_degenerate_structure_equal_everywhere(self):
        # r = 1 makes the activity prior exactly static; a speed sitting on
        # the first Bessel zero (2.4048 = 2*pi*D*T_b) makes eta ~ 0, so the
        # channel prior resets each ADT as well.
        from seqamp.config import CARRIER_HZ, SPEED_OF_LIGHT
        first_zero = 2.404825557695773
        cfg0 = desk_config(n_adts=5, r_scale=1.0)
        doppler = first_zero / (2 * np.pi * cfg0.adp_duration_s)
        v_kmh = doppler * SPEED_OF_LIGHT / CARRIER_HZ * 3.6
        cfg = cfg0.with_(speed_min_kmh=v_kmh, speed_max_kmh=v_kmh)
        tr = se_sequential_trace(cfg, n_samples=4000)
        assert np.allclose(tr.c_seq, tr.c_static, rtol=1e-6)

    def test_correlated_regime_dominance(self):
        cfg = desk_config(n_adts=8)
        tr = se_sequential_trace(cfg, n_samples=8000)
        assert np.all(tr.c_seq[1:] <= tr.c_static[1:] * (1 + 1e-9))
        assert tr.converged

    def test_normalisation_factor(self):
        spec = load_config(None, {"n_adts": 3, "tx_power_dbm": 33.0}, desk=True)
        rows = run_se(spec, n_samples=2000)
        tr = se_sequential_trace(spec.base, n_samples=2000)
        assert NOR_REF_DBM == 13.0
        assert np.allclose(se_levels(rows, "s_amp"), tr.c_seq * 10.0 ** 2.0)
        assert np.allclose(se_levels(rows, "amp_mmse"), tr.c_static * 10.0 ** 2.0)

    def test_large_pilot_len_approaches_awgn_level(self):
        # nor(c_t) -> (P/P0) * noise_var as the load vanishes
        spec = load_config(None, {"pilot_len": 500, "n_adts": 2}, desk=True)
        cfg = spec.base
        floor = 10.0 ** ((cfg.tx_power_dbm - NOR_REF_DBM) / 10.0) * cfg.noise_var
        rows = run_se(spec, n_samples=20_000)
        assert se_levels(rows, "amp_mmse")[-1] == pytest.approx(floor, rel=0.05)


class TestContiguousColumns:
    def test_strided_column_fixpoint_bit_equal_to_contiguous(self):
        cfg = desk_config()
        rng = stream(6, 0, "se-layout")
        wide = [bg_samples(5_000, cfg.lam, 1.0, rng) for _ in range(3)]
        x = np.stack([s.x for s, _ in wide], axis=1)
        v = np.stack([s.v for s, _ in wide], axis=1)
        prior = wide[1][1]
        strided = se_fixpoint(SeSamples(x[:, 1], v[:, 1]), prior, cfg)
        contiguous = se_fixpoint(
            SeSamples(np.ascontiguousarray(x[:, 1]), np.ascontiguousarray(v[:, 1])),
            prior, cfg)
        assert not x[:, 1].flags.c_contiguous
        assert strided.c == contiguous.c
        assert strided.iters == contiguous.iters

    def test_trace_hands_fixpoint_contiguous_columns(self, monkeypatch):
        layouts = []
        original = se.se_fixpoint

        def probed(samples, prior, cfg):
            layouts.append((samples.x.flags.c_contiguous,
                            samples.v.flags.c_contiguous))
            return original(samples, prior, cfg)

        monkeypatch.setattr(se, "se_fixpoint", probed)
        se_sequential_trace(desk_config(n_adts=3), n_samples=1000)
        assert layouts == [(True, True)] * 6


def _nudged(value):
    """A valid config value other than ``value``: ints plus one, floats times
    1.5, and a zero float one."""
    if isinstance(value, int):
        return value + 1
    return value * 1.5 if value else 1.0


def _trace_arrays(tr):
    return (tr.c_seq, tr.c_static)


class TestSharedDraws:
    def test_trace_from_shared_draws_equals_fresh_trace(self):
        cfg = desk_config(n_adts=4, tx_power_dbm=30.0)
        draws = se_draws(cfg.with_(tx_power_dbm=36.0, pilot_len=100), 2000)
        shared = se_sequential_trace(cfg, n_samples=2000, draws=draws)
        fresh = se_sequential_trace(cfg, n_samples=2000)
        for got, want in zip(_trace_arrays(shared), _trace_arrays(fresh)):
            assert np.array_equal(got, want)
        assert shared.converged == fresh.converged

    def test_run_se_rows_equal_fresh_traces(self):
        spec = load_config(None, {"seed": 3, "n_adts": 3, "tx_power_dbm": "27,33"},
                           desk=True)
        rows = run_se(spec, n_samples=1000)
        want = []
        for _, cfg in spec.sweep_points():
            tr = se_sequential_trace(cfg, n_samples=1000)
            nor = 10.0 ** ((cfg.tx_power_dbm - NOR_REF_DBM) / 10.0)
            for i in range(cfg.n_adts):
                want.append((i + 1, "s_amp", nor * tr.c_seq[i], cfg.pilot_len,
                             cfg.tx_power_dbm))
                want.append((i + 1, "amp_mmse", nor * tr.c_static[i], cfg.pilot_len,
                             cfg.tx_power_dbm))
        want.sort(key=lambda r: (r[3], r[4], r[0], r[1]))
        assert rows == want

    # every field outside SE_SWEEP_KEYS, so a field added to SystemConfig is
    # covered without editing this list
    @pytest.mark.parametrize("name", [f.name for f in fields(SystemConfig)
                                      if f.name not in se.SE_SWEEP_KEYS])
    def test_draws_for_another_key_raise(self, name):
        cfg = desk_config(n_adts=4)
        draws = se_draws(cfg, 500)
        other = cfg.with_(**{name: _nudged(getattr(cfg, name))})
        with pytest.raises(ValueError, match=f"SE draws made for {name} = "):
            se_sequential_trace(other, n_samples=500, draws=draws)

    def test_error_names_every_mismatch(self):
        cfg = desk_config(n_adts=4)
        with pytest.raises(ValueError) as exc:
            se_sequential_trace(cfg.with_(seed=2, lam=0.1), n_samples=400,
                                draws=se_draws(cfg, 500))
        assert str(exc.value) == ("SE draws made for lam = 0.05, not 0.1; "
                                  "seed = 1, not 2; n_samples = 500, not 400")

    def test_draws_for_another_sample_count_raise(self):
        cfg = desk_config(n_adts=4)
        with pytest.raises(ValueError, match="SE draws made for n_samples = 500, not 400"):
            se_sequential_trace(cfg, n_samples=400, draws=se_draws(cfg, 500))

    def test_sweep_point_allocates_less_than_one_trajectory_array(self,
                                                                  peak_traced_bytes):
        m, t_total = 2000, 40
        cfg = desk_config(n_adts=t_total, tx_power_dbm=30.0)
        draws = se_draws(cfg, m)
        se_sequential_trace(cfg, n_samples=m, draws=draws)
        peak = peak_traced_bytes(lambda: se_sequential_trace(
            cfg.with_(tx_power_dbm=36.0), n_samples=m, draws=draws))
        assert peak < m * t_total * np.dtype(complex).itemsize
