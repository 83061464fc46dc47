"""State-evolution step, fixpoint and sequential traces."""

import numpy as np
import pytest

import seqamp.state_evolution as se
from seqamp.amp import amp_init
from seqamp.config import SystemConfig, desk_config
from seqamp.denoiser import BgPrior
from seqamp.quadrature import x_moments
from seqamp.rng import stream
from seqamp.state_evolution import (NOR_REF_DBM, SeSamples, se_fixpoint,
                                    se_sequential_trace, se_step)


def config_with_noise(noise_var, n_users, pilot_len, **kw):
    psd = 30.0 + 10.0 * np.log10(noise_var)
    return SystemConfig(n_users=n_users, pilot_len=pilot_len,
                        noise_psd_dbm_hz=psd, bandwidth_hz=1.0, **kw)


def bg_samples(m, lam, rho, rng):
    active = rng.random(m) < lam
    x = active * np.sqrt(rho / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    prior = BgPrior(np.full(m, lam), np.zeros(m, dtype=complex), np.full(m, rho))
    v = np.sqrt(0.5) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return SeSamples(x, prior, v)


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
        samples = bg_samples(20_000, 0.05, 1.0, stream(0, 0, "se"))
        noise_var = 0.01
        excess = [se_step(1.0, samples, config_with_noise(noise_var, n, 100))
                  - noise_var for n in (400, 200, 100)]
        assert excess[1] == pytest.approx(excess[0] / 2, rel=1e-9)
        assert excess[2] == pytest.approx(excess[0] / 4, rel=1e-9)

    def test_perfect_denoiser_stub(self, monkeypatch):
        cfg = config_with_noise(0.37, n_users=500, pilot_len=100)
        samples = bg_samples(5_000, cfg.lam, 1.0, stream(0, 0, "se"))
        monkeypatch.setattr(se, "denoise_mean", lambda p, c, pr: samples.x)
        assert se_step(2.0, samples, cfg) == pytest.approx(0.37)

    def test_against_radial_quadrature(self):
        # batch sized so the 1% tolerance sits at ~3 sigma of the MC noise
        lam, rho, c, noise_var = 0.05, 1.0, 1.0, 0.01
        cfg = config_with_noise(noise_var, n_users=500, pilot_len=100, lam=lam)
        samples = bg_samples(2_000_000, lam, rho, stream(1, 0, "se-quad"))
        mc = se_step(c, samples, cfg)
        ref = noise_var + (cfg.n_users / cfg.pilot_len) * \
            mmse_by_radial_quadrature(lam, rho, c)
        assert mc == pytest.approx(ref, rel=0.01)

    def test_monotone_in_load(self):
        samples = bg_samples(50_000, 0.05, 1.0, stream(2, 0, "se"))
        outs = [se_step(0.5, samples, config_with_noise(0.01, n, 100))
                for n in (100, 200, 400, 800)]
        assert all(a <= b for a, b in zip(outs, outs[1:]))

    def test_never_below_noise_floor(self):
        cfg = config_with_noise(0.05, n_users=300, pilot_len=100)
        samples = bg_samples(20_000, cfg.lam, 1.0, stream(3, 0, "se"))
        for c in (0.01, 0.1, 1.0, 10.0):
            assert se_step(c, samples, cfg) >= 0.05

    def test_mmse_monotone_in_noise_level(self):
        # quadrature MSE of the exact posterior mean grows with c
        vals = [mmse_by_radial_quadrature(0.05, 1.0, c, n_radial=200)
                for c in (0.05, 0.2, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSeFixpoint:
    def test_perfect_denoiser_converges_immediately(self, monkeypatch):
        cfg = config_with_noise(0.2, n_users=500, pilot_len=100)
        samples = bg_samples(5_000, cfg.lam, 1.0, stream(0, 0, "se"))
        monkeypatch.setattr(se, "denoise_mean", lambda p, c, pr: samples.x)
        fp = se_fixpoint(samples, cfg)
        assert fp.converged and fp.c == pytest.approx(0.2)
        assert fp.iters <= 2

    def test_sparse_limit_returns_noise_floor(self):
        cfg = config_with_noise(0.1, n_users=500, pilot_len=100, lam=1e-4)
        samples = bg_samples(50_000, cfg.lam, 1.0, stream(4, 0, "se"))
        fp = se_fixpoint(samples, cfg)
        assert fp.converged
        assert fp.c == pytest.approx(0.1, rel=0.02)

    def test_fixpoint_above_noise_floor(self):
        cfg = config_with_noise(0.01, n_users=500, pilot_len=100, lam=0.05)
        samples = bg_samples(100_000, cfg.lam, 1.0, stream(5, 0, "se"))
        fp = se_fixpoint(samples, cfg)
        assert fp.converged and fp.c >= 0.01

    @pytest.mark.parametrize("cfg", [desk_config(), config_with_noise(0.01, 500, 100)],
                             ids=["desk", "noise-0.01"])
    def test_seeded_at_amp_init_c(self, cfg, monkeypatch):
        # state evolution predicts AMP's c, so it starts where amp_init does
        seeds = []
        original = se.se_step

        def probed(c, samples, cfg):
            seeds.append(c)
            return original(c, samples, cfg)

        monkeypatch.setattr(se, "se_step", probed)
        se_fixpoint(bg_samples(1_000, cfg.lam, 1.0, stream(6, 0, "se")), cfg)
        assert seeds[0] == amp_init(np.zeros(cfg.pilot_len, dtype=complex), cfg).c


class TestSequentialTrace:
    def test_first_adt_traces_equal(self):
        cfg = desk_config(n_adts=4)
        tr = se_sequential_trace(cfg, n_samples=4000)
        assert tr.c_seq[0] == tr.c_static[0]

    def test_degenerate_structure_equal_everywhere(self):
        # r = 1 makes the activity prior exactly static; a speed sitting on
        # the first Bessel zero (2.4048 = 2*pi*D*T_b) makes eta ~ 0, so the
        # channel prior resets each ADT as well.
        from seqamp.config import SPEED_OF_LIGHT
        first_zero = 2.404825557695773
        cfg0 = desk_config(n_adts=5, r_scale=1.0)
        doppler = first_zero / (2 * np.pi * cfg0.adp_duration_s)
        v_kmh = doppler * SPEED_OF_LIGHT / cfg0.carrier_hz * 3.6
        cfg = cfg0.with_(speed_range_kmh=(v_kmh, v_kmh))
        tr = se_sequential_trace(cfg, n_samples=4000)
        assert np.allclose(tr.c_seq, tr.c_static, rtol=1e-6)

    def test_correlated_regime_dominance(self):
        cfg = desk_config(n_adts=8)
        tr = se_sequential_trace(cfg, n_samples=8000)
        assert np.all(tr.c_seq[1:] <= tr.c_static[1:] * (1 + 1e-9))
        assert tr.converged

    def test_normalisation_factor(self):
        cfg = desk_config(n_adts=3, tx_power_dbm=33.0)
        tr = se_sequential_trace(cfg, n_samples=2000)
        assert NOR_REF_DBM == 13.0
        assert np.allclose(tr.nor_seq, tr.c_seq * 10.0 ** 2.0)

    def test_large_pilot_len_approaches_awgn_level(self):
        # nor(c_t) -> (P/P0) * noise_var as the load vanishes
        cfg = desk_config(n_users=500, pilot_len=500, n_adts=2)
        tr = se_sequential_trace(cfg, n_samples=20_000)
        from seqamp.scenario import derive_noise_var
        floor = 10.0 ** ((cfg.tx_power_dbm - NOR_REF_DBM) / 10.0) \
            * derive_noise_var(cfg)
        assert tr.nor_static[-1] == pytest.approx(floor, rel=0.05)


class TestContiguousColumns:
    def test_strided_column_fixpoint_bit_equal_to_contiguous(self):
        cfg = desk_config()
        rng = stream(6, 0, "se-layout")
        wide = [bg_samples(5_000, cfg.lam, 1.0, rng) for _ in range(3)]
        x = np.stack([s.x for s in wide], axis=1)
        v = np.stack([s.v for s in wide], axis=1)
        prior = wide[1].prior
        strided = se_fixpoint(SeSamples(x[:, 1], prior, v[:, 1]), cfg)
        contiguous = se_fixpoint(
            SeSamples(np.ascontiguousarray(x[:, 1]), prior,
                      np.ascontiguousarray(v[:, 1])), cfg)
        assert not x[:, 1].flags.c_contiguous
        assert strided.c == contiguous.c
        assert strided.iters == contiguous.iters

    def test_trace_hands_fixpoint_contiguous_columns(self, monkeypatch):
        layouts = []
        original = se.se_fixpoint

        def probed(samples, cfg):
            layouts.append((samples.x.flags.c_contiguous,
                            samples.v.flags.c_contiguous))
            return original(samples, cfg)

        monkeypatch.setattr(se, "se_fixpoint", probed)
        se_sequential_trace(desk_config(n_adts=3), n_samples=1000)
        assert layouts == [(True, True)] * 6
