"""Scenario generation: geometry, traffic, channels, received signals."""

from dataclasses import fields

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

from seqamp.config import SystemConfig, desk_config
from seqamp.rng import stream
from seqamp.scenario import (ar1_channels, bessel_j0, derive_noise_var,
                             gen_pilots, gen_user_profiles, make_scenario,
                             markov_activity, simulate_activity,
                             simulate_channels, synthesize_received)


def j0_series(x, terms=60):
    """Power-series oracle: sum_k (-1)^k (x/2)^(2k) / (k!)^2."""
    acc = 0.0
    term = 1.0
    for k in range(terms):
        acc += term
        term *= -((x / 2.0) ** 2) / ((k + 1.0) ** 2)
    return acc


class TestBesselJ0:
    def test_zero_argument(self):
        assert abs(bessel_j0(0.0) - 1.0) <= 1e-7

    def test_first_zero_against_series(self):
        x = 2.404825557695773
        assert abs(j0_series(x)) < 1e-12  # oracle sanity
        assert abs(bessel_j0(x)) <= 1e-6

    def test_small_argument_against_truncated_series(self):
        x = 0.1018
        expected = 1.0 - x**2 / 4.0 + x**4 / 64.0
        assert abs(expected - 0.997411) < 1e-5
        assert abs(bessel_j0(x) - expected) <= 1e-5

    def test_operating_range_accuracy(self):
        x = np.linspace(-20, 20, 100001)
        assert np.max(np.abs(bessel_j0(x) - scipy_j0(x))) <= 1e-7

    def test_series_agreement_midrange(self):
        for x in (0.5, 1.7, 3.3, 6.9):
            assert abs(bessel_j0(x) - j0_series(x)) <= 1e-7


class TestNoiseVar:
    def test_reference_psd_and_bandwidth(self):
        cfg = SystemConfig(noise_psd_dbm_hz=-169.0, bandwidth_hz=1e7)
        assert derive_noise_var(cfg) == pytest.approx(1.2589e-13, rel=1e-4)

    def test_unit_bandwidth(self):
        cfg = SystemConfig(noise_psd_dbm_hz=-169.0, bandwidth_hz=1.0)
        assert derive_noise_var(cfg) == pytest.approx(1.2589e-20, rel=1e-4)

    def test_zero_dbm_hz(self):
        cfg = SystemConfig(noise_psd_dbm_hz=0.0, bandwidth_hz=1.0)
        assert derive_noise_var(cfg) == pytest.approx(1e-3, rel=1e-12)


class TestUserProfiles:
    def test_pathloss_at_one_km(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, dist_range_km=(1.0, 1.0))
        profiles = gen_user_profiles(cfg, stream(0, 0, "p"))
        for pathloss_db in profiles.pathloss_db:
            assert pathloss_db == pytest.approx(-128.1, abs=1e-9)

    def test_pathloss_at_100m(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, dist_range_km=(0.1, 0.1))
        profiles = gen_user_profiles(cfg, stream(0, 0, "p"))
        assert profiles.pathloss_db[0] == pytest.approx(-91.4, abs=1e-9)

    def test_doppler_and_ar_coefficient(self):
        # 50 km/h at 3.5 GHz: D = v*f_c/c ~ 162.1 Hz; eta = J0(2*pi*D*T_b)
        cfg = SystemConfig(n_users=2, pilot_len=2, speed_range_kmh=(50.0, 50.0),
                           carrier_hz=3.5e9, adp_duration_s=100e-6)
        p = gen_user_profiles(cfg, stream(0, 0, "p"))
        assert p.doppler_hz[0] == pytest.approx(162.1, abs=0.1)
        assert p.ar_coeff[0] == pytest.approx(j0_series(2 * np.pi * 162.1 * 100e-6), abs=1e-5)
        assert p.ar_coeff[0] == pytest.approx(0.99741, abs=2e-4)

    def test_channel_var_absorbs_tx_power(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, dist_range_km=(1.0, 1.0),
                           tx_power_dbm=33.0)
        p = gen_user_profiles(cfg, stream(0, 0, "p"))
        assert p.channel_var[0] == pytest.approx(10 ** ((33.0 - 128.1 - 30.0) / 10.0))

    def test_ar_coeff_bounded(self):
        cfg = SystemConfig(n_users=200, pilot_len=100, speed_range_kmh=(0.0, 0.0))
        profiles = gen_user_profiles(cfg, stream(0, 0, "p"))
        assert all(abs(eta) <= 1.0 for eta in profiles.ar_coeff)


class TestActivity:
    def test_steady_state_relation(self):
        # p10*(1-lam) + lam*(1-p01) = lam must hold for the derived pair
        cfg = SystemConfig(lam=0.05, r_scale=0.1)
        assert cfg.p01 == pytest.approx(0.095)
        assert cfg.p10 == pytest.approx(0.005)
        assert cfg.p10 * (1 - cfg.lam) + cfg.lam * (1 - cfg.p01) == pytest.approx(cfg.lam)
        # equivalently p10 = lam*p01/(1-lam)
        assert cfg.p10 == pytest.approx(cfg.lam * cfg.p01 / (1 - cfg.lam))

    def test_degenerate_rows_give_iid_columns(self):
        # p01 = 1-lam, p10 = lam: transition rows equal the stationary row
        lam = 0.3
        a = markov_activity(lam, 1 - lam, lam, 40_000, 2, stream(3, 0, "a"))
        prev, nxt = a[:, 0].astype(bool), a[:, 1]
        p_after_active = nxt[prev].mean()
        p_after_idle = nxt[~prev].mean()
        assert abs(p_after_active - p_after_idle) < 0.02
        assert abs(nxt.mean() - lam) < 0.01

    def test_long_run_active_fraction(self):
        cfg = SystemConfig(n_users=2000, pilot_len=400, n_adts=2000,
                           lam=0.05, r_scale=0.1)
        a = simulate_activity(cfg, stream(1, 0, "a"))
        assert abs(a.mean() - 0.05) <= 0.005


class TestChannels:
    def test_unit_ar_coeff_freezes_channel(self):
        h = ar1_channels(np.ones(50), np.ones(50), 8, stream(2, 0, "h"))
        assert np.allclose(h, h[:, :1])

    def test_zero_ar_coeff_gives_iid_columns(self):
        h = ar1_channels(np.ones(60_000), np.zeros(60_000), 2, stream(2, 0, "h"))
        corr = np.abs(np.mean(np.conj(h[:, 0]) * h[:, 1]))
        assert corr < 0.01

    def test_stationary_variance_and_lag1(self):
        rho, eta = 1.0, 0.9974
        h = ar1_channels(np.full(30_000, rho), np.full(30_000, eta), 30,
                         stream(2, 0, "h"))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(rho, rel=0.02)
        lag = np.real(np.conj(h[:, :-1]) * h[:, 1:]).sum()
        assert lag / np.sum(np.abs(h[:, :-1]) ** 2) == pytest.approx(eta, abs=0.005)

    def test_profiles_drive_simulate_channels(self):
        cfg = desk_config()
        profiles = gen_user_profiles(cfg, stream(0, 0, "p"))
        h = simulate_channels(profiles, cfg, stream(0, 0, "h"))
        assert h.shape == (cfg.n_users, cfg.n_adts)


class TestReceived:
    def test_all_idle_noiseless(self):
        s = gen_pilots(SystemConfig(n_users=8, pilot_len=4), stream(0, 0, "s"))
        x = np.zeros((8, 3), dtype=complex)
        y = synthesize_received(s, x, 0.0, stream(0, 0, "w"))
        assert np.all(y == 0)

    def test_single_active_user_noiseless(self):
        s = gen_pilots(SystemConfig(n_users=8, pilot_len=4), stream(0, 0, "s"))
        x = np.zeros((8, 1), dtype=complex)
        x[3, 0] = 2.0 - 1.0j
        y = synthesize_received(s, x, 0.0, stream(0, 0, "w"))
        assert np.allclose(y[:, 0], s[:, 3] * (2.0 - 1.0j))

    def test_residual_noise_variance(self):
        cfg = SystemConfig(n_users=50, pilot_len=20, n_adts=500)
        scn = make_scenario(cfg, 0)
        resid = scn.received - scn.pilots @ scn.sparse_signal
        emp = np.mean(np.abs(resid) ** 2)
        assert emp == pytest.approx(scn.noise_var, rel=0.05)

    def test_dimension_mismatch_rejected(self):
        s = gen_pilots(SystemConfig(n_users=8, pilot_len=4), stream(0, 0, "s"))
        with pytest.raises(ValueError):
            synthesize_received(s, np.zeros((5, 2), dtype=complex), 0.0,
                                stream(0, 0, "w"))


class TestScenarioDeterminism:
    def test_identical_seed_identical_scenario(self):
        cfg = desk_config(n_users=60, pilot_len=20, n_adts=4)
        a, b = make_scenario(cfg, 3), make_scenario(cfg, 3)
        assert np.array_equal(a.pilots, b.pilots)
        assert np.array_equal(a.activity, b.activity)
        assert np.array_equal(a.channels, b.channels)
        assert np.array_equal(a.received, b.received)

    def test_profile_override_with_drawn_profiles_is_bit_identical(self):
        cfg = desk_config(n_users=60, pilot_len=20, n_adts=4)
        drawn = gen_user_profiles(cfg, stream(cfg.seed, 3, "profiles"))
        a, b = make_scenario(cfg, 3, profiles=drawn), make_scenario(cfg, 3)

        def same_bits(x, y):
            x, y = np.asarray(x), np.asarray(y)
            return (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())

        for f in fields(a):
            if f.name == "profiles":
                for g in fields(a.profiles):
                    assert same_bits(getattr(a.profiles, g.name),
                                     getattr(b.profiles, g.name)), g.name
            else:
                assert same_bits(getattr(a, f.name), getattr(b, f.name)), f.name

    def test_trials_are_independent_streams(self):
        cfg = desk_config(n_users=60, pilot_len=20, n_adts=4)
        a, b = make_scenario(cfg, 0), make_scenario(cfg, 1)
        assert not np.array_equal(a.received, b.received)

    def test_pilot_column_power(self):
        cfg = SystemConfig(n_users=2000, pilot_len=200)
        s = gen_pilots(cfg, stream(1, 0, "s"))
        norms = np.sum(np.abs(s) ** 2, axis=0)
        assert norms.mean() == pytest.approx(1.0, rel=0.01)
        assert np.var(s.real) == pytest.approx(0.5 / cfg.pilot_len, rel=0.02)


class TestConfigValidation:
    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            SystemConfig(lam=0.0)

    def test_rejects_pilot_longer_than_users(self):
        with pytest.raises(ValueError):
            SystemConfig(n_users=10, pilot_len=11)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            SystemConfig(dist_range_km=(0.0, 1.0))

    def test_r_scale_one_allowed(self):
        cfg = SystemConfig(r_scale=1.0)
        assert cfg.p01 == pytest.approx(1 - cfg.lam)
