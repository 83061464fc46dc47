"""Scenario generation: geometry, traffic, channels, received signals."""

import re
from dataclasses import fields
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

import seqamp.scenario
from seqamp.config import CARRIER_HZ, SPEED_OF_LIGHT, SystemConfig, desk_config, doppler
from seqamp.rng import stream
from seqamp.scenario import (_bessel_j0, ar1_channels, gen_pilots, gen_user_profiles,
                             make_scenario, markov_activity, synthesize_received)


def j0_series(x, terms=60):
    """Power-series oracle: sum_k (-1)^k (x/2)^(2k) / (k!)^2."""
    acc = 0.0
    term = 1.0
    for k in range(terms):
        acc += term
        term *= -((x / 2.0) ** 2) / ((k + 1.0) ** 2)
    return acc


def j0_rounded(x):
    """J0(x) correctly rounded, from the power series in exact rational
    arithmetic (20 terms leave a remainder far below rounding for |x| < 1)."""
    q = Fraction(float(x)) ** 2 / 4
    acc, term = Fraction(0), Fraction(1)
    for k in range(1, 21):
        acc += term
        term *= -q / (k * k)
    return float(acc)


def eta_at(x):
    """eta that gen_user_profiles gives a user whose Doppler argument
    2*pi*D*T_b is x, reached by pinning the speed range to one speed."""
    cfg = SystemConfig(n_users=1, pilot_len=1)
    doppler = x / (2.0 * np.pi * cfg.adp_duration_s)
    v_kmh = doppler * SPEED_OF_LIGHT / CARRIER_HZ * 3.6
    p = gen_user_profiles(cfg.with_(speed_min_kmh=v_kmh, speed_max_kmh=v_kmh),
                          stream(0, 0, "p"))
    return float(p.ar_coeff[0])


def profiles_and_args(cfg):
    """gen_user_profiles' output and the Doppler arguments 2*pi*f_D*T_ADP it took J0 of."""
    args = []

    def recorded(cfg, speed_kmh):
        args.append(doppler(cfg, speed_kmh))
        return args[-1]

    with mock.patch.object(seqamp.scenario, "doppler", recorded):
        profiles = gen_user_profiles(cfg, stream(0, 0, "p"))
    return profiles, args[0]


class TestBesselJ0:
    """J0 as the model uses it: eta = J0(2*pi*D*T_b) from gen_user_profiles."""

    def test_zero_argument(self):
        assert abs(eta_at(0.0) - 1.0) <= 1e-7

    def test_first_zero_against_series(self):
        x = 2.404825557695773
        assert abs(j0_series(x)) < 1e-12  # oracle sanity
        assert abs(eta_at(x)) <= 1e-6

    def test_small_argument_against_truncated_series(self):
        x = 0.1018
        expected = 1.0 - x**2 / 4.0 + x**4 / 64.0
        assert abs(expected - 0.997411) < 1e-5
        assert abs(eta_at(x) - expected) <= 1e-5

    def test_operating_range_accuracy(self):
        # Doppler arguments 0..20 over 100001 users
        cfg = SystemConfig(n_users=100001, pilot_len=1)
        v_max = 20.0 / (2.0 * np.pi * cfg.adp_duration_s) * SPEED_OF_LIGHT / CARRIER_HZ * 3.6
        p, x = profiles_and_args(cfg.with_(speed_max_kmh=v_max))
        assert x.max() > 19.0
        assert np.max(np.abs(p.ar_coeff - scipy_j0(x))) <= 1e-7

    def test_series_agreement_midrange(self):
        for x in (0.5, 1.7, 3.3, 6.9):
            assert abs(eta_at(x) - j0_series(x)) <= 1e-7

    def test_zero_argument_is_exactly_one(self):
        assert eta_at(0.0) == 1.0

    def test_default_range_within_four_ulp_of_scipy(self):
        # the default speeds give arguments up to 0.102; the unit is the ulp
        # of 1.0, the top of the range, because scipy's own value sits up to
        # 2.3 of those from the correctly rounded one near x = 0.1
        x = np.linspace(0.0, 0.11, 20001)
        assert np.max(np.abs(_bessel_j0(x) - scipy_j0(x))) <= 4 * np.spacing(1.0)

    def test_default_range_within_one_ulp_of_exact(self):
        x = np.linspace(0.0, 0.11, 221)
        exact = np.array([j0_rounded(xi) for xi in x])
        assert np.all(np.abs(_bessel_j0(x) - exact) <= np.spacing(exact))

    @pytest.mark.parametrize("x_max, tol", [(1e3, 1e-13), (1e4, 1e-12)])
    def test_large_arguments_against_scipy(self, x_max, tol):
        x = np.linspace(0.0, x_max, 4001)
        assert np.max(np.abs(_bessel_j0(x) - scipy_j0(x))) <= tol

    def test_below_one_at_a_thousandth_km_per_hour(self):
        cfg = SystemConfig(n_users=8, pilot_len=4, speed_min_kmh=0.001, speed_max_kmh=0.001)
        assert np.all(gen_user_profiles(cfg, stream(0, 0, "p")).ar_coeff < 1.0)

    def test_profiles_memory_does_not_grow_with_node_count(self, peak_traced_bytes):
        # arguments up to 1e3 take about 1000 quadrature nodes; an (n, K)
        # grid of them would need over 60 times the bound
        n = 20000
        cfg = SystemConfig(n_users=n, pilot_len=4)
        v_max = 1e3 / (2.0 * np.pi * cfg.adp_duration_s) * SPEED_OF_LIGHT / CARRIER_HZ * 3.6
        cfg = cfg.with_(speed_max_kmh=v_max)
        runs = []
        peak = peak_traced_bytes(lambda: runs.append(profiles_and_args(cfg)))
        x = runs[0][1]
        assert x.max() > 990.0
        assert peak < 16 * n * 8


class TestNoiseVar:
    def test_reference_psd_and_bandwidth(self):
        cfg = SystemConfig(noise_psd_dbm_hz=-169.0, bandwidth_hz=1e7)
        assert cfg.noise_var == pytest.approx(1.2589e-13, rel=1e-4)

    def test_unit_bandwidth(self):
        cfg = SystemConfig(noise_psd_dbm_hz=-169.0, bandwidth_hz=1.0)
        assert cfg.noise_var == pytest.approx(1.2589e-20, rel=1e-4)

    def test_zero_dbm_hz(self):
        cfg = SystemConfig(noise_psd_dbm_hz=0.0, bandwidth_hz=1.0)
        assert cfg.noise_var == pytest.approx(1e-3, rel=1e-12)


class TestUserProfiles:
    def test_pathloss_at_one_km(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, dist_min_km=1.0, dist_max_km=1.0)
        profiles = gen_user_profiles(cfg, stream(0, 0, "p"))
        for pathloss_db in profiles.pathloss_db:
            assert pathloss_db == pytest.approx(-128.1, abs=1e-9)

    def test_pathloss_at_100m(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, dist_min_km=0.1, dist_max_km=0.1)
        profiles = gen_user_profiles(cfg, stream(0, 0, "p"))
        assert profiles.pathloss_db[0] == pytest.approx(-91.4, abs=1e-9)

    def test_doppler_and_ar_coefficient(self):
        # 50 km/h at 3.5 GHz: D = v*f_c/c ~ 162.1 Hz; eta = J0(2*pi*D*T_b)
        cfg = SystemConfig(n_users=2, pilot_len=2, speed_min_kmh=50.0, speed_max_kmh=50.0,
                           adp_duration_s=100e-6)
        p = gen_user_profiles(cfg, stream(0, 0, "p"))
        assert doppler(cfg, 50.0) / (2 * np.pi * cfg.adp_duration_s) == pytest.approx(
            162.1, abs=0.1)
        assert p.ar_coeff[0] == pytest.approx(j0_series(2 * np.pi * 162.1 * 100e-6), abs=1e-5)
        assert p.ar_coeff[0] == pytest.approx(0.99741, abs=2e-4)

    def test_ar_coefficient_is_j0_below_one(self):
        # eta = J0(2*pi*D*T_b) to rounding over the full-scale speed range,
        # and strictly below 1 for slow but moving users (0.001 km/h still
        # puts 1 - J0 near 1e-12, far above the spacing of doubles below 1)
        cfg = SystemConfig(n_users=1000, pilot_len=4)
        p, x = profiles_and_args(cfg)
        oracle = np.array([j0_series(xi) for xi in x])
        assert np.max(np.abs(p.ar_coeff - oracle)) <= 1e-12
        slow = cfg.with_(speed_min_kmh=0.001, speed_max_kmh=0.01)
        assert np.all(gen_user_profiles(slow, stream(0, 0, "p")).ar_coeff < 1.0)

    def test_channel_var_absorbs_tx_power(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, dist_min_km=1.0, dist_max_km=1.0,
                           tx_power_dbm=33.0)
        p = gen_user_profiles(cfg, stream(0, 0, "p"))
        assert p.channel_var[0] == pytest.approx(10 ** ((33.0 - 128.1 - 30.0) / 10.0))

    def test_ar_coeff_bounded(self):
        cfg = SystemConfig(n_users=200, pilot_len=100, speed_max_kmh=0.0)
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
        a = markov_activity(cfg.lam, cfg.p01, cfg.p10, cfg.n_users, cfg.n_adts,
                            stream(1, 0, "a"))
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

    def test_in_place_recursion_bit_equal_to_two_temporaries(self):
        # the recursion as written with a unit-draw matrix and one temporary
        # per term; the in-place form adds the same two terms the other way
        # round, and IEEE addition commutes
        cfg = desk_config()
        profiles = gen_user_profiles(cfg, stream(0, 0, "p"))
        rho, eta, n_steps = profiles.channel_var, profiles.ar_coeff, 20
        rng = stream(0, 0, "h")
        shape = (rho.shape[0], n_steps)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.empty(shape, dtype=complex)
        want[:, 0] = np.sqrt(rho / 2.0) * w[:, 0]
        innov_std = np.sqrt((1.0 - eta**2) * rho / 2.0)
        for t in range(1, n_steps):
            want[:, t] = eta * want[:, t - 1] + innov_std * w[:, t]
        got = ar1_channels(rho, eta, n_steps, stream(0, 0, "h"))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_profiles_drive_ar1_channels(self):
        cfg = desk_config()
        profiles = gen_user_profiles(cfg, stream(0, 0, "p"))
        h = ar1_channels(profiles.channel_var, profiles.ar_coeff, cfg.n_adts,
                         stream(0, 0, "h"))
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
        assert emp == pytest.approx(cfg.noise_var, rel=0.05)

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
            SystemConfig(dist_min_km=0.0)

    def test_r_scale_one_allowed(self):
        cfg = SystemConfig(r_scale=1.0)
        assert cfg.p01 == pytest.approx(1 - cfg.lam)

    @pytest.mark.parametrize("build, name", [
        (lambda: desk_config(pilot_len=100.5), "pilot_len"),
        (lambda: SystemConfig(seed=1.5), "seed"),
        (lambda: SystemConfig(tx_power_dbm=np.float32("nan")), "tx_power_dbm"),
    ], ids=["pilot_len", "seed", "tx_power_dbm"])
    def test_rejects_a_value_its_field_cannot_hold(self, build, name):
        # each once built a config that ran: pilot_len died in make_scenario,
        # seed 1.5 ran seed 1's streams, and a float32 NaN power passed
        with pytest.raises(ValueError, match=f"^{name} must be "):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: SystemConfig(speed_min_kmh=60.0),
         "speeds must satisfy 0 <= speed_min_kmh <= speed_max_kmh"),
        (lambda: SystemConfig(speed_min_kmh=-1.0),
         "speeds must satisfy 0 <= speed_min_kmh <= speed_max_kmh"),
        (lambda: SystemConfig(amp_iters=-1), "amp_iters must be >= 0 and n_trials >= 1"),
        (lambda: SystemConfig(n_trials=0), "amp_iters must be >= 0 and n_trials >= 1"),
        # a library config once escaped the power limits: se_sequential_trace
        # on desk_config(tx_power_dbm=1700) warned of overflow and returned
        # converged=True with c about 1.5e125
        (lambda: SystemConfig(tx_power_dbm=1540), "transmit power at tx_power_dbm = "
         "1540 is 1e+151 W, above the 1e+150 W the kernels can carry"),
        (lambda: desk_config(tx_power_dbm=1700), "transmit power at tx_power_dbm = "
         "1700 is 1e+167 W, above the 1e+150 W the kernels can carry"),
    ], ids=["speed_order", "speed_sign", "amp_iters", "n_trials", "power", "desk_power"])
    def test_rejects_settings_it_cannot_run(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_fields_store_python_numbers(self):
        power = SystemConfig(tx_power_dbm=33).tx_power_dbm
        assert power == 33.0 and type(power) is float
        pilot_len = SystemConfig(pilot_len=np.int64(100)).pilot_len
        assert pilot_len == 100 and type(pilot_len) is int
        assert SystemConfig(seed=2**64 - 1).seed == 2**64 - 1
        assert SystemConfig(seed="18446744073709551615").seed == 2**64 - 1

    def test_float_field_beyond_float_range_is_not_finite(self):
        with pytest.raises(ValueError, match="^tx_power_dbm must be finite, got 10{400}"):
            SystemConfig(tx_power_dbm=10**400)
