"""Moment matching, prior propagation and the sequential outer loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqamp.baselines import amp_mmse
from seqamp.config import SystemConfig, desk_config
from seqamp.denoiser import BgPrior, denoise_mean, gamma, log_gamma
from seqamp.quadrature import h_moments
from seqamp.scenario import channel_vars, make_scenario
from seqamp.sequential import (initial_prior, moment_match, posterior_update,
                               prior_propagate, s_amp_run)


class TestMomentMatch:
    def test_symmetric_hand_chain(self):
        # gamma = 2 -> pi_bar = 1/3, tau = 0, xi_bar = 0,
        # psi_bar = (1/3)*0.5 + (2/3)*1 = 5/6
        # (pi = 1 leaves the active branch: tau = 0, kappa = 1/2)
        prior = BgPrior(0.5, 0.0, 1.0)
        mm = moment_match(np.array([0.0 + 0j]), 1.0, prior)
        assert mm.pi_bar[0] == pytest.approx(1 / 3)
        assert mm.xi_bar[0] == 0.0
        assert mm.psi_bar[0] == pytest.approx(5 / 6)
        active = moment_match(np.array([0.0 + 0j]), 1.0, BgPrior(1.0, 0.0, 1.0))
        assert active.pi_bar[0] == 1.0 and active.xi_bar[0] == 0.0
        assert active.psi_bar[0] == pytest.approx(0.5)

    def test_boundary_priors_short_circuit(self):
        phi = np.array([1.3 - 0.2j, 1.3 - 0.2j])
        prior = BgPrior(np.array([0.0, 1.0]), np.array([0.4 + 0j, 0.4 + 0j]),
                        np.array([0.8, 0.8]))
        mm = moment_match(phi, 0.5, prior)
        # pi = 0: posterior is the idle branch; h keeps its prior
        assert mm.pi_bar[0] == 0.0
        assert mm.xi_bar[0] == 0.4 + 0j
        assert mm.psi_bar[0] == pytest.approx(0.8)
        # pi = 1: posterior is the active branch (tau, kappa)
        tau = (0.8 * phi[1] + 0.4 * 0.5) / (0.8 + 0.5)
        kappa = 0.8 * 0.5 / (0.8 + 0.5)
        assert mm.pi_bar[1] == 1.0
        assert mm.xi_bar[1] == pytest.approx(tau)
        assert mm.psi_bar[1] == pytest.approx(kappa)

    def test_matches_quadrature_moments(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            pi = rng.uniform(0.05, 0.95)
            psi = rng.uniform(0.2, 2.0)
            c = rng.uniform(0.1, 2.0)
            xi = 0.6 * (rng.standard_normal() + 1j * rng.standard_normal())
            phi = rng.standard_normal() + 1j * rng.standard_normal()
            mm = moment_match(np.array([phi]), c, BgPrior(pi, xi, psi))
            ea, eh, vh = h_moments(phi, c, pi, xi, psi)
            assert mm.pi_bar[0] == pytest.approx(ea, rel=1e-6)
            assert mm.xi_bar[0] == pytest.approx(eh, rel=1e-6)
            assert mm.psi_bar[0] == pytest.approx(vh, rel=1e-6)

    def test_pi_bar_equals_one_over_one_plus_gamma(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            pi = rng.uniform(0.01, 0.99)
            psi = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.05, 3.0)
            xi = rng.standard_normal() + 1j * rng.standard_normal()
            phi = 2.0 * (rng.standard_normal() + 1j * rng.standard_normal())
            prior = BgPrior(pi, xi, psi)
            mm = moment_match(np.array([phi]), c, prior)
            assert abs(mm.pi_bar[0] - 1.0 / (1.0 + float(gamma(phi, c, prior)))) <= 1e-12

    def test_kappa_strictly_below_both_scales(self):
        # an active user's psi_bar at phi = 0 is kappa itself
        rng = np.random.default_rng(37)
        for _ in range(100):
            c = rng.uniform(1e-3, 5.0)
            psi = rng.uniform(1e-3, 5.0)
            prior = BgPrior(1.0, 0.0, psi)
            kappa = moment_match(np.array([0j]), c, prior).psi_bar[0]
            assert 0.0 < kappa < min(c, psi)

    def test_psi_bar_never_negative(self):
        # difference of near-equal terms: the floor must hold
        prior = BgPrior(1.0, 10.0 + 0j, 1e-6)
        mm = moment_match(np.array([10.0 + 0j]), 1e-9, prior,
                          rho=np.array([1.0]))
        assert mm.psi_bar[0] >= 1e-18

    def test_zero_mean_xi_bar_is_denoiser_mean(self):
        rng = np.random.default_rng(43)
        n, c = 20_000, 0.3
        psi = rng.uniform(0.1, 2.0, n)
        active = rng.random(n) < 0.3
        phi = (np.sqrt(np.where(active, psi + c, c))
               * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        prior = BgPrior(rng.uniform(0.01, 0.99, n), np.zeros(n, dtype=complex), psi)
        mm = moment_match(phi, c, prior)
        assert np.array_equal(mm.xi_bar, denoise_mean(phi, c, prior))

    def test_clip_builds_a_prior_only_when_it_moves_pi(self, monkeypatch):
        phi = np.array([0.9 - 0.4j, 0.1 + 0.2j, -1.5 + 0j, 0.3j, 2.0 + 1j])
        xi = np.array([0j, 0.5 - 0.5j, 0j, 1j, -0.2 + 0j])
        psi = np.array([0.5, 1.0, 2.0, 0.7, 1.3])
        in_range = BgPrior(np.array([0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0]), xi, psi)
        below = BgPrior(np.array([0.0, 1e-15, 0.3, 1.0 - 1e-16, 1.0]), xi, psi)
        built = []
        post_init = BgPrior.__post_init__

        def counting(prior):
            built.append(prior)
            post_init(prior)

        monkeypatch.setattr(BgPrior, "__post_init__", counting)
        want = moment_match(phi, 0.4, in_range)
        assert built == []
        got = moment_match(phi, 0.4, below)
        assert len(built) == 1
        for field in ("pi_bar", "xi_bar", "psi_bar"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def logistic(t):
    """1/(1 + exp(-t)), the formula of scipy.special.expit."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


# moment_match as it was on complex arrays, verbatim but for tau and kappa,
# which take the denoiser's complex Gaussian-branch forms; log_gamma's
# part-wise form is pinned to its complex one in test_denoiser, so it is
# called as it is.
def complex_moment_match(phi, c, prior, rho=None):
    pi = prior.pi
    interior = (pi > 0.0) & (pi < 1.0)
    pi_safe = np.where(interior, np.clip(pi, 1e-12, 1.0 - 1e-12), pi)
    prior_safe = BgPrior(pi_safe, prior.xi, prior.psi)

    kappa = prior.psi * c / (prior.psi + c)
    tau = ((prior.psi * np.asarray(phi, dtype=complex) + prior.xi * c)
           / (prior.psi + c))
    pi_bar = logistic(-log_gamma(phi, c, prior_safe))
    xi_bar = pi_bar * tau + (1.0 - pi_bar) * prior.xi
    second = (pi_bar * (np.abs(tau) ** 2 + kappa)
              + (1.0 - pi_bar) * (np.abs(prior.xi) ** 2 + prior.psi))
    floor_scale = prior.psi if rho is None else np.asarray(rho, dtype=float)
    psi_bar = np.maximum(second - np.abs(xi_bar) ** 2, 1e-18 * floor_scale)
    return pi_bar, xi_bar, psi_bar


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def match_cases(draw):
    """(phi, c, prior): per-user vectors, a scalar prior over a vector phi,
    or scalars; zero-mean and boundary (pi in {0, 1}) priors included."""
    layout = draw(st.sampled_from(["vector", "broadcast", "scalar"]))
    n = draw(st.integers(1, 8)) if layout == "vector" else None

    def param(elements):
        if n is None:
            return draw(elements)
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    pi = param(st.one_of(st.sampled_from([0.0, 1.0]), _finite(0.0, 1.0)))
    if draw(st.booleans()):
        xi = 0j if n is None else np.zeros(n, dtype=complex)
    else:
        xi = param(_finite(-3.0, 3.0)) + 1j * param(_finite(-3.0, 3.0))
    psi = param(_finite(1e-3, 10.0))
    m = draw(st.integers(1, 8)) if layout == "broadcast" else n
    if m is None:
        phi = complex(draw(_finite(-20.0, 20.0)), draw(_finite(-20.0, 20.0)))
    else:
        parts = st.lists(_finite(-20.0, 20.0), min_size=m, max_size=m)
        phi = np.array(draw(parts)) + 1j * np.array(draw(parts))
    return phi, draw(_finite(1e-4, 10.0)), BgPrior(pi, xi, psi)


class TestPartwiseEqualsComplex:
    @given(match_cases())
    @settings(max_examples=300, deadline=None)
    def test_moment_match(self, case):
        phi, c, prior = case
        mm = moment_match(phi, c, prior)
        for got, want in zip((mm.pi_bar, mm.xi_bar, mm.psi_bar),
                             complex_moment_match(phi, c, prior)):
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


class TestPriorPropagate:
    def test_stationary_fixed_point(self):
        cfg = SystemConfig(lam=0.05, r_scale=0.1)
        post = _fake_post(pi=0.05, xi=0.0, psi=1.0)
        nxt = prior_propagate(post, np.array([0.5]), np.array([1.0]), cfg)
        assert nxt.pi[0] == pytest.approx(cfg.lam, abs=1e-15)

    def test_ar_limits(self):
        cfg = SystemConfig(lam=0.3, r_scale=0.5)
        post = _fake_post(pi=0.4, xi=1.0 - 0.5j, psi=0.2)
        frozen = prior_propagate(post, np.array([1.0]), np.array([2.0]), cfg)
        assert frozen.xi[0] == 1.0 - 0.5j
        assert frozen.psi[0] == pytest.approx(0.2)
        reset = prior_propagate(post, np.array([0.0]), np.array([2.0]), cfg)
        assert reset.xi[0] == 0.0
        assert reset.psi[0] == pytest.approx(2.0)

    def test_reference_arithmetic(self):
        # pi_bar=0.3 with p10=0.005, p01=0.095 -> 0.275;
        # eta=0.9974, xi_bar=1, psi_bar=0.2, rho=1 -> (0.9974, 0.20416)
        cfg = SystemConfig(lam=0.05, r_scale=0.1)
        post = _fake_post(pi=0.3, xi=1.0, psi=0.2)
        nxt = prior_propagate(post, np.array([0.9974]), np.array([1.0]), cfg)
        assert nxt.pi[0] == pytest.approx(0.275, abs=1e-12)
        assert nxt.xi[0] == pytest.approx(0.9974)
        assert nxt.psi[0] == pytest.approx(0.20416, abs=1e-5)

    def test_psi_converges_to_rho_under_uninformative_updates(self):
        cfg = SystemConfig(lam=0.05, r_scale=0.1)
        eta, rho = np.array([0.97]), np.array([2.5])
        prior = BgPrior(np.array([cfg.lam]), np.array([0j]), np.array([0.01]))
        for _ in range(400):
            post = _fake_post(prior.pi[0], prior.xi[0], prior.psi[0])
            prior = prior_propagate(post, eta, rho, cfg)
            assert 0.0 < prior.psi[0] <= rho[0] + 1e-9
        assert prior.psi[0] == pytest.approx(rho[0], rel=1e-6)


def _fake_post(pi, xi, psi):
    from seqamp.sequential import PosteriorSummary
    return PosteriorSummary(np.atleast_1d(np.asarray(pi, dtype=float)),
                            np.atleast_1d(np.asarray(xi, dtype=complex)),
                            np.atleast_1d(np.asarray(psi, dtype=float)))


class TestSequenceRuns:
    def test_single_adt_equals_static_baseline(self):
        cfg = desk_config(n_users=80, pilot_len=20, n_adts=1)
        scn = make_scenario(cfg, 0)
        seq = s_amp_run(scn, cfg)
        static = amp_mmse(scn, cfg)
        assert np.array_equal(seq.records[0].amp.mu, static.records[0].amp.mu)
        assert np.array_equal(seq.records[0].posterior.pi_bar,
                              static.records[0].posterior.pi_bar)

    def test_degenerate_structure_collapses_bitwise(self):
        from dataclasses import replace
        from seqamp.rng import stream
        from seqamp.scenario import gen_user_profiles
        cfg = desk_config(n_users=100, pilot_len=25, n_adts=5, r_scale=1.0)
        drawn = gen_user_profiles(cfg, stream(cfg.seed, 0, "profiles"))
        scn = make_scenario(cfg, 0,
                            profiles=replace(drawn, ar_coeff=np.zeros(cfg.n_users)))
        seq, static = s_amp_run(scn, cfg), amp_mmse(scn, cfg)
        for a, b in zip(seq.records, static.records):
            assert np.array_equal(a.amp.mu, b.amp.mu)
            assert np.array_equal(a.prior.pi, b.prior.pi)
            assert np.array_equal(a.prior.xi, b.prior.xi)
            assert np.array_equal(a.prior.psi, b.prior.psi)

    def test_temporal_prior_beats_static_in_nmse(self):
        cfg = desk_config(n_users=250, pilot_len=60, n_adts=8, n_trials=6)
        err = np.zeros((2, 2))
        for trial in range(6):
            scn = make_scenario(cfg, trial)
            act = scn.activity.astype(bool)
            for k, run in enumerate((s_amp_run(scn, cfg), amp_mmse(scn, cfg))):
                x_hat = run.x_hat
                err[k, 0] += np.sum(np.abs(x_hat[act] - scn.channels[act]) ** 2)
                err[k, 1] += np.sum(np.abs(scn.channels[act]) ** 2)
        nmse = 10 * np.log10(err[:, 0] / err[:, 1])
        assert nmse[0] < nmse[1]

    def test_first_frame_prior_values(self):
        cfg = desk_config(n_users=30, pilot_len=10)
        scn = make_scenario(cfg, 0)
        prior = initial_prior(cfg, scn.profiles)
        assert np.all(prior.pi == cfg.lam)
        assert np.all(prior.xi == 0)
        assert np.array_equal(prior.psi, channel_vars(scn.profiles))

    def test_x_hat_matches_record_means(self):
        cfg = desk_config(n_users=40, pilot_len=12, n_adts=3)
        scn = make_scenario(cfg, 0)
        seq = s_amp_run(scn, cfg)
        x = seq.x_hat
        assert x.shape == (40, 3)
        for t in range(3):
            assert np.array_equal(x[:, t], seq.records[t].amp.mu)

    def test_posterior_update_uses_converged_point(self):
        cfg = desk_config(n_users=40, pilot_len=12, n_adts=1)
        scn = make_scenario(cfg, 0)
        seq = s_amp_run(scn, cfg)
        rec = seq.records[0]
        again = posterior_update(rec.amp, rec.prior,
                                 rho=channel_vars(scn.profiles))
        assert np.array_equal(again.pi_bar, rec.posterior.pi_bar)
