"""Exact switching-state-space filter and grid-KL utilities."""

import numpy as np
import pytest

from seqamp.config import SystemConfig
from seqamp.denoiser import BgPrior
from seqamp.exact_filter import (ar1_grid_kernel, exact_sssm_filter, grid_axis,
                                 grid_kl, mixture_on_grid, product_on_grid,
                                 push_transition)
from seqamp.sequential import _propagate_arrays, moment_match


def profile(eta, rho=1.0):
    """(eta, rho) link statistics, in exact_sssm_filter's argument order."""
    return eta, rho


def kalman_reference(phis, cs, eta, rho):
    """Plain scalar Kalman filter for an always-active user (oracle)."""
    m, p = 0.0 + 0j, rho
    out = []
    for phi, c in zip(phis, cs):
        gain = p / (p + c)
        m = m + gain * (phi - m)
        p = p * c / (p + c)
        out.append((m, p))
        m, p = eta * m, eta**2 * p + (1 - eta**2) * rho
    return out


class TestFilterBasics:
    def test_first_step_equals_moment_matching(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, n_adts=1, lam=0.3, r_scale=0.2)
        phi, c = 0.8 + 0.4j, 0.3
        post = exact_sssm_filter([phi], [c], *profile(0.95), cfg)[0]
        mm = moment_match(np.array([phi]), c, BgPrior(cfg.lam, 0j, 1.0))
        assert post.e_a == pytest.approx(mm.pi_bar[0], rel=1e-12)
        assert post.e_h == pytest.approx(mm.xi_bar[0], rel=1e-12)
        assert post.var_h == pytest.approx(mm.psi_bar[0], rel=1e-12)

    def test_iid_chain_collapses_to_moment_chain(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, n_adts=6, lam=0.3, r_scale=1.0)
        rng = np.random.default_rng(3)
        cs = rng.uniform(0.1, 0.5, 6)
        phis = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        posts = exact_sssm_filter(phis, cs, *profile(0.0), cfg)
        prior = BgPrior(cfg.lam, 0j, 1.0)
        for t in range(6):
            mm = moment_match(np.array([phis[t]]), cs[t], prior)
            assert posts[t].e_a == pytest.approx(mm.pi_bar[0], abs=1e-12)
            assert posts[t].e_h == pytest.approx(mm.xi_bar[0], abs=1e-12)
            assert posts[t].var_h == pytest.approx(mm.psi_bar[0], abs=1e-12)
            prior = _propagate_arrays(mm, np.array([0.0]), np.array([1.0]), cfg)

    def test_component_count_doubles(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, n_adts=5, lam=0.2, r_scale=0.3)
        phis = np.ones(5, dtype=complex)
        posts = exact_sssm_filter(phis, np.full(5, 0.2), *profile(0.9), cfg)
        for t, post in enumerate(posts):
            assert post.weights.shape[0] == 2 ** (t + 1)
            assert post.weights.sum() == pytest.approx(1.0)

    def test_horizon_cap(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, n_adts=13, lam=0.2, r_scale=0.3)
        with pytest.raises(ValueError, match="cap"):
            exact_sssm_filter(np.ones(13, dtype=complex), np.ones(13),
                              *profile(0.9), cfg)

    def test_always_active_limit_matches_kalman(self):
        # lam ~ 1 and p01 ~ 0: the filter must follow the pure Kalman recursion
        cfg = SystemConfig(n_users=4, pilot_len=4, n_adts=6,
                           lam=1 - 1e-9, r_scale=1e-9)
        rng = np.random.default_rng(8)
        eta, rho = 0.95, 1.0
        cs = rng.uniform(0.1, 0.4, 6)
        phis = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        posts = exact_sssm_filter(phis, cs, *profile(eta, rho), cfg)
        ref = kalman_reference(phis, cs, eta, rho)
        for post, (m_ref, p_ref) in zip(posts, ref):
            assert post.e_a == pytest.approx(1.0, abs=1e-6)
            assert post.e_h == pytest.approx(m_ref, rel=1e-6)
            assert post.var_h == pytest.approx(p_ref, rel=1e-4)


class TestGridMachinery:
    def test_grid_pmfs_normalised(self):
        xs = grid_axis(6.0, 201)
        q = product_on_grid(0.3, 0.5 + 0.2j, 0.7, xs)
        assert q.sum() == pytest.approx(1.0)
        assert q[1].sum() == pytest.approx(0.3, abs=1e-6)

    def test_kernel_is_column_stochastic(self):
        xs = grid_axis(6.0, 101)
        k = ar1_grid_kernel(xs, 0.95, 1.0)
        assert np.allclose(k.sum(axis=0), 1.0)

    def test_unit_eta_kernel_is_identity(self):
        xs = grid_axis(6.0, 51)
        assert np.array_equal(ar1_grid_kernel(xs, 1.0, 1.0), np.eye(51))

    def test_push_preserves_mass_and_mixes_activity(self):
        xs = grid_axis(6.0, 101)
        p = product_on_grid(0.4, 0.0, 1.0, xs)
        k = ar1_grid_kernel(xs, 0.9, 1.0)
        p2 = push_transition(p, k, p01=0.3, p10=0.1)
        assert p2.sum() == pytest.approx(1.0)
        expected_active = 0.1 * 0.6 + 0.7 * 0.4
        assert p2[1].sum() == pytest.approx(expected_active, abs=1e-9)

    def test_kl_zero_iff_equal(self):
        xs = grid_axis(6.0, 101)
        p = product_on_grid(0.4, 0.1 + 0.3j, 1.2, xs)
        assert grid_kl(p, p) == pytest.approx(0.0, abs=1e-12)
        q = product_on_grid(0.5, 0.0, 1.0, xs)
        assert grid_kl(p, q) > 0.0

    def test_kl_contracts_through_transition(self):
        # small-sample version of acceptance criterion 6
        rng = np.random.default_rng(17)
        for _ in range(10):
            lam, r = rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4)
            eta = rng.uniform(0.9, 0.99)
            t_total = int(rng.integers(2, 7))
            cfg = SystemConfig(n_users=4, pilot_len=4, n_adts=t_total,
                               lam=lam, r_scale=r)
            cs = rng.uniform(0.05, 0.5, t_total)
            phis = (rng.standard_normal(t_total)
                    + 1j * rng.standard_normal(t_total))
            post = exact_sssm_filter(phis, cs, *profile(eta), cfg)[-1]
            xs = grid_axis(6.0, 201)
            p = mixture_on_grid(post, xs)
            q = product_on_grid(post.e_a, post.e_h, post.var_h, xs)
            k = ar1_grid_kernel(xs, eta, 1.0)
            before = grid_kl(p, q)
            after = grid_kl(push_transition(p, k, cfg.p01, cfg.p10),
                            push_transition(q, k, cfg.p01, cfg.p10))
            assert after <= before + 1e-6

    def test_shape_validation(self):
        cfg = SystemConfig(n_users=4, pilot_len=4, n_adts=3, lam=0.2, r_scale=0.3)
        with pytest.raises(ValueError):
            exact_sssm_filter(np.ones(3, dtype=complex), np.ones(2),
                              *profile(0.9), cfg)
