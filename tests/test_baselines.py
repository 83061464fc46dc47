"""Comparison algorithms: soft-threshold AMP, OMP, oracle LS, static AMP."""

import numpy as np
import pytest

from seqamp.baselines import (amp_mmse, amp_soft, calibrate_soft_alpha, omp,
                              oracle_ls)
from seqamp.config import SystemConfig, desk_config
from seqamp.detection import detect_sequence
from seqamp.rng import stream
from seqamp.scenario import gen_pilots, make_scenario
from seqamp.sequential import s_amp_run


@pytest.fixture(scope="module")
def guard_case():
    """A config and scenario whose 100x400 S dwarfs every vector in play."""
    cfg = SystemConfig(n_users=400, pilot_len=100, n_adts=1)
    return cfg, make_scenario(cfg, 0)


def noise_cfg(noise_var, **kw):
    psd = 30.0 + 10.0 * np.log10(noise_var)
    return SystemConfig(noise_psd_dbm_hz=psd, bandwidth_hz=1.0, **kw)


class TestAmpSoft:
    def test_huge_alpha_zeroes_everything(self):
        cfg = noise_cfg(0.01, n_users=32, pilot_len=16, amp_iters=20)
        scn_pilots = gen_pilots(cfg, stream(0, 0, "s"))
        y = scn_pilots @ (np.arange(32) == 3).astype(complex)
        res = amp_soft(y, scn_pilots, cfg, alpha=1e6, noise_var=0.01)
        assert np.all(res.estimate == 0)
        assert np.all(res.support == 0)

    def test_orthonormal_single_iteration_exactness(self):
        # S = I, one sweep: estimate = soft threshold of y at alpha*||y||/sqrt(L)
        n = 12
        cfg = noise_cfg(0.01, n_users=n, pilot_len=n, amp_iters=1)
        s = np.eye(n, dtype=complex)
        rng = stream(1, 0, "y")
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        alpha = 1.3
        res = amp_soft(y, s, cfg, alpha=alpha, noise_var=0.01)
        thr = alpha * np.linalg.norm(y) / np.sqrt(n)
        expected = y * np.maximum(1 - thr / np.abs(y), 0.0)
        assert np.allclose(res.estimate, expected)

    def test_rejects_nonpositive_alpha(self):
        cfg = noise_cfg(0.01, n_users=8, pilot_len=4)
        with pytest.raises(ValueError):
            amp_soft(np.zeros(4, dtype=complex), np.zeros((4, 8), dtype=complex),
                     cfg, alpha=0.0)

    def test_never_copies_pilots(self, guard_case, peak_traced_bytes):
        cfg, scn = guard_case
        peak = peak_traced_bytes(lambda: amp_soft(
            scn.received[:, 0], scn.pilots, cfg, noise_var=scn.noise_var))
        assert peak < scn.pilots.nbytes / 2

    def test_worse_than_bayesian_amp(self):
        cfg = desk_config(n_users=200, pilot_len=50, n_adts=1, n_trials=4)
        cal = make_scenario(cfg, -1)
        alpha = calibrate_soft_alpha(cal, cfg)
        assert 1.0 <= alpha <= 2.0
        err = np.zeros((2, 2))
        for trial in range(4):
            scn = make_scenario(cfg, trial)
            soft = amp_soft(scn.received[:, 0], scn.pilots,
                            cfg.with_(soft_alpha=alpha), noise_var=scn.noise_var)
            bayes = detect_sequence(amp_mmse(scn, cfg)).channel_est[:, 0]
            truth = scn.sparse_signal[:, 0]
            err[0] += [np.sum(np.abs(soft.estimate - truth) ** 2),
                       np.sum(np.abs(truth) ** 2)]
            err[1] += [np.sum(np.abs(bayes - truth) ** 2),
                       np.sum(np.abs(truth) ** 2)]
        assert 10 * np.log10(err[0][0] / err[0][1]) > 10 * np.log10(err[1][0] / err[1][1])


class TestOmp:
    def test_exact_recovery_orthogonal_noiseless(self):
        n = 16
        cfg = noise_cfg(1e-12, n_users=n, pilot_len=n, lam=0.1)
        s = np.eye(n, dtype=complex)
        x = np.zeros(n, dtype=complex)
        x[[2, 7, 11]] = [1.0, -0.5 + 0.2j, 0.8j]
        res = omp(s @ x, s, cfg, noise_var=1e-12, max_iters=3)
        assert np.allclose(res.estimate, x, atol=1e-10)
        assert res.iterations == 3

    def test_zero_observation_empty_support(self):
        cfg = noise_cfg(0.01, n_users=16, pilot_len=8)
        s = gen_pilots(cfg, stream(0, 0, "s"))
        res = omp(np.zeros(8, dtype=complex), s, cfg, noise_var=0.01)
        assert res.iterations == 0 and np.all(res.support == 0)

    def test_ls_optimality_of_refit(self):
        cfg = desk_config(n_users=120, pilot_len=40, n_adts=1)
        scn = make_scenario(cfg, 0)
        res = omp(scn.received[:, 0], scn.pilots, cfg, noise_var=scn.noise_var)
        sel = np.flatnonzero(res.support)
        assert sel.size > 0
        residual = scn.received[:, 0] - scn.pilots @ res.estimate
        # normal equations: selected columns orthogonal to the residual
        assert np.max(np.abs(scn.pilots[:, sel].conj().T @ residual)) <= 1e-10 * \
            np.linalg.norm(scn.received[:, 0])

    def test_never_copies_pilots(self, guard_case, peak_traced_bytes):
        cfg, scn = guard_case
        peak = peak_traced_bytes(lambda: omp(
            scn.received[:, 0], scn.pilots, cfg, noise_var=scn.noise_var))
        assert peak < scn.pilots.nbytes / 2

    def test_default_iteration_cap(self):
        cfg = noise_cfg(1e-30, n_users=100, pilot_len=30, lam=0.05)
        s = gen_pilots(cfg, stream(0, 0, "s"))
        rng = stream(1, 0, "x")
        x = (rng.random(100) < 0.5) * (rng.standard_normal(100) + 0j)
        res = omp(s @ x, s, cfg, noise_var=1e-30)
        assert res.iterations <= int(np.ceil(3 * 0.05 * 100))


class TestOracleLs:
    def test_orthonormal_noiseless_exact(self):
        n = 8
        s = np.eye(n, dtype=complex)
        x = np.zeros(n, dtype=complex)
        x[[1, 5]] = [2.0, 1.0 - 1.0j]
        res = oracle_ls(s @ x, s, np.abs(x) > 0)
        assert np.allclose(res.estimate, x, atol=1e-12)

    def test_empty_support_zero_vector(self):
        s = np.ones((4, 6), dtype=complex)
        res = oracle_ls(np.ones(4, dtype=complex), s, np.zeros(6, dtype=int))
        assert np.all(res.estimate == 0)

    def test_matches_normal_equations(self):
        cfg = desk_config(n_users=60, pilot_len=30, n_adts=1)
        scn = make_scenario(cfg, 0)
        support = scn.activity[:, 0]
        res = oracle_ls(scn.received[:, 0], scn.pilots, support)
        sel = np.flatnonzero(support)
        sub = scn.pilots[:, sel]
        ref = np.linalg.solve(sub.conj().T @ sub, sub.conj().T @ scn.received[:, 0])
        assert np.max(np.abs(res.estimate[sel] - ref)) <= 1e-10 * max(np.abs(ref).max(), 1)

    def test_support_larger_than_l_rejected(self):
        s = np.ones((3, 8), dtype=complex)
        with pytest.raises(ValueError):
            oracle_ls(np.ones(3, dtype=complex), s, np.ones(8, dtype=int))

    def test_rank_deficient_handled(self):
        # duplicate columns: pseudo-inverse truncation, finite output
        s = np.ones((4, 4), dtype=complex)
        res = oracle_ls(np.ones(4, dtype=complex), s, np.array([1, 1, 0, 0]))
        assert np.all(np.isfinite(res.estimate))
        # min-norm solution splits the coefficient across duplicates
        assert res.estimate[0] == pytest.approx(res.estimate[1])


class TestOrdering:
    def test_oracle_ls_lower_bounds_greedy_methods(self):
        cfg = desk_config(n_users=200, pilot_len=50, n_adts=2, n_trials=6)
        cal = make_scenario(cfg, -1)
        cfg = cfg.with_(soft_alpha=calibrate_soft_alpha(cal, cfg))
        err = {k: np.zeros(2) for k in ("ls", "omp", "soft")}
        for trial in range(6):
            scn = make_scenario(cfg, trial)
            for t in range(cfg.n_adts):
                y = scn.received[:, t]
                truth = scn.sparse_signal[:, t]
                outs = {
                    "ls": oracle_ls(y, scn.pilots, scn.activity[:, t]).estimate,
                    "omp": omp(y, scn.pilots, cfg, noise_var=scn.noise_var).estimate,
                    "soft": amp_soft(y, scn.pilots, cfg,
                                     noise_var=scn.noise_var).estimate,
                }
                for key, est in outs.items():
                    err[key] += [np.sum(np.abs(est - truth) ** 2),
                                 np.sum(np.abs(truth) ** 2)]
        nmse = {k: 10 * np.log10(v[0] / v[1]) for k, v in err.items()}
        assert nmse["ls"] <= nmse["omp"]
        assert nmse["ls"] <= nmse["soft"]

    def test_amp_mmse_shares_code_path_with_s_amp(self):
        cfg = desk_config(n_users=80, pilot_len=20, n_adts=1)
        scn = make_scenario(cfg, 0)
        a = detect_sequence(amp_mmse(scn, cfg))
        b = detect_sequence(s_amp_run(scn, cfg))
        assert np.array_equal(a.channel_est, b.channel_est)
        assert np.array_equal(a.decisions, b.decisions)
