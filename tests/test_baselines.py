"""Comparison algorithms: soft-threshold AMP, OMP, oracle LS, static AMP."""

import math

import numpy as np
import pytest

from seqamp.amp import AmpDivergenceError
from seqamp.baselines import (SOFT_ALPHA_GRID, amp_mmse, amp_soft,
                              calibrate_soft_alpha, omp, oracle_ls)
from seqamp.config import SystemConfig, desk_config
from seqamp.detection import detect_sequence, metric_nmse
from seqamp.rng import stream
from seqamp.scenario import gen_pilots, make_scenario
from seqamp.sequential import s_amp_run

from helpers import noise_config


@pytest.fixture(scope="module")
def guard_case():
    """A config and scenario whose 100x400 S dwarfs every vector in play."""
    cfg = SystemConfig(n_users=400, pilot_len=100, n_adts=1)
    return cfg, make_scenario(cfg, 0)


@pytest.fixture(scope="module")
def block_guard_case():
    """Ten ADTs whose 200x8000 S dwarfs their ten OMP bases (20 users active on average)."""
    cfg = SystemConfig(n_users=8000, pilot_len=200, n_adts=10, lam=0.0025)
    return cfg, make_scenario(cfg, 0)


def dependent_case():
    """(S, y, cfg) where OMP's second pick is dependent on its first.

    Columns 0 and 1 of S are equal and row 3 is zero: once column 0 explains
    y's first entry, the residual e_3 is orthogonal to every remaining
    column and the next pick, column 1, is dependent on the selected one."""
    s = np.zeros((4, 4), dtype=complex)
    s[0, 0] = s[0, 1] = s[1, 2] = s[2, 3] = 1.0
    y = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    return s, y, noise_config(1e-6, n_users=4, pilot_len=4, lam=0.25)


class TestAmpSoft:
    def test_huge_alpha_zeroes_everything(self):
        cfg = noise_config(0.01, n_users=32, pilot_len=16, amp_iters=20)
        scn_pilots = gen_pilots(cfg, stream(0, 0, "s"))
        y = scn_pilots @ (np.arange(32) == 3).astype(complex)
        res = amp_soft(y, scn_pilots, cfg, alpha=1e6)
        assert np.all(res.estimate == 0)
        assert np.all(res.support == 0)

    def test_orthonormal_single_iteration_exactness(self):
        # S = I, one sweep: estimate = soft threshold of y at alpha*||y||/sqrt(L)
        n = 12
        cfg = noise_config(0.01, n_users=n, pilot_len=n, amp_iters=1)
        s = np.eye(n, dtype=complex)
        rng = stream(1, 0, "y")
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        alpha = 1.3
        res = amp_soft(y, s, cfg, alpha=alpha)
        thr = alpha * np.linalg.norm(y) / np.sqrt(n)
        expected = y * np.maximum(1 - thr / np.abs(y), 0.0)
        assert np.allclose(res.estimate, expected)

    def test_rejects_nonpositive_alpha(self):
        cfg = noise_config(0.01, n_users=8, pilot_len=4)
        with pytest.raises(ValueError):
            amp_soft(np.zeros(4, dtype=complex), np.zeros((4, 8), dtype=complex),
                     cfg, alpha=0.0)

    def test_never_copies_pilots(self, guard_case, peak_traced_bytes):
        cfg, scn = guard_case
        peak = peak_traced_bytes(lambda: amp_soft(
            scn.received[:, 0], scn.pilots, cfg, alpha=1.4))
        assert peak < scn.pilots.nbytes / 2
        # an (L, k) block of thresholds on the same observation
        block = np.repeat(scn.received, 4, axis=1)
        peak = peak_traced_bytes(lambda: amp_soft(
            block, scn.pilots, cfg, alpha=[1.0, 1.3, 1.6, 2.0]))
        assert peak < scn.pilots.nbytes / 2

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_finite_or_nonpositive_alpha(self, alpha):
        cfg = noise_config(0.01, n_users=8, pilot_len=4)
        with pytest.raises(ValueError, match="column 0"):
            amp_soft(np.ones(4, dtype=complex), np.ones((4, 8), dtype=complex),
                     cfg, alpha=alpha)

    def test_rejects_grid_with_one_bad_alpha(self):
        cfg = noise_config(0.01, n_users=8, pilot_len=4)
        with pytest.raises(ValueError, match="column 2 has nan"):
            amp_soft(np.ones((4, 4), dtype=complex), np.ones((4, 8), dtype=complex),
                     cfg, alpha=[1.0, 1.2, math.nan, 1.5])
        with pytest.raises(ValueError, match="one value per column"):
            amp_soft(np.ones((4, 4), dtype=complex), np.ones((4, 8), dtype=complex),
                     cfg, alpha=[1.0, 1.2])

    @pytest.mark.parametrize("bad_cols, prefix", [([1], "column 1: "),
                                                  ([0, 2], "columns 0, 2: ")])
    def test_block_divergence_names_columns(self, bad_cols, prefix):
        cfg = desk_config(n_adts=3)
        scn = make_scenario(cfg, 0)
        y = scn.received.copy()
        y[0, bad_cols] = np.nan
        with pytest.raises(AmpDivergenceError, match=f"^{prefix}.*sweep 1$"):
            amp_soft(y, scn.pilots, cfg, alpha=1.4)

    @pytest.mark.parametrize("cfg", [desk_config(n_adts=6), SystemConfig(n_adts=6)],
                             ids=["desk", "full"])
    def test_block_matches_per_column_calls(self, cfg):
        scn = make_scenario(cfg, 0)
        block = amp_soft(scn.received, scn.pilots, cfg, alpha=1.4)
        singles = [amp_soft(scn.received[:, t], scn.pilots, cfg, alpha=1.4)
                   for t in range(cfg.n_adts)]
        assert block.estimate.shape == (cfg.n_users, cfg.n_adts)
        assert np.array_equal(block.support, np.stack([r.support for r in singles], 1))
        assert block.iterations == sum(r.iterations for r in singles)
        # entries just above the threshold are differences of nearly equal
        # numbers, so the absolute floor scales with the column's largest entry
        for t, single in enumerate(singles):
            np.testing.assert_allclose(block.estimate[:, t], single.estimate, rtol=1e-12,
                                       atol=1e-12 * np.abs(single.estimate).max())

    @pytest.mark.parametrize("amp_iters, cap_hits", [(1, 3), (0, 3)])
    def test_cap_hits_count_columns_out_of_budget(self, amp_iters, cap_hits):
        cfg = desk_config(n_adts=3, amp_iters=amp_iters)
        scn = make_scenario(cfg, 0)
        assert amp_soft(scn.received, scn.pilots, cfg, alpha=1.4).cap_hits == cap_hits

    def test_converged_column_has_no_cap_hit(self):
        cfg = desk_config(n_adts=1)
        scn = make_scenario(cfg, 0)
        res = amp_soft(scn.received[:, 0], scn.pilots, cfg, alpha=1.4)
        assert res.iterations < cfg.amp_iters
        assert res.cap_hits == 0

    def test_omp_and_oracle_ls_report_no_cap_hits(self):
        cfg = desk_config(n_adts=1)
        scn = make_scenario(cfg, 0)
        y = scn.received[:, 0]
        assert omp(y, scn.pilots, cfg).cap_hits == 0
        assert oracle_ls(y, scn.pilots, scn.activity[:, 0]).cap_hits == 0

    def test_one_column_block_bit_equal_to_vector_call(self):
        cfg = desk_config(n_adts=1)
        scn = make_scenario(cfg, 0)
        y = scn.received[:, 0]
        vec = amp_soft(y, scn.pilots, cfg, alpha=1.4)
        col = amp_soft(y[:, None], scn.pilots, cfg, alpha=1.4)
        assert vec.estimate.shape == (cfg.n_users,)
        assert col.estimate.shape == (cfg.n_users, 1)
        assert np.array_equal(col.estimate[:, 0], vec.estimate)
        assert np.array_equal(col.support[:, 0], vec.support)
        assert col.iterations == vec.iterations

    @pytest.mark.parametrize("trial", [-1, 0, 1, 2])
    def test_calibration_matches_per_alpha_loop(self, trial):
        cfg = desk_config(n_adts=1)
        scn = make_scenario(cfg, trial)
        assert calibrate_soft_alpha(scn, cfg) == loop_calibrate(scn, cfg)

    def test_calibration_skips_adts_without_active_users(self):
        cfg = SystemConfig(n_users=100, pilot_len=40, n_adts=3, lam=0.01, seed=8)
        cal = make_scenario(cfg, -1)
        assert cal.activity.sum(axis=0).tolist() == [0, 0, 1]
        assert calibrate_soft_alpha(cal, cfg) == loop_calibrate(cal, cfg, adt=2)

    def test_calibration_without_active_users_raises(self):
        cfg = SystemConfig(n_users=100, pilot_len=40, n_adts=3, lam=0.01, seed=2)
        cal = make_scenario(cfg, -1)
        assert not cal.activity.any()
        with pytest.raises(ValueError, match="no calibration ADT has an active user"):
            calibrate_soft_alpha(cal, cfg)

    def test_worse_than_bayesian_amp(self):
        cfg = desk_config(n_users=200, pilot_len=50, n_adts=1, n_trials=4)
        cal = make_scenario(cfg, -1)
        alpha = calibrate_soft_alpha(cal, cfg)
        assert 1.0 <= alpha <= 2.0
        err = np.zeros((2, 2))
        for trial in range(4):
            scn = make_scenario(cfg, trial)
            soft = amp_soft(scn.received[:, 0], scn.pilots, cfg, alpha=alpha)
            bayes = amp_mmse(scn, cfg).x_hat[:, 0]
            truth = scn.sparse_signal[:, 0]
            err[0] += [np.sum(np.abs(soft.estimate - truth) ** 2),
                       np.sum(np.abs(truth) ** 2)]
            err[1] += [np.sum(np.abs(bayes - truth) ** 2),
                       np.sum(np.abs(truth) ** 2)]
        assert 10 * np.log10(err[0][0] / err[0][1]) > 10 * np.log10(err[1][0] / err[1][1])


def loop_calibrate(scenario, cfg, adt=0):
    """Reference calibration on one ADT: one vector amp_soft call per grid value.

    Keeps the first alpha whose NMSE is strictly below every earlier one."""
    truth = scenario.sparse_signal[:, adt]
    y = scenario.received[:, adt]
    best_alpha, best_nmse = SOFT_ALPHA_GRID[0], np.inf
    for alpha in SOFT_ALPHA_GRID:
        res = amp_soft(y, scenario.pilots, cfg, alpha=alpha)
        nmse = metric_nmse(res.estimate, truth)
        if nmse < best_nmse:
            best_alpha, best_nmse = alpha, nmse
    return best_alpha


def lstsq_omp(y, s_mat, max_iters, target):
    """Reference OMP: a fresh least-squares solve after every selection.

    Returns (estimate, iterations)."""
    residual = y.copy()
    selected = []
    coef = np.zeros(0, dtype=complex)
    while len(selected) < max_iters and np.linalg.norm(residual) > target:
        scores = np.abs(s_mat.conj().T @ residual)
        scores[selected] = -1.0
        selected.append(int(np.argmax(scores)))
        sub = s_mat[:, selected]
        coef = np.linalg.lstsq(sub, y, rcond=None)[0]
        residual = y - sub @ coef
    estimate = np.zeros(s_mat.shape[1], dtype=complex)
    estimate[selected] = coef
    return estimate, len(selected)


class TestOmp:
    # scaling S, y and the noise amplitude together leaves the estimate
    # unchanged, so a dependent-column threshold must be relative; at 1e80
    # the noise power, 1.26e147 W, stays under SystemConfig's 1e150 W limit
    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e80])
    def test_qr_refit_matches_lstsq_reference(self, scale):
        cfg = desk_config(n_adts=4)
        scaled_cfg = cfg.with_(
            noise_psd_dbm_hz=cfg.noise_psd_dbm_hz + 20.0 * math.log10(scale))
        max_iters = min(math.ceil(3 * cfg.lam * cfg.n_users), cfg.pilot_len)
        target = 1.1 * math.sqrt(cfg.pilot_len * scaled_cfg.noise_var)
        for trial in range(3):
            scn = make_scenario(cfg, trial)
            s_mat = scale * scn.pilots
            for t in range(cfg.n_adts):
                y = scale * scn.received[:, t]
                res = omp(y, s_mat, scaled_cfg)
                ref, iters = lstsq_omp(y, s_mat, max_iters, target)
                assert np.array_equal(res.support, (ref != 0).astype(np.int8))
                assert res.iterations == iters and not res.hit_rank_limit
                np.testing.assert_allclose(res.estimate, ref, rtol=1e-10,
                                           atol=1e-12 * np.linalg.norm(y))

    @pytest.mark.filterwarnings("error")
    def test_dependent_column_stops_with_flag(self):
        s, y, cfg = dependent_case()
        res = omp(y, s, cfg)
        assert res.hit_rank_limit and res.iterations == 1
        assert np.all(np.isfinite(res.estimate))
        np.testing.assert_array_equal(res.estimate, [1.0, 0.0, 0.0, 0.0])

    def test_exact_recovery_orthogonal_noiseless(self):
        n = 16
        cfg = noise_config(1e-12, n_users=n, pilot_len=n, lam=0.1)
        s = np.eye(n, dtype=complex)
        x = np.zeros(n, dtype=complex)
        x[[2, 7, 11]] = [1.0, -0.5 + 0.2j, 0.8j]
        res = omp(s @ x, s, cfg)
        assert np.allclose(res.estimate, x, atol=1e-10)
        assert res.iterations == 3

    def test_zero_observation_empty_support(self):
        cfg = noise_config(0.01, n_users=16, pilot_len=8)
        s = gen_pilots(cfg, stream(0, 0, "s"))
        res = omp(np.zeros(8, dtype=complex), s, cfg)
        assert res.iterations == 0 and np.all(res.support == 0)

    def test_ls_optimality_of_refit(self):
        cfg = desk_config(n_users=120, pilot_len=40, n_adts=1)
        scn = make_scenario(cfg, 0)
        res = omp(scn.received[:, 0], scn.pilots, cfg)
        sel = np.flatnonzero(res.support)
        assert sel.size > 0
        residual = scn.received[:, 0] - scn.pilots @ res.estimate
        # normal equations: selected columns orthogonal to the residual
        assert np.max(np.abs(scn.pilots[:, sel].conj().T @ residual)) <= 1e-10 * \
            np.linalg.norm(scn.received[:, 0])

    def test_never_copies_pilots(self, guard_case, peak_traced_bytes):
        cfg, scn = guard_case
        peak = peak_traced_bytes(lambda: omp(
            scn.received[:, 0], scn.pilots, cfg))
        assert peak < scn.pilots.nbytes / 2

    def test_never_copies_pilots_for_a_block(self, block_guard_case, peak_traced_bytes):
        cfg, scn = block_guard_case
        peak = peak_traced_bytes(lambda: omp(scn.received, scn.pilots, cfg))
        assert peak < scn.pilots.nbytes / 2

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_block_columns_equal_one_column_calls(self, trial):
        # the harness's call: every desk ADT of a scenario in one block
        cfg = desk_config()
        scn = make_scenario(cfg, trial)
        block = omp(scn.received, scn.pilots, cfg)
        singles = [omp(scn.received[:, t], scn.pilots, cfg) for t in range(cfg.n_adts)]
        assert block.estimate.shape == (cfg.n_users, cfg.n_adts)
        for t, single in enumerate(singles):
            assert np.array_equal(block.estimate[:, t], single.estimate)
        assert block.iterations == sum(r.iterations for r in singles)
        assert block.hit_rank_limit == sum(r.hit_rank_limit for r in singles)

    def test_mixed_block_columns_stop_on_their_own(self):
        # a zero observation (no selection), the dependent-column case (rank
        # limit after one selection) and two columns that reach a zero
        # residual after two selections each, all in one block
        s, y_dep, cfg = dependent_case()
        block = np.column_stack([np.zeros(4), y_dep, [0.0, 2.0, 1.0, 0.0],
                                 [0.5, 0.0, -1j, 0.0]])
        res = omp(block, s, cfg)
        np.testing.assert_array_equal(res.estimate.T, [[0, 0, 0, 0], [1, 0, 0, 0],
                                                       [0, 0, 2, 1], [0.5, 0, 0, -1j]])
        assert res.iterations == 0 + 1 + 2 + 2 and res.hit_rank_limit == 1
        for j in range(block.shape[1]):
            single = omp(block[:, j], s, cfg)
            assert np.array_equal(res.estimate[:, j], single.estimate)
            assert single.hit_rank_limit == (j == 1)

    def test_permuting_columns_permutes_outputs(self):
        cfg = desk_config()
        scn = make_scenario(cfg, 0)
        perm = np.random.default_rng(0).permutation(cfg.n_adts)
        base = omp(scn.received, scn.pilots, cfg)
        # Q^H y rounds by y's stride (BLAS dots a unit-stride vector in
        # another order), so the permuted block keeps received's C layout
        permuted = omp(np.ascontiguousarray(scn.received[:, perm]), scn.pilots, cfg)
        assert np.array_equal(permuted.estimate, base.estimate[:, perm])
        assert permuted.iterations == base.iterations

    def test_default_iteration_cap(self):
        cfg = noise_config(1e-30, n_users=100, pilot_len=30, lam=0.05)
        s = gen_pilots(cfg, stream(0, 0, "s"))
        rng = stream(1, 0, "x")
        x = (rng.random(100) < 0.5) * (rng.standard_normal(100) + 0j)
        res = omp(s @ x, s, cfg)
        assert res.iterations <= int(np.ceil(3 * 0.05 * 100))


@pytest.mark.parametrize("algo", [lambda y, s, cfg: amp_soft(y, s, cfg, alpha=1.0), omp],
                         ids=["amp_soft", "omp"])
def test_rejects_an_observation_of_three_dimensions(algo):
    cfg = noise_config(0.01, n_users=8, pilot_len=4)
    with pytest.raises(ValueError, match=r"^y must be \(L,\) or \(L, k\), got shape \(4, 2, 2\)$"):
        algo(np.ones((4, 2, 2), dtype=complex), np.ones((4, 8), dtype=complex), cfg)


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


    def test_rank_deficient_sets_flag(self):
        s = np.ones((4, 4), dtype=complex)
        res = oracle_ls(np.ones(4, dtype=complex), s, np.array([1, 1, 0, 0]))
        assert res.hit_rank_limit
        np.testing.assert_allclose(res.estimate, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_qr_solve_matches_pinv_reference(self, trial):
        cfg = desk_config(n_adts=2)
        scn = make_scenario(cfg, trial)
        for t in range(cfg.n_adts):
            y = scn.received[:, t]
            sel = np.flatnonzero(scn.activity[:, t])
            sub = scn.pilots[:, sel]
            ref = np.linalg.pinv(sub, rcond=1e-12) @ y
            res = oracle_ls(y, scn.pilots, scn.activity[:, t])
            assert not res.hit_rank_limit
            np.testing.assert_allclose(res.estimate[sel], ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_r_only_refit_matches_lstsq(self, trial):
        cfg = desk_config()
        scn = make_scenario(cfg, trial)
        for t in range(cfg.n_adts):
            y = scn.received[:, t]
            sel = np.flatnonzero(scn.activity[:, t])
            ref = np.linalg.lstsq(scn.pilots[:, sel], y, rcond=None)[0]
            res = oracle_ls(y, scn.pilots, scn.activity[:, t])
            np.testing.assert_allclose(res.estimate[sel], ref, rtol=1e-10)


class TestOrdering:
    def test_oracle_ls_lower_bounds_greedy_methods(self):
        cfg = desk_config(n_users=200, pilot_len=50, n_adts=2, n_trials=6)
        cal = make_scenario(cfg, -1)
        alpha = calibrate_soft_alpha(cal, cfg)
        err = {k: np.zeros(2) for k in ("ls", "omp", "soft")}
        for trial in range(6):
            scn = make_scenario(cfg, trial)
            for t in range(cfg.n_adts):
                y = scn.received[:, t]
                truth = scn.sparse_signal[:, t]
                outs = {
                    "ls": oracle_ls(y, scn.pilots, scn.activity[:, t]).estimate,
                    "omp": omp(y, scn.pilots, cfg).estimate,
                    "soft": amp_soft(y, scn.pilots, cfg, alpha=alpha).estimate,
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
        a, b = amp_mmse(scn, cfg), s_amp_run(scn, cfg)
        assert np.array_equal(a.x_hat, b.x_hat)
        assert np.array_equal(detect_sequence(a), detect_sequence(b))


class TestAmpMmse:
    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_adt_order_invariance(self, trial):
        # the static prior makes each ADT depend on its own column only, so
        # permuting received's columns permutes the records bit for bit
        from dataclasses import replace
        cfg = desk_config()
        scn = make_scenario(cfg, trial)
        perm = np.random.default_rng(trial).permutation(cfg.n_adts)
        base = amp_mmse(scn, cfg).records
        permuted = amp_mmse(replace(scn, received=scn.received[:, perm]), cfg).records
        for t, rec in enumerate(permuted):
            want = base[perm[t]]
            assert rec.amp.c == want.amp.c
            assert np.array_equal(rec.amp.mu, want.amp.mu)
            assert np.array_equal(rec.posterior.pi_bar, want.posterior.pi_bar)
            assert np.array_equal(rec.posterior.xi_bar, want.posterior.xi_bar)
