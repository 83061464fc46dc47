"""Comparison algorithms: static-prior AMP, soft-threshold AMP, OMP, oracle LS.

amp_mmse is literally the sequential driver with propagation switched off,
so equality tests against the degenerate temporal structure are exact by
construction.  The non-Bayesian baselines detect by estimator support.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .amp import AmpDivergenceError, adjoint, noise_level, residual, settled
from .config import SystemConfig
from .detection import metric_nmse
from .scenario import Scenario
from .sequential import SequenceResult, run_sequence

__all__ = [
    "BaselineResult",
    "amp_mmse",
    "amp_soft",
    "calibrate_soft_alpha",
    "omp",
    "oracle_ls",
    "SOFT_ALPHA_GRID",
]

SOFT_ALPHA_GRID = tuple(round(1.0 + 0.1 * k, 1) for k in range(11))  # 1.0 .. 2.0
_OMP_RESIDUAL_SLACK = 1.1
_OMP_DEPENDENT_RTOL = 1e-10
_OMP_ROWS_STEP = 16  # basis rows a column allocates at a time
_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class BaselineResult:
    """Output of a non-sequential recovery algorithm on one ADT or a block.

    For a column block (one column per ADT or per threshold), ``estimate``
    is (N, k), and the counts sum over the columns: ``iterations`` the
    sweeps (soft-threshold AMP) or selections (OMP) of all columns,
    ``hit_rank_limit`` the OMP columns that stopped at the rank limit (for
    oracle LS, 1 when the support is rank-deficient) and ``cap_hits`` the
    soft-threshold AMP columns still running when the sweep budget ran
    out; OMP and oracle LS leave ``cap_hits`` 0.
    """

    estimate: np.ndarray      # (N,) or (N, k) complex
    iterations: int
    hit_rank_limit: int = 0
    cap_hits: int = 0

    @property
    def support(self) -> np.ndarray:
        """The detected users: int8 indicator of a nonzero estimate."""
        return (self.estimate != 0).astype(np.int8)


def amp_mmse(scenario: Scenario, cfg: SystemConfig) -> SequenceResult:
    """Static-prior AMP per ADT: (lam, 0, rho_n) everywhere, no propagation."""
    return run_sequence(scenario, cfg, propagate=False)


def _column_alphas(alpha, k: int) -> np.ndarray:
    """alpha as one finite positive threshold multiplier per column."""
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim > 1 or alphas.size not in (1, k):
        raise ValueError(f"alpha must be a scalar or one value per column "
                         f"({k}), got shape {alphas.shape}")
    alphas = np.broadcast_to(alphas.reshape(-1), (k,))
    bad = np.flatnonzero(~(np.isfinite(alphas) & (alphas > 0.0)))
    if bad.size:
        raise ValueError(f"threshold multiplier alpha must be finite and "
                         f"positive; column {bad[0]} has {alphas[bad[0]]}")
    return alphas


def amp_soft(y: np.ndarray, s_mat: np.ndarray, cfg: SystemConfig,
             alpha: float | Sequence[float]) -> BaselineResult:
    """AMP with the complex soft-threshold denoiser, threshold alpha*sqrt(c).

    ``y`` is one observation (L,) or a block (L, k) of independent columns,
    e.g. every ADT of a scenario or one ADT repeated over a grid of
    thresholds; ``alpha`` is a scalar or one value per column, in a run the
    calibrated one.  Each column runs its own recursion: its own ``c``,
    seeded at ||y||^2/L (a noise-scale seed would make the first estimate
    dense and the Onsager feedback explosive), threshold, Onsager sum and
    divergence check (a non-finite ``c``, as in :func:`amp.amp_run`).  Its
    residual, ``c`` and stop test are S-AMP's ``amp.residual``,
    ``amp.noise_level`` and ``amp.settled``: a column stops when
    ||mu_new - mu|| / ||mu|| < 1e-6, relative to the previous iterate,
    and leaves the block, so each sweep is one S^H Z and one S M product
    over the columns still running.  The Onsager term uses the denoiser's
    a.e. derivative, 1 - alpha*sqrt(c)/(2|phi|) on the unclipped set.

    A 1-D ``y`` returns an (N,) estimate; a block returns an (N, k) one and
    the summed sweeps.  Columns that had not met the stop test after
    cfg.amp_iters sweeps are counted in ``cap_hits``.  Raises ValueError for
    an alpha that is not finite and positive, and AmpDivergenceError naming
    the columns that went non-finite.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim not in (1, 2):
        raise ValueError(f"y must be (L,) or (L, k), got shape {y.shape}")
    block = y.reshape(y.shape[0], -1)
    n = s_mat.shape[1]
    k = block.shape[1]
    alphas = _column_alphas(alpha, k)

    mu = np.zeros((n, k), dtype=complex)
    iterations = 0
    # the columns still running, and their compacted state
    run = np.arange(k)
    y_run, z_run, mu_run, a_run = block, block, mu, alphas
    c_run = noise_level(z_run, axis=0)
    for it in range(1, cfg.amp_iters + 1):
        phi = adjoint(s_mat, z_run) + mu_run
        thr = a_run * np.sqrt(c_run)
        mag = np.abs(phi)
        ratio = thr / np.maximum(mag, 1e-300)
        mu_new = phi * np.maximum(1.0 - ratio, 0.0)
        deriv_sum = np.where(mag > thr, 1.0 - 0.5 * ratio, 0.0).sum(axis=0)
        z_run = residual(y_run, s_mat, mu_new, z_run, deriv_sum)
        c_run = noise_level(z_run, axis=0)
        # column j of S M reads only column j of M: c flags just the diverged columns
        bad = ~np.isfinite(c_run)
        if bad.any():
            cols = run[bad]
            raise AmpDivergenceError(
                f"column{'s' if cols.size > 1 else ''} {', '.join(map(str, cols))}: "
                f"soft-threshold AMP diverged at sweep {it}")
        done = settled(mu_new, mu_run, axis=0)
        mu_run = mu_new
        iterations += run.size
        if done.any():
            mu[:, run[done]] = mu_run[:, done]
            keep = ~done
            run, a_run, c_run = run[keep], a_run[keep], c_run[keep]
            y_run, z_run, mu_run = y_run[:, keep], z_run[:, keep], mu_run[:, keep]
            if not run.size:
                break
    mu[:, run] = mu_run
    if y.ndim == 1:
        mu = mu.reshape(n)
    return BaselineResult(mu, iterations, cap_hits=int(run.size))


def calibrate_soft_alpha(scenario: Scenario, cfg: SystemConfig) -> float:
    """Grid-search alpha in {1.0..2.0 step 0.1} minimising NMSE on one ADT.

    The ADT is the first one with an active user, since NMSE is undefined
    on an all-zero truth; a scenario without any active user raises
    ValueError.  One :func:`amp_soft` call runs that ADT's observation as a
    block with one column per grid value; the first alpha reaching the
    lowest NMSE wins.
    Meant to run on a held-out calibration scenario; the winning alpha is
    then fixed for scoring runs.
    """
    active_adts = np.flatnonzero(scenario.activity.any(axis=0))
    if active_adts.size == 0:
        raise ValueError("no calibration ADT has an active user")
    t = active_adts[0]
    truth = scenario.sparse_signal[:, t]
    y = scenario.received[:, t]
    block = np.repeat(y[:, None], len(SOFT_ALPHA_GRID), axis=1)
    res = amp_soft(block, scenario.pilots, cfg, alpha=SOFT_ALPHA_GRID)
    nmse = [metric_nmse(est, truth) for est in res.estimate.T]
    return SOFT_ALPHA_GRID[int(np.argmin(nmse))]


class _OmpColumn:
    """One OMP problem: its residual and the QR factor of its selection.

    ``q_h`` holds the rows q_k^H of the orthonormal basis.  It grows by
    ``_OMP_ROWS_STEP`` rows when full, so storage follows the selections
    made; R's columns and the entries of Q^H y are kept as lists until the
    final solve.
    """

    def __init__(self, y: np.ndarray):
        self.y = y
        self.residual = y.copy()
        self.q_h = np.empty((_OMP_ROWS_STEP, y.size), dtype=complex)
        self.r_cols: list[np.ndarray] = []
        self.q_h_y: list[complex] = []
        self.selected: list[int] = []
        self.hit_rank_limit = False

    def running(self, max_iters: int, target: float) -> bool:
        return (not self.hit_rank_limit and len(self.selected) < max_iters
                and np.linalg.norm(self.residual) > target)

    def select(self, scores: np.ndarray, s_mat: np.ndarray) -> None:
        """Add the best-scoring column not yet selected, unless it is dependent."""
        scores[self.selected] = -1.0
        j = int(np.argmax(scores))
        col = np.array(s_mat[:, j], dtype=complex)
        k = len(self.selected)
        basis = self.q_h[:k]
        # Q h is the adjoint of Q^H applied to h
        proj = basis @ col
        v = col - adjoint(basis, proj)
        again = basis @ v
        v -= adjoint(basis, again)
        v_norm = float(np.linalg.norm(v))
        if v_norm <= _OMP_DEPENDENT_RTOL * np.linalg.norm(col):
            self.hit_rank_limit = True
            return
        if k == self.q_h.shape[0]:
            grown = np.empty((k + _OMP_ROWS_STEP, self.y.size), dtype=complex)
            grown[:k] = self.q_h
            self.q_h = grown
        q = v / v_norm
        self.q_h[k] = q.conj()
        self.r_cols.append(np.append(proj + again, v_norm))
        self.q_h_y.append(self.q_h[k] @ self.y)
        self.residual -= q * self.q_h_y[k]
        self.selected.append(j)
        if k + 1 >= self.y.size:
            self.hit_rank_limit = True

    def refit(self) -> np.ndarray:
        """The least-squares coefficients of the selection, from R coef = Q^H y."""
        k = len(self.selected)
        r_mat = np.zeros((k, k), dtype=complex)
        for i, r_col in enumerate(self.r_cols):
            r_mat[:i + 1, i] = r_col
        return np.linalg.solve(r_mat, np.array(self.q_h_y))


def omp(y: np.ndarray, s_mat: np.ndarray, cfg: SystemConfig) -> BaselineResult:
    """Orthogonal matching pursuit with an incremental QR refit.

    ``y`` is one observation (L,) or a block (L, k) of independent columns,
    e.g. a block of ADTs, run in lockstep: each round scores every column
    still running with one GEMM over their residuals, |R^H S| = |S^H R|
    (``amp.adjoint`` without its last conjugation), and each column
    then makes its own selection, so a column's result does not depend on
    the block around it.

    Each selected column is orthogonalised against the basis ``Q`` of the
    columns before it by classical Gram-Schmidt with one reorthogonalisation
    pass, which appends one column to ``R`` and one entry to ``Q^H y``; the
    residual is ``y - Q Q^H y`` and the coefficients of the least-squares
    refit come from one triangular solve ``R coef = Q^H y`` at the end.

    A column stops once ||r|| <= 1.1 * sqrt(L) * sigma_w, with sigma_w^2
    the configured noise variance, or after min(ceil(3*lam*N), L)
    selections.  Filling all L degrees of freedom, or picking a column whose
    orthogonalised norm falls to 1e-10 of its own norm (numerically
    dependent on the selected ones, so the residual is orthogonal to every
    remaining column), stops it at the rank limit; a dependent column is
    not added.  A 1-D ``y`` returns an (N,) estimate, a block an (N, k)
    one; ``iterations`` counts the selections and ``hit_rank_limit`` the
    columns stopped at the rank limit.  BLAS sums Q^H y over a strided ``y``
    in another order than over a contiguous one, so the estimate depends on
    ``y``'s stride at rounding level (5.8e-20 at desk)."""
    y = np.asarray(y, dtype=complex)
    if y.ndim not in (1, 2):
        raise ValueError(f"y must be (L,) or (L, k), got shape {y.shape}")
    l_dim, n = s_mat.shape
    max_iters = min(math.ceil(3.0 * cfg.lam * n), l_dim)
    target = _OMP_RESIDUAL_SLACK * math.sqrt(l_dim * cfg.noise_var)

    block = y.reshape(y.shape[0], -1)
    columns = [_OmpColumn(block[:, j]) for j in range(block.shape[1])]
    run = [c for c in columns if c.running(max_iters, target)]
    while run:
        # |S^H r| = |r^H S|: one GEMM on the residual rows, S as BLAS streams it
        scores = np.abs(np.stack([c.residual for c in run]).conj() @ s_mat)
        for column, col_scores in zip(run, scores):
            column.select(col_scores, s_mat)
        run = [c for c in run if c.running(max_iters, target)]
    estimate = np.zeros((n, len(columns)), dtype=complex)
    for j, column in enumerate(columns):
        if column.selected:
            estimate[column.selected, j] = column.refit()
    if y.ndim == 1:
        estimate = estimate.reshape(n)
    return BaselineResult(estimate, sum(len(c.selected) for c in columns),
                          sum(c.hit_rank_limit for c in columns))


def oracle_ls(y: np.ndarray, s_mat: np.ndarray,
              true_support: np.ndarray) -> BaselineResult:
    """Least squares restricted to the true support, from one R factor.

    With k support columns A, the QR factor R of [A y] holds R_A in its
    leading k x k block and Q^H y in the k entries above it in column k,
    so the coefficients solve ``R_A coef = Q^H y`` and Q is never formed.
    If the support is numerically rank-deficient
    (``min |R_kk| <= 1e-12 * max |R_kk|`` on R_A, e.g. a repeated column),
    the answer is the minimum-norm pseudo-inverse solution, truncated at
    1e-12 * largest singular value, and ``hit_rank_limit`` is 1."""
    support_idx = np.flatnonzero(np.asarray(true_support))
    l_dim, n = s_mat.shape
    k = support_idx.size
    if k > l_dim:
        raise ValueError(f"support size {k} exceeds L = {l_dim}")
    estimate = np.zeros(n, dtype=complex)
    rank_deficient = False
    if k:
        sub = s_mat[:, support_idx]
        r = np.linalg.qr(np.column_stack([sub, y]), mode="r")
        diag = np.abs(np.diag(r[:k, :k]))
        rank_deficient = bool(diag.min() <= _RANK_RTOL * diag.max())
        if rank_deficient:
            coef = np.linalg.pinv(sub, rcond=_RANK_RTOL) @ y
        else:
            coef = np.linalg.solve(r[:k, :k], r[:k, k])
        estimate[support_idx] = coef
    return BaselineResult(estimate, 1, int(rank_deficient))
