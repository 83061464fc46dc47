"""Comparison algorithms: static-prior AMP, soft-threshold AMP, OMP, oracle LS.

amp_mmse is literally the sequential driver with propagation switched off,
so equality tests against the degenerate temporal structure are exact by
construction.  The non-Bayesian baselines detect by estimator support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amp import AmpDivergenceError, adjoint
from .config import SystemConfig
from .detection import metric_nmse
from .scenario import Scenario, derive_noise_var
from .sequential import SequenceResult, _run_sequence

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
_PINV_RCOND = 1e-12


@dataclass(frozen=True)
class BaselineResult:
    """Single-ADT output of a non-sequential recovery algorithm."""

    estimate: np.ndarray      # (N,) complex
    support: np.ndarray       # (N,) int8, nonzero-estimate indicator
    iterations: int
    residual_norm: float
    hit_rank_limit: bool = False


def amp_mmse(scenario: Scenario, cfg: SystemConfig,
             mode: str = "empirical") -> SequenceResult:
    """Static-prior AMP per ADT: (lam, 0, rho_n) everywhere, no propagation."""
    return _run_sequence(scenario, cfg, propagate=False, mode=mode)


def _soft_threshold(phi: np.ndarray, thr: float) -> np.ndarray:
    mag = np.abs(phi)
    scale = np.maximum(1.0 - thr / np.maximum(mag, 1e-300), 0.0)
    return phi * scale


def amp_soft(y: np.ndarray, s_mat: np.ndarray, cfg: SystemConfig,
             alpha: float | None = None,
             noise_var: float | None = None) -> BaselineResult:
    """AMP with the complex soft-threshold denoiser, threshold alpha*sqrt(c).

    The Onsager term uses the a.e. derivative of the denoiser,
    1 - alpha*sqrt(c)/(2|phi|) on the unclipped set.  alpha defaults to
    cfg.soft_alpha; the experiment harness calibrates it per sweep point
    with :func:`calibrate_soft_alpha` on a held-out trial.
    """
    if alpha is None:
        alpha = cfg.soft_alpha
    if alpha <= 0.0:
        raise ValueError("threshold multiplier alpha must be positive")
    if noise_var is None:
        noise_var = derive_noise_var(cfg)
    l_dim, n = s_mat.shape
    mu = np.zeros(n, dtype=complex)
    z = np.asarray(y, dtype=complex).copy()
    # c tracks ||z||^2/L throughout; seeding it the same way keeps the first
    # threshold at the received-signal scale (a noise-scale seed would make
    # the first estimate dense and the Onsager feedback explosive).
    c = float(np.linalg.norm(z) ** 2 / l_dim)
    it = 0
    for it in range(1, cfg.amp_iters + 1):
        phi = adjoint(s_mat, z) + mu
        thr = alpha * math.sqrt(c)
        mu_new = _soft_threshold(phi, thr)
        live = np.abs(phi) > thr
        deriv_sum = float(np.sum(1.0 - thr / (2.0 * np.abs(phi[live]))))
        z = y - s_mat @ mu_new + (z / l_dim) * deriv_sum
        c = float(np.linalg.norm(z) ** 2 / l_dim)
        if not (np.all(np.isfinite(mu_new)) and np.isfinite(c)):
            raise AmpDivergenceError(f"soft-threshold AMP diverged at sweep {it}")
        num = np.linalg.norm(mu_new - mu)
        mu = mu_new
        if num / max(np.linalg.norm(mu), 1e-30) < 1e-6:
            break
    return BaselineResult(mu, (mu != 0).astype(np.int8), it,
                          float(np.linalg.norm(z)))


def calibrate_soft_alpha(scenario: Scenario, cfg: SystemConfig,
                         adt: int = 0) -> float:
    """Grid-search alpha in {1.0..2.0 step 0.1} minimising NMSE on one ADT.

    Meant to run on a held-out calibration scenario; the winning alpha is
    then fixed for scoring runs.
    """
    truth = scenario.sparse_signal[:, adt]
    y = scenario.received[:, adt]
    best_alpha, best_nmse = SOFT_ALPHA_GRID[0], np.inf
    for alpha in SOFT_ALPHA_GRID:
        res = amp_soft(y, scenario.pilots, cfg, alpha=alpha,
                       noise_var=scenario.noise_var)
        nmse = metric_nmse(res.estimate, truth)
        if nmse < best_nmse:
            best_alpha, best_nmse = alpha, nmse
    return best_alpha


def omp(y: np.ndarray, s_mat: np.ndarray, cfg: SystemConfig,
        noise_var: float | None = None,
        max_iters: int | None = None) -> BaselineResult:
    """Orthogonal matching pursuit with an LS refit per selection.

    Stops once ||r|| <= 1.1 * sqrt(L) * sigma_w or after ceil(3*lam*N)
    selections; filling all L degrees of freedom stops with a flag."""
    if noise_var is None:
        noise_var = derive_noise_var(cfg)
    l_dim, n = s_mat.shape
    if max_iters is None:
        max_iters = math.ceil(3.0 * cfg.lam * n)
    max_iters = min(max_iters, l_dim)
    target = _OMP_RESIDUAL_SLACK * math.sqrt(l_dim * noise_var)

    residual = np.asarray(y, dtype=complex).copy()
    selected: list[int] = []
    coef = np.zeros(0, dtype=complex)
    hit_rank_limit = False
    it = 0
    while it < max_iters and np.linalg.norm(residual) > target:
        scores = np.abs(adjoint(s_mat, residual))
        scores[selected] = -1.0
        selected.append(int(np.argmax(scores)))
        sub = s_mat[:, selected]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        residual = y - sub @ coef
        it += 1
        if len(selected) >= l_dim:
            hit_rank_limit = True
            break
    estimate = np.zeros(n, dtype=complex)
    if selected:
        estimate[selected] = coef
    return BaselineResult(estimate, (estimate != 0).astype(np.int8), it,
                          float(np.linalg.norm(residual)), hit_rank_limit)


def oracle_ls(y: np.ndarray, s_mat: np.ndarray,
              true_support: np.ndarray) -> BaselineResult:
    """Minimum-norm least squares restricted to the true support.

    Rank deficiency is handled by pseudo-inverse truncation at
    1e-12 * largest singular value."""
    support_idx = np.flatnonzero(np.asarray(true_support))
    l_dim, n = s_mat.shape
    if support_idx.size > l_dim:
        raise ValueError(f"support size {support_idx.size} exceeds L = {l_dim}")
    estimate = np.zeros(n, dtype=complex)
    if support_idx.size:
        sub = s_mat[:, support_idx]
        estimate[support_idx] = np.linalg.pinv(sub, rcond=_PINV_RCOND) @ y
    residual = y - s_mat @ estimate
    return BaselineResult(estimate, (estimate != 0).astype(np.int8),
                          1, float(np.linalg.norm(residual)))
