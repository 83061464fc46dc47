"""Exact single-user mixture filter and grid-KL utilities.

Validation oracle for the sequential approximation.  One user's hidden
state is (a, h): a two-state Markov chain gating a complex AR-1 amplitude,
observed per ADT through phi = a*h + CN(0, c).  Conditional on the activity
path, h is linear-Gaussian, so the exact filter posterior after t steps is
a mixture of 2^t Gaussians; this module carries the mixture explicitly
(hence the hard cap on the horizon) and exposes its exact moments.

The grid utilities discretise joint densities over (a, Re h, Im h) on a
fixed square grid and push them through the transition kernel, turning the
divergence-contraction statement into a deterministic finite computation:
the discretised kernel is column-normalised so it is exactly stochastic,
and KL against any approximation must then be non-increasing through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .config import SystemConfig

__all__ = [
    "MixturePosterior",
    "exact_sssm_filter",
    "grid_axis",
    "mixture_on_grid",
    "product_on_grid",
    "ar1_grid_kernel",
    "push_transition",
    "grid_kl",
]

MAX_HORIZON = 12  # mixture size 2^T; refuse beyond this
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class MixturePosterior:
    """Exact posterior at one ADT: sum_k w_k * [a = a_k] * CN(h; m_k, var_k)."""

    weights: np.ndarray   # (K,) nonnegative, sums to 1
    a: np.ndarray         # (K,) int8 activity of each component
    mean: np.ndarray      # (K,) complex
    var: np.ndarray       # (K,) positive

    @property
    def e_a(self) -> float:
        return float(np.sum(self.weights[self.a == 1]))

    @property
    def e_h(self) -> complex:
        return complex(np.sum(self.weights * self.mean))

    @property
    def e_h2(self) -> float:
        return float(np.sum(self.weights * (np.abs(self.mean) ** 2 + self.var)))

    @property
    def var_h(self) -> float:
        return self.e_h2 - abs(self.e_h) ** 2


def _log_cn(y: np.ndarray, mean, var) -> np.ndarray:
    """log CN(y; mean, var) for circularly symmetric complex Gaussians."""
    return -np.log(np.pi * var) - np.abs(y - mean) ** 2 / var


def exact_sssm_filter(observations, noise_levels, eta: float, rho: float,
                      cfg: SystemConfig) -> list[MixturePosterior]:
    """Exact filtering posteriors p(a_t, h_t | phi_1..phi_t) for t = 1..T.

    ``observations`` are the scalar pseudo-observations phi_t and
    ``noise_levels`` the matching Gaussian noise variances c_t; ``eta`` and
    ``rho`` are the user's AR-1 coefficient and channel power.  Horizons
    above MAX_HORIZON are refused (mixture size doubles per step).
    """
    phis = np.asarray(observations, dtype=complex)
    cs = np.asarray(noise_levels, dtype=float)
    if phis.shape != cs.shape or phis.ndim != 1:
        raise ValueError("observations and noise levels must be equal-length 1-D")
    t_total = phis.shape[0]
    if t_total > MAX_HORIZON:
        raise ValueError(f"horizon {t_total} exceeds exact-filter cap {MAX_HORIZON}")
    lam, p01, p10 = cfg.lam, cfg.p01, cfg.p10

    # components carried in log-weight form; start from the stationary prior
    log_w = np.log(np.array([1.0 - lam, lam]))
    a = np.array([0, 1], dtype=np.int8)
    mean = np.zeros(2, dtype=complex)
    var = np.full(2, rho)

    out = []
    for t in range(t_total):
        if t > 0:
            # transition: split every component into an a=0 and an a=1 branch
            # (-inf log weights for transitions whose probability underflows)
            stay = np.where(a == 1, 1.0 - p01, p10)      # prob of a_next = 1
            with np.errstate(divide="ignore"):
                log_w = np.concatenate([log_w + np.log1p(-stay),
                                        log_w + np.log(stay)])
            mean = np.tile(eta * mean, 2)
            var = np.tile(eta**2 * var + (1.0 - eta**2) * rho, 2)
            a = np.concatenate([np.zeros_like(a), np.ones_like(a)])
        # measurement update with phi_t
        phi, c = phis[t], cs[t]
        active = a == 1
        log_w = log_w + np.where(
            active, _log_cn(phi, mean, var + c), _log_cn(phi, 0.0, c)
        )
        gain = np.where(active, var / (var + c), 0.0)
        mean = mean + gain * (phi - mean)
        var = np.where(active, var * c / (var + c), var)
        log_w = log_w - logsumexp(log_w)
        out.append(MixturePosterior(np.exp(log_w), a.copy(), mean.copy(), var.copy()))
    return out


def grid_axis(half_width: float, n_points: int = 201) -> np.ndarray:
    """Symmetric axis of n_points covering [-half_width, half_width]."""
    return np.linspace(-half_width, half_width, n_points)


def _axis_gauss(xs: np.ndarray, mean: float, var: float) -> np.ndarray:
    return np.exp(-((xs - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def mixture_on_grid(post: MixturePosterior, xs: np.ndarray) -> np.ndarray:
    """Discretise a mixture posterior to a pmf p[a, i, j] over (a, Re h, Im h)."""
    n = xs.shape[0]
    p = np.zeros((2, n, n))
    for w, ak, m, v in zip(post.weights, post.a, post.mean, post.var):
        re = _axis_gauss(xs, m.real, v / 2.0)
        im = _axis_gauss(xs, m.imag, v / 2.0)
        p[ak] += w * np.outer(re, im)
    p = np.maximum(p, _LOG_FLOOR)
    return p / p.sum()


def product_on_grid(pi: float, xi: complex, psi: float,
                    xs: np.ndarray) -> np.ndarray:
    """Discretise the matched product Bernoulli(pi) x CN(xi, psi)."""
    re = _axis_gauss(xs, np.real(xi), psi / 2.0)
    im = _axis_gauss(xs, np.imag(xi), psi / 2.0)
    h_density = np.outer(re, im)
    q = np.stack([(1.0 - pi) * h_density, pi * h_density])
    q = np.maximum(q, _LOG_FLOOR)
    return q / q.sum()


def ar1_grid_kernel(xs: np.ndarray, eta: float, rho: float) -> np.ndarray:
    """Column-stochastic transition matrix of the per-axis AR-1 kernel.

    Entry [i, j] is Pr{grid point j -> grid point i} under
    N(x_i; eta*x_j, (1-eta^2)*rho/2), normalised per column so the
    discretised kernel is exactly a Markov kernel on the grid.
    """
    innov = (1.0 - eta**2) * rho / 2.0
    if innov <= 0.0:
        return np.eye(xs.shape[0])
    k = np.exp(-((xs[:, None] - eta * xs[None, :]) ** 2) / (2.0 * innov))
    return k / k.sum(axis=0, keepdims=True)


def push_transition(p: np.ndarray, kernel: np.ndarray,
                    p01: float, p10: float) -> np.ndarray:
    """One transition step of a grid pmf: AR-1 on h, then the activity chain."""
    moved0 = kernel @ p[0] @ kernel.T
    moved1 = kernel @ p[1] @ kernel.T
    out = np.empty_like(p)
    out[0] = (1.0 - p10) * moved0 + p01 * moved1
    out[1] = p10 * moved0 + (1.0 - p01) * moved1
    return out


def grid_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence between two grid pmfs (natural log)."""
    mask = p > 0.0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(np.maximum(q[mask], _LOG_FLOOR)))))
