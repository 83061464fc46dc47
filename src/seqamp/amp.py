"""Per-ADT AMP loop and the linear step every AMP loop shares.

Given the received vector y, the pilot matrix S and one Bernoulli-Gaussian
prior triple per user, the sweep is

    phi = S^H z + mu
    mu+ = F(phi, c),  v+ = G(phi, c)
    z+  = y - S mu+ + (z/L) * sum_n F'(phi_n, c)      (Onsager correction)
    c+  = ||z+||^2 / L

c is updated from the residual energy rather than by the theoretical rule
c+ = noise_var + (1/L) sum_n v_n: once the prior is an approximation
rather than the true signal law, the theoretical form no longer tracks the
true effective noise, while the residual energy still does.  State
evolution predicts this empirical c, from the same seed: the noise variance
is the system constant cfg.noise_var and enters only through
c0 = C0_FACTOR * noise_var, which amp_run and se_fixpoint both read.

The linear step's three rules, :func:`residual` (z+), :func:`noise_level`
(c+) and the stop test :func:`settled`, serve :func:`amp_run` (S-AMP and
AMP-MMSE) on vectors and ``baselines.amp_soft`` on blocks with ``axis=0``;
each loop keeps its norm form, as numpy sums the two in different orders.

S^H z is formed by :func:`adjoint` as (z^H S)^H, never by materialising
S^H: S is the right operand BLAS streams, so a column block Z costs one
GEMM that reads S in place instead of re-packing it on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .denoiser import BgPrior, denoise_deriv, denoise_mean, denoise_var

__all__ = ["AmpState", "AmpDivergenceError", "adjoint", "amp_run",
           "noise_level", "residual", "settled"]

REL_TOL = 1e-6      # early-exit tolerance on relative change of mu
_REL_FLOOR = 1e-30  # denominator floor for all-zero signals
C0_FACTOR = 100.0   # seed c0 = C0_FACTOR * noise_var
_C_FLOOR = np.finfo(float).tiny  # keeps c > 0 when z is exactly zero


class AmpDivergenceError(RuntimeError):
    """Raised when an AMP sweep produces non-finite values."""


@dataclass(frozen=True)
class AmpState:
    """The result of one :func:`amp_run`.

    ``phi = S^H z + mu`` holds exactly for the final (z, mu) (phi = 0 when
    no sweep ran), making (phi, c) the Gaussian pseudo-likelihood
    CN(x; phi, c) consumed by the posterior summarisation.
    """

    mu: np.ndarray    # (N,) complex posterior means
    v: np.ndarray     # (N,) posterior variances
    z: np.ndarray     # (L,) corrected residual
    c: float          # effective noise level
    phi: np.ndarray   # (N,) pseudo-observations
    iter: int
    converged: bool = False  # True only when the REL_TOL early exit fired


def adjoint(s_mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """S^H v as (v^H S)^H, for a vector (L,) or a column block (L, k).

    Conjugating S before the product would copy all of S on every call.
    Here S is the right operand, in its own layout: for a block, BLAS
    multiplies the (k, L) V^H by S and streams S, where S^T as the left
    operand is packed afresh on every call, which at 400x2000 costs up to
    twice the time and larger pack buffers.  For a vector this is the
    same GEMV, bit for bit, as conj(S^T conj(v)).  A block comes back as
    the (N, k) transposed view of the (k, N) product.
    """
    return np.conj(np.conj(v).T @ s_mat).T


def residual(y, s_mat: np.ndarray, mu: np.ndarray, z: np.ndarray, deriv_sum):
    """y - S mu + (z/L) * deriv_sum in the product's buffer (vectors or blocks)."""
    out = s_mat @ mu
    np.subtract(y, out, out=out)
    out += (z / s_mat.shape[0]) * deriv_sum
    return out


def noise_level(z: np.ndarray, axis: int | None = None):
    """||z||^2/L, the residual energy: a VARIANCE, like psi and noise_var."""
    return np.linalg.norm(z, axis=axis) ** 2 / z.shape[0]


def settled(new: np.ndarray, old: np.ndarray, axis: int | None = None):
    """||new - old|| / ||old|| < REL_TOL, ||old|| floored at _REL_FLOOR."""
    return (np.linalg.norm(new - old, axis=axis)
            / np.maximum(np.linalg.norm(old, axis=axis), _REL_FLOOR) < REL_TOL)


def amp_run(y: np.ndarray, s_mat: np.ndarray, priors: BgPrior,
            cfg: SystemConfig) -> AmpState:
    """Run sweeps until the mu change falls below REL_TOL or the cap I hits.

    The run starts at mu = 0, z = y, c = C0_FACTOR * noise_var, phi = 0,
    and each sweep stops early when ||mu+ - mu|| / ||mu|| < REL_TOL.  The
    returned state carries phi refreshed from the final (z, mu) and
    ``converged`` set when that exit fired (False at the cap); with a zero
    iteration budget the starting state comes back.  Raises
    AmpDivergenceError, naming the sweep, when c goes non-finite.
    """
    n = s_mat.shape[1]
    mu = np.zeros(n, dtype=complex)
    v = np.zeros(n, dtype=float)
    z = np.asarray(y, dtype=complex).copy()
    c = float(C0_FACTOR * cfg.noise_var)
    sweeps = 0
    converged = False
    while sweeps < cfg.amp_iters and not converged:
        sweeps += 1
        phi = adjoint(s_mat, z) + mu
        mu_new = denoise_mean(phi, c, priors)
        v = denoise_var(phi, c, priors)
        z = residual(y, s_mat, mu_new, z, np.sum(denoise_deriv(phi, c, priors)))
        # the floor keeps c > 0 for the denoiser, which divides by c, when z
        # is exactly zero; a non-finite mu_new makes z and so c non-finite
        c = float(max(noise_level(z), _C_FLOOR))
        if not np.isfinite(c):
            raise AmpDivergenceError(
                f"non-finite AMP iterate at sweep {sweeps} (c={c!r})")
        converged = bool(settled(mu_new, mu))
        mu = mu_new
    phi = adjoint(s_mat, z) + mu if sweeps else np.zeros(n, dtype=complex)
    return AmpState(mu, v, z, c, phi, sweeps, converged)
