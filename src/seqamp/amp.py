"""Per-ADT AMP loop: iterate pseudo-observations to convergence.

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
is the system constant derive_noise_var(cfg) and enters only through
c0 = C0_FACTOR * noise_var, which amp_init and se_fixpoint both read.

S^H z is formed by :func:`adjoint` as (z^H S)^H, never by materialising
S^H: S is the right operand BLAS streams, so a column block Z costs one
GEMM that reads S in place instead of re-packing it on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import SystemConfig
from .denoiser import BgPrior, denoise_deriv, denoise_mean, denoise_var
from .scenario import derive_noise_var

__all__ = ["AmpState", "AmpDivergenceError", "adjoint", "amp_init", "amp_iterate",
           "amp_run"]

REL_TOL = 1e-6      # early-exit tolerance on relative change of mu
_REL_FLOOR = 1e-30  # denominator floor for all-zero signals
C0_FACTOR = 100.0   # seed c0 = C0_FACTOR * noise_var
_C_FLOOR = np.finfo(float).tiny  # keeps c > 0 when z is exactly zero


class AmpDivergenceError(RuntimeError):
    """Raised when an AMP sweep produces non-finite values."""


@dataclass(frozen=True)
class AmpState:
    """One AMP iterate.

    ``phi`` holds the pseudo-observations that produced ``mu``; after
    :func:`amp_run` returns, ``phi = S^H z + mu`` holds exactly for the
    final (z, mu), making (phi, c) the Gaussian pseudo-likelihood
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


def amp_init(y: np.ndarray, cfg: SystemConfig, n: int | None = None) -> AmpState:
    """Initial state: mu = 0, z = y, c = C0_FACTOR * noise_var, phi = 0."""
    n = cfg.n_users if n is None else n
    return AmpState(
        mu=np.zeros(n, dtype=complex),
        v=np.zeros(n, dtype=float),
        z=np.asarray(y, dtype=complex).copy(),
        c=float(C0_FACTOR * derive_noise_var(cfg)),
        phi=np.zeros(n, dtype=complex),
        iter=0,
    )


def amp_iterate(state: AmpState, s_mat: np.ndarray, y: np.ndarray,
                priors: BgPrior) -> AmpState:
    """One full AMP sweep; raises AmpDivergenceError on non-finite output."""
    l_dim = s_mat.shape[0]
    phi = adjoint(s_mat, state.z) + state.mu
    mu_new = denoise_mean(phi, state.c, priors)
    v_new = denoise_var(phi, state.c, priors)
    onsager = (state.z / l_dim) * np.sum(denoise_deriv(phi, state.c, priors))
    # y - S mu_new + onsager, formed in the product's buffer
    z_new = s_mat @ mu_new
    np.subtract(y, z_new, out=z_new)
    z_new += onsager
    # ||z||^2/L: the residual-energy estimate of the effective noise
    # VARIANCE (c pairs with psi and noise_var everywhere, so it must
    # carry variance units).  The tiny floor only engages when z is
    # exactly zero (all-zero observations) and keeps c > 0.  A non-finite
    # mu_new makes S mu_new, z_new and so c non-finite: c alone is tested.
    c_new = float(max(np.linalg.norm(z_new) ** 2 / l_dim, _C_FLOOR))
    if not np.isfinite(c_new):
        raise AmpDivergenceError(
            f"non-finite AMP iterate at sweep {state.iter + 1} (c={c_new!r})"
        )
    return AmpState(mu_new, v_new, z_new, c_new, phi, state.iter + 1)


def amp_run(y: np.ndarray, s_mat: np.ndarray, priors: BgPrior,
            cfg: SystemConfig) -> AmpState:
    """Run sweeps until the mu change falls below REL_TOL or the cap I hits.

    The returned state carries phi refreshed from the final (z, mu) and
    ``converged`` set when the REL_TOL exit fired (False at the cap); with
    a zero iteration budget the untouched init state comes back.
    """
    state = amp_init(y, cfg, n=s_mat.shape[1])
    converged = False
    for _ in range(cfg.amp_iters):
        prev_mu = state.mu
        state = amp_iterate(state, s_mat, y, priors)
        num = np.linalg.norm(state.mu - prev_mu)
        den = max(np.linalg.norm(prev_mu), _REL_FLOOR)
        if num / den < REL_TOL:
            converged = True
            break
    if state.iter > 0:
        state = replace(state, phi=adjoint(s_mat, state.z) + state.mu,
                        converged=converged)
    return state
