"""Scalar Bernoulli-Gaussian MMSE denoiser kernels.

Under the spike-and-slab prior (1-pi)*delta(x) + pi*CN(x; xi, psi) and a
Gaussian pseudo-observation phi = x + CN(0, c), the posterior mean F, the
posterior variance G and the input derivative F' = G/c have closed forms
driven by the likelihood ratio

    gamma = [(1-pi) CN(phi; 0, c)] / [pi CN(phi; xi, psi + c)].

gamma's exponent scales like |phi|^2/c and overflows quickly at high SNR,
so everything gamma-dependent is computed through the logistic of
log(gamma); the boundary priors pi in {0, 1} then fall out of the +/-inf
log-odds without special cases.

The logistic is 1/(1 + exp(-t)) in numpy, the formula of
scipy.special.expit, at about a quarter of its cost on long vectors.  For
t < -709.78 exp(-t) overflows to +inf (the warning is silenced) and the
result is exactly 0, as it is in scipy.  The prior-only log-odds
log((1-pi)/pi) is computed once per BgPrior, and the quadratic forms of
the exponent, |phi|^2 and Re(conj(xi) phi), are evaluated in real
arithmetic on the real and imaginary parts.

All kernels broadcast over arrays: phi may be a vector while the prior
holds per-entry (or scalar) parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BgPrior",
    "logistic",
    "log_evidence_ratio",
    "log_gamma",
    "gamma",
    "denoise_mean",
    "denoise_var",
    "denoise_deriv",
]

_EXP_CLAMP = 700.0  # exp argument bound keeping results inside float64


@dataclass(frozen=True)
class BgPrior:
    """Bernoulli-Gaussian prior parameters (pi, xi, psi), broadcastable arrays.

    pi in [0, 1], psi > 0, xi finite.  Scalars are fine; AMP uses length-N
    vectors (one triple per user).  ``log_odds`` = log((1-pi)/pi), +/-inf
    at pi = 0/1, is derived once here (and again by dataclasses.replace).
    """

    pi: np.ndarray
    xi: np.ndarray
    psi: np.ndarray
    log_odds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=complex))
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=float))
        if np.any(self.pi < 0.0) or np.any(self.pi > 1.0):
            raise ValueError("pi must lie in [0, 1]")
        if np.any(self.psi <= 0.0):
            raise ValueError("psi must be positive")
        if not np.all(np.isfinite(self.xi)):
            raise ValueError("xi must be finite")
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "log_odds",
                               np.log1p(-self.pi) - np.log(self.pi))


def logistic(t):
    """1/(1 + exp(-t)): exactly 0 below t = -709.78 and at -inf, 1 at +inf."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def log_evidence_ratio(phi, c, xi, psi):
    """log[CN(phi; 0, c) / CN(phi; xi, psi + c)], the prior-free part of log gamma.

    Equals log((psi+c)/c) - (psi|phi|^2 + 2 Re(xi* c phi) - c|xi|^2) / (c(psi+c)),
    with the quadratic forms taken on real and imaginary parts.
    """
    phi = np.asarray(phi, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    re, im = phi.real, phi.imag
    num = (psi * (re * re + im * im)
           + 2.0 * c * (xi.real * re + xi.imag * im)
           - c * (xi.real * xi.real + xi.imag * xi.imag))
    total = psi + c
    return np.log(total / c) - num / (c * total)


def log_gamma(phi, c, prior: BgPrior):
    """log of the inactive/active likelihood-prior ratio; +/-inf at pi = 0/1."""
    return prior.log_odds + log_evidence_ratio(phi, c, prior.xi, prior.psi)


def gamma(phi, c, prior: BgPrior):
    """The ratio gamma itself, exponent clamped to +/-700.

    Rejects boundary priors: at pi in {0, 1} gamma is +inf / 0 and callers
    are expected to short-circuit (F/G/denoise_* handle those internally).
    """
    if np.any(prior.pi <= 0.0) or np.any(prior.pi >= 1.0):
        raise ValueError("gamma requires 0 < pi < 1; boundaries short-circuit in F/G")
    return np.exp(np.clip(log_gamma(phi, c, prior), -_EXP_CLAMP, _EXP_CLAMP))


def _linear_mmse(phi, c, prior: BgPrior):
    """Gaussian-branch posterior mean (psi*phi + xi*c)/(psi + c)."""
    return (prior.psi * np.asarray(phi, dtype=complex) + prior.xi * c) / (prior.psi + c)


def denoise_mean(phi, c, prior: BgPrior):
    """Posterior mean F(phi, c) = (1+gamma)^{-1} (psi*phi + xi*c)/(psi+c)."""
    return logistic(-log_gamma(phi, c, prior)) * _linear_mmse(phi, c, prior)


def denoise_var(phi, c, prior: BgPrior):
    """Posterior variance G(phi, c) = (1+gamma)^{-1} psi*c/(psi+c) + gamma |F|^2.

    gamma |F|^2 = [gamma/(1+gamma)] * [1/(1+gamma)] * |m|^2 with m the
    Gaussian-branch mean, so both factors stay in [0, 1].
    """
    lg = log_gamma(phi, c, prior)
    s_act = logistic(-lg)        # (1+gamma)^{-1}
    s_idle = logistic(lg)        # gamma/(1+gamma)
    kappa = prior.psi * c / (prior.psi + c)
    m2 = np.abs(_linear_mmse(phi, c, prior)) ** 2
    return s_act * kappa + s_act * s_idle * m2


def denoise_deriv(phi, c, prior: BgPrior):
    """F'(phi, c) = G(phi, c)/c (exact identity for this prior)."""
    return denoise_var(phi, c, prior) / c
