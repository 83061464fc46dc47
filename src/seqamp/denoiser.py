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
result is exactly 0, as it is in scipy.

The kernels work on the real and imaginary parts of phi and never form
the product of a real factor with a complex array.  Each part-wise form
makes exactly the floating-point operations numpy makes for the complex
expression it stands for, so for finite inputs every result equals the
complex one (only the sign of a zero may differ):

- numpy upcasts a real factor to complex before a product, and the
  products with its zero imaginary part add exact zeros, so psi*phi is
  psi times each part;
- numpy divides by a complex divisor whose imaginary part is zero by
  Smith's method, which multiplies both parts by the reciprocal 1/br; so
  the Gaussian-branch mean (psi*phi + xi*c)/(psi + c) is each part times
  1/(psi + c), and dividing the parts by psi + c would round differently;
- the exponent's quadratic forms |phi|^2 and Re(conj(xi) phi) are sums of
  products of parts.

BgPrior derives its log-odds log((1-pi)/pi), |xi|^2 and an all-zero-mean
flag once.  With every xi zero (every first-frame and static prior, in
AMP and in state evolution alike) the xi terms of the exponent and of the
mean add exact zeros, so the kernels skip them.  |m|^2 of the
Gaussian-branch mean stays np.abs(m)**2 on a complex m, because numpy's
complex absolute value is bit-equal neither to np.hypot of the parts nor
to re^2 + im^2.  Temporaries are updated in place.

All kernels broadcast over arrays: phi may be a vector while the prior
holds per-entry (or scalar) parameters; c is a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BgPrior",
    "logistic",
    "log_gamma",
    "gamma",
    "active_branch",
    "denoise_mean",
    "denoise_var",
    "denoise_deriv",
]

_EXP_CLAMP = 700.0  # exp argument bound keeping results inside float64


@dataclass(frozen=True)
class BgPrior:
    """Bernoulli-Gaussian prior parameters (pi, xi, psi), broadcastable arrays.

    pi in [0, 1], psi > 0, xi finite.  Scalars are fine; AMP uses length-N
    vectors (one triple per user).  Derived once here (and again by
    dataclasses.replace): ``log_odds`` = log((1-pi)/pi), +/-inf at
    pi = 0/1; ``xi_sq`` = |xi|^2 on the parts; ``zero_mean``, True when
    every xi is 0; ``shape``, the parameters' broadcast shape.
    """

    pi: np.ndarray
    xi: np.ndarray
    psi: np.ndarray
    log_odds: np.ndarray = field(init=False, repr=False, compare=False)
    xi_sq: np.ndarray = field(init=False, repr=False, compare=False)
    zero_mean: bool = field(init=False, repr=False, compare=False)
    shape: tuple = field(init=False, repr=False, compare=False)

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
        xr, xim = self.xi.real, self.xi.imag
        object.__setattr__(self, "xi_sq", xr * xr + xim * xim)
        object.__setattr__(self, "zero_mean", not np.any(self.xi))
        object.__setattr__(self, "shape", np.broadcast_shapes(
            self.pi.shape, self.xi.shape, self.psi.shape))


def logistic(t):
    """1/(1 + exp(-t)): exactly 0 below t = -709.78 and at -inf, 1 at +inf."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def _logistic_neg(t):
    """logistic(-t) = 1/(1 + exp(t)), in the array t's buffer."""
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


def _parts(phi, shape):
    """(re, im, scalar): phi's parts broadcast to ``shape``, at least 1-d.

    ``shape`` is the parameters' broadcast shape.  Every temporary made
    from the parts then has the kernel's output shape, so all updates can
    be in place; ``scalar`` says the result is to be returned as a scalar.
    """
    phi = np.asarray(phi, dtype=complex)
    scalar = not phi.ndim and not shape
    if phi.shape != shape or scalar:
        full = np.broadcast_shapes(phi.shape, shape, (1,))
        if full != phi.shape:
            phi = np.broadcast_to(phi, full)
    return phi.real, phi.imag, scalar


def _log_evidence(re, im, c, psi, total, xi, xi_sq):
    """log[CN(phi; 0, c)/CN(phi; xi, total)], total = psi + c, as a new array.

    ``xi`` None drops the xi terms, which are exact zeros for a zero mean.
    """
    num = re * re
    tmp = im * im
    num += tmp
    num *= psi
    if xi is not None:
        cross = np.multiply(xi.real, re, out=tmp)
        cross += xi.imag * im
        cross *= 2.0 * c
        num += cross
        num -= np.multiply(c, xi_sq, out=tmp)
    # log(total/c) - num/(c*total), the quotient's sign moved into the
    # divisor (IEEE division is sign-symmetric)
    num /= np.multiply(total, -c, out=tmp)
    num += np.log(np.divide(total, c, out=tmp), out=tmp)
    return num


def _log_gamma(re, im, c, prior: BgPrior, total):
    xi = None if prior.zero_mean else prior.xi
    lg = _log_evidence(re, im, c, prior.psi, total, xi, prior.xi_sq)
    lg += prior.log_odds
    return lg


def log_gamma(phi, c, prior: BgPrior):
    """log of the inactive/active likelihood-prior ratio; +/-inf at pi = 0/1."""
    re, im, scalar = _parts(phi, prior.shape)
    lg = _log_gamma(re, im, c, prior, prior.psi + c)
    return lg[0] if scalar else lg


def gamma(phi, c, prior: BgPrior):
    """The ratio gamma itself, exponent clamped to +/-700.

    Rejects boundary priors: at pi in {0, 1} gamma is +inf / 0 and callers
    are expected to short-circuit (F/G/denoise_* handle those internally).
    """
    if np.any(prior.pi <= 0.0) or np.any(prior.pi >= 1.0):
        raise ValueError("gamma requires 0 < pi < 1; boundaries short-circuit in F/G")
    return np.exp(np.clip(log_gamma(phi, c, prior), -_EXP_CLAMP, _EXP_CLAMP))


def _linear_mmse(re, im, c, prior: BgPrior, total):
    """Gaussian-branch posterior mean (psi*phi + xi*c)/(psi + c), as a new array."""
    m = np.empty(re.shape, dtype=complex)
    inv = 1.0 / total
    for part, m_part, xi_part in ((re, m.real, prior.xi.real),
                                  (im, m.imag, prior.xi.imag)):
        np.multiply(prior.psi, part, out=m_part)
        if not prior.zero_mean:
            m_part += xi_part * c
        m_part *= inv
    return m


def active_branch(phi, c, prior: BgPrior):
    """(w, m): P(active | phi) = (1+gamma)^{-1} and the Gaussian-branch mean.

    m = (psi*phi + xi*c)/(psi+c) is the posterior mean given activity, and
    F = w*m.  New arrays, 0-d for a scalar phi and prior.
    """
    re, im, scalar = _parts(phi, prior.shape)
    total = prior.psi + c
    w = _logistic_neg(_log_gamma(re, im, c, prior, total))
    m = _linear_mmse(re, im, c, prior, total)
    return (w.reshape(()), m.reshape(())) if scalar else (w, m)


def denoise_mean(phi, c, prior: BgPrior):
    """Posterior mean F(phi, c) = (1+gamma)^{-1} (psi*phi + xi*c)/(psi+c)."""
    w, m = active_branch(phi, c, prior)
    for m_part in (m.real, m.imag):
        m_part *= w
    return m[()]


def denoise_var(phi, c, prior: BgPrior):
    """Posterior variance G(phi, c) = (1+gamma)^{-1} psi*c/(psi+c) + gamma |F|^2.

    gamma |F|^2 = [gamma/(1+gamma)] * [1/(1+gamma)] * |m|^2 with m the
    Gaussian-branch mean, so both factors stay in [0, 1].
    """
    re, im, scalar = _parts(phi, prior.shape)
    total = prior.psi + c
    lg = _log_gamma(re, im, c, prior, total)
    s_idle = _logistic_neg(-lg)   # gamma/(1+gamma) = logistic(lg)
    s_act = _logistic_neg(lg)     # (1+gamma)^{-1}
    m2 = np.abs(_linear_mmse(re, im, c, prior, total)) ** 2
    s_idle *= s_act
    s_idle *= m2
    s_act *= prior.psi * c / total   # kappa
    s_act += s_idle
    return s_act[0] if scalar else s_act


def denoise_deriv(phi, c, prior: BgPrior):
    """F'(phi, c) = G(phi, c)/c (exact identity for this prior)."""
    return denoise_var(phi, c, prior) / c
