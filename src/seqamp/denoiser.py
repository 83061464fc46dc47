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
scipy.special.expit, at about a quarter of its cost on long vectors.  The
kernels need it only at -log(gamma), so ``_logistic_neg(t)`` computes
1/(1 + exp(t)) in t's buffer.  For t > 709.78 exp(t) overflows to +inf
(the warning is silenced) and the result is exactly 0, as it is in scipy.

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

BgPrior derives its log-odds log((1-pi)/pi), contiguous copies of xi's
parts, |xi|^2 and an all-zero-mean flag once.  With every xi zero (every
first-frame and static prior, in AMP and in state evolution alike) the xi
terms of the exponent and of the mean add exact zeros, so the kernels skip
them.  |m|^2 of the Gaussian-branch mean stays np.abs(m)**2 on a complex
m, because numpy's complex absolute value is bit-equal neither to np.hypot
of the parts nor to re^2 + im^2.  Temporaries are updated in place.

All kernels broadcast over arrays: phi may be a vector while the prior
holds per-entry (or scalar) parameters; c is a scalar.
``denoise_mean_parts`` takes phi's parts at the output shape and returns
F's parts, for callers that keep their data in parts (state evolution);
``denoise_mean`` is that kernel plus a pack into a complex array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BgPrior",
    "log_gamma",
    "gamma",
    "active_branch",
    "denoise_mean",
    "denoise_mean_parts",
    "denoise_var",
    "denoise_deriv",
]


@dataclass(frozen=True)
class BgPrior:
    """Bernoulli-Gaussian prior parameters (pi, xi, psi), broadcastable arrays.

    pi in [0, 1], psi > 0 and finite, xi finite.  Scalars are fine; AMP uses
    length-N vectors (one triple per user).  Derived once here (and again by
    dataclasses.replace): ``log_odds`` = log((1-pi)/pi), +/-inf at
    pi = 0/1; ``xi_re`` and ``xi_im``, xi's parts, contiguous copies
    unless every xi is 0; ``xi_sq`` = |xi|^2 on the parts; ``zero_mean``, True when every xi is
    0; ``shape``, the parameters' broadcast shape.
    """

    pi: np.ndarray
    xi: np.ndarray
    psi: np.ndarray
    log_odds: np.ndarray = field(init=False, repr=False, compare=False)
    xi_re: np.ndarray = field(init=False, repr=False, compare=False)
    xi_im: np.ndarray = field(init=False, repr=False, compare=False)
    xi_sq: np.ndarray = field(init=False, repr=False, compare=False)
    zero_mean: bool = field(init=False, repr=False, compare=False)
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=complex))
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=float))
        # written so that a NaN fails them
        if not np.all((self.pi >= 0.0) & (self.pi <= 1.0)):
            raise ValueError("pi must lie in [0, 1]")
        if not np.all((self.psi > 0.0) & np.isfinite(self.psi)):
            raise ValueError("psi must be positive and finite")
        if not np.all(np.isfinite(self.xi)):
            raise ValueError("xi must be finite")
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "log_odds",
                               np.log1p(-self.pi) - np.log(self.pi))
        zero_mean = not np.any(self.xi)
        xr, xim = self.xi.real, self.xi.imag
        if not zero_mean:   # the kernels skip the xi terms of a zero mean
            xr, xim = xr.copy(), xim.copy()
        object.__setattr__(self, "xi_re", xr)
        object.__setattr__(self, "xi_im", xim)
        object.__setattr__(self, "xi_sq", xr * xr + xim * xim)
        object.__setattr__(self, "zero_mean", zero_mean)
        object.__setattr__(self, "shape", np.broadcast_shapes(
            self.pi.shape, self.xi.shape, self.psi.shape))


def _logistic_neg(t):
    """The logistic at -t, 1/(1 + exp(t)), in the array t's buffer.

    Exactly 0 above t = 709.78 and at +inf, 1 at -inf.
    """
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


def _log_gamma(re, im, c, prior: BgPrior, total):
    """log gamma as a new array, total = psi + c; a zero mean's xi terms are skipped."""
    num = re * re
    tmp = im * im
    num += tmp
    num *= prior.psi
    if not prior.zero_mean:
        cross = np.multiply(prior.xi_re, re, out=tmp)
        cross += prior.xi_im * im
        cross *= 2.0 * c
        num += cross
        num -= np.multiply(c, prior.xi_sq, out=tmp)
    # log(total/c) - num/(c*total), the quotient's sign moved into the
    # divisor (IEEE division is sign-symmetric)
    num /= np.multiply(total, -c, out=tmp)
    num += np.log(np.divide(total, c, out=tmp), out=tmp)
    num += prior.log_odds
    return num


def log_gamma(phi, c, prior: BgPrior):
    """log of the inactive/active likelihood-prior ratio; +/-inf at pi = 0/1."""
    re, im, scalar = _parts(phi, prior.shape)
    lg = _log_gamma(re, im, c, prior, prior.psi + c)
    return lg[0] if scalar else lg


def gamma(phi, c, prior: BgPrior):
    """The ratio gamma itself, exp(log gamma): +inf at pi = 0 or on overflow, 0 at pi = 1."""
    with np.errstate(over="ignore"):
        return np.exp(log_gamma(phi, c, prior))


def _linear_mmse(re, im, c, prior: BgPrior, total, out_parts):
    """Gaussian-branch posterior mean (psi*phi + xi*c)/(psi + c), into ``out_parts``.

    ``out_parts`` is the pair of real arrays that receive its parts.
    """
    inv = 1.0 / total
    for part, m_part, xi_part in zip((re, im), out_parts, (prior.xi_re, prior.xi_im)):
        np.multiply(prior.psi, part, out=m_part)
        if not prior.zero_mean:
            m_part += xi_part * c
        m_part *= inv


def _front(phi, c, prior: BgPrior):
    """(lg, m, total, scalar): log gamma and the Gaussian-branch mean at phi.

    New arrays at the output shape (m complex), total = psi + c, ``_parts``' flag.
    """
    re, im, scalar = _parts(phi, prior.shape)
    total = prior.psi + c
    m = np.empty(re.shape, dtype=complex)
    _linear_mmse(re, im, c, prior, total, (m.real, m.imag))
    return _log_gamma(re, im, c, prior, total), m, total, scalar


def active_branch(phi, c, prior: BgPrior):
    """(w, m): P(active | phi) = (1+gamma)^{-1} and the Gaussian-branch mean.

    m = (psi*phi + xi*c)/(psi+c) is the posterior mean given activity, and
    F = w*m.  New arrays, 0-d for a scalar phi and prior.
    """
    lg, m, _, scalar = _front(phi, c, prior)
    w = _logistic_neg(lg)
    return (w.reshape(()), m.reshape(())) if scalar else (w, m)


def denoise_mean_parts(re, im, c, prior: BgPrior):
    """F(phi, c) on phi's parts: (Re F, Im F), contiguous new arrays.

    ``re`` and ``im`` are at least 1-d and already have the output shape,
    the broadcast of phi's shape with the prior's.
    """
    total = prior.psi + c
    w = _logistic_neg(_log_gamma(re, im, c, prior, total))
    f = np.empty((2,) + re.shape)
    _linear_mmse(re, im, c, prior, total, f)
    f *= w
    return f[0], f[1]


def denoise_mean(phi, c, prior: BgPrior):
    """Posterior mean F(phi, c) = (1+gamma)^{-1} (psi*phi + xi*c)/(psi+c)."""
    re, im, scalar = _parts(phi, prior.shape)
    f_re, f_im = denoise_mean_parts(re, im, c, prior)
    f = np.empty(f_re.shape, dtype=complex)
    f.real, f.imag = f_re, f_im
    return f[0] if scalar else f


def denoise_var(phi, c, prior: BgPrior):
    """Posterior variance G(phi, c) = (1+gamma)^{-1} psi*c/(psi+c) + gamma |F|^2.

    gamma |F|^2 = [gamma/(1+gamma)] * [1/(1+gamma)] * |m|^2 with m the
    Gaussian-branch mean, so both factors stay in [0, 1].
    """
    lg, m, total, scalar = _front(phi, c, prior)
    s_idle = _logistic_neg(-lg)   # gamma/(1+gamma) = logistic(lg)
    s_act = _logistic_neg(lg)     # (1+gamma)^{-1}
    m2 = np.abs(m) ** 2
    s_idle *= s_act
    s_idle *= m2
    s_act *= prior.psi * c / total   # kappa
    s_act += s_idle
    return s_act[0] if scalar else s_act


def denoise_deriv(phi, c, prior: BgPrior):
    """F'(phi, c) = G(phi, c)/c (exact identity for this prior)."""
    return denoise_var(phi, c, prior) / c
