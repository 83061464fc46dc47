"""Monte-Carlo state evolution and its fixed point.

The scalar recursion

    c+ = noise_var + (N/L) * E |F(X + sqrt(c) V, c; prior) - X|^2

predicts the AMP effective noise level when the denoiser matches the prior;
noise_var is the configured noise power derive_noise_var(cfg).
The expectation is estimated over a frozen batch of (X, prior, V) samples;
freezing the batch makes the fixed-point map deterministic, so plain
successive substitution converges to the 1e-4 relative tolerance instead of
stalling on resampling noise.

The sequential trace replays the algorithm's own moment-matching recursion
on M independent single-user trajectories: each sample carries its own
(rho, eta), activity chain and AR-1 channel, its prior is updated from the
scalar pseudo-observation phi = x + sqrt(c_t) v after each ADT, and the
fixpoint is recomputed per ADT.  A static-prior trace over the identical
samples provides the matched-pair baseline.  The activity chains, the unit
channel draws and the noise do not depend on the transmit power or the
pilot length, so a sweep over those draws them once (:class:`SeDraws`)
and every trace rescales the channel draws by its own rho.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .amp import C0_FACTOR
from .config import SystemConfig
from .denoiser import BgPrior
# F on parts, under the name the benchmark traces as SE's denoiser
from .denoiser import denoise_mean_parts as denoise_mean
from .rng import complex_normal, stream
from .scenario import ar1_channels  # noqa: F401  unused; perfbench traces this binding
from .scenario import (ar1_scales, ar1_step, derive_noise_var, gen_user_profiles,
                       markov_activity)
from .sequential import initial_prior, moment_match, prior_propagate

__all__ = [
    "SeSamples",
    "SeFixpoint",
    "SeTrace",
    "SeDraws",
    "static_sampler",
    "se_step",
    "se_fixpoint",
    "se_draws",
    "se_sequential_trace",
]

SE_STEP_SAMPLES = 200_000    # default batch for one-shot step / fixpoint
SE_TRACE_SAMPLES = 20_000    # default trajectories for sequential traces
FIXPOINT_TOL = 1e-4
FIXPOINT_MAX_ITERS = 200
NOR_REF_DBM = 13.0           # reference power P0 of nor(c_t) = (P/P0) c_t


@dataclass(frozen=True)
class SeSamples:
    """Frozen Monte-Carlo batch: signals X, per-sample priors, CN(0,1) noise.

    The parts of x and v are copied once into contiguous arrays
    (``x_re``, ``x_im``, ``v_re``, ``v_im``), which every step reads.
    """

    x: np.ndarray        # (M,) complex
    prior: BgPrior       # per-sample parameter triples
    v: np.ndarray        # (M,) complex, standard circular Gaussian
    x_re: np.ndarray = field(init=False, repr=False, compare=False)
    x_im: np.ndarray = field(init=False, repr=False, compare=False)
    v_re: np.ndarray = field(init=False, repr=False, compare=False)
    v_im: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("x", "v"):
            a = np.asarray(getattr(self, name))
            object.__setattr__(self, f"{name}_re", np.array(a.real, dtype=float))
            object.__setattr__(self, f"{name}_im", np.array(a.imag, dtype=float))

    def with_prior(self, prior: BgPrior) -> SeSamples:
        """The same signals and noise under another prior, sharing the parts."""
        other = copy.copy(self)
        object.__setattr__(other, "prior", prior)
        return other


@dataclass(frozen=True)
class SeFixpoint:
    c: float
    iters: int
    converged: bool


@dataclass(frozen=True)
class SeTrace:
    """Per-ADT fixpoints of the sequential and static recursions."""

    adt: np.ndarray          # 1-based ADT indices
    c_seq: np.ndarray
    c_static: np.ndarray
    nor_seq: np.ndarray      # (P/P0) * c_t
    nor_static: np.ndarray
    n_samples: int
    converged: bool


def _cn_unit(rng: np.random.Generator, shape) -> np.ndarray:
    return complex_normal(rng, shape, np.sqrt(0.5))


def static_sampler(cfg: SystemConfig) -> Callable[[int, np.random.Generator], SeSamples]:
    """Sampler of i.i.d. (X, prior, V) triples under the static signal law.

    rho follows the configured geometry, X = Bernoulli(lam) * CN(0, rho),
    and the per-sample prior is AMP-MMSE's static triple (lam, 0, rho),
    :func:`sequential.initial_prior`.
    """

    def draw(m: int, rng: np.random.Generator) -> SeSamples:
        profiles = gen_user_profiles(cfg, rng, n=m)
        active = rng.random(m) < cfg.lam
        x = active * np.sqrt(profiles.channel_var) * _cn_unit(rng, m)
        return SeSamples(x, initial_prior(cfg, profiles), _cn_unit(rng, m))

    return draw


def se_step(c: float, samples: SeSamples, cfg: SystemConfig) -> float:
    """One state-evolution step: noise_var + (N/L) * mean |F(X+sqrt(c)V) - X|^2.

    phi, F and the error are formed on the samples' contiguous parts, by
    the floating-point operations numpy makes for the complex expressions
    (the real sqrt(c) scales each part of V), and add.reduce(err)/M is
    np.mean's sum and division.  The denoiser's outputs are only read.
    """
    s = np.sqrt(c)
    phi_re = np.multiply(samples.v_re, s)
    phi_re += samples.x_re
    phi_im = np.multiply(samples.v_im, s)
    phi_im += samples.x_im
    f_re, f_im = denoise_mean(phi_re, phi_im, c, samples.prior)
    # phi's buffers are free now; the error is formed in them
    err = np.subtract(f_re, samples.x_re, out=phi_re)
    err *= err
    err_im = np.subtract(f_im, samples.x_im, out=phi_im)
    err_im *= err_im
    err += err_im
    mse = float(np.add.reduce(err) / err.size)
    return derive_noise_var(cfg) + (cfg.n_users / cfg.pilot_len) * mse


def se_fixpoint(samples: SeSamples, cfg: SystemConfig) -> SeFixpoint:
    """Successive substitution from AMP's own seed c0 = C0_FACTOR * noise_var.

    Stops at |dc|/c < 1e-4; past 200 iterations the last iterate is
    returned flagged non-converged rather than hidden.
    """
    c = C0_FACTOR * derive_noise_var(cfg)
    for it in range(1, FIXPOINT_MAX_ITERS + 1):
        c_next = se_step(c, samples, cfg)
        done = abs(c_next - c) / c_next < FIXPOINT_TOL
        c = c_next
        if done:
            return SeFixpoint(c, it, True)
    return SeFixpoint(c, FIXPOINT_MAX_ITERS, False)


@dataclass(frozen=True)
class SeDraws:
    """The power-independent draws of a sequential trace, shareable across traces.

    ``activity`` is the Markov activity, ``channel`` the unit draws the
    AR-1 recursion scales by each trace's rho and eta, and ``noise`` the
    CN(0, 1) noise, each (T, M): row t, contiguous, is ADT t+1 of all M
    trajectories.  They come from streams keyed by (seed, purpose) only,
    so every trace whose config agrees on ``key`` (seed, lam, r_scale,
    n_adts and the sample count) draws exactly them.
    """

    key: tuple
    activity: np.ndarray
    channel: np.ndarray
    noise: np.ndarray


def _draws_key(cfg: SystemConfig, n_samples: int) -> tuple:
    return (cfg.seed, cfg.lam, cfg.r_scale, cfg.n_adts, n_samples)


def se_draws(cfg: SystemConfig, n_samples: int = SE_TRACE_SAMPLES) -> SeDraws:
    """The trajectories' draws from trial 0's streams of cfg.seed.

    Each is drawn as the (M, T) array it always was and stored transposed,
    the complex ones written straight into their (T, M) buffers.
    """
    shape = (n_samples, cfg.n_adts)
    act = markov_activity(cfg.lam, cfg.p01, cfg.p10, n_samples, cfg.n_adts,
                          stream(cfg.seed, 0, "se-activity"))
    channel, noise = np.empty((2, cfg.n_adts, n_samples), dtype=complex)
    complex_normal(stream(cfg.seed, 0, "se-channels"), shape, out=channel.T)
    complex_normal(stream(cfg.seed, 0, "se-noise"), shape, np.sqrt(0.5), out=noise.T)
    return SeDraws(_draws_key(cfg, n_samples), np.ascontiguousarray(act.T),
                   channel, noise)


def se_sequential_trace(cfg: SystemConfig, n_samples: int = SE_TRACE_SAMPLES,
                        draws: SeDraws | None = None) -> SeTrace:
    """Paired sequential / static fixpoint traces over cfg.n_adts ADTs.

    The trajectories come from trial 0's streams of cfg.seed: ``draws``,
    made by :func:`se_draws` for a config with the same draws key, or
    drawn here when None.  A ``draws`` with another key raises ValueError.
    The AR-1 channel is stepped one ADT at a time on one (M,) state, so a
    trace allocates nothing of size (M, T).
    """
    key = _draws_key(cfg, n_samples)
    if draws is None:
        draws = se_draws(cfg, n_samples)
    elif draws.key != key:
        raise ValueError(f"SE draws made for (seed, lam, r_scale, n_adts, n_samples) "
                         f"= {draws.key}, not {key}")
    t_total = cfg.n_adts
    profiles = gen_user_profiles(cfg, stream(cfg.seed, 0, "se-profiles"), n=n_samples)
    rho, eta = profiles.channel_var, profiles.ar_coeff

    # one object for both priors at ADT 1, as in the algorithm's driver
    static_prior = prior = initial_prior(cfg, profiles)
    c_seq = np.empty(t_total)
    c_static = np.empty(t_total)
    all_converged = True
    # the channel state and ADT t's signal, refilled per ADT: one buffer
    # each per trace, unlike a fresh array per ADT, does not fragment the
    # heap and raise the peak resident memory
    h, x_t = np.empty((2, n_samples), dtype=complex)
    for t, scale in zip(range(t_total), ar1_scales(rho, eta)):
        ar1_step(h if t else None, draws.channel[t], eta, scale, out=h)
        np.multiply(h, draws.activity[t], out=x_t)
        v_t = draws.noise[t]
        seq_batch = SeSamples(x_t, prior, v_t)
        fp = se_fixpoint(seq_batch, cfg)
        c_seq[t] = fp.c
        all_converged &= fp.converged

        static_batch = seq_batch.with_prior(static_prior)
        fp_s = se_fixpoint(static_batch, cfg)
        c_static[t] = fp_s.c
        all_converged &= fp_s.converged

        phi = x_t + np.sqrt(c_seq[t]) * v_t
        post = moment_match(phi, c_seq[t], prior, rho=rho)
        prior = prior_propagate(post, eta, rho, cfg)

    nor = 10.0 ** ((cfg.tx_power_dbm - NOR_REF_DBM) / 10.0)
    return SeTrace(np.arange(1, t_total + 1), c_seq, c_static,
                   nor * c_seq, nor * c_static, n_samples, all_converged)
