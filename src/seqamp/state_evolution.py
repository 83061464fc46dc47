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
samples provides the matched-pair baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .amp import C0_FACTOR
from .config import SystemConfig
from .denoiser import BgPrior, denoise_mean
from .rng import complex_normal, stream
from .scenario import ar1_channels, derive_noise_var, gen_user_profiles, markov_activity
from .sequential import moment_match, prior_propagate

__all__ = [
    "SeSamples",
    "SeFixpoint",
    "SeTrace",
    "static_sampler",
    "se_step",
    "se_fixpoint",
    "se_sequential_trace",
]

SE_STEP_SAMPLES = 200_000    # default batch for one-shot step / fixpoint
SE_TRACE_SAMPLES = 20_000    # default trajectories for sequential traces
FIXPOINT_TOL = 1e-4
FIXPOINT_MAX_ITERS = 200
NOR_REF_DBM = 13.0           # reference power P0 of nor(c_t) = (P/P0) c_t


@dataclass(frozen=True)
class SeSamples:
    """Frozen Monte-Carlo batch: signals X, per-sample priors, CN(0,1) noise."""

    x: np.ndarray        # (M,) complex
    prior: BgPrior       # per-sample parameter triples
    v: np.ndarray        # (M,) complex, standard circular Gaussian


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
    and the per-sample prior is the matched static triple (lam, 0, rho).
    """

    def draw(m: int, rng: np.random.Generator) -> SeSamples:
        rho = gen_user_profiles(cfg, rng, n=m).channel_var
        active = rng.random(m) < cfg.lam
        x = active * np.sqrt(rho) * _cn_unit(rng, m)
        prior = BgPrior(np.full(m, cfg.lam), np.zeros(m, dtype=complex), rho)
        return SeSamples(x, prior, _cn_unit(rng, m))

    return draw


def se_step(c: float, samples: SeSamples, cfg: SystemConfig) -> float:
    """One state-evolution step: noise_var + (N/L) * mean |F(X+sqrt(c)V) - X|^2."""
    phi = samples.x + np.sqrt(c) * samples.v
    err = denoise_mean(phi, c, samples.prior) - samples.x
    mse = float(np.mean(err.real ** 2 + err.imag ** 2))
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


def se_sequential_trace(cfg: SystemConfig,
                        n_samples: int = SE_TRACE_SAMPLES) -> SeTrace:
    """Paired sequential / static fixpoint traces over cfg.n_adts ADTs.

    The trajectories come from trial 0's streams of cfg.seed.
    """
    t_total = cfg.n_adts
    profiles = gen_user_profiles(cfg, stream(cfg.seed, 0, "se-profiles"), n=n_samples)
    rho, eta = profiles.channel_var, profiles.ar_coeff
    act = markov_activity(cfg.lam, cfg.p01, cfg.p10, n_samples, t_total,
                          stream(cfg.seed, 0, "se-activity"))
    # x = act * h, formed in place on the channel draws
    x = ar1_channels(rho, eta, t_total, stream(cfg.seed, 0, "se-channels"))
    x *= act
    v = _cn_unit(stream(cfg.seed, 0, "se-noise"), (n_samples, t_total))

    static_prior = BgPrior(np.full(n_samples, cfg.lam),
                           np.zeros(n_samples, dtype=complex), rho)
    prior = static_prior
    c_seq = np.empty(t_total)
    c_static = np.empty(t_total)
    all_converged = True
    # ADT t's columns, refilled per ADT: each fixpoint makes ~30 elementwise
    # passes per iteration over them, so they must be contiguous, and one
    # buffer per trace, unlike a fresh copy per ADT, does not fragment the
    # heap and raise the peak resident memory
    x_t, v_t = np.empty((2, n_samples), dtype=complex)
    for t in range(t_total):
        x_t[:], v_t[:] = x[:, t], v[:, t]
        seq_batch = SeSamples(x_t, prior, v_t)
        fp = se_fixpoint(seq_batch, cfg)
        c_seq[t] = fp.c
        all_converged &= fp.converged

        static_batch = SeSamples(x_t, static_prior, v_t)
        fp_s = se_fixpoint(static_batch, cfg)
        c_static[t] = fp_s.c
        all_converged &= fp_s.converged

        phi = x_t + np.sqrt(c_seq[t]) * v_t
        post = moment_match(phi, c_seq[t], prior, rho=rho)
        prior = prior_propagate(post, eta, rho, cfg)

    nor = 10.0 ** ((cfg.tx_power_dbm - NOR_REF_DBM) / 10.0)
    return SeTrace(np.arange(1, t_total + 1), c_seq, c_static,
                   nor * c_seq, nor * c_static, n_samples, all_converged)
