"""Monte-Carlo state evolution and its fixed point.

The scalar recursion

    c+ = noise_var + (N/L) * E |F(X + sqrt(c) V, c; prior) - X|^2

predicts the AMP effective noise level when the denoiser matches the prior;
noise_var is the configured noise power cfg.noise_var.
The expectation is estimated over a frozen batch of (X, V) samples under a
given per-sample prior; freezing the batch makes the fixed-point map
deterministic, so plain successive substitution converges to the 1e-4
relative tolerance instead of stalling on resampling noise.

The sequential trace replays the algorithm's own moment-matching recursion
on M independent single-user trajectories: each sample carries its own
(rho, eta), activity chain and AR-1 channel, its prior is updated from the
scalar pseudo-observation phi = x + sqrt(c_t) v after each ADT, and the
fixpoint is recomputed per ADT.  A static-prior trace over the identical
samples provides the matched-pair baseline.  The activity chains, the unit
channel draws, the noise and each trajectory's path loss and eta do not
depend on the transmit power or the pilot length (``SE_SWEEP_KEYS``), so a
sweep over those draws them once (:class:`SeDraws`) and every trace forms
its own rho from the path loss and rescales the channel draws by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .amp import C0_FACTOR
from .config import SystemConfig, channel_power
from .denoiser import BgPrior
# F on parts, under the name the benchmark traces as SE's denoiser
from .denoiser import denoise_mean_parts as denoise_mean
from .rng import complex_normal, stream
from .scenario import ar1_channels  # noqa: F401  unused; perfbench traces this binding
from .scenario import ar1_scales, ar1_step, gen_user_profiles, markov_activity
from .sequential import initial_prior, moment_match, prior_propagate

__all__ = [
    "SeSamples",
    "SeFixpoint",
    "SeTrace",
    "SeDraws",
    "se_step",
    "se_fixpoint",
    "se_draws",
    "se_sequential_trace",
    "SE_SWEEP_KEYS",
]

SE_STEP_SAMPLES = 200_000    # criterion 5's sample count
SE_TRACE_SAMPLES = 20_000    # default trajectories for sequential traces
FIXPOINT_TOL = 1e-4
FIXPOINT_MAX_ITERS = 200
NOR_REF_DBM = 13.0           # reference power P0 of nor(c_t) = (P/P0) c_t
# the only config fields in which traces that share one SeDraws may differ
SE_SWEEP_KEYS = ("pilot_len", "tx_power_dbm")


@dataclass(frozen=True)
class SeSamples:
    """Frozen Monte-Carlo batch: signals X and CN(0,1) noise V.

    The parts of x and v are copied once into contiguous arrays
    (``x_re``, ``x_im``, ``v_re``, ``v_im``), which every step reads.
    The prior the batch is denoised under is an argument of each step.
    """

    x: np.ndarray        # (M,) complex
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


@dataclass(frozen=True)
class SeFixpoint:
    c: float
    iters: int
    converged: bool


@dataclass(frozen=True)
class SeTrace:
    """Per-ADT fixpoints of the sequential and static recursions; row t is ADT t+1."""

    c_seq: np.ndarray
    c_static: np.ndarray
    n_samples: int
    converged: bool


def se_step(c: float, samples: SeSamples, prior: BgPrior, cfg: SystemConfig) -> float:
    """One state-evolution step: noise_var + (N/L) * mean |F(X+sqrt(c)V) - X|^2.

    F is the denoiser under ``prior``, one parameter triple per sample.

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
    f_re, f_im = denoise_mean(phi_re, phi_im, c, prior)
    # phi's buffers are free now; the error is formed in them
    err = np.subtract(f_re, samples.x_re, out=phi_re)
    err *= err
    err_im = np.subtract(f_im, samples.x_im, out=phi_im)
    err_im *= err_im
    err += err_im
    mse = float(np.add.reduce(err) / err.size)
    return cfg.noise_var + (cfg.n_users / cfg.pilot_len) * mse


def se_fixpoint(samples: SeSamples, prior: BgPrior, cfg: SystemConfig) -> SeFixpoint:
    """Successive substitution from AMP's own seed c0 = C0_FACTOR * noise_var.

    Stops at |dc|/c < 1e-4; past 200 iterations the last iterate is
    returned flagged non-converged rather than hidden.
    """
    c = C0_FACTOR * cfg.noise_var
    for it in range(1, FIXPOINT_MAX_ITERS + 1):
        c_next = se_step(c, samples, prior, cfg)
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
    trajectories.  ``pathloss_db`` and ``eta`` are the trajectories' (M,)
    link geometry; only rho, formed from the path loss, depends on the
    power.  They come from streams keyed by (seed, purpose) only, so every
    trace whose config differs from ``cfg``, the config they were drawn
    for, in ``SE_SWEEP_KEYS`` alone draws exactly them.
    """

    cfg: SystemConfig
    activity: np.ndarray
    channel: np.ndarray
    noise: np.ndarray
    pathloss_db: np.ndarray
    eta: np.ndarray


def se_draws(cfg: SystemConfig, n_samples: int = SE_TRACE_SAMPLES) -> SeDraws:
    """The trajectories' draws from trial 0's streams of cfg.seed.

    Each is drawn as the (M, T) array it always was and stored transposed,
    the complex ones written straight into their (T, M) buffers.  The
    geometry comes from one :func:`gen_user_profiles` draw, whose rho is
    dropped.
    """
    shape = (n_samples, cfg.n_adts)
    act = markov_activity(cfg.lam, cfg.p01, cfg.p10, n_samples, cfg.n_adts,
                          stream(cfg.seed, 0, "se-activity"))
    channel, noise = np.empty((2, cfg.n_adts, n_samples), dtype=complex)
    complex_normal(stream(cfg.seed, 0, "se-channels"), shape, out=channel.T)
    complex_normal(stream(cfg.seed, 0, "se-noise"), shape, np.sqrt(0.5), out=noise.T)
    geometry = gen_user_profiles(cfg, stream(cfg.seed, 0, "se-profiles"), n=n_samples)
    return SeDraws(cfg, np.ascontiguousarray(act.T), channel, noise,
                   geometry.pathloss_db, geometry.ar_coeff)


def se_sequential_trace(cfg: SystemConfig, n_samples: int = SE_TRACE_SAMPLES,
                        draws: SeDraws | None = None) -> SeTrace:
    """Paired sequential / static fixpoint traces over cfg.n_adts ADTs.

    The trajectories come from trial 0's streams of cfg.seed: ``draws``,
    made by :func:`se_draws` for n_samples trajectories of a config that
    differs from cfg in ``SE_SWEEP_KEYS`` alone, or drawn here when None.
    Other ``draws`` raise ValueError naming each field that differs.
    The AR-1 channel is stepped one ADT at a time on one (M,) state, so a
    trace allocates nothing of size (M, T).
    """
    if draws is None:
        draws = se_draws(cfg, n_samples)
    made = {f.name: (getattr(draws.cfg, f.name), getattr(cfg, f.name))
            for f in fields(SystemConfig) if f.name not in SE_SWEEP_KEYS}
    made["n_samples"] = (draws.eta.size, n_samples)
    differ = [f"{name} = {had!r}, not {want!r}"
              for name, (had, want) in made.items() if had != want]
    if differ:
        raise ValueError(f"SE draws made for {'; '.join(differ)}")
    t_total = cfg.n_adts
    rho, eta = channel_power(cfg, draws.pathloss_db), draws.eta

    # one object for both priors at ADT 1, as in the algorithm's driver
    static_prior = prior = initial_prior(cfg, rho)
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
        batch = SeSamples(x_t, v_t)
        fp = se_fixpoint(batch, prior, cfg)
        c_seq[t] = fp.c
        all_converged &= fp.converged

        fp_s = se_fixpoint(batch, static_prior, cfg)
        c_static[t] = fp_s.c
        all_converged &= fp_s.converged

        phi = x_t + np.sqrt(c_seq[t]) * v_t
        post = moment_match(phi, c_seq[t], prior, rho=rho)
        prior = prior_propagate(post, eta, rho, cfg)

    return SeTrace(c_seq, c_static, n_samples, all_converged)
