"""Sequential outer loop: moment matching and prior propagation.

After the AMP inner loop converges in detection time t, the joint posterior
of (activity a, channel h) for each user is a two-component mixture.  To
keep the next ADT's prior in the Bernoulli-Gaussian family, that mixture is
projected onto a product Bernoulli(pi_bar) x CN(xi_bar, psi_bar) by moment
matching (the KL-optimal projection within this exponential family), and
the matched summary is pushed through the known Markov / AR-1 transition
kernels to become the next prior.  The mixture is the denoiser's: with
weight pi_bar = 1/(1+gamma) the user is active and h ~ CN(tau, kappa), tau
the Gaussian-branch mean and kappa = psi*c/(psi+c); otherwise h keeps its
prior.  ``denoiser.active_branch`` gives pi_bar and tau, so for a zero-mean
prior xi_bar is the denoiser's F.  Propagation:

    pi_hat+  = p10 (1 - pi_bar) + (1 - p01) pi_bar
    xi_hat+  = eta * xi_bar
    psi_hat+ = eta^2 * psi_bar + (1 - eta^2) * rho

With p01 = r (1-lam) and p10 = r lam, the activity update is computed in
the equivalent form pi_hat+ = r*lam + (1-r)*pi_bar; for r = 1 the history
coefficient is then exactly zero in floating point, so the degenerate
(i.i.d.) structure collapses onto the static prior bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amp import AmpDivergenceError, AmpState, amp_run
from .config import SystemConfig
from .denoiser import BgPrior, active_branch
from .scenario import Profiles, Scenario, ar_coeffs, channel_vars

__all__ = [
    "PosteriorSummary",
    "AdtRecord",
    "SequenceResult",
    "initial_prior",
    "moment_match",
    "posterior_update",
    "prior_propagate",
    "s_amp_run",
]

_PI_CLIP = 1e-12          # open-interval clip for interior pi before gamma
_PSI_FLOOR_REL = 1e-18    # floor on psi_bar, relative to the channel power


@dataclass(frozen=True)
class PosteriorSummary:
    """Moment-matched per-user posterior (pi_bar, xi_bar, psi_bar)."""

    pi_bar: np.ndarray
    xi_bar: np.ndarray
    psi_bar: np.ndarray


@dataclass(frozen=True)
class AdtRecord:
    """Everything one detection time produced."""

    prior: BgPrior
    amp: AmpState
    posterior: PosteriorSummary


@dataclass(frozen=True)
class SequenceResult:
    """Per-ADT trajectory of a sequential (or static-prior) run."""

    records: list[AdtRecord]

    @property
    def x_hat(self) -> np.ndarray:
        """(N, T) recovered sparse matrix, column t = converged AMP means."""
        return np.stack([r.amp.mu for r in self.records], axis=1)


def initial_prior(cfg: SystemConfig, profiles: Profiles) -> BgPrior:
    """First-frame prior: pi = lam, xi = 0, psi = rho_n for every user."""
    rho = channel_vars(profiles)
    n = rho.shape[0]
    return BgPrior(np.full(n, cfg.lam), np.zeros(n, dtype=complex), rho)


def moment_match(phi, c, prior: BgPrior,
                 rho: np.ndarray | None = None) -> PosteriorSummary:
    """Project the exact two-component posterior onto Bernoulli x Gaussian.

    Boundary priors pi in {0, 1} pass through (their +/-inf log-odds
    short-circuit gamma); other pi are clipped to [1e-12, 1-1e-12], in a
    second prior built only if that moves one.  ``rho`` scales the tiny
    floor on psi_bar, a difference of near-equal terms; it defaults to the
    prior variance.
    """
    pi = prior.pi
    interior = (pi > 0.0) & (pi < 1.0)
    pi_safe = np.where(interior, np.clip(pi, _PI_CLIP, 1.0 - _PI_CLIP), pi)
    if not np.array_equal(pi_safe, pi):
        prior = BgPrior(pi_safe, prior.xi, prior.psi)
    pi_bar, tau = active_branch(phi, c, prior)
    kappa = prior.psi * c / (prior.psi + c)
    xi_bar = pi_bar * tau + (1.0 - pi_bar) * prior.xi
    second = (pi_bar * (np.abs(tau) ** 2 + kappa)
              + (1.0 - pi_bar) * (np.abs(prior.xi) ** 2 + prior.psi))
    floor_scale = prior.psi if rho is None else np.asarray(rho, dtype=float)
    psi_bar = np.maximum(second - np.abs(xi_bar) ** 2,
                         _PSI_FLOOR_REL * floor_scale)
    return PosteriorSummary(pi_bar, xi_bar, psi_bar)


def posterior_update(amp_out: AmpState, prior: BgPrior,
                     rho: np.ndarray) -> PosteriorSummary:
    """Moment-matched summary at the converged AMP point (phi^I, c^I)."""
    return moment_match(amp_out.phi, amp_out.c, prior, rho=rho)


def prior_propagate(post: PosteriorSummary, eta: np.ndarray, rho: np.ndarray,
                    cfg: SystemConfig) -> BgPrior:
    """Push the matched posterior through the transition kernels.

    ``eta`` and ``rho`` are the per-user AR-1 coefficients and channel
    variances.
    """
    pi_next = cfg.p10 + (1.0 - cfg.r_scale) * post.pi_bar
    xi_next = eta * post.xi_bar
    psi_next = eta**2 * post.psi_bar + (1.0 - eta**2) * rho
    return BgPrior(pi_next, xi_next, psi_next)


def _run_sequence(scenario: Scenario, cfg: SystemConfig,
                  propagate: bool) -> SequenceResult:
    """Shared driver: AMP per ADT, moment matching, optional propagation.

    ``propagate=False`` reuses the first-frame prior at every ADT, which is
    exactly the static-prior AMP-MMSE baseline on the same code path.
    """
    rho = channel_vars(scenario.profiles)
    eta = ar_coeffs(scenario.profiles)
    prior = initial_prior(cfg, scenario.profiles)
    static_prior = prior
    records = []
    for t in range(cfg.n_adts):
        try:
            amp_out = amp_run(scenario.received[:, t], scenario.pilots, prior, cfg)
            post = posterior_update(amp_out, prior, rho=rho)
        except AmpDivergenceError as exc:
            raise AmpDivergenceError(f"ADT {t + 1}: {exc}") from exc
        records.append(AdtRecord(prior, amp_out, post))
        if propagate:
            prior = prior_propagate(post, eta, rho, cfg)
        else:
            prior = static_prior
    return SequenceResult(records)


def s_amp_run(scenario: Scenario, cfg: SystemConfig) -> SequenceResult:
    """Full sequential run over all ADTs with historical priors."""
    return _run_sequence(scenario, cfg, propagate=True)
