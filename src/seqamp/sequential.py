"""Sequential outer loop: moment matching and prior propagation.

After the AMP inner loop converges in detection time t, the joint posterior
of (activity a, channel h) for each user is a two-component mixture.  To
keep the next ADT's prior in the Bernoulli-Gaussian family, that mixture is
projected onto a product Bernoulli(pi_bar) x CN(xi_bar, psi_bar) by moment
matching (the KL-optimal projection within this exponential family), and
the matched summary is pushed through the known Markov / AR-1 transition
kernels to become the next prior:

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
from scipy.special import expit

from .amp import AmpDivergenceError, AmpState, amp_run
from .config import SystemConfig
from .denoiser import BgPrior, log_evidence_ratio, log_gamma
from .scenario import Profiles, Scenario, ar_coeffs, channel_vars

__all__ = [
    "PosteriorSummary",
    "AdtRecord",
    "SequenceResult",
    "initial_prior",
    "moment_intermediates",
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


def moment_intermediates(phi, c, prior: BgPrior):
    """(pi_tilde, kappa_tilde, tau_tilde) of the two-component posterior.

    pi_tilde = (1 + (pi/(1-pi)) * gamma)^{-1}; the prior odds cancel inside
    gamma, leaving the pure evidence ratio, so pi_tilde is computed as a
    logistic of it.  kappa_tilde = c*psi/(c+psi) and
    tau_tilde = kappa_tilde * (phi/c + xi/psi).
    """
    pi_tilde = expit(-log_evidence_ratio(phi, c, prior.xi, prior.psi))
    kappa = c * prior.psi / (c + prior.psi)
    tau = kappa * (np.asarray(phi, dtype=complex) / c + prior.xi / prior.psi)
    return pi_tilde, kappa, tau


def moment_match(phi, c, prior: BgPrior,
                 rho: np.ndarray | None = None) -> PosteriorSummary:
    """Project the exact two-component posterior onto Bernoulli x Gaussian.

    pi_bar reduces algebraically to 1/(1+gamma) and is evaluated as the
    logistic of -log(gamma).  Exact boundary priors pi in {0, 1} pass
    through untouched (the +/-inf log-odds short-circuit them); interior
    values are clipped to [1e-12, 1-1e-12] first.  ``rho`` sets the scale
    of the tiny non-negativity floor on psi_bar, which is a difference of
    near-equal terms in floating point; it defaults to the prior variance.
    """
    pi = prior.pi
    interior = (pi > 0.0) & (pi < 1.0)
    pi_safe = np.where(interior, np.clip(pi, _PI_CLIP, 1.0 - _PI_CLIP), pi)
    prior_safe = BgPrior(pi_safe, prior.xi, prior.psi)

    _, kappa, tau = moment_intermediates(phi, c, prior_safe)
    pi_bar = expit(-log_gamma(phi, c, prior_safe))
    xi_bar = pi_bar * tau + (1.0 - pi_bar) * prior.xi
    second = (pi_bar * (np.abs(tau) ** 2 + kappa)
              + (1.0 - pi_bar) * (np.abs(prior.xi) ** 2 + prior.psi))
    floor_scale = prior.psi if rho is None else np.asarray(rho, dtype=float)
    psi_bar = np.maximum(second - np.abs(xi_bar) ** 2,
                         _PSI_FLOOR_REL * floor_scale)
    return PosteriorSummary(pi_bar, xi_bar, psi_bar)


def posterior_update(amp_out: AmpState, prior: BgPrior,
                     rho: np.ndarray | None = None) -> PosteriorSummary:
    """Moment-matched summary at the converged AMP point (phi^I, c^I)."""
    return moment_match(amp_out.phi, amp_out.c, prior, rho=rho)


def _propagate_arrays(post: PosteriorSummary, eta: np.ndarray, rho: np.ndarray,
                      cfg: SystemConfig) -> BgPrior:
    pi_next = cfg.p10 + (1.0 - cfg.r_scale) * post.pi_bar
    xi_next = eta * post.xi_bar
    psi_next = eta**2 * post.psi_bar + (1.0 - eta**2) * rho
    return BgPrior(pi_next, xi_next, psi_next)


def prior_propagate(post: PosteriorSummary, profiles: Profiles,
                    cfg: SystemConfig) -> BgPrior:
    """Push the matched posterior through the transition kernels."""
    return _propagate_arrays(post, ar_coeffs(profiles), channel_vars(profiles), cfg)


def _run_sequence(scenario: Scenario, cfg: SystemConfig,
                  propagate: bool, mode: str = "empirical") -> SequenceResult:
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
            amp_out = amp_run(scenario.received[:, t], scenario.pilots, prior,
                              cfg, mode=mode, noise_var=scenario.noise_var)
            post = posterior_update(amp_out, prior, rho=rho)
        except AmpDivergenceError as exc:
            raise AmpDivergenceError(f"ADT {t + 1}: {exc}") from exc
        records.append(AdtRecord(prior, amp_out, post))
        if propagate:
            prior = _propagate_arrays(post, eta, rho, cfg)
        else:
            prior = static_prior
    return SequenceResult(records)


def s_amp_run(scenario: Scenario, cfg: SystemConfig,
              mode: str = "empirical") -> SequenceResult:
    """Full sequential run over all ADTs with historical priors."""
    return _run_sequence(scenario, cfg, propagate=True, mode=mode)
