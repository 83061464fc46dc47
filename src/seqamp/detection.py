"""Active-user detection, channel estimation and scoring metrics.

Detection is the Bayes rule on the matched activity posterior: declare
active iff pi_bar >= 1/2 (posterior odds >= 1, ties to active).  The
equivalent LLR form thresholds the sufficient statistic
T(phi) = |phi + c * xi/psi|^2, which degenerates to the classical energy
detector |phi|^2 when the prior mean is zero.  The channel estimate is the
recovered sparse entry itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amp import AmpState
from .denoiser import BgPrior, log_evidence_ratio
from .sequential import PosteriorSummary, SequenceResult

__all__ = [
    "DetectionResult",
    "llr_statistic",
    "llr_detect",
    "bayes_detect",
    "channel_estimate",
    "detect_sequence",
    "metric_nmse",
    "metric_dep",
    "detection_counts",
    "nmse_db",
    "dep_from_counts",
]

NMSE_FLOOR_DB = -300.0  # sentinel for zero (or absurdly small) error energy


@dataclass(frozen=True)
class DetectionResult:
    """Per-user, per-ADT outputs of a sequential run."""

    decisions: np.ndarray         # (N, T) int8
    channel_est: np.ndarray       # (N, T) complex, hat h = hat x
    sufficient_stats: np.ndarray  # (N, T) real, T(phi)


def llr_statistic(phi, c, prior: BgPrior):
    """Sufficient statistic T(phi) = |phi + c * xi/psi|^2."""
    return np.abs(np.asarray(phi, dtype=complex) + c * prior.xi / prior.psi) ** 2


def llr_detect(phi, c, prior: BgPrior, threshold=None) -> np.ndarray:
    """Threshold the log-likelihood ratio of active vs idle.

    ``threshold`` defaults to the Bayes prior-odds value log((1-pi)/pi),
    under which this rule coincides with :func:`bayes_detect`; a custom
    value trades false alarms against misses (calibrating it per user and
    ADT is out of scope here).
    """
    llr = -log_evidence_ratio(phi, c, prior.xi, prior.psi)
    if threshold is None:
        with np.errstate(divide="ignore"):
            threshold = np.log1p(-prior.pi) - np.log(prior.pi)
    return (llr >= threshold).astype(np.int8)


def bayes_detect(post: PosteriorSummary) -> np.ndarray:
    """Bayes decisions: active iff pi_bar >= 0.5 (tie resolves to active)."""
    return (post.pi_bar >= 0.5).astype(np.int8)


def channel_estimate(amp_out: AmpState) -> np.ndarray:
    """hat h = hat x = converged AMP posterior means (all users reported)."""
    return amp_out.mu


def detect_sequence(result: SequenceResult) -> DetectionResult:
    """Assemble decisions, channel estimates and statistics for a whole run."""
    decisions = np.stack([bayes_detect(r.posterior) for r in result.records], axis=1)
    channel_est = np.stack([channel_estimate(r.amp) for r in result.records], axis=1)
    stats = np.stack(
        [llr_statistic(r.amp.phi, r.amp.c, r.prior) for r in result.records], axis=1
    )
    return DetectionResult(decisions, channel_est, stats)


def metric_nmse(est: np.ndarray, truth: np.ndarray,
                mask: np.ndarray | None = None) -> float:
    """10*log10(sum |est-truth|^2 / sum |truth|^2) over masked entries.

    No mask scores every entry (sparse-vector NMSE); the true activity
    matrix as mask scores channel estimation over truly active user-ADT
    pairs.  Zero truth energy is undefined and raises; zero error energy
    returns the -300 dB sentinel.
    """
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        est = est[mask]
        truth = truth[mask]
    energy = float(np.sum(np.abs(truth) ** 2))
    if energy <= 0.0:
        raise ValueError("NMSE undefined: truth restricted to mask has zero energy")
    return nmse_db(float(np.sum(np.abs(est - truth) ** 2)), energy)


def nmse_db(err: float, energy: float) -> float:
    """10*log10(err/energy) from pooled sums, floored at -300 dB.

    Zero error returns the floor; zero truth energy returns NaN.
    """
    if energy <= 0.0:
        return float("nan")
    if err == 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(err / energy), NMSE_FLOOR_DB)


def detection_counts(decisions: np.ndarray, truth_activity: np.ndarray):
    """(false alarms, misses, truly inactive, truly active) pooled counts."""
    if decisions.shape != truth_activity.shape:
        raise ValueError("decision and truth matrices must share a shape")
    dec = np.asarray(decisions, dtype=bool)
    act = np.asarray(truth_activity, dtype=bool)
    fa = int(np.sum(dec & ~act))
    md = int(np.sum(~dec & act))
    return fa, md, int(np.sum(~act)), int(np.sum(act))


def metric_dep(decisions: np.ndarray, truth_activity: np.ndarray) -> float:
    """DEP = P_FA + P_MD with per-class rates pooled over all entries.

    P_FA = false alarms / truly inactive, P_MD = misses / truly active.
    An empty class contributes zero (nothing to misclassify).
    """
    return dep_from_counts(*detection_counts(decisions, truth_activity))


def dep_from_counts(fa, md, n_inactive, n_active) -> float:
    """P_FA + P_MD from pooled counts; an empty class contributes zero."""
    p_fa = fa / n_inactive if n_inactive else 0.0
    p_md = md / n_active if n_active else 0.0
    return p_fa + p_md
