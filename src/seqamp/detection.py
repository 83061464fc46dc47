"""Active-user detection, channel estimation and scoring metrics.

Detection is the Bayes rule on the matched activity posterior: declare
active iff pi_bar >= 1/2 (posterior odds >= 1, ties to active), which is
the log-likelihood ratio of active vs idle thresholded at the prior odds
log((1-pi)/pi).  The channel estimate is the recovered sparse entry
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequential import PosteriorSummary, SequenceResult

__all__ = [
    "DetectionResult",
    "bayes_detect",
    "detect_sequence",
    "metric_nmse",
    "detection_counts",
    "nmse_db",
    "dep_from_counts",
]

NMSE_FLOOR_DB = -300.0  # sentinel for zero (or absurdly small) error energy


@dataclass(frozen=True)
class DetectionResult:
    """Per-user, per-ADT outputs of a sequential run."""

    decisions: np.ndarray    # (N, T) int8
    channel_est: np.ndarray  # (N, T) complex, hat h = hat x


def bayes_detect(post: PosteriorSummary) -> np.ndarray:
    """Bayes decisions: active iff pi_bar >= 0.5 (tie resolves to active)."""
    return (post.pi_bar >= 0.5).astype(np.int8)


def detect_sequence(result: SequenceResult) -> DetectionResult:
    """Assemble decisions and channel estimates for a whole run.

    The channel estimate of every user, active or not, is its converged AMP
    posterior mean, so ``channel_est`` is ``result.x_hat``.
    """
    decisions = np.stack([bayes_detect(r.posterior) for r in result.records], axis=1)
    return DetectionResult(decisions, result.x_hat)


def metric_nmse(est: np.ndarray, truth: np.ndarray) -> float:
    """10*log10(sum |est-truth|^2 / sum |truth|^2) over every entry.

    To score a subset, such as the truly active user-ADT pairs, index both
    arrays with it first.  Zero truth energy is undefined and raises; zero
    error energy returns the -300 dB sentinel.
    """
    energy = float(np.sum(np.abs(truth) ** 2))
    if energy <= 0.0:
        raise ValueError("NMSE undefined: truth has zero energy")
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


def dep_from_counts(fa, md, n_inactive, n_active) -> float:
    """DEP = P_FA + P_MD from pooled counts.

    P_FA = false alarms / truly inactive, P_MD = misses / truly active.
    An empty class contributes zero (nothing to misclassify).
    """
    p_fa = fa / n_inactive if n_inactive else 0.0
    p_md = md / n_active if n_active else 0.0
    return p_fa + p_md
