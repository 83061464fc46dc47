"""Order statistics used by the benchmark report.

Timings are summarised by their median and by a tail percentile that is
only reported when enough samples lie beyond it to mean something.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["TAIL_LADDER", "MIN_BEYOND", "percentile", "tail_percentile",
           "quartile_spread"]

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)  # candidate tail percentiles, highest first
MIN_BEYOND = 10                           # samples that must lie beyond the tail


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(samples, min_beyond: int = MIN_BEYOND):
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Returns ``(p, value, n_beyond)``, or None when even the 90th percentile
    has fewer than ``min_beyond`` samples strictly above it (fewer than
    about 100 samples), in which case no tail is reported.
    """
    values = sorted(samples)
    for p in TAIL_LADDER:
        if not values:
            break
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= min_beyond:
            return p, value, beyond
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
