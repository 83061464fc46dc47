"""Helpers shared by several test modules."""

import numpy as np

from seqamp.config import SystemConfig


def noise_config(noise_var, **kw):
    """SystemConfig(**kw) whose ``noise_var`` property is ``noise_var``.

    The noise law 10**((psd - 30)/10) * bandwidth is inverted at a 1 Hz
    bandwidth.
    """
    psd = 30.0 + 10.0 * np.log10(noise_var)
    return SystemConfig(noise_psd_dbm_hz=psd, bandwidth_hz=1.0, **kw)


def logistic(t):
    """1/(1 + exp(-t)), the formula of scipy.special.expit, for the oracles."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))
