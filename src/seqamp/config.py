"""Experiment configuration.

``SystemConfig`` gathers every scalar knob of the simulated grant-free
random-access system: dimensions, traffic statistics, radio constants and
Monte-Carlo bookkeeping.  Defaults follow the reference large-scale setup
(2000 users, 20 detection periods, -169 dBm/Hz noise floor, 3.5 GHz
carrier); :func:`desk_config` shrinks dimensions so the full comparison
suite runs in minutes while preserving the load ratio N/L and the expected
number of active users per measurement.

Only settings a run may vary are fields: the AMP seed ``amp.C0_FACTOR`` and
P0 ``state_evolution.NOR_REF_DBM`` are constants, and the soft-threshold
multiplier is calibrated per sweep point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

__all__ = ["SystemConfig", "desk_config", "SPEED_OF_LIGHT", "MAX_DOPPLER_ARG"]

SPEED_OF_LIGHT = 2.99792458e8  # m/s
# largest Doppler argument 2*pi*f_D*T_ADP accepted: J0 costs O(argument) per
# user, and beyond it |eta| = |J0| < 0.01, so the channel is all but memoryless
MAX_DOPPLER_ARG = 1e4


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of one experiment.

    Traffic: each user is an independent two-state Markov chain with
    stationary activity probability ``lam`` and switching scale ``r_scale``
    (``p01 = r*(1-lam)``, ``p10 = r*lam``).  ``lam`` is spelled without the
    trailing "bda" because ``lambda`` is reserved in Python; the config-file
    key is still ``lambda``.
    """

    n_users: int = 2000            # N
    pilot_len: int = 400           # L
    n_adts: int = 20               # T
    lam: float = 0.05              # stationary activity probability
    r_scale: float = 0.1           # transition scale r
    tx_power_dbm: float = 33.0     # per-user transmit power P
    noise_psd_dbm_hz: float = -169.0
    bandwidth_hz: float = 1e7
    adp_duration_s: float = 100e-6  # ADP duration (pilot-to-pilot spacing)
    carrier_hz: float = 3.5e9
    dist_range_km: tuple[float, float] = (0.05, 1.0)
    speed_range_kmh: tuple[float, float] = (0.0, 50.0)
    pathloss_intercept_db: float = -128.1
    pathloss_slope: float = -36.7   # dB per decade of distance
    amp_iters: int = 50             # inner-loop iteration cap I
    seed: int = 1
    n_trials: int = 20

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            ends = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in ends):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not (self.n_users > 0 and self.pilot_len > 0 and self.n_adts > 0):
            raise ValueError("dimensions must be positive")
        if self.pilot_len > self.n_users:
            raise ValueError("pilot_len must not exceed n_users")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if not 0.0 < self.r_scale <= 1.0:
            raise ValueError("r_scale must lie in (0, 1]")
        if not (0.0 < self.p01 < 1.0 and 0.0 < self.p10 < 1.0):
            raise ValueError("derived transition probabilities must lie in (0, 1)")
        for name in ("bandwidth_hz", "adp_duration_s", "carrier_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.dist_range_km[0] <= self.dist_range_km[1]:
            raise ValueError("dist_range_km must satisfy 0 < d_min <= d_max")
        if not 0.0 <= self.speed_range_kmh[0] <= self.speed_range_kmh[1]:
            raise ValueError("speed_range_kmh must satisfy 0 <= v_min <= v_max")
        if self.amp_iters < 0 or self.n_trials < 1:
            raise ValueError("amp_iters must be >= 0 and n_trials >= 1")
        # same expression as gen_user_profiles, at the top speed
        doppler = self.speed_range_kmh[1] / 3.6 * self.carrier_hz / SPEED_OF_LIGHT
        arg = 2.0 * math.pi * doppler * self.adp_duration_s
        if arg > MAX_DOPPLER_ARG:
            raise ValueError(f"Doppler argument 2*pi*f_D*T_ADP = {arg:.4g} at the top "
                             f"speed exceeds {MAX_DOPPLER_ARG:g}")

    @property
    def p01(self) -> float:
        """Pr{active -> idle} = r * (1 - lambda)."""
        return self.r_scale * (1.0 - self.lam)

    @property
    def p10(self) -> float:
        """Pr{idle -> active} = r * lambda."""
        return self.r_scale * self.lam

    def with_(self, **kwargs) -> "SystemConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


def desk_config(**overrides) -> SystemConfig:
    """Desk-scale profile: N=500, L=125, T=10, 20 trials.

    Keeps N/L = 4 and lam*N = 25 expected active users, so algorithm
    orderings observed here carry the same qualitative shape as the
    full-scale setup at a fraction of the runtime.
    """
    base = dict(n_users=500, pilot_len=125, n_adts=10, n_trials=20)
    base.update(overrides)
    return SystemConfig(**base)
