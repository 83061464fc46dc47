"""Experiment configuration.

``SystemConfig`` gathers every scalar knob of the simulated grant-free
random-access system: dimensions, traffic statistics, radio constants and
Monte-Carlo bookkeeping.  Defaults follow the reference large-scale setup
(2000 users, 20 detection periods, -169 dBm/Hz noise floor, 3.5 GHz
carrier); :func:`desk_config` shrinks dimensions so the full comparison
suite runs in minutes while preserving the load ratio N/L and the expected
number of active users per measurement.

Only settings a run may vary are fields: the carrier ``CARRIER_HZ``, the
path loss ``PATHLOSS_INTERCEPT_DB`` and ``PATHLOSS_SLOPE``, the AMP seed
``amp.C0_FACTOR`` and P0 ``state_evolution.NOR_REF_DBM`` are constants, and
the soft-threshold multiplier is calibrated per sweep point.  The noise
and channel powers follow from the fields by the laws here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = ["SystemConfig", "desk_config", "doppler", "path_loss_db", "channel_power",
           "parse_number", "SPEED_OF_LIGHT", "CARRIER_HZ", "MAX_DOPPLER_ARG",
           "PATHLOSS_INTERCEPT_DB", "PATHLOSS_SLOPE"]

SPEED_OF_LIGHT = 2.99792458e8  # m/s
CARRIER_HZ = 3.5e9
# largest Doppler argument 2*pi*f_D*T_ADP accepted: J0 costs O(argument) per
# user, and beyond it |eta| = |J0| < 0.01, so the channel is all but memoryless
MAX_DOPPLER_ARG = 1e4
PATHLOSS_INTERCEPT_DB = -128.1
PATHLOSS_SLOPE = -36.7  # dB per decade of distance


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
    dist_min_km: float = 0.05
    dist_max_km: float = 1.0
    speed_min_kmh: float = 0.0
    speed_max_kmh: float = 50.0
    amp_iters: int = 50             # inner-loop iteration cap I
    seed: int = 1
    n_trials: int = 20

    def __post_init__(self):
        # an int field takes a whole number and stores int() of it, so 64-bit
        # seeds stay exact; a float field stores a finite Python float
        for f in fields(self):
            kind, value = (int if f.type == "int" else float), getattr(self, f.name)
            try:
                value = parse_number(value) if isinstance(value, str) else value
                number = kind(value)
                valid = number == value if kind is int else math.isfinite(number)
            except (TypeError, ValueError, OverflowError):  # nan, inf, an int past float range
                valid = False
            if not valid:
                rule = "a whole number" if kind is int else "finite"
                raise ValueError(f"{f.name} must be {rule}, got {value!r}")
            object.__setattr__(self, f.name, number)
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
        if not (self.bandwidth_hz > 0 and self.adp_duration_s > 0):
            raise ValueError("bandwidth_hz and adp_duration_s must be positive")
        if not 0.0 < self.dist_min_km <= self.dist_max_km:
            raise ValueError("distances must satisfy 0 < dist_min_km <= dist_max_km")
        if not 0.0 <= self.speed_min_kmh <= self.speed_max_kmh:
            raise ValueError("speeds must satisfy 0 <= speed_min_kmh <= speed_max_kmh")
        if self.amp_iters < 0 or self.n_trials < 1:
            raise ValueError("amp_iters must be >= 0 and n_trials >= 1")
        arg = doppler(self, self.speed_max_kmh)
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

    @property
    def noise_var(self) -> float:
        """Noise power in watts: 10**((psd_dbm_hz - 30)/10) * bandwidth."""
        return 10.0 ** ((self.noise_psd_dbm_hz - 30.0) / 10.0) * self.bandwidth_hz

    def with_(self, **kwargs) -> "SystemConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


def parse_number(text: str):
    """``text`` read as an int, or else as a float; ValueError if neither."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def doppler(cfg: SystemConfig, speed_kmh):
    """2*pi*f_D*T_ADP at ``speed_kmh`` (a float or an array), with f_D = v*f_c/c in Hz."""
    f_d = speed_kmh / 3.6 * CARRIER_HZ / SPEED_OF_LIGHT
    return 2.0 * math.pi * f_d * cfg.adp_duration_s


def path_loss_db(d_km: np.ndarray) -> np.ndarray:
    """PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE*log10(d_km), in dB."""
    return PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE * np.log10(d_km)


def channel_power(cfg: SystemConfig, pathloss_db: np.ndarray) -> np.ndarray:
    """rho_n = 10**((tx_power_dbm + pathloss_db - 30)/10) watts, per user."""
    return 10.0 ** ((cfg.tx_power_dbm + pathloss_db - 30.0) / 10.0)


def desk_config(**overrides) -> SystemConfig:
    """Desk-scale profile: N=500, L=125, T=10, 20 trials.

    Keeps N/L = 4 and lam*N = 25 expected active users, so algorithm
    orderings observed here carry the same qualitative shape as the
    full-scale setup at a fraction of the runtime.
    """
    base = dict(n_users=500, pilot_len=125, n_adts=10, n_trials=20)
    base.update(overrides)
    return SystemConfig(**base)
