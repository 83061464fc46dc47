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
the soft-threshold multiplier is calibrated per sweep point.  The powers
follow from the fields by the laws here, and SystemConfig refuses, wherever
it is built, a Doppler argument or a power that the kernels cannot carry.
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
# Every power a run handles -- the noise, the channel power at dist_min_km
# (the largest) and the transmit power, by which state evolution's rows
# scale c -- is at most 1e150 W, and the channel-to-noise ratio at most
# 1e300, so the products and quotients of two of them that the kernels form
# (|phi|^2 * psi, c * (psi + c), |phi|^2 / c) and the SE rows' (P/P0) * c
# stay far enough below float overflow (1.8e308) for |h|^2 above its mean.
# At desk, with 2 ADTs, ``run`` failed from a channel power at dist_min_km
# of 10^154.9 W at every noise power, and from a ratio of 10^310.4.
_MAX_POWER_W = 1e150
_MAX_SNR = 1e300


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
        _check_powers(self)

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


def _check_powers(cfg: SystemConfig) -> None:
    """Raise ValueError unless the powers of ``cfg``, by the config's own
    laws, are finite positive watts the kernels can carry.

    The noise power and the channel power at both range ends must be finite
    and positive; the noise, transmit and largest channel power (at
    ``dist_min_km``) at most ``_MAX_POWER_W``, and the ratio of that channel
    power to the noise at most ``_MAX_SNR``."""
    try:
        noise = cfg.noise_var
    except OverflowError:
        noise = np.inf
    ends = np.array([cfg.dist_min_km, cfg.dist_max_km])
    with np.errstate(over="ignore"):
        rho_min, rho_max = channel_power(cfg, path_loss_db(ends))
        transmit = channel_power(cfg, np.zeros(1))[0]   # no path loss
    noise_what = (f"noise power at noise_psd_dbm_hz = {cfg.noise_psd_dbm_hz:g} "
                  f"and bandwidth_hz = {cfg.bandwidth_hz:g}")
    at_min = f"tx_power_dbm = {cfg.tx_power_dbm:g} and dist_min_km = {cfg.dist_min_km:g}"
    for power, what in (
            (noise, noise_what),
            (rho_min, f"channel power at {at_min}"),
            (rho_max, f"channel power at tx_power_dbm = {cfg.tx_power_dbm:g} "
                      f"and dist_max_km = {cfg.dist_max_km:g}")):
        if not 0.0 < power < np.inf:
            raise ValueError(f"{what} is {power:g} W, not finite and positive")
    for value, unit, limit, what in (
            (noise, " W", _MAX_POWER_W, noise_what),
            (transmit, " W", _MAX_POWER_W, f"transmit power at tx_power_dbm = "
                                           f"{cfg.tx_power_dbm:g}"),
            (rho_min, " W", _MAX_POWER_W, f"channel power at {at_min}"),
            (float(rho_min) / noise, "", _MAX_SNR, f"channel-to-noise ratio at {at_min}")):
        if value > limit:
            raise ValueError(f"{what} is {value:g}{unit}, above the {limit:g}{unit} "
                             f"the kernels can carry")


def desk_config(**overrides) -> SystemConfig:
    """Desk-scale profile: N=500, L=125, T=10, 20 trials.

    Keeps N/L = 4 and lam*N = 25 expected active users, so algorithm
    orderings observed here carry the same qualitative shape as the
    full-scale setup at a fraction of the runtime.
    """
    base = dict(n_users=500, pilot_len=125, n_adts=10, n_trials=20)
    base.update(overrides)
    return SystemConfig(**base)
