"""Ground-truth generation for the grant-free random-access model.

One scenario instance holds everything an algorithm is allowed to see
(pilot matrix, received signals, known statistics) plus the hidden truth
(activity matrix, channel matrix) used for scoring.  The model per
detection time t is

    y(t) = S x(t) + w(t),     x(t) = a(t) * h(t)  (elementwise),

with per-user activity a_n following a stationary two-state Markov chain
and per-user channels h_n a stationary complex AR-1 process.  All draws go
through named Philox streams, so a (config, seed, trial) triple pins the
scenario bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, SystemConfig
from .rng import stream

__all__ = [
    "Profiles",
    "Scenario",
    "bessel_j0",
    "derive_noise_var",
    "gen_user_profiles",
    "gen_pilots",
    "markov_activity",
    "simulate_activity",
    "ar1_channels",
    "simulate_channels",
    "synthesize_received",
    "make_scenario",
    "channel_vars",
    "ar_coeffs",
]


@dataclass(frozen=True)
class Profiles:
    """Large-scale parameters of every user link, one (n,) array per field.

    ``channel_var`` is the stationary channel power rho_n with the transmit
    power absorbed: 10**((tx_power_dbm + pathloss_db - 30)/10) watts.
    ``ar_coeff`` is eta_n = J0(2*pi*doppler_hz*adp_duration).
    """

    distance_km: np.ndarray
    speed_mps: np.ndarray
    pathloss_db: np.ndarray
    channel_var: np.ndarray
    doppler_hz: np.ndarray
    ar_coeff: np.ndarray


@dataclass(frozen=True)
class Scenario:
    """One generated problem instance (known + hidden ground truth)."""

    pilots: np.ndarray          # (L, N) complex, columns ~ CN(0, I/L)
    profiles: Profiles
    activity: np.ndarray        # (N, T) int8 in {0, 1}
    channels: np.ndarray        # (N, T) complex
    sparse_signal: np.ndarray   # (N, T) complex, activity * channels
    received: np.ndarray        # (L, T) complex
    noise_var: float


# Rational minimax coefficients for J0 (Hart-style two-regime fit:
# polynomial ratio below |x| = 8, cosine asymptotic form above).
_J0_NUM = (57568490574.0, -13362590354.0, 651619640.7,
           -11214424.18, 77392.33017, -184.9052456)
_J0_DEN = (57568490411.0, 1029532985.0, 9494680.718,
           59272.64853, 267.8532712, 1.0)
_J0_P = (1.0, -0.1098628627e-2, 0.2734510407e-4,
         -0.2073370639e-5, 0.2093887211e-6)
_J0_Q = (-0.1562499995e-1, 0.1430488765e-3, -0.6911147651e-5,
         0.7621095161e-6, -0.934935152e-7)


def _poly(coeffs, y):
    acc = np.zeros_like(y) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * y + c
    return acc


def bessel_j0(x):
    """Zeroth-order Bessel function of the first kind.

    Two-regime rational approximation, absolute error below 1e-7 across
    the operating range (here 2*pi*D*T_b << 1, far inside the small-x
    regime).  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    ax = np.abs(np.atleast_1d(x))

    small = ax < 8.0
    out = np.empty_like(ax)

    y = ax[small] ** 2
    out[small] = _poly(_J0_NUM, y) / _poly(_J0_DEN, y)

    axl = ax[~small]
    if axl.size:
        z = 8.0 / axl
        y = z * z
        xx = axl - 0.785398164
        out[~small] = np.sqrt(0.636619772 / axl) * (
            np.cos(xx) * _poly(_J0_P, y) - z * np.sin(xx) * _poly(_J0_Q, y)
        )
    return float(out[0]) if scalar else out.reshape(x.shape)


def derive_noise_var(cfg: SystemConfig) -> float:
    """Noise power in watts: 10**((psd_dbm_hz - 30)/10) * bandwidth."""
    return 10.0 ** ((cfg.noise_psd_dbm_hz - 30.0) / 10.0) * cfg.bandwidth_hz


def gen_user_profiles(cfg: SystemConfig, rng: np.random.Generator,
                      n: int | None = None) -> Profiles:
    """Draw per-user geometry and derived radio parameters.

    Distances and speeds are uniform on their configured ranges; path loss
    is intercept + slope*log10(d_km) in dB; Doppler is v*f_c/c.  ``n``
    overrides cfg.n_users (the state-evolution sampler draws its own count).
    """
    n = cfg.n_users if n is None else n
    d_km = rng.uniform(cfg.dist_range_km[0], cfg.dist_range_km[1], n)
    v_kmh = rng.uniform(cfg.speed_range_kmh[0], cfg.speed_range_kmh[1], n)
    v_mps = v_kmh / 3.6
    pathloss_db = cfg.pathloss_intercept_db + cfg.pathloss_slope * np.log10(d_km)
    doppler = v_mps * cfg.carrier_hz / SPEED_OF_LIGHT
    # |eta| <= 1 must hold exactly: the J0 approximation can overshoot 1 by
    # ~3e-9 near x = 0, which would make the AR-1 innovation variance negative.
    eta = np.clip(bessel_j0(2.0 * np.pi * doppler * cfg.adp_duration_s), -1.0, 1.0)
    rho = 10.0 ** ((cfg.tx_power_dbm + pathloss_db - 30.0) / 10.0)
    return Profiles(d_km, v_mps, pathloss_db, rho, doppler, eta)


def gen_pilots(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """(L, N) pilot matrix with i.i.d. CN(0, 1/L) entries (unit column power)."""
    shape = (cfg.pilot_len, cfg.n_users)
    scale = np.sqrt(0.5 / cfg.pilot_len)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def markov_activity(lam: float, p01: float, p10: float, n: int, n_steps: int,
                    rng: np.random.Generator) -> np.ndarray:
    """(n, n_steps) matrix of n independent stationary two-state chains.

    Column 0 is Bernoulli(lam); afterwards an active user stays active with
    probability 1-p01 and an idle one activates with probability p10.
    """
    a = np.empty((n, n_steps), dtype=np.int8)
    a[:, 0] = rng.random(n) < lam
    for t in range(1, n_steps):
        u = rng.random(n)
        prev = a[:, t - 1]
        a[:, t] = np.where(prev == 1, u >= p01, u < p10)
    return a


def simulate_activity(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """(N, T) activity matrix for the configured traffic statistics."""
    return markov_activity(cfg.lam, cfg.p01, cfg.p10, cfg.n_users, cfg.n_adts, rng)


def ar1_channels(rho: np.ndarray, eta: np.ndarray, n_steps: int,
                 rng: np.random.Generator) -> np.ndarray:
    """(n, n_steps) stationary AR-1 samples per row.

    h(1) ~ CN(0, rho); h(t) = eta*h(t-1) + u with u ~ CN(0, (1-eta^2)*rho).
    Complex Gaussians are sampled as independent real/imaginary parts of
    variance v/2 each.
    """
    rho = np.asarray(rho, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = rho.shape[0]
    w = rng.standard_normal((n, n_steps)) + 1j * rng.standard_normal((n, n_steps))
    h = np.empty((n, n_steps), dtype=complex)
    h[:, 0] = np.sqrt(rho / 2.0) * w[:, 0]
    innov_std = np.sqrt((1.0 - eta**2) * rho / 2.0)
    for t in range(1, n_steps):
        h[:, t] = eta * h[:, t - 1] + innov_std * w[:, t]
    return h


def simulate_channels(profiles: Profiles, cfg: SystemConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """(N, T) stationary AR-1 channel matrix for the given profiles."""
    return ar1_channels(profiles.channel_var, profiles.ar_coeff, cfg.n_adts, rng)


def synthesize_received(pilots: np.ndarray, sparse_signal: np.ndarray,
                        noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """(L, T) received matrix y = S x + w, noise entries i.i.d. CN(0, noise_var)."""
    if pilots.shape[1] != sparse_signal.shape[0]:
        raise ValueError(
            f"pilot columns ({pilots.shape[1]}) != signal rows ({sparse_signal.shape[0]})"
        )
    shape = (pilots.shape[0], sparse_signal.shape[1])
    w = np.sqrt(noise_var / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    return pilots @ sparse_signal + w


def make_scenario(cfg: SystemConfig, trial: int = 0,
                  profiles: Profiles | None = None) -> Scenario:
    """Generate a full Scenario from (cfg, cfg.seed, trial).

    Each ingredient draws from its own purpose-tagged stream, so e.g.
    regenerating channels alone reproduces exactly what this call made.
    ``profiles`` replaces the drawn link profiles (e.g. with eta zeroed);
    every other ingredient is drawn exactly as without it.
    """
    pilots = gen_pilots(cfg, stream(cfg.seed, trial, "pilots"))
    if profiles is None:
        profiles = gen_user_profiles(cfg, stream(cfg.seed, trial, "profiles"))
    activity = simulate_activity(cfg, stream(cfg.seed, trial, "activity"))
    channels = simulate_channels(profiles, cfg, stream(cfg.seed, trial, "channels"))
    sparse = activity * channels
    noise_var = derive_noise_var(cfg)
    received = synthesize_received(pilots, sparse, noise_var,
                                   stream(cfg.seed, trial, "noise"))
    return Scenario(pilots, profiles, activity, channels, sparse, received, noise_var)


def channel_vars(profiles: Profiles) -> np.ndarray:
    """Vector of stationary channel powers rho_n."""
    return profiles.channel_var


def ar_coeffs(profiles: Profiles) -> np.ndarray:
    """Vector of AR-1 coefficients eta_n."""
    return profiles.ar_coeff
