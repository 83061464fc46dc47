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

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, channel_power, doppler, path_loss_db
from .rng import complex_normal, stream

__all__ = [
    "Profiles",
    "Scenario",
    "gen_user_profiles",
    "gen_pilots",
    "markov_activity",
    "ar1_scales",
    "ar1_step",
    "ar1_channels",
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
    ``ar_coeff`` is eta_n = J0(2*pi*f_D*T_ADP), f_D the user's Doppler shift.
    """

    pathloss_db: np.ndarray
    channel_var: np.ndarray
    ar_coeff: np.ndarray


@dataclass(frozen=True)
class Scenario:
    """One generated problem instance (known + hidden ground truth)."""

    pilots: np.ndarray          # (L, N) complex, columns ~ CN(0, I/L)
    profiles: Profiles
    activity: np.ndarray        # (N, T) int8 in {0, 1}
    channels: np.ndarray        # (N, T) complex
    received: np.ndarray        # (L, T) complex

    @property
    def sparse_signal(self) -> np.ndarray:
        """(N, T) complex x = activity * channels, formed at each access."""
        return self.activity * self.channels


def _bessel_j0(x: np.ndarray) -> np.ndarray:
    """J0(x) by the midpoint rule on Bessel's integral (1/pi) int_0^pi cos(x sin t) dt.

    The integrand is periodic, so K midpoint nodes on [0, pi] err by
    2|J_2K(x)| (Trefethen & Weideman, SIAM Review 2014), which is below
    rounding for K = 16 + ceil(max|x|).  It is even about pi/2, so the K
    nodes fold onto K/2 nodes on [0, pi/2] (K rounded up to even).  The sum
    runs over 1 - cos = 2 sin^2(./2), so the small deficit of J0 from 1 near
    x = 0 keeps full relative precision.  One (n,) term is refilled per node:
    O(n K) time, O(n) memory; SystemConfig caps max|x| at MAX_DOPPLER_ARG.
    """
    half_k = 8 + math.ceil(np.max(np.abs(x), initial=0.0) / 2.0)
    deficit = np.zeros_like(x)
    term = np.empty_like(x)
    for k in range(half_k):
        np.multiply(x, 0.5 * math.sin((k + 0.5) * math.pi / (2 * half_k)), out=term)
        np.sin(term, out=term)
        term *= term
        deficit += term
    deficit *= -2.0 / half_k
    deficit += 1.0
    return deficit


def gen_user_profiles(cfg: SystemConfig, rng: np.random.Generator,
                      n: int | None = None) -> Profiles:
    """Draw per-user geometry and derived radio parameters.

    Distances and speeds are uniform on their configured ranges; path loss
    is ``config.path_loss_db``; Doppler is v*f_c/c.  ``n`` overrides
    cfg.n_users (the state-evolution sampler draws its own count).
    """
    n = cfg.n_users if n is None else n
    d_km = rng.uniform(cfg.dist_min_km, cfg.dist_max_km, n)
    v_kmh = rng.uniform(cfg.speed_min_kmh, cfg.speed_max_kmh, n)
    pathloss_db = path_loss_db(d_km)
    arg = doppler(cfg, v_kmh)
    # the AR-1 innovation variance (1 - eta^2)*rho must not go negative, so
    # |eta| <= 1 is enforced rather than trusted to the last ulp of J0
    eta = np.clip(_bessel_j0(arg), -1.0, 1.0)
    return Profiles(pathloss_db, channel_power(cfg, pathloss_db), eta)


def gen_pilots(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """(L, N) pilot matrix with i.i.d. CN(0, 1/L) entries (unit column power)."""
    return complex_normal(rng, (cfg.pilot_len, cfg.n_users), np.sqrt(0.5 / cfg.pilot_len))


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


def ar1_scales(rho: np.ndarray, eta: np.ndarray):
    """Per-step scales of unit draws (standard normal parts): an endless iterator.

    It yields the std of each part of h(1), making CN(0, rho), then at
    every later step that of the innovation, CN(0, (1-eta^2)*rho).
    """
    yield np.sqrt(rho / 2.0)
    innov = np.sqrt((1.0 - eta**2) * rho / 2.0)
    while True:
        yield innov


def ar1_step(prev, unit, eta, scale, out):
    """One AR-1 step into ``out``: scale*unit, plus eta*prev unless prev is None.

    ``scale`` is the step's value from :func:`ar1_scales`.  eta*prev is
    formed before ``out`` is written, so ``out`` may be ``unit`` or
    ``prev`` itself.
    """
    drift = None if prev is None else eta * prev
    np.multiply(unit, scale, out=out)
    if drift is not None:
        out += drift
    return out


def ar1_channels(rho: np.ndarray, eta: np.ndarray, n_steps: int,
                 rng: np.random.Generator) -> np.ndarray:
    """(n, n_steps) stationary AR-1 samples per row.

    h(1) ~ CN(0, rho); h(t) = eta*h(t-1) + u with u ~ CN(0, (1-eta^2)*rho).
    Complex Gaussians are sampled as independent real/imaginary parts of
    variance v/2 each.  The recursion runs in place on the unit draws.
    """
    rho = np.asarray(rho, dtype=float)
    eta = np.asarray(eta, dtype=float)
    h = complex_normal(rng, (rho.shape[0], n_steps))
    for t, scale in zip(range(n_steps), ar1_scales(rho, eta)):
        ar1_step(h[:, t - 1] if t else None, h[:, t], eta, scale, out=h[:, t])
    return h


def synthesize_received(pilots: np.ndarray, sparse_signal: np.ndarray,
                        noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """(L, T) received matrix y = S x + w, noise entries i.i.d. CN(0, noise_var)."""
    if pilots.shape[1] != sparse_signal.shape[0]:
        raise ValueError(
            f"pilot columns ({pilots.shape[1]}) != signal rows ({sparse_signal.shape[0]})"
        )
    w = complex_normal(rng, (pilots.shape[0], sparse_signal.shape[1]),
                       np.sqrt(noise_var / 2.0))
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
    activity = markov_activity(cfg.lam, cfg.p01, cfg.p10, cfg.n_users, cfg.n_adts,
                               stream(cfg.seed, trial, "activity"))
    channels = ar1_channels(profiles.channel_var, profiles.ar_coeff, cfg.n_adts,
                            stream(cfg.seed, trial, "channels"))
    received = synthesize_received(pilots, activity * channels, cfg.noise_var,
                                   stream(cfg.seed, trial, "noise"))
    return Scenario(pilots, profiles, activity, channels, received)


def channel_vars(profiles: Profiles) -> np.ndarray:
    """Vector of stationary channel powers rho_n."""
    return profiles.channel_var


def ar_coeffs(profiles: Profiles) -> np.ndarray:
    """Vector of AR-1 coefficients eta_n."""
    return profiles.ar_coeff
