"""Acceptance suite: one check per release criterion.

Each check is deterministic (fixed seeds), self-contained and returns a
CheckResult; :func:`run_checks` prints one PASS/FAIL line per criterion.
The same functions back ``tests/test_acceptance.py`` and the CLI ``check``
subcommand.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import quadrature
from .amp import amp_run
from .baselines import amp_mmse
from .config import SystemConfig, desk_config
from .denoiser import BgPrior, denoise_mean, denoise_var, gamma
from .exact_filter import (ar1_grid_kernel, exact_sssm_filter, grid_axis,
                           grid_kl, mixture_on_grid, product_on_grid,
                           push_transition)
from .experiments import ExperimentSpec, run_experiment, write_csv
from .rng import stream
from .scenario import (ar1_channels, gen_user_profiles, make_scenario,
                       markov_activity)
from .sequential import initial_prior, moment_match, s_amp_run
from .state_evolution import (SE_STEP_SAMPLES, se_fixpoint,
                              se_sequential_trace, static_sampler)

__all__ = ["CheckResult", "CHECKS", "run_checks"]

_PAIRED = ("s_amp", "amp_mmse")  # S-AMP against its static-prior twin


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str


def _draw_model(rng: np.random.Generator):
    """One random (phi, c, prior) tuple drawn from the generative model."""
    pi = rng.uniform(0.02, 0.98)
    psi = rng.uniform(0.2, 2.5)
    c = rng.uniform(0.05, 2.5)
    xi = 0.7 * (rng.standard_normal() + 1j * rng.standard_normal())
    x = 0.0
    if rng.random() < pi:
        x = xi + np.sqrt(psi / 2.0) * (rng.standard_normal() + 1j * rng.standard_normal())
    phi = x + np.sqrt(c / 2.0) * (rng.standard_normal() + 1j * rng.standard_normal())
    return phi, c, pi, xi, psi


def check_denoiser_oracle() -> CheckResult:
    """Criterion 1: F and G match 2-D quadrature to relative 1e-5, < 30 s."""
    start = time.perf_counter()
    n_draws = 200
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(n_draws):
        phi, c, pi, xi, psi = _draw_model(rng)
        prior = BgPrior(pi, xi, psi)
        f_ref, g_ref = quadrature.x_moments(phi, c, pi, xi, psi)
        f = complex(denoise_mean(phi, c, prior))
        g = float(denoise_var(phi, c, prior))
        worst = max(worst,
                    abs(f - f_ref) / max(abs(f_ref), 1e-9),
                    abs(g - g_ref) / max(abs(g_ref), 1e-9))
    elapsed = time.perf_counter() - start
    return CheckResult(1, "denoiser quadrature oracle",
                       worst <= 1e-5 and elapsed < 30.0,
                       f"max rel err {worst:.2e} over {n_draws} draws (tol 1e-5), "
                       f"{elapsed:.1f}s (limit 30s)")


def check_moment_matching() -> CheckResult:
    """Criterion 2: matched moments vs quadrature (1e-6) and pi identity (1e-12)."""
    rng = np.random.default_rng(1002)
    worst_mom = 0.0
    worst_id = 0.0
    for _ in range(200):
        phi, c, pi, xi, psi = _draw_model(rng)
        prior = BgPrior(pi, xi, psi)
        mm = moment_match(np.array([phi]), c, prior)
        ea, eh, vh = quadrature.h_moments(phi, c, pi, xi, psi)
        worst_mom = max(worst_mom,
                        abs(mm.pi_bar[0] - ea) / max(ea, 1e-9),
                        abs(mm.xi_bar[0] - eh) / max(abs(eh), 1e-9),
                        abs(mm.psi_bar[0] - vh) / max(vh, 1e-9))
        worst_id = max(worst_id,
                       abs(mm.pi_bar[0] - 1.0 / (1.0 + float(gamma(phi, c, prior)))))
    passed = worst_mom <= 1e-6 and worst_id <= 1e-12
    return CheckResult(2, "moment-matching quadrature oracle", passed,
                       f"max rel err {worst_mom:.2e} (tol 1e-6), "
                       f"pi identity dev {worst_id:.2e} (tol 1e-12)")


def check_degenerate_collapse() -> CheckResult:
    """Criterion 3: with p01 = 1-lam, p10 = lam, eta = 0, S-AMP == AMP-MMSE bitwise."""
    n_instances = 10
    cfg = desk_config(r_scale=1.0)
    for trial in range(n_instances):
        drawn = gen_user_profiles(cfg, stream(cfg.seed, trial, "profiles"))
        scn = make_scenario(cfg, trial,
                            profiles=replace(drawn, ar_coeff=np.zeros(cfg.n_users)))
        seq = s_amp_run(scn, cfg)
        static = amp_mmse(scn, cfg)
        for t, (a, b) in enumerate(zip(seq.records, static.records)):
            same = (np.array_equal(a.amp.mu, b.amp.mu)
                    and np.array_equal(a.amp.phi, b.amp.phi)
                    and a.amp.c == b.amp.c
                    and np.array_equal(a.posterior.pi_bar, b.posterior.pi_bar)
                    and np.array_equal(a.prior.pi, b.prior.pi)
                    and np.array_equal(a.prior.xi, b.prior.xi)
                    and np.array_equal(a.prior.psi, b.prior.psi))
            if not same:
                return CheckResult(3, "degenerate-collapse bit equality", False,
                                   f"trial {trial}, ADT {t + 1}: outputs differ")
    return CheckResult(3, "degenerate-collapse bit equality", True,
                       f"{n_instances} desk instances bit-identical across all ADTs")


def _pooled_metrics(spec: ExperimentSpec) -> dict:
    """{(sweep value, algorithm): (nmse_h_db, dep)} pooled over ADTs and trials.

    Reads the harness's ``adt == "all"`` rows, so the criteria score exactly
    what ``seqamp run`` reports.  An algorithm error fails the check loudly.
    """
    records, errors = run_experiment(spec)
    if errors:
        raise RuntimeError("; ".join(errors))
    return {(r.sweep_value, r.algorithm): (r.nmse_h_db, r.dep)
            for r in records if r.adt == "all"}


def check_temporal_gain() -> CheckResult:
    """Criterion 4: desk profile, 20 paired trials: >= 1.5 dB NMSE gain and
    DEP ratio <= 0.6, < 5 min.

    The DEP clause is a known measured shortfall at this profile (about
    0.69): a ten-ADT horizon truncates the prior-accumulation window and
    the history-free first frame dilutes the pooled ratio.  At the
    full-scale configuration (N=2000, L=400, T=20) the same code measures
    a 0.60 pooled / 0.52 steady-state ratio and a 3.3 dB gain.
    """
    start = time.perf_counter()
    pooled = _pooled_metrics(ExperimentSpec(desk_config(), algorithms=_PAIRED))
    (nmse_s, dep_s), (nmse_m, dep_m) = (pooled[0, a] for a in _PAIRED)
    elapsed = time.perf_counter() - start
    gain = nmse_m - nmse_s
    ratio = dep_s / dep_m
    passed = gain >= 1.5 and ratio <= 0.6 and elapsed < 300.0
    return CheckResult(4, "temporal gain over AMP-MMSE", passed,
                       f"NMSE gain {gain:.2f} dB (need >= 1.5), "
                       f"DEP ratio {ratio:.3f} (need <= 0.6), "
                       f"{elapsed:.0f}s (limit 300s)")


def check_se_consistency() -> CheckResult:
    """Criterion 5: fixpoint within 15% of empirical c; traces; < 3 min.

    The t=1 clause cannot fail: at ADT 1 the sequential and static
    fixpoints use the same prior object on the same samples, so
    c_seq[0] == c_static[0] bit for bit and its deviation reads 0.
    """
    start = time.perf_counter()
    cfg = SystemConfig(n_users=1000, pilot_len=250, n_adts=1, n_trials=20)
    cs = []
    for trial in range(cfg.n_trials):
        scn = make_scenario(cfg, trial)
        prior = initial_prior(cfg, scn.profiles)
        state = amp_run(scn.received[:, 0], scn.pilots, prior, cfg)
        cs.append(state.c)
    mean_c = float(np.mean(cs))
    samples = static_sampler(cfg)(SE_STEP_SAMPLES, stream(cfg.seed, 0, "se-acceptance"))
    fp = se_fixpoint(samples, cfg)
    dev = abs(fp.c - mean_c) / mean_c

    trace = se_sequential_trace(desk_config(), n_samples=20_000)
    t1_dev = abs(trace.c_seq[0] - trace.c_static[0]) / trace.c_static[0]
    dominance = bool(np.all(trace.c_seq[1:] <= trace.c_static[1:] * (1.0 + 1e-9)))

    elapsed = time.perf_counter() - start
    passed = (dev <= 0.15 and t1_dev <= 0.01 and dominance and fp.converged
              and elapsed < 180.0)
    return CheckResult(5, "state-evolution consistency", passed,
                       f"fixpoint dev {dev:.3f} (tol 0.15), t=1 trace dev {t1_dev:.2e} "
                       f"(tol 0.01), t>=2 dominance {dominance}, "
                       f"{elapsed:.0f}s (limit 180s)")


def check_kl_contraction() -> CheckResult:
    """Criterion 6: KL(exact || matched) never grows through a transition."""
    n_instances = 100
    rng = np.random.default_rng(1006)
    worst = -np.inf
    for _ in range(n_instances):
        lam = rng.uniform(0.05, 0.5)
        r = rng.uniform(0.05, 0.5)
        eta = rng.uniform(0.9, 0.999)
        rho = 1.0
        t_total = int(rng.integers(2, 9))
        cfg = SystemConfig(n_users=10, pilot_len=10, n_adts=t_total,
                           lam=lam, r_scale=r)
        act = markov_activity(lam, cfg.p01, cfg.p10, 1, t_total,
                              np.random.default_rng(rng.integers(2**32)))[0]
        h = ar1_channels(np.array([rho]), np.array([eta]), t_total,
                         np.random.default_rng(rng.integers(2**32)))[0]
        cs = rng.uniform(0.05, 0.5, t_total)
        noise = np.sqrt(cs / 2.0) * (rng.standard_normal(t_total)
                                     + 1j * rng.standard_normal(t_total))
        phis = act * h + noise
        post = exact_sssm_filter(phis, cs, eta, rho, cfg)[-1]
        xs = grid_axis(6.0 * np.sqrt(rho), 201)
        p = mixture_on_grid(post, xs)
        q = product_on_grid(post.e_a, post.e_h, post.var_h, xs)
        kernel = ar1_grid_kernel(xs, eta, rho)
        before = grid_kl(p, q)
        after = grid_kl(push_transition(p, kernel, cfg.p01, cfg.p10),
                        push_transition(q, kernel, cfg.p01, cfg.p10))
        worst = max(worst, after - before)
    return CheckResult(6, "KL contraction through transition", worst <= 1e-6,
                       f"worst KL increase {worst:.2e} over {n_instances} "
                       f"instances (tol 1e-6)")


def check_stationarity() -> CheckResult:
    """Criterion 7: activity fraction and AR-1 variance / lag-1 correlation."""
    lam, r = 0.05, 0.1
    act = markov_activity(lam, r * (1 - lam), r * lam, 2000, 500,
                          stream(7, 0, "stationarity-activity"))
    frac_dev = abs(float(act.mean()) - lam)

    eta, rho = 0.9974, 1.0
    n_chains, t_total = 50_000, 40
    h = ar1_channels(np.full(n_chains, rho), np.full(n_chains, eta), t_total,
                     stream(7, 0, "stationarity-ar1"))
    var_dev = abs(float(np.mean(np.abs(h) ** 2)) - rho) / rho
    lag = np.real(np.conj(h[:, :-1]) * h[:, 1:])
    corr = float(np.sum(lag) / np.sum(np.abs(h[:, :-1]) ** 2))
    corr_dev = abs(corr - eta)

    passed = frac_dev <= 0.005 and var_dev <= 0.02 and corr_dev <= 0.005
    return CheckResult(7, "traffic/channel stationarity", passed,
                       f"activity dev {frac_dev:.4f} (tol 0.005), AR-1 var dev "
                       f"{var_dev:.4f} (tol 0.02), lag-1 dev {corr_dev:.5f} (tol 0.005)")


def check_r0_monotonicity() -> CheckResult:
    """Criterion 8: S-AMP improves with r0; AMP-MMSE flat (Spearman trend)."""
    # imported here: scipy.stats takes most of the CLI's start-up time and
    # no other command needs it
    from scipy.stats import spearmanr

    r0s = np.arange(6)
    pooled = _pooled_metrics(ExperimentSpec(desk_config(n_trials=12), axis="r0",
                                            values=tuple(r0s), algorithms=_PAIRED))
    # [k, i, 0] is NMSE and [k, i, 1] DEP of algorithm k at r0s[i]
    metrics = np.array([[pooled[r0, a] for r0 in r0s] for a in _PAIRED])
    nmse, dep = metrics[..., 0], metrics[..., 1]
    rho_s_dep = spearmanr(r0s, dep[0]).statistic
    rho_s_nmse = spearmanr(r0s, nmse[0]).statistic
    rho_m_dep = spearmanr(r0s, dep[1]).statistic
    rho_m_nmse = spearmanr(r0s, nmse[1]).statistic

    def flat(rho_m, series_m, series_s):
        # AMP-MMSE never reads r, so its trend is sampling noise: accept if
        # there is no significant rank trend (n=6 one-sided 5% critical value
        # 0.829) or if its total variation is small next to the systematic
        # S-AMP response (rank tests on sub-noise spreads are uninformative).
        variation = np.ptp(series_m) / max(np.ptp(series_s), 1e-12)
        return abs(rho_m) < 0.829 or variation <= 0.35

    passed = (rho_s_dep <= -0.8 and rho_s_nmse <= -0.8
              and flat(rho_m_dep, dep[1], dep[0])
              and flat(rho_m_nmse, nmse[1], nmse[0]))
    return CheckResult(8, "r0 sweep monotonicity", passed,
                       f"S-AMP spearman dep {rho_s_dep:.3f} nmse {rho_s_nmse:.3f} "
                       f"(need <= -0.8); AMP-MMSE dep {rho_m_dep:.3f} nmse "
                       f"{rho_m_nmse:.3f} with variation ratios "
                       f"{np.ptp(dep[1]) / np.ptp(dep[0]):.2f}/"
                       f"{np.ptp(nmse[1]) / np.ptp(nmse[0]):.2f} (flat)")


def check_baseline_ordering() -> CheckResult:
    """Criterion 9: oracle LS <= OMP/soft in channel NMSE; S-AMP < oracle LS."""
    # the harness calibrates amp_soft's threshold on its held-out trial
    algorithms = ("s_amp", "oracle_ls", "omp", "amp_soft")
    cfg = desk_config(r_scale=1.0 / 32.0, n_trials=12)
    pooled = _pooled_metrics(ExperimentSpec(cfg, algorithms=algorithms))
    nmse = {a: pooled[0, a][0] for a in algorithms}
    passed = (nmse["oracle_ls"] <= nmse["omp"]
              and nmse["oracle_ls"] <= nmse["amp_soft"]
              and nmse["s_amp"] < nmse["oracle_ls"])
    detail = ", ".join(f"{k} {v:.2f} dB" for k, v in nmse.items())
    return CheckResult(9, "baseline NMSE ordering", passed, detail)


def check_determinism() -> CheckResult:
    """Criterion 10: identical config + seed produce a byte-identical CSV."""
    cfg = SystemConfig(n_users=100, pilot_len=40, n_adts=3, n_trials=2, seed=5)
    spec = ExperimentSpec(cfg, axis="pilot_len", values=(30, 40),
                          algorithms=("s_amp", "oracle_ls"), out="unused.csv")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.csv", Path(tmp) / "b.csv"]
        for p in paths:
            records, errors = run_experiment(spec)
            if errors:
                return CheckResult(10, "byte-identical reruns", False,
                                   f"algorithm errors: {errors}")
            write_csv(records, str(p))
        same = paths[0].read_bytes() == paths[1].read_bytes()
        n_bytes = len(paths[0].read_bytes())
    return CheckResult(10, "byte-identical reruns", same,
                       f"two runs, {n_bytes} bytes each, identical={same}")


CHECKS = {
    1: check_denoiser_oracle,
    2: check_moment_matching,
    3: check_degenerate_collapse,
    4: check_temporal_gain,
    5: check_se_consistency,
    6: check_kl_contraction,
    7: check_stationarity,
    8: check_r0_monotonicity,
    9: check_baseline_ordering,
    10: check_determinism,
}


def run_checks(criteria=None, out=print) -> bool:
    """Run selected (default: all) criteria; one PASS/FAIL line each."""
    ids = sorted(CHECKS) if criteria is None else sorted(criteria)
    all_passed = True
    for cid in ids:
        start = time.perf_counter()
        result = CHECKS[cid]()
        elapsed = time.perf_counter() - start
        status = "PASS" if result.passed else "FAIL"
        out(f"{status}  criterion {result.criterion:2d}  {result.name}: "
            f"{result.detail}  [{elapsed:.1f}s]")
        all_passed &= result.passed
    return all_passed
