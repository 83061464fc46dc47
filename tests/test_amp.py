"""AMP inner loop: initialisation, sweeps, convergence, divergence handling."""

import numpy as np
import pytest

from seqamp.amp import (C0_FACTOR, AmpDivergenceError, adjoint, amp_init,
                        amp_iterate, amp_run)
from seqamp.config import SystemConfig, desk_config
from seqamp.denoiser import BgPrior
from seqamp.rng import stream
from seqamp.scenario import make_scenario
from seqamp.sequential import initial_prior
from seqamp.state_evolution import se_fixpoint, static_sampler


def scalar_cfg(noise_var):
    # psd/bandwidth chosen so derive_noise_var(cfg) == noise_var
    psd = 30.0 + 10.0 * np.log10(noise_var)
    return SystemConfig(n_users=1, pilot_len=1, n_adts=1,
                        noise_psd_dbm_hz=psd, bandwidth_hz=1.0)


class TestInit:
    def test_zero_observation(self):
        st = amp_init(np.zeros(4, dtype=complex), SystemConfig(n_users=8, pilot_len=4))
        assert np.all(st.z == 0) and np.all(st.mu == 0) and st.iter == 0

    def test_c0_product(self):
        st = amp_init(np.zeros(1, dtype=complex), scalar_cfg(1e-13))
        assert C0_FACTOR == 100.0
        assert st.c == pytest.approx(1e-11)

    def test_residual_is_observation_copy(self):
        y = np.array([1.0 + 2.0j, -0.5j])
        st = amp_init(y, SystemConfig(n_users=4, pilot_len=2))
        assert np.linalg.norm(st.z) == pytest.approx(np.linalg.norm(y))
        st.z[0] = 0.0
        assert y[0] == 1.0 + 2.0j  # defensive copy


class TestAdjoint:
    def test_matches_conjugate_transpose_product(self):
        rng = stream(5, 0, "adjoint")
        s = rng.standard_normal((30, 70)) + 1j * rng.standard_normal((30, 70))
        v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        np.testing.assert_allclose(adjoint(s, v), s.conj().T @ v, rtol=1e-14, atol=0)

    def test_matches_on_desk_pilots(self):
        scn = make_scenario(desk_config(n_adts=1), 0)
        y = scn.received[:, 0]
        np.testing.assert_allclose(adjoint(scn.pilots, y), scn.pilots.conj().T @ y,
                                   rtol=1e-14, atol=0)

    def test_amp_run_never_copies_pilots(self, peak_traced_bytes):
        cfg = SystemConfig(n_users=400, pilot_len=100, n_adts=1)
        scn = make_scenario(cfg, 0)
        prior = initial_prior(cfg, scn.profiles)
        peak = peak_traced_bytes(lambda: amp_run(
            scn.received[:, 0], scn.pilots, prior, cfg))
        assert peak < scn.pilots.nbytes / 2


class TestZeroPreservation:
    def test_zero_signal_stays_zero(self):
        cfg = SystemConfig(n_users=16, pilot_len=8, amp_iters=10)
        s = np.full((8, 16), 0.1 + 0.1j)
        y = np.zeros(8, dtype=complex)
        prior = BgPrior(np.full(16, 0.3), np.zeros(16, dtype=complex), np.ones(16))
        st = amp_init(y, cfg)
        for _ in range(5):
            st = amp_iterate(st, s, y, prior)
            assert np.all(st.mu == 0)


class TestOracleSupportRecovery:
    def test_near_noiseless_matches_truth(self):
        rng = stream(77, 0, "amp-oracle")
        l_dim, n = 8, 16
        s = np.sqrt(0.5 / l_dim) * (rng.standard_normal((l_dim, n))
                                    + 1j * rng.standard_normal((l_dim, n)))
        x = np.zeros(n, dtype=complex)
        x[[2, 9]] = [1.0 + 0.5j, -0.7 + 0.2j]
        y = s @ x
        pi = np.where(np.arange(n) == 2, 1.0, 0.0) + np.where(np.arange(n) == 9, 1.0, 0.0)
        prior = BgPrior(pi, np.zeros(n, dtype=complex), np.full(n, 1.0))
        cfg = SystemConfig(n_users=n, pilot_len=l_dim, amp_iters=100)
        st = amp_run(y, s, prior, cfg)
        nmse = 10 * np.log10(np.sum(np.abs(st.mu - x) ** 2) / np.sum(np.abs(x) ** 2))
        assert nmse < -30.0


class TestRunContract:
    def test_zero_budget_returns_init(self):
        cfg = SystemConfig(n_users=6, pilot_len=3, amp_iters=0)
        y = np.array([1.0, 2.0, -1.0j])
        s = np.zeros((3, 6), dtype=complex)
        st = amp_run(y, s, BgPrior(np.full(6, 0.5), np.zeros(6, dtype=complex),
                                   np.ones(6)), cfg)
        assert st.iter == 0 and np.all(st.mu == 0) and np.all(st.phi == 0)

    def test_converged_flag(self):
        cfg = desk_config(n_adts=1)
        scn = make_scenario(cfg, 0)
        prior = initial_prior(cfg, scn.profiles)

        def run(iters):
            return amp_run(scn.received[:, 0], scn.pilots, prior,
                           cfg.with_(amp_iters=iters))

        full = run(cfg.amp_iters)
        assert full.converged and full.iter < cfg.amp_iters
        assert not run(1).converged
        assert not run(0).converged

    def test_final_phi_consistency(self):
        cfg = SystemConfig(n_users=40, pilot_len=20, amp_iters=30)
        scn = make_scenario(cfg.with_(n_adts=1), 0)
        prior = initial_prior(cfg, scn.profiles)
        st = amp_run(scn.received[:, 0], scn.pilots, prior, cfg)
        recomputed = scn.pilots.conj().T @ st.z + st.mu
        assert np.array_equal(st.phi, recomputed)

    def test_determinism(self):
        cfg = SystemConfig(n_users=40, pilot_len=20, amp_iters=25)
        scn = make_scenario(cfg.with_(n_adts=1), 1)
        prior = initial_prior(cfg, scn.profiles)
        a = amp_run(scn.received[:, 0], scn.pilots, prior, cfg)
        b = amp_run(scn.received[:, 0], scn.pilots, prior, cfg)
        assert np.array_equal(a.mu, b.mu) and a.c == b.c

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_diagnostic(self):
        cfg = SystemConfig(n_users=4, pilot_len=2, amp_iters=5)
        y = np.array([np.inf + 0j, 0.0])
        s = np.ones((2, 4), dtype=complex)
        prior = BgPrior(np.full(4, 0.5), np.zeros(4, dtype=complex), np.ones(4))
        with pytest.raises(AmpDivergenceError, match="sweep"):
            amp_run(y, s, prior, cfg)

    def test_run_equals_repeated_iterate(self):
        # below convergence amp_run is amp_init followed by k amp_iterate
        # sweeps, bit for bit; only its final phi refresh differs
        cfg = desk_config(n_users=200, pilot_len=50, n_adts=1)
        scn = make_scenario(cfg, 0)
        y = scn.received[:, 0]
        prior = initial_prior(cfg, scn.profiles)
        n_sweeps = amp_run(y, scn.pilots, prior, cfg).iter
        assert n_sweeps > 3
        st = amp_init(y, cfg)
        for k in range(1, n_sweeps):
            st = amp_iterate(st, scn.pilots, y, prior)
            run = amp_run(y, scn.pilots, prior, cfg.with_(amp_iters=k))
            assert run.iter == k and not run.converged
            assert np.array_equal(run.mu, st.mu)
            assert np.array_equal(run.z, st.z)
            assert run.c == st.c


class TestSweepInvariants:
    def test_residual_energy_consistency_and_onsager(self):
        cfg = SystemConfig(n_users=60, pilot_len=30, amp_iters=1)
        scn = make_scenario(cfg.with_(n_adts=1), 2)
        prior = initial_prior(cfg, scn.profiles)
        st = amp_init(scn.received[:, 0], cfg)
        from seqamp.denoiser import denoise_deriv
        for _ in range(6):
            onsager_sum = float(np.sum(denoise_deriv(
                scn.pilots.conj().T @ st.z + st.mu, st.c, prior)))
            assert np.isfinite(onsager_sum) and onsager_sum >= 0.0
            st = amp_iterate(st, scn.pilots, scn.received[:, 0], prior)
            assert st.c == pytest.approx(np.linalg.norm(st.z) ** 2 / cfg.pilot_len,
                                         rel=1e-12)

    def test_empirical_c_tracks_se_fixpoint(self):
        # cross-module consistency at moderate scale (tight version lives in
        # the acceptance suite at N=1000, L=250)
        cfg = SystemConfig(n_users=500, pilot_len=100, n_adts=1, amp_iters=80)
        cs = []
        for trial in range(10):
            scn = make_scenario(cfg, trial)
            prior = initial_prior(cfg, scn.profiles)
            cs.append(amp_run(scn.received[:, 0], scn.pilots, prior, cfg).c)
        samples = static_sampler(cfg)(100_000, stream(cfg.seed, 0, "se-test"))
        fp = se_fixpoint(samples, cfg)
        assert fp.converged
        assert abs(fp.c - np.mean(cs)) / np.mean(cs) <= 0.15
