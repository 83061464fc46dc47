"""AMP inner loop: initialisation, sweeps, convergence, divergence handling."""

import numpy as np
import pytest

import seqamp.sequential
from seqamp.amp import C0_FACTOR, AmpDivergenceError, adjoint, amp_run
from seqamp.config import SystemConfig, desk_config
from seqamp.denoiser import BgPrior, denoise_deriv
from seqamp.rng import stream
from seqamp.scenario import gen_pilots, make_scenario
from seqamp.sequential import initial_prior, s_amp_run
from seqamp.state_evolution import se_sequential_trace

from helpers import noise_config


def start(y, cfg):
    """The state amp_run starts from: a run with no sweep."""
    n = cfg.n_users
    prior = BgPrior(np.full(n, 0.5), np.zeros(n, dtype=complex), np.ones(n))
    return amp_run(y, np.ones((cfg.pilot_len, n), dtype=complex), prior,
                   cfg.with_(amp_iters=0))


class TestInit:
    def test_zero_observation(self):
        st = start(np.zeros(4, dtype=complex), SystemConfig(n_users=8, pilot_len=4))
        assert np.all(st.z == 0) and np.all(st.mu == 0) and st.iter == 0

    def test_c0_product(self):
        cfg = noise_config(1e-13, n_users=1, pilot_len=1, n_adts=1)
        st = start(np.zeros(1, dtype=complex), cfg)
        assert C0_FACTOR == 100.0
        assert st.c == pytest.approx(1e-11)

    def test_residual_is_observation_copy(self):
        y = np.array([1.0 + 2.0j, -0.5j])
        st = start(y, SystemConfig(n_users=4, pilot_len=2))
        assert np.linalg.norm(st.z) == pytest.approx(np.linalg.norm(y))
        st.z[0] = 0.0
        assert y[0] == 1.0 + 2.0j  # defensive copy


ADJOINT_SHAPES = [desk_config(), SystemConfig(), SystemConfig(n_users=37, pilot_len=11)]
ADJOINT_IDS = ["desk", "full", "odd"]


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

    @staticmethod
    def pilots_and_draws(cfg, k):
        s = gen_pilots(cfg, stream(cfg.seed, 0, "adjoint-pilots"))
        rng = stream(cfg.seed, 0, "adjoint-draws")
        shape = (cfg.pilot_len, k)
        return s, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("cfg", ADJOINT_SHAPES, ids=ADJOINT_IDS)
    def test_vector_bit_equal_to_recorded_form(self, cfg):
        s, vs = self.pilots_and_draws(cfg, 20)
        for v in vs.T:
            v = np.ascontiguousarray(v)
            # the form every recorded S-AMP, AMP-MMSE and OMP CSV was made with
            assert np.array_equal(adjoint(s, v), np.conj(s.T @ np.conj(v)))

    @pytest.mark.parametrize("k", [1, 2, 11])
    @pytest.mark.parametrize("cfg", ADJOINT_SHAPES, ids=ADJOINT_IDS)
    def test_block_columns_match_vector_calls(self, cfg, k):
        s, block = self.pilots_and_draws(cfg, k)
        got = adjoint(s, block)
        assert got.shape == (cfg.n_users, k)
        for j in range(k):
            want = adjoint(s, np.ascontiguousarray(block[:, j]))
            assert np.linalg.norm(got[:, j] - want) <= 1e-13 * np.linalg.norm(want)

    def test_amp_run_never_copies_pilots(self, peak_traced_bytes):
        cfg = SystemConfig(n_users=400, pilot_len=100, n_adts=1)
        scn = make_scenario(cfg, 0)
        prior = initial_prior(cfg, scn.profiles.channel_var)
        peak = peak_traced_bytes(lambda: amp_run(
            scn.received[:, 0], scn.pilots, prior, cfg))
        assert peak < scn.pilots.nbytes / 2


class TestZeroPreservation:
    def test_zero_signal_stays_zero(self):
        cfg = SystemConfig(n_users=16, pilot_len=8, amp_iters=10)
        s = np.full((8, 16), 0.1 + 0.1j)
        y = np.zeros(8, dtype=complex)
        prior = BgPrior(np.full(16, 0.3), np.zeros(16, dtype=complex), np.ones(16))
        for k in range(1, 6):
            st = amp_run(y, s, prior, cfg.with_(amp_iters=k))
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
        prior = initial_prior(cfg, scn.profiles.channel_var)

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
        prior = initial_prior(cfg, scn.profiles.channel_var)
        st = amp_run(scn.received[:, 0], scn.pilots, prior, cfg)
        recomputed = scn.pilots.conj().T @ st.z + st.mu
        assert np.array_equal(st.phi, recomputed)

    def test_determinism(self):
        cfg = SystemConfig(n_users=40, pilot_len=20, amp_iters=25)
        scn = make_scenario(cfg.with_(n_adts=1), 1)
        prior = initial_prior(cfg, scn.profiles.channel_var)
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


class TestSweepInvariants:
    # below convergence, run(k - 1).phi is, bit for bit, the phi that
    # sweep k of a longer run forms, so consecutive runs expose one sweep

    def test_residual_energy_consistency_and_onsager(self):
        cfg = SystemConfig(n_users=60, pilot_len=30)
        scn = make_scenario(cfg.with_(n_adts=1), 2)
        prior = initial_prior(cfg, scn.profiles.channel_var)
        runs = [amp_run(scn.received[:, 0], scn.pilots, prior, cfg.with_(amp_iters=k))
                for k in range(7)]
        for k in range(1, 7):
            st = runs[k]
            assert st.iter == k and not st.converged
            assert st.c == pytest.approx(np.linalg.norm(st.z) ** 2 / cfg.pilot_len,
                                         rel=1e-12)
            if k >= 2:
                onsager_sum = float(np.sum(denoise_deriv(runs[k - 1].phi,
                                                         runs[k - 1].c, prior)))
                assert np.isfinite(onsager_sum) and onsager_sum >= 0.0

    def test_residual_is_the_written_expression_bit_for_bit(self):
        # the sweep forms z in place; the written expression is the reference
        cfg = desk_config(n_adts=1)
        scn = make_scenario(cfg, 4)
        y, s_mat = scn.received[:, 0], scn.pilots
        prior = initial_prior(cfg, scn.profiles.channel_var)
        prev = amp_run(y, s_mat, prior, cfg.with_(amp_iters=1))
        for k in range(2, 10):
            new = amp_run(y, s_mat, prior, cfg.with_(amp_iters=k))
            assert new.iter == k and not new.converged
            onsager = (prev.z / cfg.pilot_len) * np.sum(denoise_deriv(prev.phi, prev.c,
                                                                      prior))
            assert np.array_equal(new.z, y - s_mat @ new.mu + onsager)
            prev = new

    def test_empirical_c_tracks_se_fixpoint(self):
        # cross-module consistency at moderate scale (tight version lives in
        # the acceptance suite at N=1000, L=250)
        cfg = SystemConfig(n_users=500, pilot_len=100, n_adts=1, amp_iters=80)
        cs = []
        for trial in range(10):
            scn = make_scenario(cfg, trial)
            prior = initial_prior(cfg, scn.profiles.channel_var)
            cs.append(amp_run(scn.received[:, 0], scn.pilots, prior, cfg).c)
        trace = se_sequential_trace(cfg, n_samples=100_000)
        assert trace.converged
        assert abs(trace.c_static[0] - np.mean(cs)) / np.mean(cs) <= 0.15


class TestDecoupling:
    def test_pseudo_observation_is_signal_plus_noise_of_variance_c(self, monkeypatch):
        # the Onsager term's purpose, checked without restating its code:
        # phi - x behaves as noise of variance c that does not scale with x.
        # Over S-AMP's 200 desk ADTs (20 trials) the mean over ADTs of
        # mean|phi - x|^2 / c reads 1.0046 +- 0.0034 and the slope of
        # phi - x on x -0.0004 +- 0.0004; with the Onsager term zeroed they
        # read 1.088 and 0.013.  The bounds are about 9 and 12 standard errors.
        cfg = desk_config()
        states = []
        run = seqamp.sequential.amp_run
        monkeypatch.setattr(seqamp.sequential, "amp_run",
                            lambda *args: states.append(run(*args)) or states[-1])
        ratios, slopes = [], []
        for trial in range(cfg.n_trials):
            scn = make_scenario(cfg, trial)
            states.clear()
            s_amp_run(scn, cfg)
            assert len(states) == cfg.n_adts
            for st, x in zip(states, scn.sparse_signal.T):
                err = st.phi - x
                ratios.append(np.mean(np.abs(err) ** 2) / st.c)
                slopes.append(np.real(np.vdot(x, err)) / np.real(np.vdot(x, x)))
        assert len(ratios) == 200
        assert abs(np.mean(ratios) - 1.0) <= 0.03
        assert abs(np.mean(slopes)) <= 0.005
