"""Bayes detection, channel estimation and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqamp.denoiser import BgPrior, gamma, log_gamma
from seqamp.amp import AmpState
from seqamp.detection import (bayes_detect, dep_from_counts, detect_sequence,
                              detection_counts, metric_nmse, nmse_db)
from seqamp.sequential import AdtRecord, PosteriorSummary, SequenceResult


def summary(pi_values):
    pi = np.asarray(pi_values, dtype=float)
    return PosteriorSummary(pi, np.zeros_like(pi, dtype=complex),
                            np.ones_like(pi))


class TestBayesDetect:
    def test_above_half_is_active(self):
        assert bayes_detect(summary([0.6]))[0] == 1

    def test_tie_resolves_active(self):
        assert bayes_detect(summary([0.5]))[0] == 1

    def test_below_half_is_idle(self):
        assert bayes_detect(summary([0.3]))[0] == 0

    def test_equivalent_to_llr_threshold(self):
        # posterior-ratio rule == LLR vs prior-odds threshold log((1-pi)/pi)
        rng = np.random.default_rng(31)
        for _ in range(1000):
            pi = rng.uniform(0.01, 0.99)
            psi = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.05, 2.0)
            xi = rng.standard_normal() + 1j * rng.standard_normal()
            phi = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
            prior = BgPrior(pi, xi, psi)
            from seqamp.sequential import moment_match
            decision = bayes_detect(moment_match(np.array([phi]), c, prior))[0]
            # independent density-ratio LLR
            llr = (-np.abs(phi - xi) ** 2 / (psi + c) - np.log(np.pi * (psi + c))
                   + np.abs(phi) ** 2 / c + np.log(np.pi * c))
            threshold = np.log((1 - pi) / pi)
            assert decision == int(llr >= threshold)

    def test_energy_threshold_matches_gamma_root(self):
        # for xi = 0 the Bayes cut point solves gamma(|phi|) = 1 analytically
        pi, psi, c = 0.05, 1.0, 0.5
        prior = BgPrior(pi, 0.0, psi)
        a = ((1 - pi) / pi) * ((psi + c) / c)
        root_sq = c * (psi + c) / psi * np.log(a)
        root = np.sqrt(root_sq)
        assert float(gamma(root, c, prior)) == pytest.approx(1.0, abs=1e-9)
        from seqamp.sequential import moment_match
        just_above = moment_match(np.array([root * (1 + 1e-6) + 0j]), c, prior)
        just_below = moment_match(np.array([root * (1 - 1e-6) + 0j]), c, prior)
        assert bayes_detect(just_above)[0] == 1
        assert bayes_detect(just_below)[0] == 0

    @given(st.floats(0.05, 0.95), st.floats(0.1, 3.0), st.floats(0.05, 2.0),
           st.floats(0.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_energy_for_zero_mean_prior(self, pi, psi, c, mag):
        # log gamma strictly decreasing in |phi| => one threshold, so the
        # decision is invariant under increasing transforms of T = |phi|^2
        prior = BgPrior(pi, 0.0, psi)
        lg_low = float(log_gamma(mag, c, prior))
        lg_high = float(log_gamma(mag + 0.5, c, prior))
        assert lg_high < lg_low


class TestChannelEstimate:
    """SequenceResult.x_hat reports every user's AMP posterior mean as hat h."""

    @staticmethod
    def run_with_means(*mus):
        records = []
        for mu in mus:
            n = mu.shape[0]
            amp = AmpState(mu, np.zeros(n), np.zeros(2, dtype=complex), 1.0,
                           np.zeros(n, dtype=complex), 1)
            records.append(AdtRecord(None, amp, summary(np.zeros(n))))
        return SequenceResult(records)

    def test_zero_means(self):
        x_hat = self.run_with_means(np.zeros(4, dtype=complex)).x_hat
        assert x_hat.shape == (4, 1)
        assert np.all(x_hat == 0)

    def test_is_posterior_mean_vector(self):
        mus = (np.array([1.0 + 1j, -2.0]), np.array([0.5j, 3.0 - 1j]))
        x_hat = self.run_with_means(*mus).x_hat
        assert np.array_equal(x_hat, np.stack(mus, axis=1))


class TestNmse:
    def test_exact_estimate_hits_sentinel(self):
        x = np.ones((3, 2), dtype=complex)
        assert metric_nmse(x, x) == -300.0

    def test_zero_estimate_is_zero_db(self):
        x = np.ones((3, 2), dtype=complex)
        assert metric_nmse(np.zeros_like(x), x) == pytest.approx(0.0)

    def test_ten_percent_error(self):
        x = (1.0 + 0.5j) * np.ones((4, 4))
        assert metric_nmse(x * 1.1, x) == pytest.approx(-20.0, abs=1e-9)

    def test_mask_restricts_entries(self):
        truth = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        est = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
        mask = np.array([[1, 0], [1, 1]], dtype=bool)
        assert metric_nmse(est[mask], truth[mask]) == -300.0
        assert metric_nmse(est, truth) == pytest.approx(10 * np.log10(1 / 4))

    def test_zero_energy_truth_rejected(self):
        with pytest.raises(ValueError):
            metric_nmse(np.ones((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex))

    def test_pooled_sums_form(self):
        # the harness scores pooled sums: NaN instead of raising on zero energy
        assert np.isnan(nmse_db(1.0, 0.0))
        assert nmse_db(0.0, 2.0) == -300.0
        assert nmse_db(1e-40, 1.0) == -300.0
        assert nmse_db(0.2, 20.0) == pytest.approx(-20.0, abs=1e-9)


class TestDep:
    def test_pooled_counts_form(self):
        assert dep_from_counts(3, 1, 10, 4) == pytest.approx(0.3 + 0.25)
        assert dep_from_counts(2, 0, 8, 0) == pytest.approx(0.25)  # no active users

    def test_perfect_detection(self):
        a = np.array([[1, 0], [0, 1]])
        assert dep_from_counts(*detection_counts(a, a)) == 0.0

    def test_all_declared_active(self):
        truth = np.array([[1, 0], [0, 0]])
        dec = np.ones_like(truth)
        assert dep_from_counts(*detection_counts(dec, truth)) == pytest.approx(1.0)

    def test_count_arithmetic(self):
        # 2 misses among 100 active, 5 false alarms among 1900 inactive
        truth = np.zeros(2000, dtype=int)
        truth[:100] = 1
        dec = truth.copy()
        dec[:2] = 0
        dec[100:105] = 1
        assert dep_from_counts(*detection_counts(dec, truth)) == pytest.approx(
            0.02 + 5 / 1900.0)
        assert detection_counts(dec, truth) == (5, 2, 1900, 100)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        truth = (rng.random((50, 4)) < 0.2).astype(int)
        dec = (rng.random((50, 4)) < 0.25).astype(int)
        perm = rng.permutation(50)
        assert dep_from_counts(*detection_counts(dec, truth)) == pytest.approx(
            dep_from_counts(*detection_counts(dec[perm], truth[perm])))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dep_from_counts(*detection_counts(np.zeros((2, 2)), np.zeros((3, 2))))


class TestDetectSequence:
    def test_matrices_assembled_consistently(self):
        from seqamp.config import desk_config
        from seqamp.scenario import make_scenario
        from seqamp.sequential import s_amp_run
        cfg = desk_config(n_users=40, pilot_len=12, n_adts=3)
        scn = make_scenario(cfg, 0)
        run = s_amp_run(scn, cfg)
        decisions = detect_sequence(run)
        assert decisions.shape == (40, 3) and decisions.dtype == np.int8
        for t, rec in enumerate(run.records):
            assert np.array_equal(decisions[:, t],
                                  (rec.posterior.pi_bar >= 0.5).astype(np.int8))
