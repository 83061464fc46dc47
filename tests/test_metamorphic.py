"""Metamorphic checks: transformations that must leave every decision unchanged.

Shifting the transmit power and the noise PSD by the same number of dB
scales the signal and the noise by one factor, so S-AMP's decisions and
OMP's supports must not move and the pooled NMSE must stay put up to
rounding.  Relabelling the users permutes S-AMP's output the same way.
"""

from dataclasses import fields

import numpy as np
import pytest

from seqamp.baselines import omp
from seqamp.config import desk_config
from seqamp.detection import detect_sequence, nmse_db
from seqamp.rng import stream
from seqamp.scenario import Profiles, Scenario, make_scenario
from seqamp.sequential import s_amp_run

N_TRIALS = 2


def shifted_run(delta_db: float):
    """S-AMP decisions, OMP supports and both pooled NMSEs at one shift."""
    base = desk_config(n_adts=4)
    cfg = base.with_(tx_power_dbm=base.tx_power_dbm + delta_db,
                     noise_psd_dbm_hz=base.noise_psd_dbm_hz + delta_db)
    decisions, supports = [], []
    sums = np.zeros((2, 2))   # rows s_amp, omp; columns error, energy
    for trial in range(N_TRIALS):
        scn = make_scenario(cfg, trial)
        truth = scn.sparse_signal
        run = s_amp_run(scn, cfg)
        decisions.append(detect_sequence(run))
        sums[0] += [np.sum(np.abs(run.x_hat - truth) ** 2),
                    np.sum(np.abs(truth) ** 2)]
        for t in range(cfg.n_adts):
            res = omp(scn.received[:, t], scn.pilots, cfg)
            supports.append(res.support)
            sums[1] += [np.sum(np.abs(res.estimate - truth[:, t]) ** 2),
                        np.sum(np.abs(truth[:, t]) ** 2)]
    return decisions, supports, [nmse_db(err, energy) for err, energy in sums]


@pytest.fixture(scope="module")
def unshifted():
    return shifted_run(0.0)


@pytest.mark.parametrize("delta_db", [-150.0, -60.0, 60.0, 150.0])
def test_power_rescaling_invariance(unshifted, delta_db):
    decisions, supports, nmse = shifted_run(delta_db)
    ref_decisions, ref_supports, ref_nmse = unshifted
    for got, want in zip(decisions, ref_decisions):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(supports, ref_supports):
        np.testing.assert_array_equal(got, want)
    assert np.all(np.isfinite(nmse))
    np.testing.assert_allclose(nmse, ref_nmse, rtol=0, atol=1e-9)


def permuted_users(scn: Scenario, perm: np.ndarray) -> Scenario:
    """The scenario with user n relabelled perm^{-1}(n): S's columns, the
    profiles and the signal and activity rows permuted alike."""
    profiles = Profiles(*(getattr(scn.profiles, f.name)[perm] for f in fields(Profiles)))
    return Scenario(scn.pilots[:, perm], profiles, scn.activity[perm],
                    scn.channels[perm], scn.sparse_signal[perm], scn.received)


@pytest.mark.parametrize("trial", range(3))
def test_user_permutation_equivariance(trial):
    # S mu sums the users in another order, so x_hat may move by rounding
    cfg = desk_config(seed=7)
    scn = make_scenario(cfg, trial)
    perm = stream(cfg.seed, trial, "test-permutation").permutation(cfg.n_users)
    inv = np.argsort(perm)
    ref = s_amp_run(scn, cfg)
    got = s_amp_run(permuted_users(scn, perm), cfg)
    x_ref = ref.x_hat
    assert np.max(np.abs(got.x_hat[inv] - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
    assert [r.amp.iter for r in got.records] == [r.amp.iter for r in ref.records]
    np.testing.assert_array_equal(detect_sequence(got)[inv], detect_sequence(ref))
