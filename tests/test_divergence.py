"""Divergence is a non-finite residual energy c, in both AMP loops.

A NaN or inf put into the observation, the state or the denoiser output
must raise AmpDivergenceError at the sweep it enters, with the message
naming that sweep (and, for soft-threshold AMP, exactly the columns hit).
"""

import dataclasses

import numpy as np
import pytest

import seqamp.amp
import seqamp.baselines
from seqamp.amp import AmpDivergenceError, amp_init, amp_iterate, amp_run
from seqamp.baselines import amp_soft
from seqamp.config import desk_config
from seqamp.scenario import make_scenario
from seqamp.sequential import initial_prior

BAD = [pytest.param(np.nan, id="nan"), pytest.param(np.inf, id="inf")]


@pytest.fixture(scope="module")
def desk():
    cfg = desk_config(n_adts=4)
    scn = make_scenario(cfg, 0)
    return cfg, scn, initial_prior(cfg, scn.profiles)


def amp_message(sweep: int) -> str:
    # an inf meets S's entries of both signs, so c reads nan either way
    return rf"^non-finite AMP iterate at sweep {sweep} \(c=nan\)$"


def soft_message(cols, sweep: int) -> str:
    label = "columns" if len(cols) > 1 else "column"
    return (rf"^{label} {', '.join(map(str, cols))}: "
            rf"soft-threshold AMP diverged at sweep {sweep}$")


def spiked(a: np.ndarray, index, bad: float) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out[index] = bad
    return out


class TestAmpIterate:
    @pytest.mark.parametrize("bad", BAD)
    def test_observation(self, desk, bad):
        cfg, scn, prior = desk
        y = spiked(scn.received[:, 0], 3, bad)
        with np.errstate(all="ignore"), \
                pytest.raises(AmpDivergenceError, match=amp_message(1)):
            amp_run(y, scn.pilots, prior, cfg)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("field, index", [("z", 7), ("mu", 11)])
    def test_state(self, desk, field, index, bad):
        cfg, scn, prior = desk
        y = scn.received[:, 0]
        state = amp_init(y, cfg)
        for _ in range(2):
            state = amp_iterate(state, scn.pilots, y, prior)
        state = dataclasses.replace(
            state, **{field: spiked(getattr(state, field), index, bad)})
        with np.errstate(all="ignore"), \
                pytest.raises(AmpDivergenceError, match=amp_message(3)):
            amp_iterate(state, scn.pilots, y, prior)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("sweep", [1, 4])
    def test_denoiser_output(self, desk, monkeypatch, sweep, bad):
        cfg, scn, prior = desk
        calls = []
        mean = seqamp.amp.denoise_mean

        def denoise_mean(phi, c, priors):
            calls.append(None)
            out = mean(phi, c, priors)
            return spiked(out, 5, bad) if len(calls) == sweep else out

        monkeypatch.setattr(seqamp.amp, "denoise_mean", denoise_mean)
        with np.errstate(all="ignore"), \
                pytest.raises(AmpDivergenceError, match=amp_message(sweep)):
            amp_run(scn.received[:, 0], scn.pilots, prior, cfg)
        assert len(calls) == sweep


class TestAmpSoft:
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("cols", [[2], [0, 3]])
    def test_observation(self, desk, cols, bad):
        cfg, scn, _ = desk
        y = scn.received.copy()
        y[5, cols] = bad
        with np.errstate(all="ignore"), \
                pytest.raises(AmpDivergenceError, match=soft_message(cols, 1)):
            amp_soft(y, scn.pilots, cfg, alpha=1.4)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("cols, sweep", [([1], 1), ([0, 2], 3)])
    def test_threshold_output(self, desk, monkeypatch, cols, sweep, bad):
        # a non-finite phi entry makes that column's mu_new non-finite
        cfg, scn, _ = desk
        calls = []
        adjoint = seqamp.baselines.adjoint

        def spiked_adjoint(s_mat, z):
            calls.append(None)
            out = adjoint(s_mat, z)
            if len(calls) == sweep:
                assert out.shape[1] == scn.received.shape[1]  # no column left yet
                out[9, cols] = bad
            return out

        monkeypatch.setattr(seqamp.baselines, "adjoint", spiked_adjoint)
        with np.errstate(all="ignore"), \
                pytest.raises(AmpDivergenceError, match=soft_message(cols, sweep)):
            amp_soft(scn.received, scn.pilots, cfg, alpha=1.4)
        assert len(calls) == sweep
