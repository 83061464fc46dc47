"""Release acceptance criteria, one test per criterion.

Each test executes the shared check (also reachable via ``seqamp check``),
prints its PASS/FAIL line and asserts the stated thresholds.  Criterion 4's
detection-error clause is a known honest failure at the pinned desk profile
(T = 10 truncates the prior-accumulation window); see README "Expected
suite outcome" and the docstring of ``acceptance.check_temporal_gain``.  The
check is asserted exactly as specified regardless.
"""

import numpy as np
import pytest

from seqamp.acceptance import CHECKS, _spearman


def _run(criterion: int):
    """(passed, detail) of one criterion, after printing its PASS/FAIL line."""
    name, check = CHECKS[criterion]
    passed, detail = check()
    print(f"\n{'PASS' if passed else 'FAIL'}  criterion {criterion}  {name}: {detail}")
    return passed, detail


def test_criterion_01_denoiser_oracle():
    passed, detail = _run(1)
    assert passed, detail


def test_criterion_02_moment_matching_oracle():
    passed, detail = _run(2)
    assert passed, detail


def test_criterion_03_degenerate_collapse():
    passed, detail = _run(3)
    assert passed, detail


def test_criterion_04_temporal_gain():
    passed, detail = _run(4)
    assert passed, detail


def test_criterion_05_state_evolution_consistency():
    passed, detail = _run(5)
    assert passed, detail


def test_criterion_06_kl_contraction():
    passed, detail = _run(6)
    assert passed, detail


def test_criterion_07_stationarity():
    passed, detail = _run(7)
    assert passed, detail


def test_criterion_08_r0_monotonicity():
    passed, detail = _run(8)
    assert passed, detail


def test_criterion_09_baseline_ordering():
    passed, detail = _run(9)
    assert passed, detail


def test_criterion_10_determinism():
    passed, detail = _run(10)
    assert passed, detail


@pytest.mark.parametrize("series", [[3.0, 1.0, 2.0, 5.0, 4.0, 6.0],
                                    [1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
                                    [0.5, 0.2, 0.2, 0.9, 0.9, 0.9],
                                    [-1.0, -0.3, -0.3, -0.3, -2.0, 4.0]])
def test_criterion_08_rank_correlation_matches_scipy_with_ties(series):
    # criterion 8's Spearman statistic, ties sharing their mean rank
    from scipy.stats import spearmanr
    r0s = np.arange(6)
    assert _spearman(r0s, series) == pytest.approx(spearmanr(r0s, series).statistic,
                                                   rel=1e-14, abs=1e-15)
