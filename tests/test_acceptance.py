"""Release acceptance criteria, one test per criterion.

Each test executes the shared check (also reachable via ``seqamp check``),
prints its PASS/FAIL line and asserts the stated thresholds.  Criterion 4's
detection-error clause is a known honest failure at the pinned desk profile
(T = 10 truncates the prior-accumulation window); see README "Expected
suite outcome" and the docstring of ``acceptance.check_temporal_gain``.  The
check is asserted exactly as specified regardless.
"""

from seqamp.acceptance import CHECKS


def _run(criterion: int):
    result = CHECKS[criterion]()
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status}  criterion {result.criterion}  {result.name}: {result.detail}")
    return result


def test_criterion_01_denoiser_oracle():
    result = _run(1)
    assert result.passed, result.detail


def test_criterion_02_moment_matching_oracle():
    result = _run(2)
    assert result.passed, result.detail


def test_criterion_03_degenerate_collapse():
    result = _run(3)
    assert result.passed, result.detail


def test_criterion_04_temporal_gain():
    result = _run(4)
    assert result.passed, result.detail


def test_criterion_05_state_evolution_consistency():
    result = _run(5)
    assert result.passed, result.detail


def test_criterion_06_kl_contraction():
    result = _run(6)
    assert result.passed, result.detail


def test_criterion_07_stationarity():
    result = _run(7)
    assert result.passed, result.detail


def test_criterion_08_r0_monotonicity():
    result = _run(8)
    assert result.passed, result.detail


def test_criterion_09_baseline_ordering():
    result = _run(9)
    assert result.passed, result.detail


def test_criterion_10_determinism():
    result = _run(10)
    assert result.passed, result.detail
