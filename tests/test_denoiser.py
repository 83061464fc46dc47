"""Bernoulli-Gaussian denoiser kernels against hand values and quadrature."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqamp.denoiser import (BgPrior, _logistic_neg, active_branch, denoise_deriv,
                             denoise_mean, denoise_mean_parts, denoise_var, gamma,
                             log_gamma)
from seqamp.quadrature import x_moments


def logistic(t):
    """1/(1 + exp(-t)), the formula of scipy.special.expit, for the oracles."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


class TestLogistic:
    """The kernels' logistic, taken at -t: _logistic_neg(-t) = 1/(1 + exp(-t))."""

    def test_within_four_ulp_of_scipy_expit(self):
        from scipy.special import expit
        t = np.linspace(-745.0, 745.0, 400_001)
        ref = expit(t)
        assert np.all(np.abs(_logistic_neg(-t) - ref) <= 4 * np.spacing(ref))

    def test_exact_saturation(self):
        t = np.array([-np.inf, -800.0, 800.0, np.inf])
        assert _logistic_neg(-t).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_no_floating_point_warning(self):
        t = np.array([-np.inf, -800.0, -710.0, 0.0, 710.0, 800.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _logistic_neg(-t)
            _logistic_neg(np.array(800.0))


class TestPriorLogOdds:
    def test_boundaries_are_infinite(self):
        prior = BgPrior(np.array([1.0, 0.0]), 0.0, 1.0)
        assert prior.log_odds.tolist() == [-np.inf, np.inf]

    def test_equals_formula_inside(self):
        pi = np.array([1e-12, 0.05, 0.5, 0.9, 1.0 - 1e-12])
        prior = BgPrior(pi, np.zeros(5, dtype=complex), np.ones(5))
        np.testing.assert_array_equal(prior.log_odds, np.log1p(-pi) - np.log(pi))

    def test_replace_recomputes(self):
        prior = dataclasses.replace(BgPrior(0.5, 0.0, 1.0), pi=0.2)
        assert float(prior.log_odds) == np.log1p(-0.2) - np.log(0.2)
        assert prior == BgPrior(0.2, 0.0, 1.0)

    def test_replace_recomputes_mean_cache(self):
        prior = BgPrior(0.5, 0.0, 1.0)
        assert prior.zero_mean and float(prior.xi_sq) == 0.0 and prior.shape == ()
        moved = dataclasses.replace(prior, xi=0.3 - 0.4j)
        assert not moved.zero_mean
        assert float(moved.xi_sq) == 0.3 * 0.3 + 0.4 * 0.4
        back = dataclasses.replace(moved, xi=np.array([0.0, -0.0]))
        assert back.zero_mean and back.xi_sq.tolist() == [0.0, 0.0]
        assert back.shape == (2,)
        # the caches take no part in equality or repr
        assert moved == BgPrior(0.5, 0.3 - 0.4j, 1.0)
        assert repr(moved) == ("BgPrior(pi=array(0.5), xi=array(0.3-0.4j), "
                               "psi=array(1.))")

    def test_zero_mean_means_every_entry(self):
        assert not BgPrior(0.5, np.array([0.0, 1e-300j]), 1.0).zero_mean
        assert BgPrior(0.5, np.zeros(3, dtype=complex), 1.0).zero_mean


class TestGamma:
    def test_symmetric_unit_case(self):
        # exponent vanishes: ((1-pi)/pi) * ((psi+c)/c) = 1 * 2
        assert float(gamma(0.0, 1.0, BgPrior(0.5, 0.0, 1.0))) == pytest.approx(2.0)

    def test_vanishes_as_pi_approaches_one(self):
        val = float(gamma(0.3, 1.0, BgPrior(1.0 - 1e-12, 0.0, 1.0)))
        assert val < 1e-11

    def test_likelihood_ratio_value(self):
        # 19 * 3 * exp(-4/3), cross-checked against the density-ratio form
        val = float(gamma(1.0, 0.5, BgPrior(0.05, 0.0, 1.0)))
        assert val == pytest.approx(15.025, abs=1e-3)
        num = 0.95 * np.exp(-1.0 / 0.5) / (np.pi * 0.5)
        den = 0.05 * np.exp(-1.0 / 1.5) / (np.pi * 1.5)
        assert val == pytest.approx(num / den, rel=1e-12)

    def test_rejects_boundary_priors(self):
        with pytest.raises(ValueError):
            gamma(0.0, 1.0, BgPrior(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            gamma(0.0, 1.0, BgPrior(1.0, 0.0, 1.0))

    def test_exponent_clamped(self):
        # |phi|^2/c huge: gamma must stay finite and positive
        val = float(gamma(1e6, 1e-4, BgPrior(0.5, 0.0, 1.0)))
        assert np.isfinite(val) and val >= 0.0


class TestMean:
    def test_pure_gaussian_prior_is_linear_shrinkage(self):
        assert complex(denoise_mean(2.0, 1.0, BgPrior(1.0, 0.0, 1.0))) == pytest.approx(1.0)

    def test_symmetric_zero_input(self):
        for pi in (0.1, 0.5, 0.9):
            assert complex(denoise_mean(0.0, 0.7, BgPrior(pi, 0.0, 2.0))) == 0.0

    def test_reference_value(self):
        val = complex(denoise_mean(1.0, 0.5, BgPrior(0.05, 0.0, 1.0)))
        assert val == pytest.approx(0.04160, abs=1e-4)

    def test_zero_prior_mass_gives_zero(self):
        assert complex(denoise_mean(3.0, 0.5, BgPrior(0.0, 1.0, 1.0))) == 0.0


class TestVar:
    def test_gaussian_case(self):
        for phi in (0.0, 1.0, -2.0 + 1j):
            assert float(denoise_var(phi, 1.0, BgPrior(1.0, 0.0, 1.0))) == pytest.approx(0.5)

    def test_symmetric_case_one_sixth(self):
        assert float(denoise_var(0.0, 1.0, BgPrior(0.5, 0.0, 1.0))) == pytest.approx(1 / 6)

    def test_reference_value(self):
        val = float(denoise_var(1.0, 0.5, BgPrior(0.05, 0.0, 1.0)))
        assert val == pytest.approx(0.04681, abs=1e-4)


class TestDeriv:
    def test_is_var_over_c(self):
        prior = BgPrior(0.4, 0.3 + 0.1j, 1.3)
        phi, c = 0.7 - 0.2j, 0.6
        assert float(denoise_deriv(phi, c, prior)) == pytest.approx(
            float(denoise_var(phi, c, prior)) / c, rel=1e-14)

    def test_gaussian_case(self):
        assert float(denoise_deriv(0.0, 1.0, BgPrior(1.0, 0.0, 1.0))) == pytest.approx(0.5)

    def test_zero_prior_mass(self):
        assert float(denoise_deriv(1.0, 1.0, BgPrior(0.0, 0.0, 1.0))) == 0.0

    def test_symmetric_case(self):
        assert float(denoise_deriv(0.0, 1.0, BgPrior(0.5, 0.0, 1.0))) == pytest.approx(1 / 6)


class TestQuadratureEquivalence:
    def test_posterior_mean_and_variance(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            pi = rng.uniform(0.02, 0.98)
            psi = rng.uniform(0.2, 2.5)
            c = rng.uniform(0.05, 2.5)
            xi = 0.7 * (rng.standard_normal() + 1j * rng.standard_normal())
            x = xi + np.sqrt(psi / 2) * (rng.standard_normal() + 1j * rng.standard_normal()) \
                if rng.random() < pi else 0.0
            phi = x + np.sqrt(c / 2) * (rng.standard_normal() + 1j * rng.standard_normal())
            prior = BgPrior(pi, xi, psi)
            f_ref, g_ref = x_moments(phi, c, pi, xi, psi)
            assert complex(denoise_mean(phi, c, prior)) == pytest.approx(f_ref, rel=1e-5)
            assert float(denoise_var(phi, c, prior)) == pytest.approx(g_ref, rel=1e-5)


prior_params = st.tuples(
    st.floats(0.0, 1.0),                       # pi (boundaries included)
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),  # xi re/im
    st.floats(1e-3, 10.0),                     # psi
    st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),  # phi re/im
    st.floats(1e-4, 10.0),                     # c
)


class TestInvariants:
    @given(prior_params)
    @settings(max_examples=300, deadline=None)
    def test_variance_bounded_by_posterior_second_moment(self, params):
        # G <= E[|x|^2 | phi] pointwise.  (The prior second moment
        # psi + |xi|^2 is NOT a pointwise bound: at the detection boundary
        # the bimodal posterior variance legitimately exceeds it, e.g.
        # pi=1e-6, psi=1, c=20, phi at gamma=1 gives G = 3.78.  The prior
        # moment bounds G only on average; see the test below.)
        pi, xr, xi_im, psi, pr, pi_im, c = params
        prior = BgPrior(pi, xr + 1j * xi_im, psi)
        phi = pr + 1j * pi_im
        g = float(denoise_var(phi, c, prior))
        from scipy.special import expit
        from seqamp.denoiser import log_gamma as lg_fn
        s_act = float(expit(-lg_fn(phi, c, prior)))
        kappa = psi * c / (psi + c)
        m2 = abs((psi * phi + prior.xi * c) / (psi + c)) ** 2
        second_moment = s_act * (kappa + m2)
        assert 0.0 <= g <= second_moment + 1e-9 * (1.0 + second_moment)

    def test_variance_bounded_by_prior_second_moment_on_average(self):
        # E_phi[G] <= Var(x) <= pi*(psi + |xi|^2) by total variance
        rng = np.random.default_rng(13)
        for _ in range(25):
            pi = rng.uniform(0.05, 0.95)
            psi = rng.uniform(0.1, 2.0)
            c = rng.uniform(0.05, 2.0)
            xi = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
            m = 4000
            active = rng.random(m) < pi
            x = active * (xi + np.sqrt(psi / 2)
                          * (rng.standard_normal(m) + 1j * rng.standard_normal(m)))
            phi = x + np.sqrt(c / 2) * (rng.standard_normal(m)
                                        + 1j * rng.standard_normal(m))
            prior = BgPrior(pi, xi, psi)
            avg_g = float(np.mean(denoise_var(phi, c, prior)))
            bound = pi * (psi + abs(xi) ** 2)
            assert avg_g <= bound * 1.1 + 1e-12  # 10% MC slack, fixed seed

    @given(prior_params)
    @settings(max_examples=300, deadline=None)
    def test_shrinkage(self, params):
        pi, xr, xi_im, psi, pr, pi_im, c = params
        prior = BgPrior(pi, xr + 1j * xi_im, psi)
        phi = pr + 1j * pi_im
        f = complex(denoise_mean(phi, c, prior))
        linear = (psi * phi + prior.xi * c) / (psi + c)
        assert abs(f) <= abs(linear) * (1 + 1e-12) + 1e-300

    @given(prior_params)
    @settings(max_examples=300, deadline=None)
    def test_log_domain_never_overflows(self, params):
        pi, xr, xi_im, psi, pr, pi_im, c = params
        prior = BgPrior(pi, xr + 1j * xi_im, psi)
        phi = (pr + 1j * pi_im) * 100.0  # exponents up to ~1e4/c
        f = complex(denoise_mean(phi, c, prior))
        g = float(denoise_var(phi, c, prior))
        assert np.isfinite(f) and np.isfinite(g)

    def test_gamma_extreme_exponents_finite(self):
        prior = BgPrior(0.3, 1.0 + 1j, 0.5)
        for phi in (1e3, -1e3, 1e2 * (1 + 1j)):
            lg = float(log_gamma(phi, 0.1, prior))
            assert np.isfinite(lg)
            assert np.isfinite(float(gamma(phi, 0.1, prior)))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        prior = BgPrior(rng.uniform(0.05, 0.95, 16),
                        rng.standard_normal(16) + 0j,
                        rng.uniform(0.1, 2.0, 16))
        vec = denoise_mean(phi, 0.7, prior)
        for n in range(16):
            one = denoise_mean(phi[n], 0.7,
                               BgPrior(prior.pi[n], prior.xi[n], prior.psi[n]))
            assert complex(one) == pytest.approx(complex(vec[n]), rel=1e-14)


# The complex expressions the part-wise kernels replaced, verbatim.
def complex_log_evidence_ratio(phi, c, xi, psi):
    phi = np.asarray(phi, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    re, im = phi.real, phi.imag
    num = (psi * (re * re + im * im)
           + 2.0 * c * (xi.real * re + xi.imag * im)
           - c * (xi.real * xi.real + xi.imag * xi.imag))
    total = psi + c
    return np.log(total / c) - num / (c * total)


def complex_log_gamma(phi, c, prior):
    return prior.log_odds + complex_log_evidence_ratio(phi, c, prior.xi, prior.psi)


def complex_linear_mmse(phi, c, prior):
    return (prior.psi * np.asarray(phi, dtype=complex) + prior.xi * c) / (prior.psi + c)


def complex_denoise_mean(phi, c, prior):
    return (logistic(-complex_log_gamma(phi, c, prior))
            * complex_linear_mmse(phi, c, prior))


def complex_denoise_var(phi, c, prior):
    lg = complex_log_gamma(phi, c, prior)
    s_act = logistic(-lg)
    s_idle = logistic(lg)
    kappa = prior.psi * c / (prior.psi + c)
    # np.square, as on arrays: ** 2 on a numpy scalar goes through libm pow,
    # which can differ from x*x in the last bit
    m2 = np.square(np.abs(complex_linear_mmse(phi, c, prior)))
    return s_act * kappa + s_act * s_idle * m2


def complex_denoise_deriv(phi, c, prior):
    return complex_denoise_var(phi, c, prior) / c


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def kernel_cases(draw):
    """(phi, c, prior) in four layouts, with zero-mean and boundary priors.

    vector: phi and every parameter of length n; broadcast: scalar prior
    over a vector phi; scalar: Python complex phi; 0-d: 0-d array phi.
    """
    layout = draw(st.sampled_from(["vector", "broadcast", "scalar", "0-d"]))
    n = draw(st.integers(1, 8)) if layout == "vector" else None

    def param(elements):
        if n is None:
            return draw(elements)
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    pi = param(st.one_of(st.sampled_from([0.0, 1.0]), _finite(0.0, 1.0)))
    if draw(st.booleans()):
        xi = 0j if n is None else np.zeros(n, dtype=complex)
    else:
        xi = param(_finite(-3.0, 3.0)) + 1j * param(_finite(-3.0, 3.0))
    psi = param(_finite(1e-3, 10.0))
    m = draw(st.integers(1, 8)) if layout == "broadcast" else n
    if m is None:
        phi = complex(draw(_finite(-50.0, 50.0)), draw(_finite(-50.0, 50.0)))
        if layout == "0-d":
            phi = np.asarray(phi)
    else:
        parts = st.lists(_finite(-50.0, 50.0), min_size=m, max_size=m)
        phi = np.array(draw(parts)) + 1j * np.array(draw(parts))
    return phi, draw(_finite(1e-4, 10.0)), BgPrior(pi, xi, psi)


class TestPartwiseEqualsComplex:
    """Each part-wise kernel equals the complex expression it replaced.

    Equal as arrays (array_equal: the sign of a zero may differ), of the
    same type and shape, so scalar inputs still give numpy scalars.
    """

    @given(kernel_cases())
    @settings(max_examples=400, deadline=None)
    # scalar and 0-d cases where |m|**2 by pow missed x*x in the last bit
    @example((-7.02997248327172 + 24.41836230713524j, 8.813524570812332,
              BgPrior(0.4302870674511049, 2.3400372732124755 - 1.8308167316669854j,
                      0.7690188123424659)))
    @example((np.asarray(39.88812822802342 + 40.47871375206151j), 5.2474394265359114,
              BgPrior(0.776843984523158, 0.8827076643286005 - 2.9230053083312866j,
                      0.24304333122479407)))
    def test_kernels(self, case):
        phi, c, prior = case
        pairs = [(log_gamma, complex_log_gamma),
                 (denoise_mean, complex_denoise_mean),
                 (denoise_var, complex_denoise_var),
                 (denoise_deriv, complex_denoise_deriv)]
        for kernel, reference in pairs:
            got, want = kernel(phi, c, prior), reference(phi, c, prior)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want), kernel.__name__

    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_active_branch(self, case):
        # 0-d arrays where the complex forms give numpy scalars
        phi, c, prior = case
        got = active_branch(phi, c, prior)
        want = (logistic(-complex_log_gamma(phi, c, prior)),
                complex_linear_mmse(phi, c, prior))
        for g, w in zip(got, want):
            assert type(g) is np.ndarray and g.dtype == np.asarray(w).dtype
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w)

    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_mean_parts_kernel(self, case):
        # phi's parts at the output shape in, F's contiguous parts out
        phi, c, prior = case
        shape = np.broadcast_shapes(np.shape(phi), prior.shape, (1,))
        full = np.broadcast_to(np.asarray(phi, dtype=complex), shape)
        f_re, f_im = denoise_mean_parts(np.array(full.real), np.array(full.imag),
                                        c, prior)
        want = np.broadcast_to(complex_denoise_mean(phi, c, prior), shape)
        assert f_re.flags.c_contiguous and f_im.flags.c_contiguous
        assert np.array_equal(f_re, want.real) and np.array_equal(f_im, want.imag)

    def test_scalar_phi_over_vector_prior(self):
        prior = BgPrior(np.array([0.0, 0.3, 1.0]), np.array([0j, 0.2 - 1j, 0j]),
                        np.array([0.5, 1.0, 2.0]))
        for phi in (0.4 - 0.3j, np.asarray(0.4 - 0.3j), np.array([0.4 - 0.3j])):
            got = denoise_mean(phi, 0.7, prior)
            assert got.shape == (3,)
            assert np.array_equal(got, complex_denoise_mean(phi, 0.7, prior))
            assert np.array_equal(denoise_var(phi, 0.7, prior),
                                  complex_denoise_var(phi, 0.7, prior))
