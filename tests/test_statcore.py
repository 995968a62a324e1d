"""Checks for the probability kernels against independent references:
numerical quadrature for the t CDF, dense linear algebra for the
compound-symmetry Gaussian, and scipy for the incomplete beta function
and for the test oracles' t density and compound-symmetry likelihood,
and ``math.lgamma`` for the log
gamma function.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from numpy.testing import assert_allclose

from bayescv.scores import DifferenceSeries
from bayescv.statcore import (
    StudentT,
    betainc,
    cs_quad_form,
    cs_stats,
    lgamma,
    rng_fork,
    std_t_cdf,
    t_sample,
)
from oracles import cs_dense, cs_loglik, dense_cs_loglik, t_logpdf


def t_cdf_quadrature(x: float, dist: StudentT) -> float:
    """Integrate the t density from the location outward: F(x) equals
    one half plus the integral of the pdf over [location, x]."""

    def pdf(u: float) -> float:
        return math.exp(t_logpdf(u, dist.location, dist.scale, dist.dof))

    area, err = scipy.integrate.quad(pdf, dist.location, x, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return 0.5 + area


def t_cdf(x: float, dist: StudentT) -> np.ndarray:
    """P(T <= x) through the library's standard t CDF."""
    return std_t_cdf((x - dist.location) / dist.scale, dist.dof)


class TestStudentTCdf:
    def test_matches_quadrature_on_grid(self):
        for dof in (1.0, 2.0, 5.0, 30.0):
            dist = StudentT(location=0.0, scale=1.0, dof=dof)
            for x in np.linspace(-5.0, 5.0, 21):
                assert_allclose(
                    t_cdf(float(x), dist), t_cdf_quadrature(float(x), dist), atol=1e-10, rtol=0
                )

    def test_matches_quadrature_shifted_scaled(self):
        dist = StudentT(location=0.37, scale=2.5, dof=3.5)
        for x in (-4.0, -1.0, 0.37, 0.4, 2.0, 8.0):
            assert_allclose(t_cdf(x, dist), t_cdf_quadrature(x, dist), atol=1e-10, rtol=0)

    def test_cauchy_closed_form(self):
        dist = StudentT(location=0.0, scale=1.0, dof=1.0)
        assert_allclose(t_cdf(1.0, dist), 0.75, atol=1e-12, rtol=0)
        for x in (-3.0, -0.5, 0.0, 0.2, 10.0):
            assert_allclose(
                t_cdf(x, dist), 0.5 + math.atan(x) / math.pi, atol=1e-12, rtol=0
            )

    def test_center_is_exactly_half(self):
        dist = StudentT(location=1.25, scale=0.5, dof=7.0)
        assert t_cdf(1.25, dist) == 0.5

    def test_mirror_symmetry_is_exact(self):
        # The implementation derives both tails from the same squared
        # argument, so reflection around the location is bit-for-bit.
        dist = StudentT(location=0.0, scale=1.0, dof=4.0)
        for x in (0.001, 0.5, 1.0, 2.75, 6.0):
            assert t_cdf(x, dist) == 1.0 - t_cdf(-x, dist)
            assert t_cdf(x, dist) + t_cdf(-x, dist) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_x(self):
        dist = StudentT(location=-0.2, scale=1.3, dof=2.0)
        grid = np.linspace(-20.0, 20.0, 401)
        values = [t_cdf(float(x), dist) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] > 0.0 and values[-1] < 1.0

    def test_extremes(self):
        dist = StudentT(location=0.0, scale=1.0, dof=5.0)
        assert t_cdf(math.inf, dist) == 1.0
        assert t_cdf(-math.inf, dist) == 0.0
        assert t_cdf(1e8, dist) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dofs", [(1.0, 1e6), (1e6, 1e22)], ids=["moderate", "huge"])
    def test_matches_scipy_over_dof_decades(self, dofs):
        # Near x = dof / (dof + z^2) = 1, a rounded 1 - x, log gammas of
        # 1e10 and the continued fraction all lose digits; the huge-dof
        # grid once raised ArithmeticError at 19 of its points.
        rng = np.random.default_rng(5)
        dof = 10.0 ** rng.uniform(*np.log10(dofs), 10_000)
        z = np.array([[-1.0], [1.0]]) * 10.0 ** rng.uniform(-3.0, 4.0, 10_000)
        assert_allclose(std_t_cdf(z, dof), scipy.stats.t.cdf(z, dof), atol=1e-10, rtol=0)

    @pytest.mark.parametrize("dof", [1e10, 1e14, 1e16, 1e300])
    def test_huge_dof_keeps_its_extremes(self, dof):
        got = std_t_cdf(np.array([-0.5, 0.0, 0.5, -np.inf, np.inf, np.nan]), dof)
        expected = [*scipy.stats.t.cdf([-0.5, 0.0, 0.5], dof), 0.0, 1.0]
        assert_allclose(got[:5], expected, atol=1e-13, rtol=0)
        assert np.isnan(got[5])

    def test_sf_complements_cdf(self):
        # P(T > x) is the CDF of the mirrored distribution at -x.
        dist = StudentT(location=0.6, scale=0.8, dof=11.0)
        mirrored = StudentT(location=-0.6, scale=0.8, dof=11.0)
        for x in (-2.0, 0.0, 0.6, 1.0, 5.0):
            assert_allclose(t_cdf(-x, mirrored) + t_cdf(x, dist), 1.0, atol=1e-14, rtol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StudentT(location=0.0, scale=-1.0, dof=2.0)
        with pytest.raises(ValueError):
            StudentT(location=0.0, scale=1.0, dof=0.0)


class TestLogPdf:
    def test_matches_scipy(self):
        # The test oracles' t density, checked once here.
        for dof in (1.0, 3.0, 17.5):
            ref = scipy.stats.t(df=dof, loc=0.3, scale=1.7)
            for x in (-6.0, -1.0, 0.3, 2.0, 9.0):
                assert_allclose(t_logpdf(x, 0.3, 1.7, dof), ref.logpdf(x), atol=1e-12, rtol=0)


class TestLgamma:
    def test_matches_math_lgamma_on_a_log_grid(self):
        x = np.geomspace(0.5, 1e7, 4001)
        want = np.array([math.lgamma(v) for v in x])
        relative = np.abs(lgamma(x) - want) / np.maximum(1.0, np.abs(want))
        assert relative.max() < 3e-14

    def test_around_the_shift_and_the_roots(self):
        # The series is taken at x + 6, so no branch switches at x = 6; the
        # roots 1 and 2 test the absolute error where log Gamma is 0.
        x = np.array([1.0, 2.0, 6.0, np.nextafter(6.0, 0.0), np.nextafter(6.0, 7.0), 6.5, 0.5])
        want = np.array([math.lgamma(v) for v in x])
        assert np.max(np.abs(lgamma(x) - want)) < 3e-14
        assert lgamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert lgamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=3e-14)


class TestBetainc:
    def test_matches_scipy(self):
        rng = np.random.default_rng(42)
        cases = []
        for _ in range(300):
            a = float(rng.uniform(0.05, 40.0))
            b = float(rng.uniform(0.05, 40.0))
            x = float(rng.uniform(0.0, 1.0))
            cases.append((a, b, x))
            assert_allclose(
                betainc(a, b, x), scipy.special.betainc(a, b, x), atol=1e-12, rtol=1e-12
            )
        # The same cases in one array call.
        a, b, x = np.asarray(cases).T
        assert_allclose(
            betainc(a, b, x), scipy.special.betainc(a, b, x), atol=1e-12, rtol=1e-12
        )

    def test_endpoints(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0


class TestCompoundSymmetry:
    def test_dense_structure(self):
        # The oracle's matrix, which the likelihood checks below rely on.
        sigma = cs_dense(4, 2.0, 0.25)
        assert sigma.shape == (4, 4)
        assert_allclose(np.diag(sigma), 2.0)
        off = sigma[~np.eye(4, dtype=bool)]
        assert_allclose(off, 0.5)

    def test_loglik_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            variance = float(rng.uniform(0.1, 4.0))
            low = -1.0 / (n - 1)
            rho = float(rng.uniform(low * 0.9, 0.95))
            mean = float(rng.normal())
            x = rng.normal(size=n)
            assert_allclose(
                cs_loglik(cs_stats(x, rho), mean, variance),
                dense_cs_loglik(x, mean, variance, rho),
                atol=1e-10,
                rtol=0,
            )

    def test_loglik_matches_scipy(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=6)
        ref = scipy.stats.multivariate_normal(mean=np.full(6, 0.2), cov=cs_dense(6, 0.5, 0.3))
        assert_allclose(cs_loglik(cs_stats(x, 0.3), 0.2, 0.5), ref.logpdf(x), atol=1e-10, rtol=0)

    def test_rho_bounds(self):
        # The likelihood's input comes from a DifferenceSeries, which
        # rejects any rho that breaks positive definiteness.
        with pytest.raises(ValueError):
            DifferenceSeries("d", np.zeros(5), rho=1.0)
        with pytest.raises(ValueError):
            DifferenceSeries("d", np.zeros(5), rho=-0.25 - 1e-9)
        DifferenceSeries("d", np.zeros(5), rho=-0.24)

    def test_shape_validation(self):
        # ... and any x that is not a 1-d vector.
        with pytest.raises(ValueError):
            DifferenceSeries("d", np.zeros((3, 1)), rho=0.1)

    def test_independent_case_reduces_to_univariate(self):
        x = np.array([0.1, -0.4, 0.9, 0.0, 1.1])
        expected = sum(
            scipy.stats.norm(loc=0.2, scale=math.sqrt(1.5)).logpdf(v) for v in x
        )
        assert_allclose(cs_loglik(cs_stats(x, 0.0), 0.2, 1.5), expected, atol=1e-12, rtol=0)

    def test_quad_form_is_elementwise(self):
        # The sampler evaluates the form over arrays of statistics and means.
        rng = np.random.default_rng(3)
        xs = [rng.normal(size=n) for n in (2, 5, 9)]
        columns = tuple(np.array([cs_stats(x, 0.2)[j] for x in xs])[:, None] for j in range(5))
        means = rng.normal(size=(3, 4))
        got = cs_quad_form(columns, means)
        for i, x in enumerate(xs):
            for j in range(4):
                r = x - means[i, j]
                expected = r @ np.linalg.solve(cs_dense(len(x), 1.0, 0.2), r)
                assert_allclose(got[i, j], expected, rtol=1e-10)


class TestSampling:
    def test_deterministic_given_seed(self):
        dist = StudentT(location=1.0, scale=0.5, dof=6.0)
        a = t_sample(dist, rng_fork(3, 0), size=10)
        b = t_sample(dist, rng_fork(3, 0), size=10)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_moments(self):
        dist = StudentT(location=2.0, scale=0.5, dof=30.0)
        draws = t_sample(dist, rng_fork(5, 0), size=200_000)
        assert abs(draws.mean() - 2.0) < 0.01
        expected_var = 0.25 * 30.0 / 28.0
        assert abs(draws.var() - expected_var) < 0.01

    def test_point_mass_sampling(self):
        dist = StudentT(location=-3.0, scale=0.0, dof=2.0)
        draws = t_sample(dist, rng_fork(0, 0), size=7)
        assert_allclose(draws, -3.0, rtol=0, atol=0)


class TestRngFork:
    def test_streams_are_independent(self):
        a = rng_fork(9, 0).normal(size=5)
        b = rng_fork(9, 1).normal(size=5)
        assert not np.allclose(a, b)

    def test_same_stream_reproduces(self):
        assert_allclose(rng_fork(2, 4).normal(size=8), rng_fork(2, 4).normal(size=8))

    def test_validation(self):
        with pytest.raises(ValueError):
            rng_fork(-1, 0)
        with pytest.raises(ValueError):
            rng_fork(0, -2)
