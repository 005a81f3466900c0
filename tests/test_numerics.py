"""Special functions against independent oracles.

Oracles here never reuse the implementation path: the normal CDF is
checked against a Taylor series and a Mills-ratio tail expansion, the
incomplete beta against Gauss-Legendre quadrature and mpmath, and the
normalizing constants against direct quadrature of their defining
integrals.
"""

import math
import re

import mpmath
import numpy as np
import pytest

from spherefacets import (
    check_bounds_suite,
    gauss_beta_norm,
    log_inner_cdf,
    log_norm_cdf,
    log_reg_inc_beta,
    norm_cdf,
    random_bounds_grid,
    scaled_beta_cdf,
)
from spherefacets.numerics import (
    _log_cap_constant,
    _log_gamma_half_ratio,
    _log_half_tail,
    log_c_alpha,
)


def gauss_legendre_theta(alpha: float, lo: float = -1.0, hi: float = 1.0, m: int = 400):
    """Oracle: integral((1-t^2)^alpha, t=lo..hi) via t = sin(theta).

    The substitution makes the integrand cos(theta)^(2 alpha + 1), smooth
    even for alpha = -1/2, so plain Gauss-Legendre converges.
    """
    nodes, weights = np.polynomial.legendre.leggauss(m)
    a, b = math.asin(lo), math.asin(hi)
    theta = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    vals = np.cos(theta) ** (2.0 * alpha + 1.0)
    return 0.5 * (b - a) * float(np.dot(weights, vals))


def phi_series(x: float) -> float:
    """Oracle: Phi(x) = 1/2 + phi(x) * sum x^(2k+1) / (1 * 3 * ... * (2k+1))."""
    term = x
    total = x
    k = 0
    while abs(term) > 1e-18 * abs(total):
        k += 1
        term *= x * x / (2 * k + 1)
        total += term
    return 0.5 + math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * total


class TestNormCdf:
    def test_symmetry_point(self):
        assert norm_cdf(0.0) == 0.5

    def test_against_series_oracle(self):
        for x in np.linspace(-6.0, 6.0, 25):
            assert norm_cdf(float(x)) == pytest.approx(phi_series(float(x)), rel=1e-12)

    def test_97_5_percentile(self):
        assert norm_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_log_cdf_against_mills_tail(self):
        # phi(h)/|h| * (1 - 1/h^2 + 3/h^4 - 15/h^6 + 105/h^8)
        h = -10.0
        mills = (
            -0.5 * h * h
            - 0.5 * math.log(2 * math.pi)
            - math.log(-h)
            + math.log(1 - 1e-2 + 3e-4 - 15e-6 + 105e-8)
        )
        assert log_norm_cdf(h) == pytest.approx(mills, abs=1e-6)
        assert log_norm_cdf(h) == pytest.approx(-53.23, abs=0.01)

    def test_log_matches_linear_in_overlap(self):
        for h in np.linspace(-8.0, 8.0, 161):
            assert abs(log_norm_cdf(float(h)) - math.log(norm_cdf(float(h)))) < 1e-10

    def test_deep_tail_branches_agree_with_mpmath(self):
        mpmath.mp.dps = 60
        for h in (-35.9, -36.1, -80.0):
            want = float(mpmath.log(mpmath.ncdf(h)))
            assert log_norm_cdf(h) == pytest.approx(want, rel=1e-11)

    def test_right_tail_against_mpmath(self):
        # ln Phi(h) ~ -Q(h) keeps its digits while Phi itself rounds to 1;
        # the oracle carries Q(37) ~ 6e-300 in 1 - Q
        with mpmath.workdps(350):
            for h in (0.5, 5.0, 8.0, 8.3, 12.0, 20.0, 37.0):
                want = float(mpmath.log(mpmath.ncdf(h)))
                assert log_norm_cdf(h) == pytest.approx(want, rel=1e-12, abs=0.0), h

    def test_no_underflow_down_to_minus_300(self):
        val = log_norm_cdf(-300.0)
        assert math.isfinite(val)
        assert val == pytest.approx(-0.5 * 300**2 - math.log(300 * math.sqrt(2 * math.pi)),
                                    rel=1e-6)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            norm_cdf(math.nan)


class TestRegIncBeta:
    def test_boundaries(self):
        assert math.exp(log_reg_inc_beta(0.0, 2.5, 3.5)) == 0.0
        assert math.exp(log_reg_inc_beta(1.0, 2.5, 3.5)) == 1.0

    def test_symmetric_midpoint(self):
        for a in (0.5, 1.0, 7.5, 199.5):
            assert math.exp(log_reg_inc_beta(0.5, a, a)) == 0.5

    def test_uniform_case(self):
        for x in np.linspace(0.05, 0.95, 10):
            got = math.exp(log_reg_inc_beta(float(x), 1.0, 1.0))
            assert got == pytest.approx(float(x), rel=1e-13)

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = rng.uniform(0.2, 50.0, 2)
            x = rng.uniform(0.0, 1.0)
            total = math.exp(log_reg_inc_beta(x, a, b)) + math.exp(
                log_reg_inc_beta(1.0 - x, b, a)
            )
            assert abs(total - 1.0) <= 1e-14

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(4)
        nodes, weights = np.polynomial.legendre.leggauss(800)
        for _ in range(40):
            # a, b >= 1 keeps the oracle integrand free of endpoint spikes
            a, b = rng.uniform(1.0, 20.0, 2)
            x = rng.uniform(0.05, 0.95)
            t = 0.5 * x * (nodes + 1.0)
            integrand = t ** (a - 1) * (1.0 - t) ** (b - 1)
            raw = 0.5 * x * float(np.dot(weights, integrand))
            want = raw * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
            assert math.exp(log_reg_inc_beta(float(x), float(a), float(b))) == pytest.approx(
                want, rel=1e-9
            )

    def test_log_tail_against_mpmath(self):
        mpmath.mp.dps = 60
        for a, x in [(199.5, 1e-8), (199.5, 1e-4), (10.0, 1e-30), (0.5, 1e-12)]:
            want = float(mpmath.log(mpmath.betainc(a, a, 0, x, regularized=True)))
            assert log_reg_inc_beta(x, a, a) == pytest.approx(want, rel=1e-11)

    def test_half_tail_from_log_s(self):
        a = 7.5
        for log_s in (-2.5, -50.0, -124.5, -125.5, -2500.0):
            got = _log_half_tail(a, log_s, 0.5 * math.log1p(-math.exp(2.0 * log_s)))
            if log_s >= -350:
                ref = log_reg_inc_beta(math.exp(2.0 * log_s), a, 0.5) - math.log(2.0)
                assert got == pytest.approx(ref, rel=1e-10)
            else:
                # pure power-law regime: slope in ln s equals 2a
                got2 = _log_half_tail(a, log_s - 1.0, 0.0)
                assert got - got2 == pytest.approx(2.0 * a, rel=1e-12)

    @pytest.mark.parametrize("a, u", [(1.5, 0.3), (33.5, 2.2e-5), (199.5, 0.1), (3.5, 1.5)])
    def test_half_tail_is_the_symmetric_tail(self, a, u):
        """ln I_{sin^2(u/2)}(a, a) = ln(I_{sin^2 u}(a, 1/2) / 2) for u <= pi/2."""
        with mpmath.workdps(40):
            want = float(mpmath.log(
                mpmath.betainc(a, a, 0, mpmath.sin(mpmath.mpf(u) / 2) ** 2, regularized=True)
            ))
        got = _log_half_tail(a, math.log(math.sin(u)), math.log(math.cos(u)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_complement_accurate_near_one(self):
        # 1 - I_x at x = 1 - 1e-12 would cancel to noise in linear arithmetic
        a = 5.0
        comp = math.exp(log_reg_inc_beta(1.0 - (1.0 - 1e-12), a, a))
        mpmath.mp.dps = 50
        want = float(mpmath.betainc(a, a, 1.0 - 1e-12, 1, regularized=True))
        assert comp == pytest.approx(want, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_reg_inc_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_reg_inc_beta(0.5, -1.0, 1.0)


class TestCAlpha:
    def test_uniform_density(self):
        assert math.exp(log_c_alpha(0.0)) == pytest.approx(0.5, rel=1e-14)

    def test_arcsine_density(self):
        assert math.exp(log_c_alpha(-0.5)) == pytest.approx(1.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 3.5, 48.5])
    def test_defining_identity(self, alpha):
        """c_alpha * integral((1-t^2)^alpha, -1, 1) = 1."""
        total = gauss_legendre_theta(alpha)
        assert math.exp(log_c_alpha(alpha)) * total == pytest.approx(1.0, abs=1e-9)

    def test_gautschi_two_sided_bound(self):
        # sqrt((d-2)/(2 pi)) <= c_((d-3)/2) <= sqrt(d/(2 pi))
        for d in (10, 100, 10_000, 10**6):
            c = math.exp(log_c_alpha(0.5 * (d - 3)))
            assert math.sqrt((d - 2) / (2 * math.pi)) <= c <= math.sqrt(d / (2 * math.pi))

    @pytest.mark.parametrize("d", [400, 1000, 10**4, 10**5, 10**6, 10**7])
    def test_outer_constant_against_mpmath(self, d):
        """c_alpha at the exponent alpha = (d^2 - 2d - 1)/2 of the facet
        integral, where two lgamma values cancel to a small difference."""
        alpha = 0.5 * (d * d - 2 * d - 1)
        with mpmath.workdps(40):
            x = mpmath.mpf(alpha)
            want = float(mpmath.loggamma(x + 1.5) - mpmath.loggamma(x + 1) - mpmath.log(mpmath.pi) / 2)
        assert log_c_alpha(alpha) == pytest.approx(want, abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_c_alpha(-1.0)


@pytest.mark.parametrize(
    "x", [0.5, 1.0, 3.7, 9.999, 10.0, 10.001, 20.0, 123.4, 1e4, 4999999.5, 1e9, 5e13]
)
def test_gamma_half_ratio_against_mpmath(x):
    with mpmath.workdps(40):
        want = float(mpmath.loggamma(mpmath.mpf(x) + 0.5) - mpmath.loggamma(x))
    assert _log_gamma_half_ratio(x) == pytest.approx(want, abs=5e-14)


@pytest.mark.parametrize("d", [2, 3, 7, 400, 10**6])
def test_cap_constant_against_mpmath(d):
    # 2 sqrt(pi) Gamma((d+1)/2) / Gamma(d/2): pi at d = 2, 4 at d = 3
    with mpmath.workdps(40):
        want = float(mpmath.log(2 * mpmath.sqrt(mpmath.pi))
                     + mpmath.loggamma(mpmath.mpf(d + 1) / 2) - mpmath.loggamma(mpmath.mpf(d) / 2))
    assert _log_cap_constant(d) == pytest.approx(want, rel=1e-14, abs=1e-14)


class TestInnerCdf:
    def test_boundaries_and_center(self):
        for d in (2, 3, 7, 400):
            assert math.exp(log_inner_cdf(-1.0, d)) == 0.0
            assert math.exp(log_inner_cdf(1.0, d)) == 1.0
            assert math.exp(log_inner_cdf(0.0, d)) == 0.5

    def test_d2_arcsine_closed_form(self):
        for h in np.linspace(-0.95, 0.95, 21):
            want = (math.asin(float(h)) + math.pi / 2) / math.pi
            assert math.exp(log_inner_cdf(float(h), 2)) == pytest.approx(want, rel=1e-12)
        assert math.exp(log_inner_cdf(0.5, 2)) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_d5_polynomial_closed_form(self):
        for h in np.linspace(-1.0, 1.0, 21):
            want = (2.0 + 3.0 * h - h**3) / 4.0
            got = math.exp(log_inner_cdf(float(h), 5))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert math.exp(log_inner_cdf(0.5, 5)) == pytest.approx(0.84375, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 60))
            h = float(rng.uniform(-1.0, 1.0))
            total = math.exp(log_inner_cdf(h, d)) + math.exp(log_inner_cdf(-h, d))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_log_complement_deep_tail(self):
        # 1 - G(h) far below linear float range
        mpmath.mp.dps = 60
        for d, h in [(200, 0.999), (500, 0.9), (1001, 0.99)]:
            a = 0.5 * (d - 1)
            want = float(mpmath.log(
                mpmath.betainc(a, a, 0, (1 - h) / 2, regularized=True)
            ))
            assert log_inner_cdf(-h, d) == pytest.approx(want, rel=1e-11)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_inner_cdf(1.5, 3)
        with pytest.raises(ValueError):
            log_inner_cdf(0.0, 1)


class TestScaledBetaCdf:
    def test_center_and_edges(self):
        assert scaled_beta_cdf(0.0, 10.0) == 0.5
        assert scaled_beta_cdf(math.sqrt(10.0), 10.0) == pytest.approx(1.0, abs=1e-12)
        assert scaled_beta_cdf(-math.sqrt(10.0), 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_against_quadrature_oracle(self):
        nodes, weights = np.polynomial.legendre.leggauss(600)
        for alpha, h in [(4.0, 1.0), (10.0, -0.7), (100.0, 2.3)]:
            root = math.sqrt(alpha)
            t = 0.5 * (h + root) * (nodes + 1.0) - root
            vals = (1.0 - t * t / alpha) ** (alpha / 2.0)
            raw = 0.5 * (h + root) * float(np.dot(weights, vals))
            want = gauss_beta_norm(alpha) / math.sqrt(2 * math.pi) * raw
            assert scaled_beta_cdf(h, alpha) == pytest.approx(want, rel=1e-9)

    def test_normalizer_tends_to_one(self):
        assert gauss_beta_norm(1e6) == pytest.approx(1.0, abs=1e-5)
        assert gauss_beta_norm(10.0) > 1.0


class TestBoundsSuite:
    def test_exp_sandwich_spot_value(self):
        """(0.9)^10 must sit between exp(-1.1) and exp(-1)."""
        assert math.exp(-1.1) <= 0.9**10 <= math.exp(-1.0)
        report = check_bounds_suite(exp_points=[(1.0, 10.0)])
        assert report.ok() and report.checked == 1

    def test_tail_ratio_spot_value_vs_quadrature(self):
        h, d = 0.9, 50
        big_d = 0.5 * (d - 3)
        tail = gauss_legendre_theta(big_d, lo=h, hi=1.0)
        ref = (1 - h * h) ** (big_d + 1) / (2 * h * (big_d + 1))
        lower = 1 - (1 - h * h) / (2 * h * h * (big_d + 2))
        assert lower <= tail / ref <= 1.0
        report = check_bounds_suite(tail_points=[(h, big_d)])
        assert report.ok()

    def test_gauss_comparison_center(self):
        report = check_bounds_suite(gauss_points=[(0.0, 10.0)])
        assert report.ok()

    def test_randomized_grids_clean(self):
        grids = random_bounds_grid(2000, seed=11)
        report = check_bounds_suite(rel_slack=1e-12, **grids)
        assert report.checked == 6000
        assert report.violations == []

    def test_hypothesis_violations_reported_not_fatal(self):
        report = check_bounds_suite(
            exp_points=[(9.0, 10.0)],  # x/n > 1/2
            tail_points=[(0.5, -2.0)],  # D <= -1
            gauss_points=[(5.0, 4.0)],  # |h| > sqrt(alpha)
        )
        assert report.checked == 0
        assert len(report.hypothesis_errors) == 3
        assert report.ok()

    def test_detects_a_real_violation(self):
        # slack of -1 makes every checked point fail: the plumbing reports
        report = check_bounds_suite(exp_points=[(1.0, 10.0)], rel_slack=-0.5)
        assert not report.ok()

    def test_every_suite_reports_its_own_violations(self):
        # at rel_slack = -0.5 both sides of every inequality fail; each
        # suite reports under its own name and details, in side order, and
        # a point given as a list comes back as a tuple
        report = check_bounds_suite(
            exp_points=[[1.0, 10.0]],
            tail_points=[[0.5, 3.0]],
            gauss_points=[(0.5, 10.0), [-0.5, 10.0]],
            rel_slack=-0.5,
        )
        assert report.checked == 4 and report.hypothesis_errors == []
        assert [(v.suite, v.point, v.detail) for v in report.violations] == [
            ("exp_sandwich", (1.0, 10.0), "above exp(-x)"),
            ("exp_sandwich", (1.0, 10.0), "below exp(-x - x^2/n)"),
            ("tail_ratio", (0.5, 3.0), "ratio above 1"),
            ("tail_ratio", (0.5, 3.0), "ratio below lower bound"),
            ("gauss_comparison", (0.5, 10.0), "Phi above Phi_alpha"),
            ("gauss_comparison", (0.5, 10.0), "Phi_alpha above a_alpha * Phi"),
            ("gauss_comparison", (-0.5, 10.0), "Phi_alpha above Phi"),
            ("gauss_comparison", (-0.5, 10.0), "Phi_alpha below mirrored bound"),
        ]
        assert all(type(v.point) is tuple for v in report.violations)

    def test_rejects_bad_slack_and_points(self):
        with pytest.raises(ValueError, match="rel_slack"):
            check_bounds_suite(gauss_points=[(0.0, 10.0)], rel_slack=-1.0)
        with pytest.raises(ValueError):
            check_bounds_suite(tail_points=[(0.5, 3.0, 1.0)])


@pytest.mark.parametrize("call, message", [
    (lambda: log_norm_cdf(math.nan), "log_norm_cdf requires a finite argument, got h=nan"),
    (lambda: gauss_beta_norm(0.0), "alpha must be positive, got 0.0"),
    (lambda: scaled_beta_cdf(0.5, -1.0), "alpha must be positive, got -1.0"),
    (lambda: scaled_beta_cdf(2.0, 1.0), "|h| must not exceed sqrt(alpha), got h=2.0, alpha=1.0"),
], ids=["nan height", "normalizer alpha", "cdf alpha", "height past sqrt(alpha)"])
def test_input_checks_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
