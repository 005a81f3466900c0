"""The quadrature-exact module against closed forms and simulation.

The strongest oracles are fully analytic windowed counts:

  d = 2: F[-1, h] = n * ((arcsin(h) + pi/2) / pi)^(n-1)   (circle arcs)
  d = 3: F[-1, h] = 2 n (n-1)(n-2) * (x^(n-1)/(n-1) - x^n/n), x = (1+h)/2

both derived by elementary antidifferentiation; at h = 1 they reduce to
the classic totals n and 2n - 4.
"""

import dataclasses
import math
import re
import sys

import mpmath
import numpy as np
import pytest

from spherefacets import (
    FULL_RANGE,
    HeightInterval,
    PolytopeParams,
    QuadratureError,
    TypicalHeightLaw,
    cdf_table,
    expected_facets,
    gamma_statistic_cdf,
    height_integral,
    typical_height_cdf,
    typical_height_quantile,
)
from spherefacets import LogReal, exact, origin_outside_prob, quadrature
from spherefacets.exact import log_binomial
from spherefacets.numerics import ConvergenceError
from spherefacets.solvers import newton_bracketed


def facets_below_d2(n: int, h: float) -> float:
    return n * ((math.asin(h) + math.pi / 2) / math.pi) ** (n - 1)


def facets_below_d3(n: int, h: float) -> float:
    x = 0.5 * (1.0 + h)
    return 2.0 * n * (n - 1) * (n - 2) * (x ** (n - 1) / (n - 1) - x**n / n)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolytopeParams(5, 5)
        with pytest.raises(ValueError):
            PolytopeParams(10, 1)
        with pytest.raises(ValueError):
            PolytopeParams(10.5, 3)
        with pytest.raises(ValueError):
            PolytopeParams.from_log(math.log(3.0), 3)

    @pytest.mark.parametrize("size", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_sizes(self, size):
        with pytest.raises(ValueError, match=re.escape(
                f"n must be a real number in (-inf, inf), got n={size}")):
            PolytopeParams(size, 3)
        with pytest.raises(ValueError, match=re.escape(
                f"ln_n must be a real number in (-inf, inf), got ln_n={size}")):
            PolytopeParams.from_log(size, 3)

    def test_sizes_are_reals_kept_as_floats(self):
        p = PolytopeParams(np.int64(20), 3)
        assert p == PolytopeParams(20.0, 3) and type(p.n) is float
        q = PolytopeParams.from_log(np.float32(50.0), 3)
        assert q.ln_n == 50.0 and type(q.ln_n) is float

    def test_rejects_n_beyond_float_range(self):
        with pytest.raises(ValueError, match="n is too large for a float; give ln_n instead"):
            PolytopeParams(10**400, 3)
        assert PolytopeParams.from_log(math.log(10**400), 3).ln_n == pytest.approx(921.034037)

    def test_rejects_ln_n_whose_derived_terms_overflow(self):
        # d ln n (log_binomial) overflows first; -2 ln n - 100 (t_floor) stays finite
        for ln_n in (8e307, 1e308):
            with pytest.raises(ValueError, match=re.escape(f"ln_n={ln_n} is too large for d=3")):
                PolytopeParams.from_log(ln_n, 3)
        edge = sys.float_info.max / 2
        assert PolytopeParams.from_log(edge, 2).ln_n == edge
        with pytest.raises(ValueError, match=re.escape("d * ln_n overflows")):
            PolytopeParams.from_log(math.nextafter(edge, math.inf), 2)
        for ln_n in (1e300, 4e307):
            ln_f = expected_facets(PolytopeParams.from_log(ln_n, 3)).ln()
            assert ln_f / ln_n == pytest.approx(1.0, rel=1e-12)

    def test_rejects_d_whose_exponent_leaves_float_range(self):
        # d * d - 2 * d converts to a float up to d ~ 1.34e154
        assert PolytopeParams.from_log(1e140, 10**154).d == 10**154
        for d in (10**154 + 1, 10**155):
            with pytest.raises(ValueError, match=re.escape(f"got d={d}")):
                PolytopeParams.from_log(1e140, d)
        with pytest.raises(ValueError, match=re.escape(f"got d={10**155}")):
            PolytopeParams(10**156, 10**155)

    def test_zero_full_range_count_raises_naming_its_inputs(self):
        # a full-range count is at least d + 1, so a zero integral is a failure
        params = PolytopeParams.from_log(2.2471164185778946e307, 4)
        with pytest.raises(QuadratureError, match=re.escape("ln n = 2.2471164185778946e+307, d = 4")):
            expected_facets(params)

    @pytest.mark.parametrize("d, got", [
        (10**15, "came back zero"),
        (10**20, "gives ln F = 0.0,"),
        (10**30, "gives ln F = 0.0,"),
        (10**100, "gives ln F = -3.28"),
    ])
    def test_full_range_count_below_d_plus_one_raises(self, d, got):
        # every polytope has at least d + 1 facets; ln F = 0.0 is one facet
        with pytest.raises(QuadratureError, match=re.escape(f"ln n = 1e+140, d = {d} {got}")):
            expected_facets(PolytopeParams.from_log(1e140, d))

    @pytest.mark.parametrize("ln_n, d, got", [
        (1e140, 10**20, "gives ln F = 0.0,"),
        (2.2471164185778946e307, 4, "came back zero"),
    ])
    def test_law_over_a_full_range_below_d_plus_one_raises(self, ln_n, d, got):
        # the law owns the full-range count, so it refuses what the count refuses
        with pytest.raises(QuadratureError, match=re.escape(f"ln n = {ln_n!r}, d = {d} {got}")):
            TypicalHeightLaw(PolytopeParams.from_log(ln_n, d))

    @pytest.mark.parametrize("d, a", [(10**17, "5e+16"), (10**19, "5e+18")])
    def test_lost_continued_fraction_raises_naming_its_parameters(self, d, a):
        # at ln n = 45 the incomplete beta continued fraction comes back
        # negative: the error names its parameters, not a math domain error
        with pytest.raises(ConvergenceError, match=rf"not positive .* at a={re.escape(a)}, b=0\.5"):
            expected_facets(PolytopeParams.from_log(45.0, d))

    @pytest.mark.parametrize("build", [expected_facets, TypicalHeightLaw.for_params],
                             ids=["count", "law"])
    def test_lost_continued_fraction_names_the_integral(self, build):
        with pytest.raises(ConvergenceError, match=re.escape(
            f"height integral at ln n = 45.0, d = {10**19} over the gaps [0.0, {math.pi!r}]: "
            f"incomplete beta continued fraction is not positive"
        )):
            build(PolytopeParams.from_log(45.0, 10**19))

    def test_log_only_count(self):
        p = PolytopeParams.from_log(2000.0, 50)
        assert p.n is None
        assert p.log_n_minus_d == pytest.approx(2000.0)

    def test_log_n_minus_d_exact_branch(self):
        p = PolytopeParams(1000, 3)
        assert p.log_n_minus_d == pytest.approx(math.log(997.0), rel=1e-15)

    def test_log_binomial(self):
        p = PolytopeParams(52, 5)
        assert log_binomial(p) == pytest.approx(math.log(math.comb(52, 5)), rel=1e-13)
        big = PolytopeParams.from_log(500.0, 10)
        assert log_binomial(big) == pytest.approx(
            10 * 500.0 - math.lgamma(11), rel=1e-12
        )

    @pytest.mark.parametrize("n, d", [(10**7, 10**6), (200002, 100001), (300000, 150000)])
    def test_log_binomial_of_many_factors_against_mpmath(self, n, d):
        # k = min(d, n - d) above 1e5 factors: the error in ln C is the
        # relative error of C, held to 2e-10, within the 1e-9 count contract
        with mpmath.workdps(50):
            want = mpmath.log(mpmath.binomial(n, d))
            assert abs(log_binomial(PolytopeParams(n, d)) - want) <= 2e-10

    @pytest.mark.parametrize("params", [
        PolytopeParams(2 * 10**7, 10**7),
        PolytopeParams(10**16, 10**8),
        PolytopeParams(10**30, 10**7),
        PolytopeParams(2 * 10**12, 10**12),
        PolytopeParams(10**6 + 32, 10**6),
        PolytopeParams.from_log(50.0, 10**10),
        PolytopeParams.from_log(45.0, 10**17),
    ], ids=["2e7,1e7", "1e16,1e8", "1e30,1e7", "2e12,1e12", "1e6+32,1e6", "ln 50,1e10", "ln 45,1e17"])
    def test_log_binomial_of_many_factors_within_4_ulps(self, params):
        # the closed form at k = min(d, n - d) up to 1e12, against 60-digit
        # mpmath at the float n (1e30 rounds), or at exp(ln n) with ln n alone
        with mpmath.workdps(60):
            n = mpmath.mpf(params.n) if params.n is not None else mpmath.exp(params.ln_n)
            d = params.d
            want = mpmath.loggamma(n + 1) - mpmath.loggamma(d + 1) - mpmath.loggamma(n - d + 1)
            assert abs(log_binomial(params) - want) <= 4 * math.ulp(float(want))

    @pytest.mark.parametrize("n, d", [(20, 3), (14, 5), (12, 4), (405, 400), (10**6, 3)])
    def test_log_binomial_of_few_factors_within_1e_13(self, n, d):
        # below k = 16 the Stirling remainders come from lgamma
        with mpmath.workdps(50):
            want = mpmath.log(mpmath.binomial(n, d))
            assert abs(log_binomial(PolytopeParams(n, d)) - want) <= 1e-13

    def test_rejects_ln_n_with_n_below_d_plus_one(self):
        # one ulp of ln n moves n by 0.036 at d = 1e13, so ln n resolves
        # n - d: this ln n puts n about 8 below d, and ln(d + 1) is the edge
        with pytest.raises(ValueError, match=re.escape(
                "ln_n=29.933606208921795 implies n - d < 1 for d=10000000000000")):
            PolytopeParams.from_log(29.933606208921795, 10**13)
        assert PolytopeParams.from_log(math.log(10**13 + 1), 10**13).log_n_minus_d > -0.036

    def test_dimension_is_any_integer_by_index(self):
        p = PolytopeParams(10, np.int64(3))
        assert p.d == 3 and type(p.d) is int
        assert p == PolytopeParams(10, 3)
        for d in (True, False, 3.0, "3", np.float64(3.0)):
            with pytest.raises(ValueError, match=re.escape(f"got d={d}")):
                PolytopeParams(10, d)


class TestWindows:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeightInterval(0.5, 0.2)
        with pytest.raises(ValueError):
            HeightInterval(-1.5, 0.0)

    def test_empty_window_integrates_to_zero(self):
        p = PolytopeParams(20, 5)
        w = HeightInterval(0.3, 0.3)
        assert w.is_empty()
        assert height_integral(p, w).is_zero()
        assert expected_facets(p, w).is_zero()

    def test_stores_heights_and_gaps_only(self):
        names = [f.name for f in dataclasses.fields(HeightInterval)]
        assert names == ["h1", "h2", "gap1", "gap2"]

    def test_gaps_from_heights_are_arccos(self):
        """A window built from heights takes its gaps as acos(h), exact near
        h = 1, so it counts what the window built from that gap counts."""
        p = PolytopeParams(10**6, 3)
        h = 1.0 - 1e-9
        w = HeightInterval(h, 1.0)
        assert (w.gap1, w.gap2) == (math.acos(h), 0.0)
        tail = HeightInterval.upper_tail(math.acos(h))
        assert expected_facets(p, w).ln() == expected_facets(p, tail).ln()

    def test_from_theta(self):
        half_pi = 0.5 * math.pi
        w = HeightInterval.from_theta(-0.3, 1.2)
        assert (w.h1, w.h2) == (math.sin(-0.3), math.sin(1.2))
        assert (w.gap1, w.gap2) == (half_pi + 0.3, half_pi - 1.2)
        # the angles are accepted by keyword too, and stand for the gaps
        assert HeightInterval(h1=w.h1, h2=w.h2, theta1=-0.3, theta2=1.2) == w
        with pytest.raises(ValueError, match="theta1 <= theta2"):
            HeightInterval.from_theta(0.4, 0.2)
        angles = f"[{-0.5 * math.pi!r}, {0.5 * math.pi!r}]"
        for theta1, theta2, name, value in ((-1.6, 0.0, "theta1", -1.6), (0.0, 1.6, "theta2", 1.6)):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be a real number in {angles}, got {name}={value}")):
                HeightInterval.from_theta(theta1, theta2)

    def test_heights_and_gaps_are_kept_as_floats(self):
        w = HeightInterval(np.float32(0.5), True)
        assert (w.h1, w.h2, w.gap2) == (0.5, 1.0, 0.0)
        assert all(type(v) is float for v in (w.h1, w.h2, w.gap1, w.gap2))

    def test_given_gaps_and_angles_within_tolerance_are_accepted(self):
        """from_theta's pi/2 - theta is the loosest legitimate route: at
        theta = -0.5922360809382126 |cos(gap) - sin(theta)| is 3 * 2**-53."""
        theta = -0.5922360809382126
        assert abs(math.cos(0.5 * math.pi - theta) - math.sin(theta)) == 3 * 2.0**-53
        HeightInterval.from_theta(theta, 0.0)
        for theta in np.linspace(-0.5 * math.pi, 0.5 * math.pi, 2001):
            HeightInterval.from_theta(theta, 0.5 * math.pi)

    @pytest.mark.parametrize("kwargs, gap, h", [
        ({"gap1": 0.1, "gap2": 0.05}, 0.1, 0.0),
        ({"gap2": 1.0}, 1.0, 0.5),
        ({"theta1": 0.2}, 0.5 * math.pi - 0.2, 0.0),
        ({"gap1": math.acos(0.0) + 1e-15}, math.acos(0.0) + 1e-15, 0.0),
    ], ids=["both gaps", "upper gap", "angle", "1e-15 off"])
    def test_gap_disagreeing_with_its_height_raises_naming_both(self, kwargs, gap, h):
        with pytest.raises(ValueError, match=re.escape(
            f"gap {gap!r} is not arccos of its height {h!r} within {exact._GAP_TOL}"
        )):
            HeightInterval(0.0, 0.5, **kwargs)

    def test_upper_tail_carries_gap_exactly(self):
        w = HeightInterval.upper_tail(1e-12)
        assert w.gap1 == 1e-12 and w.gap2 == 0.0
        assert w.h2 == 1.0

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (math.nextafter(0.1911798801251769, 0.0), 0.1911798801251769),
            (1e-30, 1e-30 * (1.0 + 1e-12)),
            (1e-100, 1e-100 * (1.0 + 3e-14)),
            (1e-200, 1e-200 * (1.0 + 1e-13)),
            (1e-290, 1e-290 * (1.0 + 4e-14)),
        ],
        ids=["one_ulp", "1e-30", "1e-100", "1e-200", "1e-290"],
    )
    def test_one_ulp_window_below_log_slice_limit(self, lo, hi):
        """Gap windows [lo, hi] one ulp to 1e-12 relative wide, which ln(gap)
        resolves coarsely or not at all; on the circle the integrand in the
        gap is ((pi - u)/pi)^(n-2), and hi - lo is exact (Sterbenz)."""
        half_pi = 0.5 * math.pi
        w = HeightInterval(math.cos(hi), math.cos(lo), half_pi - hi, half_pi - lo, hi, lo)
        n = 25
        want_ln = math.log(hi - lo) + (n - 2) * math.log((math.pi - hi) / math.pi)
        got = height_integral(PolytopeParams(n, 2), w)
        assert got.ln() == pytest.approx(want_ln, abs=1e-12)

    def test_narrow_window_at_huge_n_stays_below_full_count(self):
        """ln n = 3000, d = 4 on gaps [1e-200, 1e-200 (1 + 1e-15)]: G's
        (n - d) term must survive the underflow of sin^2(u/2) there, so the
        count is zero or at most the full count."""
        p = PolytopeParams.from_log(3000.0, 4)
        lo = 1e-200
        hi = lo * (1.0 + 1e-15)
        half_pi = 0.5 * math.pi
        w = HeightInterval(math.cos(hi), math.cos(lo), half_pi - hi, half_pi - lo, hi, lo)
        f = expected_facets(p, w)
        assert f.is_zero() or f.ln() <= expected_facets(p).ln()


class TestFacetCountOracles:
    def test_circle_total(self):
        """F(n, 2) = n: every arc between angular neighbors is an edge."""
        for n in (3, 7, 20, 50):
            f = expected_facets(PolytopeParams(n, 2)).to_float()
            assert f == pytest.approx(n, rel=1e-9)

    def test_simplex_total(self):
        """n = d + 1 points a.s. span a simplex with d + 1 facets."""
        for d in (2, 5, 9, 15, 1000, 10**4, 10**5, 10**6):
            f = expected_facets(PolytopeParams(d + 1, d)).to_float()
            assert f == pytest.approx(d + 1, rel=1e-9)

    def test_euler_total(self):
        """F(n, 3) = 2n - 4: simplicial 3-polytope with all points extreme."""
        for n in (5, 12, 27, 40):
            f = expected_facets(PolytopeParams(n, 3)).to_float()
            assert f == pytest.approx(2 * n - 4, rel=1e-9)

    @pytest.mark.parametrize("n, rel", [
        *((n, 1e-12) for n in (3, 4, 5, 10, 30, 100, 300, 1000)),
        (10**4, 1e-11),
    ])
    def test_wendel_identity_d2(self, n, rel):
        # at d = 2 at most one edge separates the origin, so the expected
        # number of edges below height 0 is P(origin outside) = n 2^(1-n)
        got = expected_facets(PolytopeParams(n, 2), HeightInterval(-1.0, 0.0)).ln()
        want = math.log(n) + (1 - n) * math.log(2.0)
        assert got == pytest.approx(want, rel=rel)
        if n <= 1000:  # origin_outside_prob underflows to 0 beyond
            assert got == pytest.approx(math.log(origin_outside_prob(n, 2)), rel=rel)

    @pytest.mark.parametrize("n, d", [
        (4, 3), (10, 3), (30, 3), (100, 3), (1000, 3), (40, 4), (50, 5),
        (20, 10), (60, 50), (200, 100), (1000, 500), (2000, 1000),
    ])
    def test_wendel_bound(self, n, d):
        # the origin is outside exactly when some facet lies below height 0,
        # so P(origin outside) (Wendel, in exact integers) is at most the
        # expected number of facets below 0
        got = expected_facets(PolytopeParams(n, d), HeightInterval(-1.0, 0.0)).ln()
        want = math.log(sum(math.comb(n - 1, k) for k in range(d))) - (n - 1) * math.log(2)
        assert got >= want

    def test_windowed_counts_d2(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(3, 60))
            h = float(rng.uniform(-0.99, 0.99))
            got = expected_facets(PolytopeParams(n, 2), HeightInterval(-1.0, h))
            assert got.to_float() == pytest.approx(facets_below_d2(n, h), rel=1e-8)

    def test_windowed_counts_d3(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            h = float(rng.uniform(-0.99, 0.99))
            got = expected_facets(PolytopeParams(n, 3), HeightInterval(-1.0, h))
            assert got.to_float() == pytest.approx(facets_below_d3(n, h), rel=1e-8)

    @pytest.mark.parametrize(
        "n, d, h1, h2",
        [(25, 6, -0.2, 0.4), (40, 4, 0.1, 0.9), (12, 9, -0.5, 0.2)],
    )
    def test_windowed_counts_high_d_against_mpmath(self, n, d, h1, h2):
        """High-precision quadrature oracle for dimensions without a
        closed form: binom(n,d) * 2 * c_out * integral of the density."""
        mpmath.mp.dps = 40
        a = mpmath.mpf(d - 1) / 2

        def integrand(h):
            inner = mpmath.betainc(a, a, 0, (1 + h) / 2, regularized=True)
            return (1 - h * h) ** (mpmath.mpf(d * d - 2 * d - 1) / 2) * inner ** (n - d)

        integral = mpmath.quad(integrand, [h1, 0.0, h2])
        c_out = mpmath.gamma(mpmath.mpf(d * d - 2 * d + 2) / 2) / (
            mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(d * d - 2 * d + 1) / 2)
        )
        want = float(mpmath.binomial(n, d) * 2 * c_out * integral)
        got = expected_facets(PolytopeParams(n, d), HeightInterval(h1, h2)).to_float()
        assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize(
        "n, d, pinned",
        [
            (405, 400, 0.4211893676),
            (10**6 + 32, 10**6, 0.4898152905),
            (10**7 + 57, 10**7, 0.4942626778),
        ],
    )
    def test_typical_height_cdf_high_d_against_mpmath(self, n, d, pinned):
        """P(H <= 0) on n = d + ceil(d^(1/4)), where the peak of E(u) lies
        within ~1/d of u = pi/2.  The oracle integrates the height density
        in log space over 128 subintervals of [-12/d, 12/d] (the mass
        outside is ~exp(-70)), with G(h) = 1/2 + h * c_d *
        2F1(1/2, (3-d)/2; 3/2; h^2) so that it shares no beta code with
        the package."""
        with mpmath.workdps(30):
            k = mpmath.mpf(d * d - 2 * d - 1) / 2
            c_d = mpmath.gamma(mpmath.mpf(d) / 2) / (
                mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(d - 1) / 2)
            )

            def log_g(h):
                tail = mpmath.hyp2f1(0.5, mpmath.mpf(3 - d) / 2, 1.5, h * h)
                return mpmath.log(mpmath.mpf(1) / 2 + h * c_d * tail)

            shift = (n - d) * log_g(mpmath.mpf(0))

            def density(h):
                return mpmath.exp(k * mpmath.log1p(-h * h) + (n - d) * log_g(h) - shift)

            w = mpmath.mpf(12) / d
            below = mpmath.quad(density, mpmath.linspace(-w, 0, 65))
            above = mpmath.quad(density, mpmath.linspace(0, w, 65))
            want = float(below / (below + above))
        assert want == pytest.approx(pinned, abs=1e-9)
        law = TypicalHeightLaw.for_params(PolytopeParams(n, d))
        assert typical_height_cdf(law, 0.0) == pytest.approx(want, abs=1e-8)

    def test_additivity(self):
        p = PolytopeParams(20, 5)
        left = height_integral(p, HeightInterval(-1.0, 0.0))
        right = height_integral(p, HeightInterval(0.0, 1.0))
        full = height_integral(p, FULL_RANGE)
        assert math.expm1(abs((left + right).ln() - full.ln())) < 1e-9

    def test_additivity_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            n = int(rng.integers(6, 200))
            d = int(rng.integers(2, min(n, 9)))
            h = float(rng.uniform(-0.9, 0.9))
            p = PolytopeParams(n, d)
            split = expected_facets(p, HeightInterval(-1.0, h)) + expected_facets(
                p, HeightInterval(h, 1.0)
            )
            assert math.expm1(abs(split.ln() - expected_facets(p).ln())) < 1e-8

    def test_count_at_least_simplex(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n = int(rng.integers(5, 300))
            d = int(rng.integers(2, min(n - 1, 12)))
            f = expected_facets(PolytopeParams(n, d)).to_float()
            assert f >= d + 1 - 1e-9

    def test_extreme_counts_still_match_closed_forms(self):
        # mass sits within ~1/n of the endpoint; the log-gap slice must
        # resolve it and the dead remainder must not stall the budget
        f = expected_facets(PolytopeParams(10**9, 2)).to_float()
        assert f == pytest.approx(1e9, rel=1e-10)
        f = expected_facets(PolytopeParams(10**12, 3)).to_float()
        assert f == pytest.approx(2e12 - 4, rel=1e-10)

    def test_huge_log_count(self):
        # n = exp(2000) at d = 50: far beyond float range end to end
        f = expected_facets(PolytopeParams.from_log(2000.0, 50))
        assert f.sign == 1
        assert f.to_float() == math.inf  # not linearly representable
        assert 2000.0 < f.ln() < 3000.0

    def test_long_refinement_near_mode_at_huge_n(self, monkeypatch):
        # the window [-1, cos gap] just below the mode takes some 1700 panel
        # splits; its count is pinned, and it must add up with the upper tail
        params, gap = PolytopeParams.from_log(2788.7241584763096, 45), 5.461682557431678e-28
        panels = []
        evaluate = quadrature._eval_panel

        def counted(*args):
            panels.append(evaluate(*args))
            return panels[-1]

        monkeypatch.setattr(quadrature, "_eval_panel", counted)
        lower = expected_facets(
            params, HeightInterval(-1.0, math.cos(gap), -math.pi / 2, math.pi / 2 - gap, math.pi, gap)
        )
        assert len(panels) > 3000, len(panels)
        assert lower.ln() == pytest.approx(-22212316918.727898, rel=1e-9)
        upper = expected_facets(params, HeightInterval.upper_tail(gap))
        assert math.expm1(abs((lower + upper).ln() - expected_facets(params).ln())) < 1e-9

    def test_budget_exhaustion_reports_achieved_error(self, monkeypatch):
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-15)
        monkeypatch.setattr(quadrature, "MAX_SPLITS", 1)
        p = PolytopeParams(10**6, 3)
        with pytest.raises(QuadratureError) as err:
            height_integral(p, FULL_RANGE)
        assert err.value.rel_err > 0
        message = str(err.value)
        assert "n = 1000000, d = 3" in message
        assert f"gaps [0.0, {math.pi!r}]" in message
        assert "within 1 panel splits" in message


class TestTypicalHeightLaw:
    def test_cdf_boundaries(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(30, 6))
        assert typical_height_cdf(law, -1.0) == 0.0
        assert typical_height_cdf(law, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_cdf_monotone_on_grid(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(30, 6))
        vals = [typical_height_cdf(law, h) for h in np.linspace(-1, 1, 100)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_cdf_matches_d2_closed_form(self):
        n = 25
        law = TypicalHeightLaw.for_params(PolytopeParams(n, 2))
        for h in (-0.6, 0.0, 0.45, 0.9):
            want = ((math.asin(h) + math.pi / 2) / math.pi) ** (n - 1)
            assert typical_height_cdf(law, h) == pytest.approx(want, rel=1e-8)

    def test_huge_n_mass_above_log_slice_limit_against_mpmath(self):
        """ln n = 1000, d = 2000: the mass sits at gap u ~ 0.656, and E(u)
        is -inf (exp overflow of (n - d) * -ln G) from u ~ 1.05 up, so the
        peak search over the full range and the CDF windows meets -inf at
        probes above the mode.  The oracle integrates exp(E(u)) in mpmath
        over mode +- 2e-4 (E falls by > 200 there), with G from
        mpmath.betainc."""
        d = 2000
        law = TypicalHeightLaw.for_params(PolytopeParams.from_log(1000.0, d))
        gaps = (0.5, 0.6561, 0.65613, 0.65616, 0.66, 1.0, 2.0)
        cdfs = [typical_height_cdf(law, math.cos(g)) for g in gaps]
        with mpmath.workdps(25):
            m = mpmath.exp(1000) - d
            a = mpmath.mpf(d - 1) / 2

            def log_e(u):
                gc = mpmath.betainc(a, a, 0, mpmath.sin(u / 2) ** 2, regularized=True)
                return (d * d - 2 * d) * mpmath.log(mpmath.sin(u)) + m * mpmath.log1p(-gc)

            mode = mpmath.mpf("0.656131944313965")
            shift = log_e(mode)
            density = lambda u: mpmath.exp(log_e(u) - shift)
            total = mpmath.quad(density, mpmath.linspace(mode - 2e-4, mode + 2e-4, 17))
            upper = mpmath.quad(density, mpmath.linspace(0.65613, mode + 2e-4, 17))
            want_ln = float(shift + mpmath.log(total))
            want_cdf = float(upper / total)
        assert law.normalizer.ln() == pytest.approx(want_ln, abs=1e-8)
        assert cdfs[2] == pytest.approx(want_cdf, abs=1e-8)
        assert 0.0 < cdfs[2] < 1.0
        assert cdfs[0] == 1.0 and cdfs[-1] == 0.0
        assert all(b <= a for a, b in zip(cdfs, cdfs[1:]))

    def test_quantile_roundtrip(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(25, 4))
        for h in (-0.5, 0.0, 0.7):
            p = typical_height_cdf(law, h)
            assert typical_height_quantile(law, p) == pytest.approx(h, abs=1e-8)

    def test_quantile_monotone(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(18, 3))
        qs = [typical_height_quantile(law, p) for p in (0.05, 0.25, 0.5, 0.75, 0.95)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_quantile_domain(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(10, 3))
        with pytest.raises(ValueError):
            typical_height_quantile(law, 0.0)

    def test_cdf_at_pooled_simulation_median(self):
        """The exact CDF evaluated at the empirical median of pooled
        simulated facet heights must sit at 1/2 (d=2, n=4, 1e5 replicates)."""
        from spherefacets import EnsembleSpec, estimate

        run = estimate(EnsembleSpec(PolytopeParams(4, 2), replicates=10**5, seed=5))
        med = float(np.median(run.pooled_heights))
        law = TypicalHeightLaw.for_params(PolytopeParams(4, 2))
        assert typical_height_cdf(law, med) == pytest.approx(0.5, abs=0.02)

    def test_median_matches_gamma_limit(self):
        """At (1e6, 3) the cap statistic of the median height sits at the
        Gamma(2) median to a few parts in 1e6."""
        gamma2_median = newton_bracketed(
            lambda t: 1 - math.exp(-t) * (1 + t) - 0.5, lambda t: t * math.exp(-t),
            0.1, 10.0, xtol=1e-13,
        )
        n = 10**6
        law = TypicalHeightLaw.for_params(PolytopeParams(n, 3))
        q = typical_height_quantile(law, 0.5)
        statistic = (1 - q * q) * n / 4.0  # n Gamma(3/2) / (2 sqrt(pi) Gamma(2)) = n/4
        assert statistic == pytest.approx(gamma2_median, rel=1e-3)

    def test_huge_n_quantiles_sit_at_one(self):
        """ln n = 3000, d = 4: the mass sits at gaps far below float
        resolution of theta, so every quantile is 1 and CDF(1/2) is 0."""
        law = TypicalHeightLaw.for_params(PolytopeParams.from_log(3000.0, 4))
        for p in (0.05, 0.5, 0.95):
            assert typical_height_quantile(law, p) == pytest.approx(1.0, abs=1e-10)
        assert typical_height_cdf(law, 0.5) == 0.0


class TestGammaStatistic:
    def test_large_y_limit_is_positive_mass(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(40, 4))
        tail = gamma_statistic_cdf(law, 1e9)
        assert tail == pytest.approx(1.0 - typical_height_cdf(law, 0.0), abs=1e-9)

    def test_d2_exponential_limit(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(10**4, 2))
        for y in (0.1, 0.5, 1.0, 2.0, 4.0):
            assert gamma_statistic_cdf(law, y) == pytest.approx(
                1.0 - math.exp(-y), abs=2e-4
            )

    def test_convergence_toward_exponential(self):
        ys = np.linspace(0.05, 6.0, 40)
        sups = []
        for n in (10**3, 10**6):
            law = TypicalHeightLaw.for_params(PolytopeParams(n, 2))
            sups.append(
                max(abs(gamma_statistic_cdf(law, float(y)) - (1 - math.exp(-y)))
                    for y in ys)
            )
        assert sups[1] < sups[0]

    def test_extreme_count_matches_gamma_d_minus_1(self):
        # ln n = 3000 at d = 4: mass sits at gaps far below float range
        law = TypicalHeightLaw.for_params(PolytopeParams.from_log(3000.0, 4))
        for y in (0.5, 1.0, 2.0, 4.0):
            want = 1 - math.exp(-y) * (1 + y + y * y / 2)  # Gamma(3) CDF
            assert gamma_statistic_cdf(law, y) == pytest.approx(want, abs=1e-9)

    def test_monotone_in_y(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(200, 3))
        vals = [gamma_statistic_cdf(law, y) for y in np.geomspace(0.01, 50.0, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_y(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(10, 3))
        with pytest.raises(ValueError):
            gamma_statistic_cdf(law, 0.0)


class TestCdfTable:
    @pytest.mark.parametrize(
        "params",
        [PolytopeParams(12, 4), PolytopeParams.from_log(3000.0, 4)],
        ids=["12_4", "ln_n_3000_d_4"],
    )
    def test_table_is_a_cdf(self, params):
        # at ln n = 3000 the mass sits at gaps far below float resolution
        # of theta, so rows collapse to h = 1 but must stay a CDF
        law = TypicalHeightLaw.for_params(params)
        _, heights, cdf = cdf_table(law, 801)
        assert np.all(np.isfinite(heights)) and np.all(np.isfinite(cdf))
        assert cdf[0] == pytest.approx(0.0, abs=1e-12)
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= -1e-15)
        assert np.all(np.diff(heights) >= 0)

    def test_table_matches_pointwise_cdf(self):
        for n, d in ((15, 3), (12, 4), (50, 4), (405, 400)):
            law = TypicalHeightLaw.for_params(PolytopeParams(n, d))
            _, heights, cdf = cdf_table(law, 2001)
            for h in (-0.2, 0.1, 0.4, 0.7):
                want = typical_height_cdf(law, h)
                got = float(np.interp(h, heights, cdf))
                assert got == pytest.approx(want, abs=5e-4)
            # rows themselves carry the quadrature's accuracy
            band = np.flatnonzero((cdf > 0.05) & (cdf < 0.95))
            for i in band[np.linspace(0, len(band) - 1, 4).astype(int)]:
                want = typical_height_cdf(law, float(heights[i]))
                assert cdf[i] == pytest.approx(want, abs=1e-8), (n, d, heights[i])

    @pytest.mark.parametrize("n, d", [(50, 4), (405, 400)])
    def test_num_rows_from_minus_one_to_one(self, n, d):
        law = TypicalHeightLaw.for_params(PolytopeParams(n, d))
        for num in (2, 7, 200, 2001):
            thetas, heights, cdf = cdf_table(law, num)
            assert len(thetas) == len(heights) == len(cdf) == num
            assert (heights[0], cdf[0]) == (-1.0, 0.0)
            assert (heights[-1], cdf[-1]) == (1.0, 1.0)
            assert np.all(np.diff(cdf) >= 0)
        _, heights, cdf = cdf_table(law, 1)
        assert (heights.tolist(), cdf.tolist()) == ([1.0], [1.0])  # the closing row

    @pytest.mark.parametrize("num", [0, -3])
    def test_needs_a_row(self, num):
        law = TypicalHeightLaw.for_params(PolytopeParams(12, 4))
        with pytest.raises(ValueError, match=f"num={num}"):
            cdf_table(law, num)


class TestLawPins:
    """Law values pinned to the engine that integrated every query afresh."""

    def test_deep_lower_tail_cdf(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(50, 4))
        assert typical_height_cdf(law, -0.4) == pytest.approx(3.1156212718419827e-27, rel=1e-12)
        assert typical_height_cdf(law, -0.3) == pytest.approx(8.478341173564213e-23, rel=1e-12)
        # the window's peak * width bound cannot move the normalizer: zero mass
        assert typical_height_cdf(law, -0.45) == 0.0

    def test_deep_tails_at_14_5(self):
        law = TypicalHeightLaw.for_params(PolytopeParams(14, 5))
        assert typical_height_cdf(law, -0.9) == pytest.approx(1.45317712246932e-25, rel=1e-12)
        assert gamma_statistic_cdf(law, 1e-6) == pytest.approx(9.804538538979682e-26, rel=1e-12)

    @pytest.mark.parametrize("n, d, want", [
        (50, 4, (0.4940212360812773, 0.8032497192708776, 0.9665764810424924)),
        (14, 5, (-0.12555357094584857, 0.4016508247116383, 0.8074688203197242)),
        (405, 400, (-0.00721736191810754, 0.0004964069886649566, 0.008211209100736833)),
    ])
    def test_quantiles(self, n, d, want):
        law = TypicalHeightLaw.for_params(PolytopeParams(n, d))
        got = [typical_height_quantile(law, p) for p in (0.001, 0.5, 0.999)]
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)


class TestLawPartition:
    """A law integrates the full range once; every query is a slice of it."""

    @pytest.fixture
    def counted_law(self, monkeypatch):
        law = TypicalHeightLaw.for_params(PolytopeParams(50, 4))
        calls = [0]
        evaluate = exact._GapIntegrand._at

        def counted(*args):
            calls[0] += 1
            return evaluate(*args)

        def fail(*args):
            raise AssertionError("a law query integrated a segment again")

        monkeypatch.setattr(exact._GapIntegrand, "_at", counted)
        monkeypatch.setattr(exact, "_integrated_segment", fail)
        return law, calls

    def test_every_query_reads_the_partition(self, counted_law):
        law, _ = counted_law
        assert 0.0 < typical_height_cdf(law, 0.5) < 1.0
        assert 0.0 < gamma_statistic_cdf(law, 1.0) < 1.0
        assert 0.0 <= typical_height_cdf(law, 0.0) < 1e-6
        assert typical_height_quantile(law, 0.5) == pytest.approx(0.8032497192708776, abs=1e-12)
        _, _, cdf = cdf_table(law, 101)
        assert cdf[-1] == 1.0

    @pytest.mark.parametrize("h", [0.6, 0.7, 0.8, 0.9])
    def test_cdf_point_evaluations(self, counted_law, h):
        law, calls = counted_law
        typical_height_cdf(law, h)
        assert calls[0] <= 100, calls[0]

    def test_median_evaluations(self, counted_law):
        law, calls = counted_law
        typical_height_quantile(law, 0.5)
        assert calls[0] <= 500, calls[0]

    @pytest.mark.parametrize("params", [PolytopeParams(50, 4), PolytopeParams(405, 400),
                                        PolytopeParams.from_log(2000.0, 50)],
                             ids=["50-4", "405-400", "ln n 2000-50"])
    def test_normalizer_is_the_full_range_integral(self, params):
        law = TypicalHeightLaw(params)
        assert TypicalHeightLaw.for_params(params) == law
        assert law.normalizer == height_integral(params)  # bit for bit
        assert law._segment.ln_total == law.normalizer.ln()

    def test_zero_mass_segment_has_no_partition(self):
        # at ln n = 800, d = 3, E is -inf on every gap beyond pi/2
        params = PolytopeParams.from_log(800.0, 3)
        seg = exact._integrated_segment(exact._GapIntegrand(params), HeightInterval(-1.0, -0.5))
        assert (seg.peak, seg.partition, seg.ln_total) == (-math.inf, None, -math.inf)
        assert height_integral(params, HeightInterval(-1.0, -0.5)).is_zero()

    def test_law_from_a_normalizer_builds_its_partition(self):
        params = PolytopeParams(50, 4)
        law = TypicalHeightLaw(params, height_integral(params))
        built = TypicalHeightLaw.for_params(params)
        assert law == built == TypicalHeightLaw(params)
        for h in (-0.3, 0.2, 0.8):
            assert typical_height_cdf(law, h) == typical_height_cdf(built, h)

    def test_law_from_a_normalizer_answers_by_its_own_total(self):
        """A normalizer off by 5e-10 in ln J passes the check but moves no
        answer: every query divides by the partition's own total."""
        params = PolytopeParams(50, 4)
        own = TypicalHeightLaw(params)
        law = TypicalHeightLaw(params, LogReal.from_log(own.normalizer.ln() + 5e-10))
        assert law.normalizer == own.normalizer
        assert typical_height_cdf(law, 0.3) == typical_height_cdf(own, 0.3)
        assert typical_height_quantile(law, 0.5) == typical_height_quantile(own, 0.5)
        assert gamma_statistic_cdf(law, 2.0) == gamma_statistic_cdf(own, 2.0)
        for got, want in zip(cdf_table(law), cdf_table(own)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("ln_j", [0.0, -math.inf])
    def test_mismatched_normalizer_raises_naming_both(self, ln_j):
        params = PolytopeParams(50, 4)
        total = height_integral(params).ln()
        with pytest.raises(ValueError, match=re.escape(
            f"normalizer ln J = {ln_j!r} is not the height integral at n = 50, d = 4 "
            f"over the gaps [0.0, {math.pi!r}], ln J = {total!r}"
        )):
            TypicalHeightLaw(params, LogReal.from_log(ln_j))


# each integer argument refuses a fraction, a string, None and an integer
# outside its range with one message naming it:
# (label, call of the argument, name, range, integer outside)
_INTEGER_ARGS = [
    ("params d", lambda d: PolytopeParams(10**6, d), "d", "[2, 1e+154]", 10**154 + 1),
    ("log params d", lambda d: PolytopeParams.from_log(10.0, d), "d", "[2, 1e+154]", 1),
    ("table num", lambda num: cdf_table(TypicalHeightLaw(PolytopeParams(12, 4)), num),
     "num", "[1, inf]", 0),
]
_INTEGER_ROWS = [
    (f"{label} {kind}", call, value, f"{name} must be an integer in {bounds}, got {name}={value}")
    for label, call, name, bounds, outside in _INTEGER_ARGS
    for kind, value in (("fraction", 2.5), ("string", "3"), ("None", None), ("outside", outside))
]


def _real_values(interval: str, outside):
    """NaN, a string, None, each infinity the interval excludes, and a finite
    value outside it where there is one (``outside``, else None)."""
    yield from (("NaN", math.nan), ("string", "0.5"), ("None", None))
    if not interval.startswith("[-inf"):
        yield "-inf", -math.inf
    if not interval.endswith("inf]"):
        yield "inf", math.inf
    if outside is not None:
        yield "outside", outside


_LAW = TypicalHeightLaw(PolytopeParams(12, 4))
_GAPS = f"[0.0, {math.pi!r}]"
_ANGLES = f"[{-0.5 * math.pi!r}, {0.5 * math.pi!r}]"
# each real argument refuses those values with one message naming it:
# (label, call of the argument, name, interval, finite value outside or None)
_REAL_ARGS = [
    ("params n", lambda n: PolytopeParams(n, 3), "n", "(-inf, inf)", None),
    ("log params ln_n", lambda ln_n: PolytopeParams.from_log(ln_n, 3), "ln_n", "(-inf, inf)", None),
    ("window h1", lambda h: HeightInterval(h, 1.0), "h1", "[-1.0, 1.0]", -1.5),
    ("window h2", lambda h: HeightInterval(-1.0, h), "h2", "[-1.0, 1.0]", 1.5),
    ("window gap1", lambda gap: HeightInterval(-1.0, 1.0, gap1=gap), "gap1", _GAPS, 4.0),
    ("window gap2", lambda gap: HeightInterval(1.0, 1.0, gap2=gap), "gap2", _GAPS, -0.5),
    ("window theta1", lambda t: HeightInterval(-1.0, 1.0, theta1=t), "theta1", _ANGLES, 2.0),
    ("from_theta theta1", lambda t: HeightInterval.from_theta(t, 0.5), "theta1", _ANGLES, -2.0),
    ("from_theta theta2", lambda t: HeightInterval.from_theta(-0.5, t), "theta2", _ANGLES, 2.0),
    ("upper tail gap", HeightInterval.upper_tail, "gap", _GAPS, 4.0),
    ("cdf h", lambda h: typical_height_cdf(_LAW, h), "h", "[-1.0, 1.0]", -1.5),
    ("quantile p", lambda p: typical_height_quantile(_LAW, p), "p", "(0.0, 1.0)", 1.0),
    ("gamma y", lambda y: gamma_statistic_cdf(_LAW, y), "y", "(0.0, inf]", 0.0),
]
# None is no value for these: n and ln_n stand for each other, and a gap or an
# angle left out is taken from its height
_OMITTABLE = {"params n", "log params ln_n", "window gap1", "window gap2", "window theta1"}
_REAL_ROWS = [
    (f"{label} {kind}", call, value, f"{name} must be a real number in {interval}, got {name}={value}")
    for label, call, name, interval, outside in _REAL_ARGS
    for kind, value in _real_values(interval, outside)
    if not (kind == "None" and label in _OMITTABLE)
]


@pytest.mark.parametrize("call, message", [
    (lambda: PolytopeParams(None, 3), "provide either n or ln_n, got n=None, ln_n=None, d=3"),
    (lambda: HeightInterval(0.0, 0.5, gap1=0.1, gap2=0.2),
     "gaps gap1=0.1, gap2=0.2 are not in window order"),
    (lambda: HeightInterval(-1.0, 0.5, gap1=4.0),
     f"gap1 must be a real number in [0.0, {math.pi!r}], got gap1=4.0"),
    (lambda: HeightInterval.upper_tail(4.0),
     f"gap must be a real number in [0.0, {math.pi!r}], got gap=4.0"),
    (lambda: typical_height_cdf(TypicalHeightLaw.for_params(PolytopeParams(12, 4)), 1.5),
     "h must be a real number in [-1.0, 1.0], got h=1.5"),
    *((lambda call=call, value=value: call(value), message)
      for _, call, value, message in _INTEGER_ROWS + _REAL_ROWS),
], ids=["no point count", "gaps out of order", "gap past pi", "tail gap past pi",
        "cdf height past 1", *(row[0] for row in _INTEGER_ROWS + _REAL_ROWS)])
def test_input_checks_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
