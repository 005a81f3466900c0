"""Regime classification, rate functions, constants, and limit formulas."""

import math
import re

import mpmath
import numpy as np
import pytest

from spherefacets import (
    AmbiguousFamilyError,
    GrowthFamily,
    HeightInterval,
    PolytopeParams,
    Regime,
    RegimeSpec,
    TypicalHeightLaw,
    classify,
    concentration_height,
    count_rate,
    count_rate_roots,
    expected_facets,
    facet_count_asymptotic,
    facets_per_vertex_limit,
    glasauer_schneider_constant,
    hausdorff_asymptotic,
    height_rate,
    height_rate_prime,
    height_window,
    limit_height,
    origin_outside_prob,
    parse_family,
    rate_argmax,
    typical_height_asymptotic,
    typical_height_quantile,
)
from spherefacets.exact import log_binomial
from spherefacets.logreal import LogReal
from spherefacets.numerics import log_norm_cdf
from spherefacets.solvers import bisect_root

# (n, d) on a growth family at dimension d
FAMILY_AT = {
    "n-d=d^0.75": lambda d: PolytopeParams(d + round(d**0.75), d),
    "n=d^2": lambda d: PolytopeParams(d * d, d),
    "ln(n)=d*ln(d)": lambda d: PolytopeParams.from_log(d * math.log(d), d),
}


class TestClassify:
    @pytest.mark.parametrize(
        "text, tag, rho",
        [
            ("n-d=sqrt(d)", Regime.SUBLINEAR_SQRT, 1.0),
            ("n-d=3", Regime.SUBLINEAR_SQRT, 0.0),
            ("n-d=d^0.75", Regime.SUBLINEAR_MID, None),
            ("n-d=0.5*d", Regime.LINEAR, 0.5),
            ("n=2*d", Regime.LINEAR, 1.0),
            ("n=d^2", Regime.SUBEXPONENTIAL, None),
            ("ln(n)=d", Regime.EXPONENTIAL, 1.0),
            ("ln(n)=0.5*d^0.5", Regime.SUBEXPONENTIAL, None),
            ("ln(n)=2*d^1.5", Regime.SUPERFACTORIAL, None),
            ("ln(n)=d*ln(d)", Regime.SUPEREXPONENTIAL, None),
            ("d=3", Regime.SUPERFACTORIAL, None),
        ],
    )
    def test_tags(self, text, tag, rho):
        spec = classify(parse_family(text))
        assert spec.tag is tag
        if rho is None:
            assert spec.rho is None
        else:
            assert spec.rho == pytest.approx(rho)

    def test_boundary_ambiguity(self):
        with pytest.raises(AmbiguousFamilyError):
            classify(parse_family("n=0.5*d"))
        with pytest.raises(AmbiguousFamilyError):
            classify(parse_family("n=d"))

    def test_parse_errors(self):
        for bad in ("frogs", "n-d", "n=2^d", "q=d", "n-d=d*ln(d)"):
            with pytest.raises(ValueError):
                parse_family(bad)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            GrowthFamily("mystery", 1.0, 1.0)

    def test_regime_spec_needs_rho(self):
        with pytest.raises(ValueError):
            RegimeSpec(Regime.LINEAR)
        with pytest.raises(ValueError):
            RegimeSpec.from_tag("exponential", rho=-1.0)


class TestRateFunctions:
    def test_count_rate_at_origin_rho_one(self):
        """(rho+1)ln(rho+1) - rho ln rho - rho ln 2 = ln 2 at rho = 1."""
        assert count_rate(1.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_count_rate_positive_at_origin(self, rho):
        assert count_rate(rho, 0.0) > 0.0

    def test_height_rate_tail(self):
        # rho ln Phi(r) -> 0 as r -> inf, so the rate approaches -r^2/2
        for r in (10.0, 20.0, 40.0):
            assert abs(height_rate(2.0, r) + 0.5 * r * r) < 1e-10

    def test_argmax_value_rho_one(self):
        assert rate_argmax(1.0) == pytest.approx(0.506, abs=1e-3)

    def test_argmax_against_grid_search(self):
        grid = np.arange(0.0, 3.0, 1e-4)
        vals = 1.0 * np.array([log_norm_cdf(float(r)) for r in grid]) - 0.5 * grid**2
        best = float(grid[np.argmax(vals)])
        assert rate_argmax(1.0) == pytest.approx(best, abs=2e-4)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
    def test_argmax_stationarity(self, rho):
        r = rate_argmax(rho)
        assert abs(height_rate_prime(rho, r)) < 1e-8

    def test_argmax_monotone_in_rho(self):
        vals = [rate_argmax(r) for r in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    def test_roots_vanish(self, rho):
        lo, hi = count_rate_roots(rho)
        assert abs(count_rate(rho, lo)) < 1e-8
        assert abs(count_rate(rho, hi)) < 1e-8

    def test_roots_straddle_zero_for_rho_one(self):
        lo, hi = count_rate_roots(1.0)
        assert lo < 0.0 < hi

    def test_root_bracketing_sign_pattern(self):
        for rho in (0.3, 1.0, 4.0):
            lo, hi = count_rate_roots(rho)
            for r in np.linspace(lo + 1e-6, hi - 1e-6, 100):
                assert count_rate(rho, float(r)) > 0.0
            for r in np.concatenate(
                [np.linspace(lo - 3.0, lo - 1e-6, 50),
                 np.linspace(hi + 1e-6, hi + 3.0, 50)]
            ):
                assert count_rate(rho, float(r)) < 0.0

    def test_negative_count_rate_threshold(self):
        """The origin value g(0) changes sign near rho = 3.4."""
        root = bisect_root(lambda r: count_rate(r, 0.0), 2.0, 5.0, xtol=1e-10)
        assert root == pytest.approx(3.4, abs=0.05)

    def test_argmax_and_roots_at_every_decade(self):
        """rho phi(r) / Phi(r) = r at the argmax (mpmath), and the roots
        bracket it, from rho = 1e-300 to 1e300."""
        with mpmath.workdps(40):
            for e in range(-300, 301):
                rho = 10.0**e
                r = rate_argmax(rho)
                stationary = mpmath.mpf(rho) * mpmath.npdf(r) / mpmath.ncdf(r) / r
                assert abs(float(stationary - 1)) <= 1e-12, rho
                top = count_rate(rho, r)
                assert top > 0.0, rho
                lo, hi = count_rate_roots(rho)
                assert lo < r < hi, rho
                assert abs(count_rate(rho, lo)) <= 1e-9 * top, rho
                assert abs(count_rate(rho, hi)) <= 1e-9 * top, rho

    @pytest.mark.parametrize(
        "rho", [1e-300, 1e-12, 1e-3, 0.5, 2.0, 1e8, 1e12, 1e16, 1e20, 1e100, 1e300]
    )
    def test_peak_rate_against_mpmath(self, rho):
        """(rho+1) ln(rho+1) - rho ln rho + rho ln Phi(r) - r^2/2 at the
        argmax, in enough digits that the entropy term does not cancel."""
        r = rate_argmax(rho)
        with mpmath.workdps(700):
            big = mpmath.mpf(rho)
            want = float(
                (big + 1) * mpmath.log(big + 1) - big * mpmath.log(big)
                + big * mpmath.log(mpmath.ncdf(r)) - mpmath.mpf(r) ** 2 / 2
            )
        assert count_rate(rho, r) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestConstants:
    def test_low_dimension_values(self):
        assert facets_per_vertex_limit(2).to_float() == pytest.approx(1.0, abs=1e-12)
        assert facets_per_vertex_limit(3).to_float() == pytest.approx(2.0, abs=1e-12)

    def test_limit_rejects_d_beyond_float_range(self):
        assert math.isfinite(facets_per_vertex_limit(10**154).ln())
        for d in (1, 10**154 + 1, 10**155):
            with pytest.raises(ValueError, match=re.escape(f"got d={d}")):
                facets_per_vertex_limit(d)

    def test_limit_against_exact_ratio(self):
        k4 = facets_per_vertex_limit(4).to_float()
        f = expected_facets(PolytopeParams(10**7, 4)).to_float()
        assert f / 10**7 == pytest.approx(k4, rel=0.01)

    def test_wendel_simplex(self):
        for d in (2, 5, 10):
            assert origin_outside_prob(d + 1, d) == pytest.approx(1 - 2.0**-d, rel=1e-14)

    def test_wendel_one_dimensional(self):
        for n in (2, 5, 20):
            assert origin_outside_prob(n, 1) == pytest.approx(2.0 ** (1 - n), rel=1e-14)

    def test_wendel_half(self):
        for d in range(1, 21):
            assert abs(origin_outside_prob(2 * d, d) - 0.5) < 1e-12

    def test_wendel_crossover(self):
        below = [origin_outside_prob(math.ceil(1.5 * d), d) for d in (10, 50, 200, 1000)]
        above = [origin_outside_prob(math.ceil(2.5 * d), d) for d in (10, 50, 200, 1000)]
        assert all(b > a for a, b in zip(below, below[1:]))
        assert below[-1] > 0.999
        assert all(b < a for a, b in zip(above, above[1:]))
        assert above[-1] < 1e-3

    def test_wendel_log_path_consistent(self):
        # the large-n log-domain branch agrees with exact rational arithmetic
        from fractions import Fraction

        n, d = 4100, 30
        exact_val = float(
            Fraction(sum(math.comb(n - 1, k) for k in range(d)), 1 << (n - 1))
        )
        assert origin_outside_prob(n, d) == pytest.approx(exact_val, rel=1e-10)


class TestHeightScales:
    def test_concentration_height_d3(self):
        want = math.sqrt(1.0 - math.sqrt(27.0) * 1e-6)
        p = PolytopeParams(10**6, 3)
        assert concentration_height(p) == pytest.approx(want, rel=1e-14)

    def test_concentration_height_domain(self):
        with pytest.raises(ValueError):
            concentration_height(PolytopeParams(5, 4))

    def test_window_ordering(self):
        h1, h2 = height_window(PolytopeParams(10**6, 10), r1=10.0, r2=0.1)
        assert 0.0 < h1 <= h2 < 1.0

    def test_window_requires_large_ratio(self):
        with pytest.raises(ValueError):
            height_window(PolytopeParams(30, 10))

    def test_window_exponential_limit(self):
        """ln n = d: both endpoints approach sqrt(1 - e^-2), error shrinking."""
        lim = math.sqrt(1.0 - math.exp(-2.0))
        errs = []
        for d in (50, 100, 200):
            h1, h2 = height_window(PolytopeParams.from_log(float(d), d))
            errs.append(max(abs(h1 - lim), abs(h2 - lim)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 0.05

    def test_window_subexponential_limit(self):
        """n = d^2: endpoints approach sqrt(2 ln(n/d)/d), error shrinking."""
        spec = classify(parse_family("n=d^2"))
        errs = []
        for d in (100, 400, 1600):
            p = PolytopeParams(d * d, d)
            lim = limit_height(spec, p)
            h1, h2 = height_window(p)
            errs.append(max(abs(h1 / lim - 1.0), abs(h2 / lim - 1.0)))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("d", [10, 20])
    def test_window_first_moments(self, d):
        """Some facet outside [h1, h2] has probability at most the expected
        number of facets above h2 plus those below h1; each tail is tiny and
        falls along ln n.  (At d = 3 and 5, h2 rounds to 1.0.)"""
        above, below = [], []
        for ln_n in (10.0, 20.0, 40.0, 80.0):
            p = PolytopeParams.from_log(ln_n, d)
            h1, h2 = height_window(p)
            above.append(expected_facets(p, HeightInterval(h2, 1.0)).ln())
            below.append(expected_facets(p, HeightInterval(-1.0, h1)).ln())
        for tail in (above, below):
            assert max(tail) < math.log(1e-6)
            assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_window_superfactorial_limit(self):
        """d fixed, n -> inf: 1 - h^2 shrinks like n^(-2/(d-1))."""
        spec = classify(parse_family("d=6"))
        errs = []
        for n in (10**4, 10**6, 10**8):
            p = PolytopeParams(n, 6)
            lim = limit_height(spec, p)
            h1, h2 = height_window(p)
            errs.append(max(abs(h1 / lim - 1.0), abs(h2 / lim - 1.0)))
        assert errs[0] > errs[1] > errs[2]

    def test_limit_height_needs_params_where_stated(self):
        with pytest.raises(ValueError):
            limit_height(classify(parse_family("n=d^2")))
        with pytest.raises(ValueError):
            limit_height(RegimeSpec.from_tag("linear", 1.0))


class TestFacetCountAsymptotics:
    def test_superfactorial_low_dimension(self):
        """At d = 3 the limit count is n * K_3 = 2n; compare with 2n - 4."""
        spec = classify(parse_family("d=3"))
        est = facet_count_asymptotic(spec, PolytopeParams(10**6, 3))
        assert est.log_count == pytest.approx(math.log(2e6), rel=1e-12)
        exact_val = 2 * 10**6 - 4
        assert math.exp(est.log_count) / exact_val == pytest.approx(1.0, abs=1e-5)

    def test_linear_formula_plug(self):
        spec = RegimeSpec.from_tag("linear", 1.0)
        est = facet_count_asymptotic(spec, PolytopeParams(400, 200))
        assert est.log_count == pytest.approx(
            200 * count_rate(1.0, rate_argmax(1.0)), rel=1e-12
        )
        assert "o(d)" in est.dropped

    def test_sublinear_formula_plug(self):
        d = 400
        n = d + math.ceil(math.sqrt(d))
        p = PolytopeParams(n, d)
        spec = classify(parse_family("n-d=sqrt(d)"))
        est = facet_count_asymptotic(spec, p)
        m = n - d
        want = log_binomial(p) + math.log(2.0) - m * math.log(2.0) + m * m / (math.pi * d)
        assert est.log_count == pytest.approx(want, rel=1e-12)

    def test_subexponential_formula_plug(self):
        spec = classify(parse_family("n=d^2"))
        d = 500
        est = facet_count_asymptotic(spec, PolytopeParams(d * d, d))
        want = 0.5 * (d - 1) * math.log(4 * math.pi * math.log(d))
        assert est.log_count == pytest.approx(want, rel=1e-12)

    def test_exponential_formula_plug(self):
        spec = RegimeSpec.from_tag("exponential", 1.0)
        d = 300
        est = facet_count_asymptotic(spec, PolytopeParams.from_log(float(d), d))
        want = 0.5 * (d - 1) * math.log(2 * math.pi * (math.e**2 - 1) * d)
        assert est.log_count == pytest.approx(want, rel=1e-10)

    def test_superfactorial_ratio_trend(self):
        """At d = 3 the exact count 2n - 4 climbs monotonically toward the
        n * K_3 limit, landing within 1e-3 by n = 1e6."""
        spec = classify(parse_family("d=3"))
        ratios = []
        for n in (10**3, 10**4, 10**5, 10**6):
            exact_ln = expected_facets(PolytopeParams(n, 3)).ln()
            est = facet_count_asymptotic(spec, PolytopeParams(n, 3))
            ratios.append(math.exp(exact_ln - est.log_count))
        assert all(r < 1.0 for r in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-3)

    def test_superexponential_against_exact(self):
        """On ln n = d ln d the exact ln F sits above the formula by a
        residual that falls like 0.6 / d^2."""
        spec = classify(parse_family("ln(n)=d*ln(d)"))
        residuals = []
        for d in (20, 40, 80, 160, 320):
            p = FAMILY_AT["ln(n)=d*ln(d)"](d)
            residuals.append(expected_facets(p).ln() - facet_count_asymptotic(spec, p).log_count)
            assert 0.55 < d * d * residuals[-1] < 0.75
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_regime_mismatch_errors(self):
        spec = classify(parse_family("n-d=sqrt(d)"))
        with pytest.raises(ValueError):
            facet_count_asymptotic(spec, PolytopeParams.from_log(900.0, 30))


class TestTypicalHeightAsymptotics:
    def test_linear_center(self):
        spec = RegimeSpec.from_tag("linear", 1.0)
        est = typical_height_asymptotic(spec, PolytopeParams(2 * 10**4, 10**4))
        assert est.center == pytest.approx(0.506 / 100.0, abs=1e-4)
        assert est.law == "point_mass"

    def test_exponential_limit_value(self):
        spec = RegimeSpec.from_tag("exponential", 1.0)
        est = typical_height_asymptotic(spec, PolytopeParams.from_log(200.0, 200))
        assert est.center == pytest.approx(math.sqrt(1 - math.exp(-2.0)), rel=1e-12)
        assert est.center == pytest.approx(0.9298, abs=1e-4)

    def test_sublinear_normal_law(self):
        spec = classify(parse_family("n-d=sqrt(d)"))
        est = typical_height_asymptotic(spec, PolytopeParams(420, 400))
        assert est.law == "normal"
        assert est.scale == pytest.approx(1 / 400.0)

    def test_superfactorial_gamma_law(self):
        spec = classify(parse_family("d=4"))
        est = typical_height_asymptotic(spec, PolytopeParams(10**5, 4))
        assert est.law == "gamma"
        assert est.law_params["shape"] == 3

    @pytest.mark.parametrize(
        "family, bound", [("n-d=d^0.75", 0.2), ("n=d^2", 0.3), ("ln(n)=d*ln(d)", 1e-3)]
    )
    def test_center_against_exact_median(self, family, bound):
        """The center of the sublinear-mid, subexponential and
        superexponential laws approaches the exact median as d grows."""
        spec = classify(parse_family(family))
        gaps = []
        for d in (20, 80):
            p = FAMILY_AT[family](d)
            center = typical_height_asymptotic(spec, p).center
            median = typical_height_quantile(TypicalHeightLaw.for_params(p), 0.5)
            gaps.append(abs(1.0 - median / center))
        assert gaps[1] < gaps[0] < bound


class TestHausdorff:
    def test_exponential_gap(self):
        spec = RegimeSpec.from_tag("exponential", 1.0)
        est = hausdorff_asymptotic(spec)
        assert est.limit == pytest.approx(1 - math.sqrt(1 - math.exp(-2.0)), rel=1e-12)
        assert est.limit == pytest.approx(0.0702, abs=1e-4)

    def test_slow_regimes_distance_one(self):
        assert hausdorff_asymptotic(RegimeSpec.from_tag("linear", 2.0)).limit == 1.0

    def test_superexponential_rate(self):
        spec = classify(parse_family("ln(n)=2*d^1.5"))
        p = PolytopeParams.from_log(2 * 50**1.5, 50)
        est = hausdorff_asymptotic(spec, p)
        assert est.limit == 0.0
        assert est.approx == pytest.approx(0.5 * math.exp(-2 * p.ln_n / 49), rel=1e-12)

    @pytest.mark.parametrize("d, ns", [(3, (10**3, 10**4, 10**6, 10**8)), (4, (10**4, 10**6))])
    def test_first_moment_threshold_falls_to_fixed_d_value(self, d, ns):
        """P(d_H >= delta) <= E[#facets below 1 - delta].  The delta* where
        that expectation is 1 lies above c_d (ln n / n)^(2/(d-1)) and
        approaches it as n grows."""
        spec = classify(parse_family(f"d={d}"))
        ratios = []
        for n in ns:
            p = PolytopeParams(n, d)
            approx = hausdorff_asymptotic(spec, p).approx

            def ln_count(ln_delta):
                return expected_facets(p, HeightInterval(-1.0, -math.expm1(ln_delta))).ln()

            # the bracket starts at approx, so a root in it is a ratio of at least 1
            ln_star = bisect_root(ln_count, math.log(approx), math.log(2.0 * approx), xtol=1e-2)
            ratios.append(math.exp(ln_star) / approx)
        assert ratios[-1] > 1.0
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_fixed_dimension_constant(self):
        spec = classify(parse_family("d=3"))
        est = hausdorff_asymptotic(spec, PolytopeParams(10**6, 3))
        c3 = glasauer_schneider_constant(3)
        assert est.fixed_d_constant == pytest.approx(c3)
        # d = 3: 2 c_3 = 2 sqrt(pi) Gamma(2) / Gamma(3/2) = 4, so c_3 = 2
        assert c3 == pytest.approx(2.0, rel=1e-14)

