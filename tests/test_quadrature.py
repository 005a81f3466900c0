"""The log-domain adaptive quadrature against closed-form integrals."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from spherefacets import quadrature
from spherefacets.logreal import LogReal
from spherefacets.quadrature import (
    QuadratureError,
    geometric_ladder,
    log_integrate,
    panel_log_values,
)


class TestBasicIntegrals:
    def test_constant(self):
        val = log_integrate(lambda x: 0.0, [0.0, 1.0])
        assert val.to_float() == pytest.approx(1.0, rel=1e-13)

    def test_standard_normal_mass(self, monkeypatch):
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-12)
        f = lambda x: -0.5 * x * x - 0.5 * math.log(2 * math.pi)
        val = log_integrate(f, geometric_ladder(-8.0, 8.0, 0.0))
        assert val.to_float() == pytest.approx(1.0, rel=1e-10)

    def test_exponential_tail(self):
        # integral(exp(-10 x), 0, 50) = (1 - exp(-500)) / 10
        val = log_integrate(lambda x: -10.0 * x, geometric_ladder(0.0, 50.0, 0.0))
        assert val.to_float() == pytest.approx(0.1, rel=1e-10)


class TestSharpPeaks:
    def test_narrow_interior_gaussian(self, monkeypatch):
        # width 1e-4 peak inside [0, 1]; ladder seeding must resolve it
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-11)
        scale = 1e8
        f = lambda x: -scale * (x - 0.3) ** 2
        val = log_integrate(f, geometric_ladder(0.0, 1.0, 0.3))
        assert val.to_float() == pytest.approx(math.sqrt(math.pi / scale), rel=1e-9)

    def test_heavily_shifted_magnitude(self, monkeypatch):
        # integrand ~ exp(-1e6) everywhere: value only representable in logs
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-11)
        f = lambda x: -1.0e6 - 1.0e6 * x * x
        val = log_integrate(f, geometric_ladder(-1.0, 1.0, 0.0))
        want = -1.0e6 + 0.5 * (math.log(math.pi) - math.log(1.0e6))
        assert val.ln() == pytest.approx(want, abs=1e-9)

    def test_unseeded_peak_fails_with_budget(self, monkeypatch):
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-12)
        monkeypatch.setattr(quadrature, "MAX_SPLITS", 3)
        f = lambda x: -1e10 * (x - 0.5371) ** 2
        with pytest.raises(QuadratureError) as err:
            log_integrate(f, [0.0, 1.0])
        assert err.value.rel_err > 0.0  # achieved estimate is reported

    def test_panel_at_float_resolution_raises_naming_it(self):
        # the nodes of a one-ulp panel round to its two edges, where f_log
        # differs, so Kronrod and Gauss disagree and the panel cannot split
        hi = math.nextafter(1.0, 2.0)
        with pytest.raises(QuadratureError, match=re.escape(
                f"quadrature did not converge at its panel [1.0, {hi!r}], "
                f"which is at float resolution")) as err:
            log_integrate(lambda x: 0.0 if x == 1.0 else 10.0, [1.0, hi])
        assert err.value.rel_err > quadrature.REL_TOL


class TestEdgeCases:
    def test_zero_integrand(self):
        val = log_integrate(lambda x: -math.inf, [0.0, 1.0])
        assert val.is_zero()

    def test_empty_boundaries_rejected(self):
        with pytest.raises(ValueError):
            log_integrate(lambda x: 0.0, [0.0])

    def test_decreasing_boundaries_rejected(self):
        with pytest.raises(ValueError):
            log_integrate(lambda x: 0.0, [1.0, 0.0])

    @pytest.mark.parametrize(
        "edges", [[0.0, math.nan, 1.0], [0.0, math.inf], [-math.inf, 0.0]], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_boundaries_rejected(self, edges):
        with pytest.raises(ValueError):
            log_integrate(lambda x: -x, edges)
        with pytest.raises(ValueError):
            panel_log_values(lambda x: -x, edges)


class TestPanelRule:
    """One 15-point panel: the Kronrod rule integrates polynomials up to
    degree 22 exactly, and the embedded Gauss rule those up to degree 13."""

    LO, HI = 0.5, 2.0

    def _panel(self, coeffs):
        """(ln value, ln error, exact ln integral) for exp(f) = sum c_k x^k."""
        f = lambda x: math.log(sum(c * x**k for k, c in enumerate(coeffs)))
        lo, hi = Fraction(self.LO), Fraction(self.HI)
        exact = sum(Fraction(c) * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
        return (*quadrature._eval_panel(f, self.LO, self.HI), math.log(exact))

    def test_kronrod_exact_to_degree_22(self):
        ln_val, _, ln_exact = self._panel([1.0 + 0.1 * k for k in range(23)])
        assert abs(math.expm1(ln_val - ln_exact)) < 1e-14

    @pytest.mark.parametrize("degree", range(14))
    def test_error_estimate_vanishes_to_degree_13(self, degree):
        ln_val, ln_err, ln_exact = self._panel([1.0] * (degree + 1))
        assert abs(math.expm1(ln_val - ln_exact)) < 1e-14
        assert ln_err <= ln_val - 30.0


class TestHelpers:
    def test_ladder_contains_endpoints_and_is_sorted(self):
        pts = geometric_ladder(-2.0, 3.0, 0.7)
        assert pts[0] == -2.0 and pts[-1] == 3.0
        assert pts == sorted(pts)
        assert all(-2.0 <= p <= 3.0 for p in pts)

    def test_panel_values_sum_to_integral(self, monkeypatch):
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-12)
        f = lambda x: -x * x
        grid = np.linspace(-3.0, 3.0, 101)
        logs = panel_log_values(f, grid)
        total = LogReal.zero()
        for v in logs:
            total = total + LogReal.from_log(v)
        ref = log_integrate(f, geometric_ladder(-3.0, 3.0, 0.0))
        assert total.to_float() == pytest.approx(ref.to_float(), rel=1e-8)
