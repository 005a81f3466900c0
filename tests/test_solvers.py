"""Scalar solver routines on problems with known answers."""

import math
import re

import pytest

from spherefacets.numerics import ConvergenceError
from spherefacets.solvers import BracketError, golden_max, newton_bracketed


class TestNewtonBracketed:
    def test_endpoint_roots(self):
        assert newton_bracketed(lambda x: x, lambda x: 1.0, 0.0, 1.0) == 0.0
        assert newton_bracketed(lambda x: x - 1.0, lambda x: 1.0, 0.0, 1.0) == 1.0

    def test_zero_slope_bisects(self):
        root = newton_bracketed(lambda x: x * x - 2.0, lambda x: 0.0, 0.0, 2.0, xtol=1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_cubic(self):
        f = lambda x: x**3 - 2.0 * x - 5.0
        df = lambda x: 3.0 * x**2 - 2.0
        root = newton_bracketed(f, df, 1.0, 3.0, xtol=1e-13)
        assert f(root) == pytest.approx(0.0, abs=1e-10)

    def test_survives_bad_derivative(self):
        # derivative lies; bisection fallback must still converge
        f = lambda x: math.tanh(x - 0.7)
        root = newton_bracketed(f, lambda x: 1e-30, 0.0, 2.0, xtol=1e-12)
        assert root == pytest.approx(0.7, abs=1e-10)

    def test_noisy_function_stops_on_short_step(self):
        # noise of 1e-12 keeps Newton from closing the bracket on its own;
        # a step below xtol/2 must end the iteration
        calls = []

        def f(x):
            calls.append(x)
            return math.tanh(4.0 * (x - 0.3)) + 1e-12 * math.sin(1e6 * x)

        df = lambda x: 4.0 / math.cosh(4.0 * (x - 0.3)) ** 2
        root = newton_bracketed(f, df, -1.5, 1.5, x0=1.0, xtol=1e-10)
        assert root == pytest.approx(0.3, abs=1e-10)
        assert len(calls) <= 12

    def test_requires_sign_change(self):
        with pytest.raises(BracketError):
            newton_bracketed(lambda x: 1.0, lambda x: 0.0, 0.0, 1.0)

    def test_unclosed_bracket_raises_naming_it(self):
        # a jump with no zero: at xtol = 0 bisection stalls between two
        # adjacent floats, and the step cap ends it loudly
        step = lambda x: -1.0 if x < 0.3 else 1.0
        with pytest.raises(ConvergenceError, match=r"bracket \[0\.299.*, 0\.3\] not closed to xtol=0\.0"):
            newton_bracketed(step, lambda x: 0.0, 0.0, 1.0, xtol=0.0)


class TestGoldenMax:
    def test_rejects_an_empty_interval(self):
        with pytest.raises(ValueError, match=re.escape("empty interval [1.0, 0.0]")):
            golden_max(lambda x: x, 1.0, 0.0)

    def test_parabola(self):
        x, fx = golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, xtol=1e-14)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-17)

    def test_monotone_function_picks_endpoint(self):
        x, _ = golden_max(lambda x: x, 0.0, 1.0, xtol=1e-12)
        assert x == pytest.approx(1.0, abs=1e-9)

    def test_tolerates_neg_inf(self):
        f = lambda x: -math.inf if x < 0.5 else -(x - 0.8) ** 2
        x, _ = golden_max(f, 0.0, 1.0, xtol=1e-12)
        assert x == pytest.approx(0.8, abs=1e-9)

    # both first probes, at 0.382 and 0.618, fall in the -inf stretch
    @pytest.mark.parametrize("f, argmax", [
        (lambda x: -math.inf if x > 0.3 else -(x - 0.2) ** 2, 0.2),
        (lambda x: -math.inf if x > 0.3 else x, 0.3),
        (lambda x: -math.inf if x < 0.7 else -(x - 0.8) ** 2, 0.8),
        (lambda x: -math.inf if x < 0.7 else -x, 0.7),
    ])
    def test_neg_inf_stretch_over_both_probes(self, f, argmax):
        x, fx = golden_max(f, 0.0, 1.0, xtol=1e-12)
        assert x == pytest.approx(argmax, abs=1e-9)
        assert fx == f(x) > -math.inf
