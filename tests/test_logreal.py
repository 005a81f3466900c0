"""Log-scale scalar arithmetic against plain float arithmetic."""

import math

import numpy as np
import pytest

from spherefacets import LogReal
from spherefacets.logreal import log_add_exp, log_sub_exp


class TestConstruction:
    def test_zero_is_canonical(self):
        z = LogReal.zero()
        assert z.sign == 0 and z.log_abs == -math.inf
        assert LogReal(1, -math.inf).sign == 0
        assert LogReal(0, 5.0).log_abs == -math.inf

    def test_from_float_roundtrip(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-50.0, 50.0, 200):
            if x == 0.0:
                continue
            assert LogReal.from_float(x).to_float() == pytest.approx(x, rel=1e-15)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            LogReal.from_float(math.inf)
        with pytest.raises(ValueError):
            LogReal(1, math.nan)

    def test_overflowing_magnitude_converts_to_inf(self):
        big = LogReal.from_log(1e4)
        assert big.to_float() == math.inf
        assert (-big).to_float() == -math.inf


class TestArithmetic:
    """Field operations agree with float arithmetic on a random grid."""

    rng = np.random.default_rng(2)
    pairs = [
        (float(a), float(b))
        for a, b in rng.uniform(-20, 20, size=(300, 2))
        if a != 0 and b != 0
    ]

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_matches_floats(self, op):
        for a, b in self.pairs:
            la, lb = LogReal.from_float(a), LogReal.from_float(b)
            if op == "add":
                got, want = (la + lb).to_float(), a + b
            elif op == "sub":
                got, want = (la - lb).to_float(), a - b
            elif op == "mul":
                got, want = (la * lb).to_float(), a * b
            else:
                got, want = (la / lb).to_float(), a / b
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_exact_cancellation_gives_zero(self):
        a = LogReal.from_float(3.25)
        assert (a - a).is_zero()
        assert (a + (-a)).is_zero()

    def test_no_nan_for_finite_inputs(self):
        vals = [LogReal.zero(), LogReal.one(), -LogReal.one(),
                LogReal.from_log(500.0), -LogReal.from_log(500.0),
                LogReal.from_log(-500.0)]
        for x in vals:
            for y in vals:
                s = x + y
                assert not math.isnan(s.log_abs)
                p = x * y
                assert not math.isnan(p.log_abs)

    def test_huge_magnitudes_multiply_without_overflow(self):
        a = LogReal.from_float(3e200)
        sq = a * a
        assert sq.log_abs == pytest.approx(2 * math.log(3e200), rel=1e-15)
        assert sq.to_float() == math.inf

    def test_power_and_division(self):
        a = LogReal.from_float(2.0)
        with pytest.raises(ZeroDivisionError):
            a / LogReal.zero()

    def test_comparisons(self):
        xs = [-4.0, -0.5, 0.0, 1e-8, 3.0]
        for a in xs:
            for b in xs:
                la = LogReal.from_float(a) if a else LogReal.zero()
                lb = LogReal.from_float(b) if b else LogReal.zero()
                assert (la < lb) == (a < b)
                assert (la >= lb) == (a >= b)


class TestSerialization:
    def test_linear_field_present_when_representable(self):
        d = LogReal.from_float(-12.5).to_dict()
        assert d["sign"] == -1
        assert d["linear"] == pytest.approx(-12.5)

    def test_linear_field_absent_beyond_float_range(self):
        d = LogReal.from_log(1e4).to_dict()
        assert "linear" not in d
        assert d["ln_abs"] == 1e4


class TestLogSumPrimitives:
    def test_log_add_exp(self):
        assert log_add_exp(-math.inf, 3.0) == 3.0
        assert log_add_exp(0.0, 0.0) == pytest.approx(math.log(2.0))

    def test_log_sub_exp(self):
        assert log_sub_exp(math.log(5), math.log(3)) == pytest.approx(math.log(2))
        assert log_sub_exp(2.0, 2.0) == -math.inf
        with pytest.raises(ValueError):
            log_sub_exp(1.0, 2.0)

    def test_rel_diff_one_ulp_apart(self):
        # exp(b - a) rounds to 1 when 0 < a - b < ~1.1e-16
        a = -0.40546510810816677
        b = math.nextafter(a, 0.0)
        diff = LogReal(1, a).rel_diff(LogReal(1, b))
        assert 0.0 < diff == pytest.approx(b - a, rel=1e-6)

    def test_rel_diff(self):
        a = LogReal.from_float(1.0)
        b = LogReal.from_float(1.0 + 1e-9)
        assert a.rel_diff(b) == pytest.approx(1e-9, rel=1e-3)
        assert LogReal.zero().rel_diff(LogReal.zero()) == 0.0
