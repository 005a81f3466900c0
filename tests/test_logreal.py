"""Log-scale scalars against plain float arithmetic."""

import math

import numpy as np
import pytest

from spherefacets import LogReal
from spherefacets.logreal import log_add_exp


class TestConstruction:
    def test_zero_is_canonical(self):
        z = LogReal.zero()
        assert z.sign == 0 and z.log_abs == -math.inf and z.is_zero()
        assert LogReal.from_log(-math.inf) == z
        assert LogReal.from_log(0.0).sign == 1
        with pytest.raises(ValueError):
            z.ln()

    def test_from_float_roundtrip(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(0.0, 50.0, 200):
            assert LogReal.from_log(math.log(x)).to_float() == pytest.approx(x, rel=1e-15)

    def test_rejects_nan_and_inf(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                LogReal.from_log(bad)

    def test_overflowing_magnitude_converts_to_inf(self):
        assert LogReal.from_log(1e4).to_float() == math.inf


class TestArithmetic:
    """Sums agree with float arithmetic on a random grid."""

    rng = np.random.default_rng(2)
    pairs = [(float(a), float(b)) for a, b in rng.uniform(0.0, 20.0, size=(300, 2))]

    def test_matches_floats(self):
        for a, b in self.pairs:
            got = LogReal.from_log(math.log(a)) + LogReal.from_log(math.log(b))
            assert got.to_float() == pytest.approx(a + b, rel=1e-12)

    def test_no_nan_for_finite_inputs(self):
        vals = [LogReal.zero(), LogReal.from_log(0.0),
                LogReal.from_log(500.0), LogReal.from_log(-500.0)]
        for x in vals:
            assert x + LogReal.zero() == x
            for y in vals:
                s = x + y
                assert not math.isnan(s.log_abs)
                assert s == y + x

    def test_huge_magnitudes_add_without_overflow(self):
        sq = LogReal.from_log(2.0 * math.log(3e200))
        total = sq + sq
        assert total.log_abs == pytest.approx(math.log(2.0) + 2.0 * math.log(3e200), rel=1e-15)
        assert total.to_float() == math.inf


class TestSerialization:
    def test_linear_field_present_when_representable(self):
        d = LogReal.from_log(math.log(12.5)).to_dict()
        assert d["sign"] == 1
        assert d["linear"] == pytest.approx(12.5)
        assert LogReal.zero().to_dict() == {"sign": 0, "ln_abs": -math.inf, "linear": 0.0}

    def test_linear_field_absent_beyond_float_range(self):
        d = LogReal.from_log(1e4).to_dict()
        assert "linear" not in d
        assert d["ln_abs"] == 1e4


class TestLogSumPrimitives:
    def test_log_add_exp(self):
        assert log_add_exp(-math.inf, 3.0) == 3.0
        assert log_add_exp(0.0, 0.0) == pytest.approx(math.log(2.0))
