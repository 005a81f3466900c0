"""Signed log-scale scalars.

Facet counts blow past float range very quickly (they can exceed
10**10000 already for moderate dimensions), so every count-like quantity
in this package is carried as a sign plus the natural log of the
magnitude and only converted to a linear float at the output boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogReal", "log_add_exp", "log_sub_exp"]

_NEG_INF = float("-inf")

# |ln x| below this is representable as a linear float64
LINEAR_LN_LIMIT = 700.0


def log_add_exp(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without overflow; tolerates -inf."""
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log_sub_exp(a: float, b: float) -> float:
    """log(exp(a) - exp(b)) for a >= b; returns -inf on exact cancellation."""
    if b == _NEG_INF:
        return a
    if a < b:
        raise ValueError(f"log_sub_exp requires a >= b, got a={a}, b={b}")
    if a == b:
        return _NEG_INF
    # expm1 keeps 1 - exp(b - a) nonzero when b - a rounds exp to 1
    return a + math.log(-math.expm1(b - a))


@dataclass(frozen=True)
class LogReal:
    """A real number stored as (sign, ln|value|).

    ``sign`` is -1, 0 or +1 and ``log_abs`` is the natural log of the
    magnitude, with ``-inf`` encoding zero.  The pair is canonical:
    ``sign == 0`` exactly when ``log_abs == -inf``.
    """

    sign: int
    log_abs: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if math.isnan(self.log_abs):
            raise ValueError("log_abs must not be NaN")
        if self.log_abs == _NEG_INF and self.sign != 0:
            object.__setattr__(self, "sign", 0)
        if self.sign == 0 and self.log_abs != _NEG_INF:
            object.__setattr__(self, "log_abs", _NEG_INF)

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls) -> "LogReal":
        return cls(0, _NEG_INF)

    @classmethod
    def one(cls) -> "LogReal":
        return cls(1, 0.0)

    @classmethod
    def from_float(cls, x: float) -> "LogReal":
        if x == 0.0:
            return cls.zero()
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot represent {x}")
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def from_log(cls, log_abs: float, sign: int = 1) -> "LogReal":
        return cls(sign, log_abs)

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        """Linear value; overflows to +-inf when |ln| exceeds float range."""
        if self.sign == 0:
            return 0.0
        if self.log_abs > LINEAR_LN_LIMIT:
            return math.inf * self.sign
        return self.sign * math.exp(self.log_abs)

    def ln(self) -> float:
        """Natural log of a positive value."""
        if self.sign <= 0:
            raise ValueError("ln requires a positive value")
        return self.log_abs

    def to_dict(self) -> dict:
        """Serialization: sign, ln_abs, plus linear value when representable."""
        out = {"sign": self.sign, "ln_abs": self.log_abs}
        if self.sign == 0 or abs(self.log_abs) < LINEAR_LN_LIMIT:
            out["linear"] = self.to_float()
        return out

    # -- arithmetic --------------------------------------------------------
    def __mul__(self, other: "LogReal | float | int") -> "LogReal":
        other = _coerce(other)
        if self.sign == 0 or other.sign == 0:
            return LogReal.zero()
        return LogReal(self.sign * other.sign, self.log_abs + other.log_abs)

    __rmul__ = __mul__

    def __truediv__(self, other: "LogReal | float | int") -> "LogReal":
        other = _coerce(other)
        if other.sign == 0:
            raise ZeroDivisionError("LogReal division by zero")
        if self.sign == 0:
            return LogReal.zero()
        return LogReal(self.sign * other.sign, self.log_abs - other.log_abs)

    def __add__(self, other: "LogReal | float | int") -> "LogReal":
        other = _coerce(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.sign == other.sign:
            return LogReal(self.sign, log_add_exp(self.log_abs, other.log_abs))
        # opposite signs: subtract the smaller magnitude from the larger
        if self.log_abs == other.log_abs:
            return LogReal.zero()
        if self.log_abs > other.log_abs:
            return LogReal(self.sign, log_sub_exp(self.log_abs, other.log_abs))
        return LogReal(other.sign, log_sub_exp(other.log_abs, self.log_abs))

    __radd__ = __add__

    def __sub__(self, other: "LogReal | float | int") -> "LogReal":
        return self + (-_coerce(other))

    def __neg__(self) -> "LogReal":
        return LogReal(-self.sign, self.log_abs)

    def __abs__(self) -> "LogReal":
        return LogReal(abs(self.sign), self.log_abs)

    # -- comparisons (by value) ---------------------------------------------
    def _key(self):
        # orderable proxy: sign first, then signed magnitude (zero maps to 0)
        return (self.sign, self.sign * self.log_abs if self.sign else 0.0)

    def __lt__(self, other):
        return self._key() < _coerce(other)._key()

    def __le__(self, other):
        return self._key() <= _coerce(other)._key()

    def __gt__(self, other):
        return self._key() > _coerce(other)._key()

    def __ge__(self, other):
        return self._key() >= _coerce(other)._key()

    def rel_diff(self, other: "LogReal | float | int") -> float:
        """|self - other| / max(|self|, |other|); 0 when both are zero."""
        other = _coerce(other)
        if self.sign == 0 and other.sign == 0:
            return 0.0
        diff = self - other
        scale = max(self.log_abs, other.log_abs)
        if diff.sign == 0:
            return 0.0
        return math.exp(diff.log_abs - scale)

    def __repr__(self):
        return f"LogReal(sign={self.sign}, log_abs={self.log_abs!r})"


def _coerce(x) -> LogReal:
    if isinstance(x, LogReal):
        return x
    return LogReal.from_float(float(x))

