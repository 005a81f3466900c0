"""Log-scale scalars.

Facet counts blow past float range very quickly (they can exceed
10**10000 already for moderate dimensions), so every count, integral and
probability in this package is carried as the natural log of a
non-negative value and only converted to a linear float at the output
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogReal", "log_add_exp"]

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


@dataclass(frozen=True)
class LogReal:
    """The natural log of a non-negative value; -inf is zero."""

    log_abs: float

    def __post_init__(self):
        if not self.log_abs < math.inf:
            raise ValueError(f"log_abs must be finite or -inf, got {self.log_abs}")

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(_NEG_INF)

    @classmethod
    def from_log(cls, log_abs: float) -> "LogReal":
        return cls(log_abs)

    @property
    def sign(self) -> int:
        """0 for zero, 1 otherwise."""
        return 0 if self.log_abs == _NEG_INF else 1

    def is_zero(self) -> bool:
        return self.log_abs == _NEG_INF

    def to_float(self) -> float:
        """Linear value; overflows to inf when ln exceeds float range."""
        if self.log_abs > LINEAR_LN_LIMIT:
            return math.inf
        return math.exp(self.log_abs)

    def ln(self) -> float:
        """Natural log of a positive value."""
        if self.is_zero():
            raise ValueError("ln requires a positive value")
        return self.log_abs

    def to_dict(self) -> dict:
        """Serialization: sign, ln_abs, plus linear value when representable."""
        out = {"sign": self.sign, "ln_abs": self.log_abs}
        if self.is_zero() or abs(self.log_abs) < LINEAR_LN_LIMIT:
            out["linear"] = self.to_float()
        return out

    def __add__(self, other: "LogReal") -> "LogReal":
        return LogReal(log_add_exp(self.log_abs, other.log_abs))
