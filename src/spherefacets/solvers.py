"""Scalar solvers: Newton in a sign-change bracket, golden section.

One root finder serves every root: ``newton_bracketed`` bisects whenever
a Newton step would leave its bracket or the slope is zero, so a slope of
0 makes it plain bisection, and it raises rather than guess when its
steps run out.  ``golden_max`` serves every peak, also one beside a
stretch where f is -inf, at either end.  Small routines tuned for the
well-behaved objectives in this package (concave rate functions,
monotone CDFs, unimodal log-integrands).  They favor guaranteed
convergence over iteration count.
"""

from __future__ import annotations

import math

from .numerics import ConvergenceError

__all__ = ["newton_bracketed", "golden_max", "BracketError"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# step caps; each search stops sooner once its interval is below xtol
_NEWTON_STEPS = 100
_GOLDEN_STEPS = 300


class BracketError(ValueError):
    """A root bracket could not be established or was invalid."""


def newton_bracketed(
    f, fprime, lo: float, hi: float, x0: float | None = None,
    xtol: float = 1e-10,
):
    """Newton iteration confined to a sign-change bracket.

    Steps that leave the bracket or fail to shrink it fast enough fall
    back to bisection, as do zero slopes, so convergence is guaranteed
    for continuous f.  A root at an end of [lo, hi] is returned as that end.
    A Newton step below xtol/2 ends it: Newton from one side of a noisy
    f (a quadrature) may never close the bracket.  If neither ends it in
    ``_NEWTON_STEPS`` steps, ConvergenceError names the bracket and xtol.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    x = x0 if x0 is not None else 0.5 * (lo + hi)
    x = min(max(x, lo), hi)
    for _ in range(_NEWTON_STEPS):
        fx = f(x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        if hi - lo < xtol:
            return 0.5 * (lo + hi)
        dfx = fprime(x)
        if dfx != 0.0:
            step = fx / dfx
            cand = x - step
            if abs(step) < 0.5 * xtol:
                return min(max(cand, lo), hi)
            if lo < cand < hi and abs(step) < 0.5 * (hi - lo):
                x = cand
                continue
        x = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"bracket [{lo}, {hi}] not closed to xtol={xtol} in {_NEWTON_STEPS} steps")


def golden_max(f, a: float, b: float, xtol: float = 1e-12):
    """Maximum of a unimodal f on [a, b] by golden-section search.

    Returns (x, f(x)).  Tolerance is absolute in x.  f may be -inf on a
    stretch at either end of [a, b]: -inf values lose the comparisons,
    and f(a) is evaluated once, at the first tie of two -inf probes.
    If it is finite the stretch is the upper one and ties move the
    search left, else right.
    """
    if b < a:
        raise ValueError(f"empty interval [{a}, {b}]")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    fa = None  # f(a) at the first -inf tie
    for _ in range(_GOLDEN_STEPS):
        if b - a < xtol:
            break
        if fa is None and fc == fd == -math.inf:
            fa = f(a)
        if fc > fd or (fc == fd == -math.inf and fa > -math.inf):
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = c if fc > fd else d
    return x, max(fc, fd)
