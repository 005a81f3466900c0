"""Adaptive panel quadrature for log-scale integrands.

The integrands this package cares about look like ``exp(E(theta))`` with
E spanning thousands of log-units and a peak whose width shrinks like
1/d or faster.  Integration therefore happens entirely on E: each panel
is evaluated with a 15-point Gauss-Kronrod rule applied to
``exp(E - E_max)`` (the max-shift trick), and panels are accumulated in
log scale.  Callers seed the panel layout with a geometric ladder around
the peak; the globally adaptive loop (QUADPACK's QAG, Piessens et al.,
1983) then splits the panel of largest error until the summed error is
within the relative target ``REL_TOL`` of the summed value, within a
budget of ``MAX_SPLITS`` splits.  Every height query of the package runs
at this one fixed accuracy; ``log_integrate`` also takes others.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .logreal import LogReal, log_add_exp

__all__ = ["log_integrate", "QuadratureError", "geometric_ladder", "panel_log_values"]

_NEG_INF = float("-inf")
_LADDER_LEVELS = 48
REL_TOL = 1e-9  # relative error target of every integral
MAX_SPLITS = 4000  # panel splits one integral may spend

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


class QuadratureError(ArithmeticError):
    """Raised when the panel budget is exhausted before convergence.

    Carries the achieved relative error estimate and the best value so
    the caller can decide whether to accept it anyway.
    """

    def __init__(self, message: str, log_value: float, rel_err: float):
        super().__init__(f"{message} (achieved rel err ~ {rel_err:.3e})")
        self.log_value = log_value
        self.rel_err = rel_err


@dataclass
class _Panel:
    lo: float
    hi: float
    log_val: float
    log_err: float


def _eval_panel(f_log, lo: float, hi: float) -> _Panel:
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    logs = []
    for x in _XGK[:-1]:
        logs.append(f_log(center - half * x))
        logs.append(f_log(center + half * x))
    logs.append(f_log(center))
    peak = max(logs)
    if peak == _NEG_INF:
        return _Panel(lo, hi, _NEG_INF, _NEG_INF)
    vals = [math.exp(v - peak) for v in logs]
    resk = _WGK[7] * vals[14]
    resg = _WG[3] * vals[14]
    for i in range(7):
        pair = vals[2 * i] + vals[2 * i + 1]
        resk += _WGK[i] * pair
        if i % 2 == 1:
            resg += _WG[i // 2] * pair
    err = abs(resk - resg) * half
    val = resk * half
    log_val = peak + math.log(val) if val > 0.0 else _NEG_INF
    log_err = peak + math.log(err) if err > 0.0 else _NEG_INF
    return _Panel(lo, hi, log_val, log_err)


def geometric_ladder(lo: float, hi: float, center: float) -> list:
    """Panel boundaries clustering geometrically around an interior peak.

    The offsets from the peak are the span times 2^-1 ... 2^-48.
    """
    span = hi - lo
    points = {lo, hi}
    for k in range(1, _LADDER_LEVELS + 1):
        off = span * 2.0 ** (-k)
        for cand in (center - off, center + off):
            if lo < cand < hi:
                points.add(cand)
    if lo < center < hi:
        points.add(center)
    return sorted(points)


def panel_log_values(f_log, boundaries) -> list:
    """Log-scale single-rule value of each cell of a fixed grid.

    Used for cumulative tables where the caller controls the grid
    density; no adaptivity is applied.
    """
    out = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        out.append(_eval_panel(f_log, a, b).log_val if b > a else float("-inf"))
    return out


def _converged_panels(f_log, boundaries, rel_tol: float, max_panels: int) -> list:
    """The paneled interval's panels, split until their summed error
    estimate is within ``rel_tol`` of their summed value.  The panel of
    largest error (lowest index on ties) is replaced by its left half and
    its right half is appended; one at float resolution is kept as it is.
    """
    boundaries = list(boundaries)
    if len(boundaries) < 2:
        raise ValueError("need at least two panel boundaries")
    panels = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        if b < a:
            raise ValueError("panel boundaries must be increasing")
        if b > a:
            panels.append(_eval_panel(f_log, a, b))
    log_vals = np.array([p.log_val for p in panels])
    log_errs = np.array([p.log_err for p in panels])

    splits = 0
    while True:
        total_val = _log_sum(log_vals)
        total_err = _log_sum(log_errs)
        if total_val == _NEG_INF or total_err <= total_val + math.log(rel_tol):
            return panels
        if splits >= max_panels:
            raise QuadratureError(
                f"quadrature did not converge within {max_panels} panel splits",
                _log_total(p.log_val for p in panels),
                math.exp(total_err - total_val),
            )
        idx = int(log_errs.argmax())
        worst = panels[idx]
        mid = 0.5 * (worst.lo + worst.hi)
        if mid <= worst.lo or mid >= worst.hi:
            log_errs[idx] = _NEG_INF  # at float resolution: accept as-is
            continue
        left = _eval_panel(f_log, worst.lo, mid)
        right = _eval_panel(f_log, mid, worst.hi)
        panels[idx], log_vals[idx], log_errs[idx] = left, left.log_val, left.log_err
        panels.append(right)
        log_vals = np.append(log_vals, right.log_val)
        log_errs = np.append(log_errs, right.log_err)
        splits += 1


def _log_sum(logs: np.ndarray) -> float:
    """ln of the sum of exp over ``logs``, by numpy reductions: the totals
    the loop takes each pass.  Returned values are summed by ``_log_total``."""
    peak = logs.max(initial=_NEG_INF)
    if peak == _NEG_INF:
        return _NEG_INF
    return peak + math.log(np.exp(logs - peak).sum())


def _log_total(logs) -> float:
    """ln of the sum of exp over ``logs``, summed left to right."""
    return functools.reduce(log_add_exp, logs, _NEG_INF)


def log_integrate(
    f_log,
    boundaries,
    rel_tol: float = REL_TOL,
    max_panels: int = MAX_SPLITS,
) -> LogReal:
    """Integral of exp(f_log) over the paneled interval, as a LogReal.

    ``boundaries`` is an increasing sequence of panel edges (at least two
    entries).  Raises QuadratureError when the split budget runs out with
    the relative error estimate still above ``rel_tol``.
    """
    panels = _converged_panels(f_log, boundaries, rel_tol, max_panels)
    return LogReal.from_log(_log_total(p.log_val for p in panels))
