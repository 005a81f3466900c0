"""Adaptive panel quadrature for log-scale integrands.

The integrands this package cares about look like ``exp(E(t))`` in the
log gap t = ln(u), with E spanning thousands of log-units and a peak
whose width shrinks like 1/d or faster.  Integration happens on E: each panel
is evaluated with a 15-point Gauss-Kronrod rule applied to
``exp(E - E_max)`` (the max-shift trick), as two dot products over the
node vector: the Kronrod value, and its difference from the embedded
7-point Gauss value as the error estimate.  A partition is one float
array with a row (lo, hi, ln value, ln error) per panel, and totals are
log-sums over its columns.  Callers seed the panel layout with a
geometric ladder around the peak; the globally adaptive loop (QUADPACK's
QAG, Piessens et al., 1983) then splits the panel of largest error until
the summed error is within the relative target ``REL_TOL`` of the summed
value, within a budget of ``MAX_SPLITS`` splits.  Every integral of
the package runs at this one fixed accuracy.  This module owns the row
layout: callers build a partition (``_partition``), slice it to a window
(``_sliced``), take its total (``_ln_total``) or cut it into cells of
bounded mass (``_mass_cells``), and never read its rows.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .logreal import LogReal

__all__ = ["log_integrate", "QuadratureError", "geometric_ladder", "panel_log_values"]

_NEG_INF = float("-inf")
_LADDER_LEVELS = 48
REL_TOL = 1e-9  # relative error target of every integral
MAX_SPLITS = 4000  # panel splits one integral may spend

# 15-point Kronrod abscissae/weights from the outermost node in, and the
# embedded 7-point Gauss weights at the same nodes (zero where unused)
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
_WG = (0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0, 0.381830050505119, 0.0, 0.417959183673469)
# the nodes on [-1, 1] in ascending order, and the weights there of the
# Kronrod rule and of the Kronrod rule minus the Gauss rule
_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_KRONROD = _WGK[:-1] + _WGK[::-1]
_KRONROD_MINUS_GAUSS = tuple(k - g for k, g in zip(_KRONROD, _WG[:-1] + _WG[::-1]))


class QuadratureError(ArithmeticError):
    """Raised when the panel budget is exhausted before convergence, or
    when a panel that must be split is at float resolution.

    Carries the achieved relative error estimate and the best value so
    the caller can decide whether to accept it anyway.
    """

    def __init__(self, message: str, log_value: float, rel_err: float):
        super().__init__(f"{message} (achieved rel err ~ {rel_err:.3e})")
        self.log_value = log_value
        self.rel_err = rel_err


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else _NEG_INF


def _eval_panel(f_log, lo: float, hi: float) -> tuple:
    """(ln value, ln error estimate) of the integral of exp(f_log) over [lo, hi]."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    logs = [f_log(center + half * x) for x in _NODES]
    peak = max(logs)
    if peak == _NEG_INF:
        return _NEG_INF, _NEG_INF
    vals = [math.exp(v - peak) for v in logs]
    val = half * sum(map(operator.mul, _KRONROD, vals))
    err = half * abs(sum(map(operator.mul, _KRONROD_MINUS_GAUSS, vals)))
    return peak + _log(val), peak + _log(err)


def _checked_edges(boundaries) -> list:
    """The panel edges as floats; raises ValueError on a non-finite one."""
    edges = [float(b) for b in boundaries]
    if not all(map(math.isfinite, edges)):
        raise ValueError(f"panel boundaries must be finite, got {edges}")
    return edges


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
    edges = _checked_edges(boundaries)
    return [_eval_panel(f_log, a, b)[0] if b > a else _NEG_INF for a, b in zip(edges, edges[1:])]


def _rows(f_log, cells) -> np.ndarray:
    """One row (lo, hi, ln value, ln error) per nonempty cell (lo, hi)."""
    return np.array([(a, b, *_eval_panel(f_log, a, b)) for a, b in cells if b > a]).reshape(-1, 4)


def _converged(f_log, panels: np.ndarray, what: str) -> np.ndarray:
    """The rows ``panels``, split in place until the summed error estimate
    is within ``REL_TOL`` of the summed value.  The row of largest error
    (lowest index on ties) is replaced by its left half and its right half
    is appended.  Raises QuadratureError, naming the integral ``what``,
    after ``MAX_SPLITS`` splits, or at once, naming the panel too, when
    that row is at float resolution and cannot be split.
    """
    splits = 0
    while True:
        total_val, total_err = _log_sum(panels[:, 2]), _log_sum(panels[:, 3])
        if total_val == _NEG_INF or total_err <= total_val + math.log(REL_TOL):
            return panels
        idx = int(panels[:, 3].argmax())
        lo, hi = panels[idx, :2].tolist()
        mid = 0.5 * (lo + hi)
        if splits >= MAX_SPLITS or not lo < mid < hi:
            why = (f"within {MAX_SPLITS} panel splits" if splits >= MAX_SPLITS
                   else f"at its panel [{lo!r}, {hi!r}], which is at float resolution")
            raise QuadratureError(f"{what} did not converge {why}", total_val,
                                  math.exp(total_err - total_val))
        panels[idx] = (lo, mid, *_eval_panel(f_log, lo, mid))
        panels = np.vstack((panels, (mid, hi, *_eval_panel(f_log, mid, hi))))
        splits += 1


def _log_sum(logs: np.ndarray) -> float:
    """ln of the sum of exp over ``logs``, by numpy reductions."""
    peak = float(logs.max(initial=_NEG_INF))
    if peak == _NEG_INF:
        return _NEG_INF
    return peak + math.log(np.exp(logs - peak).sum())


def _partition(f_log, boundaries, what: str) -> np.ndarray:
    """The converged partition of exp(f_log) over the increasing, finite
    panel edges ``boundaries``; a QuadratureError names the integral ``what``."""
    edges = _checked_edges(boundaries)
    if len(edges) < 2:
        raise ValueError("need at least two panel boundaries")
    if any(b < a for a, b in zip(edges, edges[1:])):
        raise ValueError("panel boundaries must be increasing")
    return _converged(f_log, _rows(f_log, zip(edges, edges[1:])), what)


def _sliced(f_log, panels: np.ndarray, lo: float, hi: float, what: str) -> np.ndarray:
    """The converged partition of [lo, hi] cut from the partition ``panels``:
    the panels inside the window as they are, then the one or two pieces
    it cuts at its edges, evaluated fresh."""
    whole = (lo <= panels[:, 0]) & (panels[:, 1] <= hi)
    cut = panels[~whole & (panels[:, 0] < hi) & (lo < panels[:, 1]), :2].clip(lo, hi)
    return _converged(f_log, np.vstack((panels[whole], _rows(f_log, cut.tolist()))), what)


def _ln_total(panels: np.ndarray) -> float:
    """ln of the integral over a partition."""
    return _log_sum(panels[:, 2])


def _mass_cells(f_log, panels: np.ndarray, num: int) -> tuple:
    """(edges, ln values) of cells cut from a partition, from its upper end
    down: each panel is cut evenly into 1 + floor(num * its share of the
    total) cells, and the edges are the upper end, then each cell's lower edge."""
    share_ln = _ln_total(panels) - math.log(num)
    ends, cells = [float(panels[:, 1].max())], []
    for lo, hi, log_val in panels[np.argsort(-panels[:, 0]), :3].tolist():
        edges = np.linspace(lo, hi, 2 + int(math.exp(log_val - share_ln)))
        ends.extend(edges[-2::-1])
        cells.extend(reversed(panel_log_values(f_log, edges)))
    return ends, cells


def log_integrate(f_log, boundaries) -> LogReal:
    """Integral of exp(f_log) over the paneled interval, as a LogReal.

    ``boundaries`` is an increasing sequence of finite panel edges (at
    least two entries).  Raises QuadratureError when the split budget runs
    out with the relative error estimate still above ``REL_TOL``.
    """
    return LogReal.from_log(_ln_total(_partition(f_log, boundaries, "quadrature")))
