"""Quadrature-exact facet counts and facet-height laws.

For n i.i.d. uniform points on the unit sphere in R^d, the expected
number of facets whose supporting hyperplane sits at height in [h1, h2]
is

    F[h1, h2] = binom(n, d) * 2 * c_out * J[h1, h2],

    J[h1, h2] = integral( (1 - h^2)**((d*d - 2*d - 1)/2) * G(h)**(n - d),
                          h = h1 .. h2 ),

where G is the single-point height CDF (ln G is ``numerics.log_inner_cdf``)
and c_out normalizes (1 - h^2)**((d*d - 2*d - 1)/2) on [-1, 1].  The typical
facet height has CDF J[-1, h] / J[-1, 1].  G is a symmetric beta CDF, and
E reaches it through the one kernel ``numerics._log_half_tail``.

Numerically everything runs on the substitution h = sin(theta), which
removes the d = 2 endpoint singularity and makes the log-integrand
concave in theta.  The integration variable is the gap u = pi/2 - theta
to the upper endpoint, because the integrand mass can concentrate within
u ~ exp(-2 ln(n) / d), far below float resolution of theta itself.  Each
count is one segment, integrated afresh: a window spanning less than a
factor 2 in the gap is integrated linearly in u, with exact edges, and
every other window in t = ln(u).  The peak is located by golden-section
search before paneling, magnitudes stay in log scale throughout, and
counts are returned as LogReal.

A law integrates once.  ``TypicalHeightLaw`` keeps the converged
partition of the full range (one segment in t), and every CDF, cap
statistic, quantile and table query is a slice of that partition,
refined only where the window needs it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .logreal import LogReal
from .numerics import _log_cap_constant, _log_half_tail, log_c_alpha
from .quadrature import QuadratureError, geometric_ladder
from .solvers import golden_max, newton_bracketed

__all__ = [
    "PolytopeParams",
    "HeightInterval",
    "FULL_RANGE",
    "TypicalHeightLaw",
    "height_integral",
    "expected_facets",
    "log_binomial",
    "typical_height_cdf",
    "typical_height_quantile",
    "gamma_statistic_cdf",
    "cdf_table",
]

HALF_PI = 0.5 * math.pi
_NEG_INF = float("-inf")
_MAX_EXP_ARG = 709.0
# below this ln(gap), sin(u) = u and cos(u) = 1 in float
_SMALL_LOG_GAP = -40.0
_LN_PI = math.log(math.pi)
# the largest dimension: up to it d * d - 2 * d, the exponent of sin u in
# E, converts to a finite float (it stops at about 1.34e154)
MAX_DIMENSION = 10**154


@dataclass(frozen=True)
class PolytopeParams:
    """Point count and ambient dimension, n > d >= 2, d <= ``MAX_DIMENSION``.

    ``n`` may be omitted in favor of ``ln_n`` for counts beyond float
    range (needed once n grows like exp(rho * d)).
    """

    n: float | None
    d: int
    ln_n: float | None = None

    def __post_init__(self):
        if not (isinstance(self.d, int) and 2 <= self.d <= MAX_DIMENSION):
            raise ValueError(f"dimension must be an integer in [2, 10**154], got d={self.d}")
        if self.n is not None:
            try:
                n = float(self.n)
            except OverflowError:
                raise ValueError(
                    "n is too large for a float; give ln_n instead, "
                    "PolytopeParams.from_log(math.log(n), d)"
                ) from None
            if not math.isfinite(n):
                raise ValueError(f"n must be finite, got n={self.n}")
            if not (n > self.d and n == math.floor(n)):
                raise ValueError(f"need integer n > d, got n={self.n}, d={self.d}")
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "ln_n", math.log(n))
        else:
            if self.ln_n is None:
                raise ValueError("provide either n or ln_n")
            if not math.isfinite(self.ln_n):
                raise ValueError(f"ln_n must be finite, got ln_n={self.ln_n}")
            if not self.ln_n > math.log(self.d + 1) - 1e-12:
                raise ValueError(f"ln_n={self.ln_n} implies n <= d+1 for d={self.d}")
            # log_binomial forms d ln n and _GapIntegrand.t_floor -2 ln n - 100;
            # with d >= 2 the first overflows first (100 is far below an ulp there)
            if not math.isfinite(self.d * self.ln_n):
                raise ValueError(
                    f"ln_n={self.ln_n} is too large for d={self.d}: d * ln_n overflows a float"
                )

    @classmethod
    def from_log(cls, ln_n: float, d: int) -> "PolytopeParams":
        return cls(None, d, ln_n)

    @property
    def log_n_minus_d(self) -> float:
        """ln(n - d), valid in both representations."""
        if self.n is not None:
            return math.log(self.n - self.d)
        scale = self.d * math.exp(-self.ln_n) if self.ln_n < 745 else 0.0
        return self.ln_n + math.log1p(-scale)


@dataclass(frozen=True)
class HeightInterval:
    """A height window [h1, h2] inside [-1, 1].

    Angular endpoints theta = arcsin(h) and upper gaps u = pi/2 - theta
    are carried alongside the heights; windows hugging h = 1 can be
    constructed from the gap directly (``upper_tail``) with precision the
    height field itself cannot represent.
    """

    h1: float
    h2: float
    theta1: float = None  # type: ignore[assignment]
    theta2: float = None  # type: ignore[assignment]
    gap1: float = None  # type: ignore[assignment]  # pi/2 - theta1 (larger gap)
    gap2: float = None  # type: ignore[assignment]  # pi/2 - theta2

    def __post_init__(self):
        if not (-1.0 <= self.h1 <= self.h2 <= 1.0):
            raise ValueError(f"need -1 <= h1 <= h2 <= 1, got [{self.h1}, {self.h2}]")
        if self.theta1 is None:
            object.__setattr__(self, "theta1", math.asin(self.h1))
        if self.theta2 is None:
            object.__setattr__(self, "theta2", math.asin(self.h2))
        if self.gap1 is None:
            object.__setattr__(self, "gap1", HALF_PI - self.theta1)
        if self.gap2 is None:
            object.__setattr__(self, "gap2", HALF_PI - self.theta2)
        if not 0.0 <= self.gap2 <= self.gap1:
            raise ValueError("angular gaps are inconsistent with the window order")

    @classmethod
    def from_theta(cls, theta1: float, theta2: float) -> "HeightInterval":
        if not -HALF_PI <= theta1 <= theta2 <= HALF_PI:
            raise ValueError("need -pi/2 <= theta1 <= theta2 <= pi/2")
        return cls(math.sin(theta1), math.sin(theta2), theta1, theta2)

    @classmethod
    def upper_tail(cls, gap: float) -> "HeightInterval":
        """The window [sin(pi/2 - gap), 1], with the gap carried exactly."""
        if not 0.0 <= gap <= math.pi:
            raise ValueError(f"gap must lie in [0, pi], got {gap}")
        return cls(math.cos(gap), 1.0, HALF_PI - gap, HALF_PI, gap, 0.0)

    def is_empty(self) -> bool:
        return self.gap1 == self.gap2


FULL_RANGE = HeightInterval(-1.0, 1.0, -HALF_PI, HALF_PI, math.pi, 0.0)


class _GapIntegrand:
    """E(u) for h = cos(u): the log-integrand in the gap variable.

    E(u) = (d^2 - 2d) ln sin(u) + (n - d) ln G(cos u).  By the halving
    identity the tail T = I_{sin^2 u}(a, 1/2) / 2 is 1 - G(cos u) for
    u <= pi/2 and G(cos u) beyond, so E is one kernel call at ln sin u and
    ln |cos u|.  Both come from u directly, the smaller of sin u and
    |cos u| through its log and the larger through log1p of the smaller's
    square, so nothing cancels near u = 0, pi/2 or pi.  ``at_log_gap``
    evaluates E at u = exp(t) for gaps below float range (the mass sits at
    gaps ~ exp(-2 ln(n)/d), which underflows once ln n >> 350 d); below
    t = ``_SMALL_LOG_GAP``, ln sin u = t in float.
    """

    def __init__(self, params: PolytopeParams):
        self.params = params
        self.a = 0.5 * (params.d - 1)  # inner beta parameter
        self.p_out = params.d * params.d - 2 * params.d
        self.log_m = params.log_n_minus_d
        # left scan limit for ln(u): generously below any possible peak
        self.t_floor = min(-50.0, -2.0 * params.ln_n - 100.0)

    def __call__(self, u: float) -> float:
        if u <= 0.0 or u >= math.pi:
            return _NEG_INF
        s, cos_u = math.sin(u), math.cos(u)
        c = abs(cos_u)
        if s < c:
            return self._at(math.log(s), 0.5 * math.log1p(-s * s), cos_u < 0.0)
        return self._at(0.5 * math.log1p(-c * c), math.log(c), cos_u < 0.0)

    def at_log_gap(self, t: float) -> float:
        """E(exp(t)), also for gaps below float range."""
        if t > _SMALL_LOG_GAP:
            return self(math.exp(t))
        return self._at(t, 0.0, False)

    def _at(self, log_s: float, log_c: float, past_half_pi: bool) -> float:
        """E at the gap with ln sin u = log_s and ln |cos u| = log_c."""
        log_tail = _log_half_tail(self.a, log_s, log_c)
        if past_half_pi:
            lnl = math.log(-log_tail)  # ln(-ln G) with G = T
        else:
            tail = math.exp(log_tail)  # T = 1 - G
            lnl = math.log(-math.log1p(-tail)) if tail > 1e-8 else log_tail + math.log1p(0.5 * tail)
        arg = self.log_m + lnl
        if arg >= _MAX_EXP_ARG:
            return _NEG_INF
        return self.p_out * log_s - math.exp(arg)


def _locate_peak(f_log, lo: float, hi: float, xtol: float):
    """golden_max of f_log on [lo, hi], also when f_log is -inf at its probes.

    E is -inf where ln n + ln(-ln G) overflows exp, an upper stretch of
    any segment.  golden_max never evaluates the ends and moves right
    past -inf probes, so a peak left of both probes would be lost; the
    search is then rerun below the edge of the finite stretch.
    """
    mode, peak = golden_max(f_log, lo, hi, xtol=xtol)
    if peak != _NEG_INF or f_log(lo) == _NEG_INF:
        return mode, peak
    a, b = lo, hi  # f_log(a) finite, f_log(b) = -inf
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if f_log(mid) == _NEG_INF:
            b = mid
        else:
            a = mid
    return golden_max(f_log, lo, a, xtol=xtol)


@dataclass(frozen=True)
class _Segment:
    """A log-integrand on [lo, hi] with its peak already located.

    The variable is the gap u for a narrow window, else t = ln(u).  A
    segment with a peak of -inf gets no panels: E is -inf exactly on an
    upper stretch of gaps, because ln n + ln(-ln G) grows with the gap,
    and ``_locate_peak`` returns -inf only when f_log(lo) is -inf, so
    such a segment is -inf throughout.
    """

    f_log: Callable[[float], float]
    lo: float
    hi: float
    mode: float
    peak: float


def _located_segment(f_u: _GapIntegrand, u_lo: float, u_hi: float, t_hi: float) -> _Segment:
    """Gaps [u_lo, u_hi] as one located segment; t_hi is ln(u_hi), and
    u_hi may underflow to zero when u_lo is zero.

    A window with u_hi <= 2 u_lo is integrated linearly in the gap, so its
    edges stay exact however narrow it is.  Any other window is integrated
    in t = ln(gap), where it is at least ln 2 wide, far above float
    resolution of t.  With u_lo = 0 the lower limit is cut where the
    integrand has fallen 750 log-units below its peak; the truncated mass
    is a factor exp(-750) of the total, far below any quadrature tolerance.
    """
    if 0.0 < u_lo and u_hi <= 2.0 * u_lo:
        mode, peak = _locate_peak(f_u, u_lo, u_hi, max((u_hi - u_lo) * 1e-12, 1e-300))
        return _Segment(f_u, u_lo, u_hi, mode, peak)
    f_t = lambda t: f_u.at_log_gap(t) + t
    t_lo = math.log(u_lo) if u_lo > 0.0 else min(f_u.t_floor, t_hi - 1.0)
    mode, peak = _locate_peak(f_t, t_lo, t_hi, 1e-10)
    if u_lo == 0.0 and peak != _NEG_INF:
        floor, t_lo, step = t_lo, mode - 1.0, 1.0
        while t_lo > floor and f_t(t_lo) > peak - 750.0:
            step *= 2.0
            t_lo = mode - step
        t_lo = max(t_lo, floor)
    return _Segment(f_t, t_lo, t_hi, mode, peak)


def _integral_name(params: PolytopeParams, u_lo: float, u_hi: float, t_hi: float) -> str:
    """The height integral over the gaps [u_lo, u_hi], named by (n or ln n,
    d) and its gaps for a QuadratureError; t_hi is ln(u_hi)."""
    size = f"n = {params.n:.0f}" if params.n is not None else f"ln n = {params.ln_n!r}"
    upper = f"{u_hi!r}" if u_hi > 0.0 else f"exp({t_hi!r})"
    return f"height integral at {size}, d = {params.d} over the gaps [{u_lo!r}, {upper}]"


def _integrated_segment(f_u, u_lo, u_hi, t_hi) -> tuple:
    """(ln of the integral, segment, converged partition) over the gaps
    [u_lo, u_hi] of ``_located_segment``; the engine of every count and
    of a law's partition.  A segment of zero mass gets no partition.
    """
    seg = _located_segment(f_u, u_lo, u_hi, t_hi)
    if seg.peak == _NEG_INF:
        return _NEG_INF, seg, None
    ladder = geometric_ladder(seg.lo, seg.hi, seg.mode)
    part = quadrature._partition(seg.f_log, ladder, _integral_name(f_u.params, u_lo, u_hi, t_hi))
    return quadrature._ln_total(part), seg, part


def height_integral(params: PolytopeParams, window: HeightInterval = FULL_RANGE) -> LogReal:
    """The height-window integral J[h1, h2], as a LogReal.

    The window is one segment in the gap u = pi/2 - theta: linear in u
    when it spans less than a factor 2 in u, else in ln(u).  The
    quadrature runs at its one fixed accuracy, a relative target of 1e-9
    within 4000 panel splits.

    Raises QuadratureError, with the achieved error estimate, if the
    split budget runs out first.
    """
    if window.is_empty():
        return LogReal.zero()
    u_lo, u_hi = window.gap2, window.gap1
    total_ln, _, _ = _integrated_segment(_GapIntegrand(params), u_lo, u_hi, math.log(u_hi))
    return LogReal.from_log(total_ln)


def log_binomial(params: PolytopeParams) -> float:
    """ln binom(n, d); uses the log-only representation when n has one.

    With n given, binom(n, d) = binom(n, k) for k = min(d, n - d) is the
    product of the k factors (n - k + j)/j, summed in log up to k = 100 000.
    """
    d = params.d
    if params.n is not None:
        n = params.n
        k = int(min(d, n - d))
        if k <= 100_000:
            return math.fsum(math.log((n - k + j) / j) for j in range(1, k + 1))
    total = d * params.ln_n - math.lgamma(d + 1)
    if params.ln_n < 50.0:
        inv_n = math.exp(-params.ln_n)
        total += math.fsum(math.log1p(-k * inv_n) for k in range(1, d))
    return total


def expected_facets(params: PolytopeParams, window: HeightInterval = FULL_RANGE) -> LogReal:
    """Expected number of facets with height in the window, as a LogReal.

    A window's count is zero when ln F lies below float range.  The
    full-range count is at least d + 1, so a zero there raises
    QuadratureError, naming ln n and d.
    """
    integral = height_integral(params, window)
    if integral.is_zero():
        if window == FULL_RANGE:
            raise QuadratureError(
                f"the full-range height integral at ln n = {params.ln_n!r}, d = {params.d} "
                f"came back zero, below any count of at least d + 1 facets",
                _NEG_INF,
                math.inf,
            )
        return LogReal.zero()
    d = params.d
    ln_f = (
        log_binomial(params)
        + math.log(2.0)
        + log_c_alpha(0.5 * (d * d - 2 * d - 1))
        + integral.ln()
    )
    return LogReal.from_log(ln_f)


@dataclass
class TypicalHeightLaw:
    """Height distribution of the typical facet: CDF(h) = J[-1, h] / J[-1, 1].

    A law is one partition: the converged panels of the full range, one
    segment in t = ln(gap), which ``for_params`` keeps from integrating
    the normalizer (a law built from a normalizer alone integrates it on
    its first query).  Every query is a slice of that partition: the
    panels wholly inside the window are reused as they are, the one or
    two pieces the window cuts at its edges are evaluated fresh, and the
    slice is refined until its error is within the quadrature's relative
    target of its own mass.  Refinements are not stored.
    """

    params: PolytopeParams
    normalizer: LogReal

    def __post_init__(self):
        if not self.normalizer.sign == 1:
            raise ValueError("normalizer must be positive")

    @classmethod
    def for_params(cls, params: PolytopeParams) -> "TypicalHeightLaw":
        total_ln, *partition = _integrated_segment(_GapIntegrand(params), 0.0, math.pi, _LN_PI)
        law = cls(params, LogReal.from_log(total_ln))
        law._partition = tuple(partition)
        return law

    @functools.cached_property
    def _partition(self) -> tuple:
        """(segment, converged partition) of the full range of gaps, built
        as ``for_params`` builds it."""
        return TypicalHeightLaw.for_params(self.params)._partition

    def _mass_of_gaps(self, u_lo: float, t_hi: float = _LN_PI) -> float:
        """Probability of gaps pi/2 - theta in [u_lo, exp(t_hi)].

        The window is cut to the partition's span in t = ln(gap); the mass
        outside it is a factor exp(-750) of the total.  E is unimodal in
        t, so the window's peak is the segment's when the window holds
        the mode, else the larger edge value; a window whose peak * width
        bound cannot move the normalizer at the relative target has zero
        mass.
        """
        if u_lo == 0.0 and t_hi >= _LN_PI:
            return 1.0
        seg, part = self._partition
        lo = max(math.log(u_lo), seg.lo) if u_lo > 0.0 else seg.lo
        hi = min(t_hi, seg.hi)
        if not lo < hi:
            return 0.0
        ln_j = self.normalizer.ln()
        peak = seg.peak if lo <= seg.mode <= hi else max(seg.f_log(lo), seg.f_log(hi))
        if peak + math.log(hi - lo) < ln_j + math.log(quadrature.REL_TOL) - 40.0:
            return 0.0
        name = _integral_name(self.params, u_lo, math.exp(t_hi), t_hi)
        window = quadrature._sliced(seg.f_log, part, lo, hi, name)
        return min(math.exp(quadrature._ln_total(window) - ln_j), 1.0)


def typical_height_cdf(law: TypicalHeightLaw, h: float) -> float:
    """P(typical height <= h)."""
    if not -1.0 <= h <= 1.0:
        raise ValueError(f"height must lie in [-1, 1], got {h}")
    return law._mass_of_gaps(HALF_PI - math.asin(h))


def typical_height_quantile(law: TypicalHeightLaw, p: float) -> float:
    """Inverse of the typical-height CDF, to 1e-10 absolute in height.

    Newton runs on the angular variable theta = arcsin(h), inside a
    bisection bracket, with the exact density exp(E(pi/2 - theta)) / J as
    the derivative and the mode of the law's partition in ln(gap) as the
    start; each step's CDF is a slice of the partition.  The angular
    tolerance bounds the height error.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    f_u = _GapIntegrand(law.params)
    mode_gap = math.exp(law._partition[0].mode)
    theta = newton_bracketed(
        lambda t: law._mass_of_gaps(HALF_PI - t) - p,
        lambda t: math.exp(f_u(HALF_PI - t) - law.normalizer.ln()),
        -HALF_PI,
        HALF_PI,
        x0=HALF_PI - mode_gap,
        xtol=1e-10,
        max_iter=80,
    )
    return math.sin(theta)


def gamma_statistic_cdf(law: TypicalHeightLaw, y: float) -> float:
    """CDF of the rescaled cap statistic of the typical facet.

    The statistic is Y = n * Gamma(d/2) / (2 sqrt(pi) Gamma((d+1)/2)) *
    (1 - H^2)^((d-1)/2), restricted to H >= 0; for n growing fast enough
    it converges to a Gamma(d-1) law.  The value returned is
    P(H >= h(y)) with h(y) the height solving Y = y; the mass at
    negative heights, ``typical_height_cdf(law, 0.0)``, is not folded in.
    """
    if not y > 0:
        raise ValueError(f"statistic value must be positive, got {y}")
    d = law.params.d
    ln_t = math.log(y) + _log_cap_constant(d) - law.params.ln_n
    # 1 - h^2 = t^(2/(d-1)); the gap is arcsin(sqrt(1 - h^2)), and a cap
    # beyond a hemisphere (t >= 1) takes every H >= 0, the gap pi/2
    ln_root_s = min(ln_t, 0.0) / (d - 1)
    if ln_root_s > -20.0:
        log_gap = math.log(math.asin(min(math.exp(ln_root_s), 1.0)))
    else:
        log_gap = ln_root_s  # arcsin(x) = x to relative O(x^2)
    return law._mass_of_gaps(0.0, log_gap)


def cdf_table(law: TypicalHeightLaw, num: int = 2001) -> tuple:
    """Table (theta, height, cdf) of ``num`` rows of the typical-height
    CDF, theta ascending from -pi/2 to pi/2.

    Rows are placed in proportion to mass: each converged panel of the
    law's partition (one segment in ln(gap)) is cut into
    1 + floor(num * its share of the mass) cells, so no cell holds more
    than 1/num of it, and the CDF at each row is a prefix sum of the
    cells, as accurate as the quadrature.  Those rows open with one
    massless row at the gap pi (h = -1) and close at the gap 0 (h = 1,
    CDF 1); ``num`` of them are kept, evenly by index and always with the
    closing row, and with the opening row too once num >= 2.  Where the
    mass lies below float resolution of theta at pi/2, rows collapse to
    theta = pi/2 and h = 1, but their CDF values stay right.
    """
    if num < 1:
        raise ValueError(f"cdf_table needs num >= 1 rows, got num={num}")
    # the law's partition is the full range as one segment in t = ln(gap)
    seg, part = law._partition
    # rows run from the largest gap down: a massless row at pi, one at the
    # lower end of each cell, and one closing the table at theta = pi/2
    ends, cells = quadrature._mass_cells(seg.f_log, part, num)
    prefix = np.logaddexp.accumulate([_NEG_INF, *cells, _NEG_INF])
    # there are more than num rows: keep num of them, counted from the last
    keep = np.linspace(len(ends), 0, num).astype(int)[::-1]
    gaps = np.append(np.exp(ends), 0.0)[keep]
    return HALF_PI - gaps, np.cos(gaps), np.exp(prefix[keep] - prefix[-1])
