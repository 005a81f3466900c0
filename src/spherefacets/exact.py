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

Numerically everything runs on the gap u = arccos(h) to the upper
endpoint, which removes the d = 2 endpoint singularity, and mostly on
t = ln(u), in which the log-integrand E is unimodal: the integrand mass
can concentrate within u ~ exp(-2 ln(n) / d), far below float resolution
of h itself.  Each window is one segment: one spanning less than a
factor 2 in the gap is integrated linearly in u, with exact edges, and
every other one in t.  The peak is located by golden-section search
before paneling, magnitudes stay in log scale throughout, and counts are
returned as LogReal.

A shape's full range is integrated once, by its law.  ``TypicalHeightLaw``
keeps the converged partition of the full range (one segment in t), its
total gives the full-range count, and every CDF, cap statistic, quantile
and table query is a slice of it.  Other windows integrate afresh.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import quadrature
from .logreal import LogReal
from .numerics import ConvergenceError, _log_binomial, _log_cap_constant, _log_half_tail
from .numerics import log_c_alpha
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
# from this ln(gap) down, sin(u) = u and cos(u) = 1 in float
_SMALL_LOG_GAP = -20.0
_LN_PI = math.log(math.pi)
# |cos(gap) - h| allowed a window's edge; from_theta's pi/2 - theta reaches 3 * 2**-53
_GAP_TOL = 2.0 * math.ulp(1.0)
# the largest dimension: up to it d * d - 2 * d, the exponent of sin u in
# E, converts to a finite float (it stops at about 1.34e154)
MAX_DIMENSION = 10**154


@dataclass(frozen=True)
class PolytopeParams:
    """Point count and ambient dimension, n > d >= 2, d <= ``MAX_DIMENSION``.

    d is any integer by ``operator.index`` (numpy's too), kept as an int.
    ``n`` may be omitted in favor of ``ln_n`` for counts beyond float
    range (needed once n grows like exp(rho * d)).
    """

    n: float | None
    d: int
    ln_n: float | None = None

    def __post_init__(self):
        try:  # a bool becomes 0 or 1, below 2
            d = operator.index(self.d)
        except TypeError:
            d = None
        if d is None or not 2 <= d <= MAX_DIMENSION:
            raise ValueError(f"dimension must be an integer in [2, 10**154], got d={self.d}")
        object.__setattr__(self, "d", int(d))
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
                raise ValueError(f"provide either n or ln_n, got n=None, ln_n=None, d={self.d}")
            if not math.isfinite(self.ln_n):
                raise ValueError(f"ln_n must be finite, got ln_n={self.ln_n}")
            # n - d, as log_n_minus_d derives it, is 1 or more within n ulp(ln n)
            slack = math.exp(min(self.ln_n, 709.0)) * math.ulp(self.ln_n)
            if not (self.ln_n > math.log(self.d) and self.d * math.exp(-self.ln_n) < 1.0
                    and math.exp(min(self.log_n_minus_d, 0.0)) >= 1.0 - slack):
                raise ValueError(f"ln_n={self.ln_n} implies n - d < 1 for d={self.d}")
            # log_binomial forms about d ln n and _GapIntegrand.t_floor -2 ln n - 100;
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


def _log_gap(log_s: float) -> float:
    """ln u of the gap u in [0, pi/2] with ln sin u = log_s: atan2(s, cos u),
    well conditioned as s -> 1 where arcsin is not, and from ln s = -20 down,
    where arcsin(s) = s in float, ln s itself, also below float range."""
    if log_s <= _SMALL_LOG_GAP:
        return log_s
    return math.log(math.atan2(math.exp(log_s), math.sqrt(-math.expm1(2.0 * log_s))))


@dataclass(frozen=True)
class HeightInterval:
    """A height window [h1, h2] inside [-1, 1], with its upper gaps.

    Each edge is stored as its height and its gap u = arccos(h) to h = 1,
    the engine's coordinate.  Gaps are taken as acos(h), exact near h = 1,
    unless given: the angles theta1, theta2 = arcsin(h) are accepted but
    not stored, and stand for the gaps pi/2 - theta.  A given gap or angle
    off its height by more than ``_GAP_TOL`` in cos u raises ValueError.
    Windows hugging h = 1 can be built from the gap directly (``upper_tail``,
    ``asymptotics.height_window``), beyond what the height can represent.
    """

    h1: float
    h2: float
    theta1: InitVar[float] = None  # type: ignore[assignment]
    theta2: InitVar[float] = None  # type: ignore[assignment]
    gap1: float = None  # type: ignore[assignment]  # arccos(h1), the larger gap
    gap2: float = None  # type: ignore[assignment]  # arccos(h2)

    def __post_init__(self, theta1, theta2):
        if not (-1.0 <= self.h1 <= self.h2 <= 1.0):
            raise ValueError(f"need -1 <= h1 <= h2 <= 1, got [{self.h1}, {self.h2}]")
        for name, h, theta in (("gap1", self.h1, theta1), ("gap2", self.h2, theta2)):
            if getattr(self, name) is None:
                gap = math.acos(h) if theta is None else HALF_PI - theta
                object.__setattr__(self, name, gap)
        if not 0.0 <= self.gap2 <= self.gap1 <= math.pi:
            raise ValueError(f"gaps gap1={self.gap1!r}, gap2={self.gap2!r} are not in window order")
        for h, gap in ((self.h1, self.gap1), (self.h2, self.gap2)):
            if not abs(math.cos(gap) - h) <= _GAP_TOL:
                raise ValueError(f"gap {gap!r} is not arccos of its height {h!r} within {_GAP_TOL}")

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
        return cls(math.cos(gap), 1.0, gap1=gap, gap2=0.0)

    def is_empty(self) -> bool:
        return self.gap1 == self.gap2


FULL_RANGE = HeightInterval(-1.0, 1.0)  # the gaps pi and 0, exactly


class _GapIntegrand:
    """E(u) for h = cos(u): the log-integrand in the gap variable.

    E(u) = (d^2 - 2d) ln sin(u) + (n - d) ln G(cos u).  By the halving
    identity the tail T = I_{sin^2 u}(a, 1/2) / 2 is 1 - G(cos u) for
    u <= pi/2 and G(cos u) beyond, so E is one kernel call at ln sin u and
    ln |cos u|.  Both come from u directly, the smaller of sin u and
    |cos u| through its log and the larger through log1p of the smaller's
    square, so nothing cancels near u = 0, pi/2 or pi.  ``at_log_gap``
    evaluates E at u = exp(t) for gaps below float range (the mass sits at
    gaps ~ exp(-2 ln(n)/d), which underflows once ln n >> 350 d); from
    t = ``_SMALL_LOG_GAP`` down, ln sin u = t in float.
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


@dataclass(frozen=True)
class _Segment:
    """A log-integrand on [lo, hi] with its peak already located.

    The variable is the gap u for a narrow window, else t = ln(u).  A
    segment with a peak of -inf gets no panels: E is -inf exactly on an
    upper stretch of gaps, because ln n + ln(-ln G) grows with the gap,
    and ``golden_max`` searches below that stretch when f_log(lo) is
    finite, so such a segment has no mass in float.
    """

    f_log: Callable[[float], float]
    lo: float
    hi: float
    mode: float
    peak: float


def _located_segment(f_u: _GapIntegrand, window: HeightInterval) -> _Segment:
    """A nonempty window's gaps [u_lo, u_hi] as one located segment.

    A window with u_hi <= 2 u_lo is integrated linearly in the gap, so its
    edges stay exact however narrow it is.  Any other window is integrated
    in t = ln(gap), where it is at least ln 2 wide, far above float
    resolution of t.  With u_lo = 0 the lower limit is cut where the
    integrand has fallen 750 log-units below its peak; the truncated mass
    is a factor exp(-750) of the total, far below any quadrature tolerance.
    """
    u_lo, u_hi = window.gap2, window.gap1
    if 0.0 < u_lo and u_hi <= 2.0 * u_lo:
        mode, peak = golden_max(f_u, u_lo, u_hi, xtol=max((u_hi - u_lo) * 1e-12, 1e-300))
        return _Segment(f_u, u_lo, u_hi, mode, peak)
    f_t = lambda t: f_u.at_log_gap(t) + t
    t_hi = math.log(u_hi)
    t_lo = math.log(u_lo) if u_lo > 0.0 else min(f_u.t_floor, t_hi - 1.0)
    mode, peak = golden_max(f_t, t_lo, t_hi, xtol=1e-10)
    if u_lo == 0.0 and peak != _NEG_INF:
        floor, t_lo, step = t_lo, mode - 1.0, 1.0
        while t_lo > floor and f_t(t_lo) > peak - 750.0:
            step *= 2.0
            t_lo = mode - step
        t_lo = max(t_lo, floor)
    return _Segment(f_t, t_lo, t_hi, mode, peak)


def _integral_name(params: PolytopeParams, window: HeightInterval) -> str:
    """The height integral over the window, named by (n or ln n, d) and its
    gaps for a QuadratureError or a lost continued fraction."""
    size = f"n = {params.n:.0f}" if params.n is not None else f"ln n = {params.ln_n!r}"
    u_lo, u_hi = window.gap2, window.gap1
    return f"height integral at {size}, d = {params.d} over the gaps [{u_lo!r}, {u_hi!r}]"


def _integrated_segment(f_u: _GapIntegrand, window: HeightInterval) -> tuple:
    """(ln of the integral, segment, converged partition) over the window
    as ``_located_segment``; the engine of every count and of a law's
    partition.  A segment of zero mass gets no partition.  A continued
    fraction lost on the way is raised again naming the integral.
    """
    name = _integral_name(f_u.params, window)
    try:
        seg = _located_segment(f_u, window)
        if seg.peak == _NEG_INF:
            return _NEG_INF, seg, None
        part = quadrature._partition(seg.f_log, geometric_ladder(seg.lo, seg.hi, seg.mode), name)
    except ConvergenceError as err:
        raise ConvergenceError(f"{name}: {err}") from err
    return quadrature._ln_total(part), seg, part


def height_integral(params: PolytopeParams, window: HeightInterval = FULL_RANGE) -> LogReal:
    """The height-window integral J[h1, h2], as a LogReal.

    The window is one segment in the gap u = arccos(h): linear in u
    when it spans less than a factor 2 in u, else in ln(u).  The
    quadrature runs at its one fixed accuracy, a relative target of 1e-9
    within 4000 panel splits.

    Raises QuadratureError, with the achieved error estimate, if the
    split budget runs out first.
    """
    if window.is_empty():
        return LogReal.zero()
    total_ln, _, _ = _integrated_segment(_GapIntegrand(params), window)
    return LogReal.from_log(total_ln)


def log_binomial(params: PolytopeParams) -> float:
    """ln binom(n, d) = ln binom(n, k) for k = min(d, n - d), in O(1).

    Both representations take the closed form ``numerics._log_binomial``:
    with n given at ln(n/k), one log of the ratio, and with ln n alone at
    ln n - ln k, taking n - d from ``log_n_minus_d``.
    """
    d = params.d
    if params.n is not None:
        k = min(d, params.n - d)
        return _log_binomial(k, math.log(params.n / k))
    k = d if params.log_n_minus_d >= math.log(d) else math.exp(params.log_n_minus_d)
    return _log_binomial(k, params.ln_n - math.log(k))


def _log_count_factor(params: PolytopeParams) -> float:
    """ln binom(n, d) + ln 2 + ln c_out: ln F less ln J over any window."""
    d = params.d
    return log_binomial(params) + math.log(2.0) + log_c_alpha(0.5 * (d * d - 2 * d - 1))


def expected_facets(params: PolytopeParams, window: HeightInterval = FULL_RANGE) -> LogReal:
    """Expected number of facets with height in the window, as a LogReal.

    The full range's count is the law's, ``TypicalHeightLaw(params).facets``,
    which refuses a count below d + 1.  Any other window integrates its own
    segment, and its count is zero when ln F lies below float range.
    """
    if window == FULL_RANGE:
        return TypicalHeightLaw(params).facets
    integral = height_integral(params, window)
    if integral.is_zero():
        return LogReal.zero()
    return LogReal.from_log(_log_count_factor(params) + integral.ln())


@dataclass
class TypicalHeightLaw:
    """Height distribution of the typical facet: CDF(h) = J[-1, h] / J[-1, 1].

    A law is one partition, built with it: the converged panels of the
    full range, one segment in t = ln(gap).  Its total J gives the
    full-range count ``facets`` = binom(n, d) * 2 * c_out * J.  Every
    polytope has at least d + 1 facets, so a ln F below ln(d + 1) (less a
    relative slack of 1e-6 in F) raises QuadratureError, naming ln n, d
    and ln F.  The normalizer is J; one given (as ``height_integral(params)``)
    must agree with it within ``REL_TOL`` in ln, else ValueError names both.
    Every query is a slice of the partition: panels wholly inside the
    window are reused, the one or two the window cuts are evaluated
    fresh, and the slice is refined until its error is within
    ``REL_TOL`` of its own mass.  Refinements are not stored.
    """

    params: PolytopeParams
    normalizer: LogReal | None = None
    facets: LogReal = field(init=False)

    def __post_init__(self):
        total_ln, *partition = _integrated_segment(_GapIntegrand(self.params), FULL_RANGE)
        d, ln_f = self.params.d, _log_count_factor(self.params) + total_ln
        if not ln_f >= math.log(d + 1) + math.log1p(-1e-6):
            got = "came back zero" if total_ln == _NEG_INF else f"gives ln F = {ln_f!r}"
            raise QuadratureError(
                f"the full-range height integral at ln n = {self.params.ln_n!r}, d = {d} {got}, "
                f"below any count of at least d + 1 facets", total_ln, math.inf)
        self.facets = LogReal.from_log(ln_f)
        if self.normalizer is None:
            self.normalizer = LogReal.from_log(total_ln)
        ln_j = self.normalizer.log_abs
        if not abs(ln_j - total_ln) <= quadrature.REL_TOL:
            name = _integral_name(self.params, FULL_RANGE)
            raise ValueError(f"normalizer ln J = {ln_j!r} is not the {name}, "
                             f"ln J = {total_ln!r}, within {quadrature.REL_TOL}")
        # (segment, converged partition) of the full range of gaps
        self._partition = tuple(partition)

    @classmethod
    def for_params(cls, params: PolytopeParams) -> "TypicalHeightLaw":
        """The law of ``params``, normalized by its own partition's total."""
        return cls(params)

    def _mass_of_gaps(self, t_lo: float, t_hi: float) -> float:
        """Probability of gaps u = arccos(h) in [exp(t_lo), exp(t_hi)].

        Both edges are in t = ln(gap), the partition's own coordinate, so
        t_lo = -inf is the gap 0 (h = 1).  The window is cut to the
        partition's span; the mass outside it is a factor exp(-750) of the
        total.  E is unimodal in t, so the window's peak is the segment's
        when the window holds the mode, else the larger edge value; a
        window whose peak * width bound cannot move the normalizer at the
        relative target has zero mass.
        """
        if t_lo == _NEG_INF and t_hi >= _LN_PI:
            return 1.0
        seg, part = self._partition
        lo, hi = max(t_lo, seg.lo), min(t_hi, seg.hi)
        if not lo < hi:
            return 0.0
        ln_j = self.normalizer.ln()
        peak = seg.peak if lo <= seg.mode <= hi else max(seg.f_log(lo), seg.f_log(hi))
        if peak + math.log(hi - lo) < ln_j + math.log(quadrature.REL_TOL) - 40.0:
            return 0.0
        name = f"{_integral_name(self.params, FULL_RANGE)} sliced to ln u in [{lo!r}, {hi!r}]"
        window = quadrature._sliced(seg.f_log, part, lo, hi, name)
        return min(math.exp(quadrature._ln_total(window) - ln_j), 1.0)


def typical_height_cdf(law: TypicalHeightLaw, h: float) -> float:
    """P(typical height <= h)."""
    if not -1.0 <= h <= 1.0:
        raise ValueError(f"height must lie in [-1, 1], got {h}")
    gap = HeightInterval(-1.0, h).gap2
    return law._mass_of_gaps(math.log(gap) if gap > 0.0 else _NEG_INF, _LN_PI)


def typical_height_quantile(law: TypicalHeightLaw, p: float) -> float:
    """Inverse of the typical-height CDF, to 1e-10 absolute in height.

    Newton runs in the partition's own coordinate t = ln(gap), inside a
    bisection bracket over the partition's span, with the exact density
    -exp(E_t(t)) / J as the derivative of the CDF in t and the partition's
    mode as the start; each step's CDF is a slice of the partition.  The
    tolerance 1e-10/pi in t keeps the gap, and so the height cos(gap),
    within 1e-10.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    seg, _ = law._partition
    ln_j = law.normalizer.ln()
    t = newton_bracketed(
        lambda t: law._mass_of_gaps(t, _LN_PI) - p,
        lambda t: -math.exp(seg.f_log(t) - ln_j),
        seg.lo,
        seg.hi,
        x0=seg.mode,
        xtol=1e-10 / math.pi,
    )
    return math.cos(math.exp(t))


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
    # 1 - h^2 = t^(2/(d-1)), so ln sin u = ln t / (d - 1); a cap beyond a
    # hemisphere (t >= 1) takes every H >= 0, the gap pi/2
    return law._mass_of_gaps(_NEG_INF, _log_gap(min(ln_t, 0.0) / (d - 1)))


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
