"""Log-domain special functions.

Everything downstream (the facet-count integrand, the rate functions,
the Monte Carlo cross-checks) is built on the three primitives here:
the standard normal CDF, the regularized incomplete beta function, and
the normalizing constants of the symmetric beta densities
``(1 - t**2)**alpha`` on [-1, 1].  All of them are usable in log scale so
that quantities like ``(1 - G(h))**(n - d)`` stay meaningful when the
linear values underflow.  The incomplete beta runs at one fixed
accuracy: its series and continued fraction stop once a term changes
the value by less than 1e-13 relative, and give up after 500 terms.

Every symmetric incomplete beta is one kernel, ``_log_half_tail``: by
the halving identity the beta(a, a) mass beyond |t| = c is
I_{1-c^2}(a, 1/2) / 2, taken from ln sqrt(1 - c^2) and ln c.  Every
ratio Gamma(x + 1/2) / Gamma(x) comes from ``_log_gamma_half_ratio``,
which does not cancel at large x as two lgamma values do.

The module also hosts the inequality suites of the verification command,
one table row each: the exponential sandwich for ``(1 - x/n)**n``, the
two-sided bound for the tail integral of ``(1 - s**2)**D``, and the
comparison between the rescaled symmetric-beta CDF and the normal CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "norm_cdf",
    "log_norm_cdf",
    "log_reg_inc_beta",
    "log_c_alpha",
    "gauss_beta_norm",
    "log_inner_cdf",
    "scaled_beta_cdf",
    "BoundsReport",
    "Violation",
    "check_bounds_suite",
    "random_bounds_grid",
]

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_NEG_INF = float("-inf")
_LN2 = math.log(2.0)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# incomplete-beta stop test (relative size of a term) and term cap
_STOP = 0.1 * 1e-12
_MAX_TERMS = 500


class ConvergenceError(ArithmeticError):
    """An iterative scheme hit its step cap before reaching its tolerance."""


# ----------------------------------------------------------------------
# normal distribution
# ----------------------------------------------------------------------

def norm_cdf(h: float) -> float:
    """Standard normal CDF via the complementary error function."""
    if math.isnan(h):
        raise ValueError("norm_cdf requires a finite argument")
    return 0.5 * math.erfc(-h * _INV_SQRT2)


def log_norm_cdf(h: float) -> float:
    """ln Phi(h) to relative precision on both sides.

    For h > 0 it is log1p(-Q) with the upper tail Q from erfc, so it keeps
    its digits where Phi rounds to 1.  On the left, erfc carries the value
    down to h ~ -37 where its linear result underflows; below that the
    classical tail expansion phi(h)/|h| * (1 - 1/h^2 + 3/h^4 - ...) takes
    over.
    """
    if math.isnan(h):
        raise ValueError(f"log_norm_cdf requires a finite argument, got h={h}")
    if h > 0.0:
        return math.log1p(-0.5 * math.erfc(h * _INV_SQRT2))
    if h > -36.0:
        return math.log(0.5 * math.erfc(-h * _INV_SQRT2))
    inv_h2 = 1.0 / (h * h)
    term = -inv_h2
    series = term
    for k in range(2, 9):
        term *= -(2 * k - 1) * inv_h2
        series += term
    return -0.5 * h * h - LOG_SQRT_2PI - math.log(-h) + math.log1p(series)


# ----------------------------------------------------------------------
# regularized incomplete beta
# ----------------------------------------------------------------------

def _log_gamma_half_ratio(x: float) -> float:
    """ln Gamma(x + 1/2) - ln Gamma(x) for x > 0.

    As the difference of two lgamma values of size x ln x it carries their
    rounding, about 1e-16 x ln x, so from x = 10 on the asymptotic series
    in 1/x takes over,
    ln x / 2 - 1/(8x) + 1/(192x^3) - 1/(640x^5) + 17/(14336x^7) - 31/(18432x^9),
    within 4e-14 at x = 10 and 4e-16 from x = 20 up.
    """
    if x < 10.0:
        return math.lgamma(x + 0.5) - math.lgamma(x)
    z = 1.0 / (x * x)
    series = 1 / 8 - z * (1 / 192 - z * (1 / 640 - z * (17 / 14336 - z * (31 / 18432))))
    return 0.5 * math.log(x) - series / x


def _stirling_remainder(x: float) -> float:
    """ln x! - (x + 1/2) ln x + x - ln(2 pi)/2, 0 at x = inf; from x = 16 on, where
    lgamma carries the rounding of x ln x, by its series in 1/x to the 1/x^9 term."""
    if x < 16.0:
        return math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - LOG_SQRT_2PI
    z, z2 = 1.0 / x, 1.0 / (x * x)
    return z * (1 / 12 - z2 * (1 / 360 - z2 * (1 / 1260 - z2 * (1 / 1680 - z2 / 1188))))


def _log_binomial(k: float, log_ratio: float) -> float:
    """ln C(n, k) for 0 < k <= n/2, given log_ratio = ln(n/k), in O(1) by Loader's
    saddle-point form (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000), with m = n - k, x = k/n and delta ``_stirling_remainder``:
    k ln(n/k) + m ln(n/m) + ln(n / (2 pi k m))/2 + delta(n) - delta(k) - delta(m),
    rounded once by fsum.  m ln(n/m) = k (1 - x) ln(n/m) / x tends to k as x -> 0,
    so n may pass float range."""
    x = max(math.exp(-log_ratio), math.ulp(0.0))
    log_n_over_m = -math.log1p(-x)
    n = k / x
    return math.fsum((k * log_ratio, k * (1.0 - x) * log_n_over_m / x,
                      0.5 * (log_n_over_m - math.log(k)), -LOG_SQRT_2PI,
                      _stirling_remainder(n), -_stirling_remainder(k), -_stirling_remainder(n - k)))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b) (modified Lentz recurrence)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    stop = _STOP
    for m in range(1, _MAX_TERMS + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < stop:
            if not h > 0.0:
                # a lost value (a = 5e18, b = 1/2, x = 1 gives -8.5e19): name it,
                # rather than let its log raise a bare domain error
                raise ConvergenceError(
                    f"incomplete beta continued fraction is not positive ({h!r}) "
                    f"at a={a}, b={b}, x={x}"
                )
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}"
    )


def _log_inc_beta(a: float, b: float, log_x: float, log_y: float, log_beta: float) -> float:
    """ln I_x(a, b) from ln x and ln y = ln(1 - x), given ln B(a, b).

    Past the switch point (a + 1)/(a + b + 2) the complement 1 - I_y(b, a)
    is taken through log1p.  Small x takes the ascending series, the rest
    the continued fraction.  x may underflow to zero: the series then
    keeps its first term, a ln x - ln a - ln B(a, b).
    """
    upper = math.exp(log_x) > (a + 1.0) / (a + b + 2.0)
    if upper:
        a, b, log_x, log_y = b, a, log_y, log_x
    x = math.exp(log_x)
    if x * (b + 1.0) < 0.1 and x < 0.05:
        # int_0^x t^(a-1)(1-t)^(b-1) dt = x^a * sum_k (1-b)_k x^k / (k! (a+k))
        total = 1.0 / a
        coeff = 1.0
        for k in range(1, _MAX_TERMS + 1):
            coeff *= (k - b) * x / k
            term = coeff / (a + k)
            total += term
            if abs(term) < _STOP * abs(total):
                break
        else:
            raise ConvergenceError(f"incomplete beta series stalled at a={a}, b={b}, x={x}")
        log_i = a * log_x + math.log(total) - log_beta
    else:
        log_i = a * log_x + b * log_y - math.log(a) - log_beta + math.log(_beta_cf(a, b, x))
    if not upper:
        # a sub-central probability; tolerate rounding
        return min(log_i, 0.0)
    return math.log1p(-math.exp(log_i)) if log_i < 0.0 else _NEG_INF


def _log_half_tail(a: float, log_s: float, log_c: float) -> float:
    """ln(I_{s^2}(a, 1/2) / 2) for s^2 + c^2 = 1, given ln s and ln c.

    By the halving identity this is ln I_{(1-c)/2}(a, a), the mass of the
    beta(a, a) law on [-1, 1] beyond |t| = c.  No caller forms 1 - c^2,
    and s may lie below float range.
    """
    log_beta = _LOG_SQRT_PI - _log_gamma_half_ratio(a)  # ln B(a, 1/2)
    return _log_inc_beta(a, 0.5, 2.0 * log_s, 2.0 * log_c, log_beta) - _LN2


def log_reg_inc_beta(x: float, a: float, b: float) -> float:
    """ln I_x(a, b) for the regularized incomplete beta I_x(a, b).

    Stays accurate when I_x underflows linearly (arbitrarily far into the
    lower tail), and past the central switch point, where it works from
    the complementary tail.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return _NEG_INF
    if x == 1.0:
        return 0.0
    if x == 0.5 and a == b:
        return math.log(0.5)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return _log_inc_beta(a, b, math.log(x), math.log1p(-x), log_beta)


# ----------------------------------------------------------------------
# symmetric-beta normalizers and CDFs
# ----------------------------------------------------------------------

def log_c_alpha(alpha: float) -> float:
    """ln of the constant normalizing (1 - t**2)**alpha on [-1, 1]."""
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    return _log_gamma_half_ratio(alpha + 1.0) - _LOG_SQRT_PI


def _log_cap_constant(d: int) -> float:
    """ln(2 sqrt(pi) Gamma((d+1)/2) / Gamma(d/2)): the cap statistic of the
    facet height H in dimension d is n (1 - H^2)^((d-1)/2) / exp(this)."""
    return math.log(2.0) + _LOG_SQRT_PI + _log_gamma_half_ratio(0.5 * d)


def gauss_beta_norm(alpha: float) -> float:
    """Normalizer of the sqrt(alpha)-rescaled symmetric beta density.

    Tends to 1 as alpha grows; the rescaled density then converges to the
    standard normal density.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return math.exp(_log_gamma_half_ratio(0.5 * alpha + 1.0) - 0.5 * math.log(0.5 * alpha))


def _log_sym_beta_cdf(h: float, a: float) -> float:
    """ln I_x(a, a) at x = (1 + h)/2: the beta(a, a) CDF on [-1, 1] at h."""
    c = abs(h)
    if c == 1.0:
        return 0.0 if h > 0.0 else _NEG_INF
    # ln s from 1 - c and 1 + c, both exact where c is near 1
    log_s = 0.5 * (math.log1p(-c) + math.log1p(c))
    log_tail = _log_half_tail(a, log_s, math.log(c) if c else _NEG_INF)
    return log_tail if h < 0.0 else math.log1p(-math.exp(log_tail))


def log_inner_cdf(h: float, d: int) -> float:
    """ln G(h) where G is the CDF of the height of one sphere point.

    G(h) is the normalized integral of (1 - s**2)**((d-3)/2) from -1 to h,
    i.e. the regularized incomplete beta at x = (1+h)/2 with both
    parameters (d-1)/2.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if not -1.0 <= h <= 1.0:
        raise ValueError(f"height must lie in [-1, 1], got {h}")
    return _log_sym_beta_cdf(h, 0.5 * (d - 1))


def scaled_beta_cdf(h: float, alpha: float) -> float:
    """CDF of the symmetric beta density rescaled to [-sqrt(alpha), sqrt(alpha)].

    This is the finite-support approximant of the normal CDF; it equals
    the regularized incomplete beta at x = (1 + h/sqrt(alpha))/2 with both
    parameters alpha/2 + 1.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    r = math.sqrt(alpha)
    if not -r <= h <= r:
        raise ValueError(f"|h| must not exceed sqrt(alpha), got h={h}, alpha={alpha}")
    if h == 0.0:
        return 0.5
    return math.exp(_log_sym_beta_cdf(h / r, 0.5 * alpha + 1.0))


# ----------------------------------------------------------------------
# inequality suites
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    suite: str
    point: tuple
    detail: str
    excess: float


@dataclass
class BoundsReport:
    checked: int = 0
    violations: list = field(default_factory=list)
    hypothesis_errors: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations


def _exp_sandwich_sides(x, n, rel_slack):
    """exp(-x - x^2/n) <= (1 - x/n)^n <= exp(-x) whenever 0 <= x/n <= 1/2."""
    slack = math.log1p(rel_slack)
    mid = n * math.log1p(-x / n)
    upper = -x
    lower = -x - x * x / n
    if mid > upper + slack:
        yield "above exp(-x)", mid - upper
    if mid < lower - slack:
        yield "below exp(-x - x^2/n)", lower - mid


def _tail_ratio_sides(h, big_d, rel_slack):
    """Two-sided bound for integral((1-s^2)^D, h, 1).

    The reference is (1-h^2)^(D+1) / (2 h (D+1)); the true integral is at
    most the reference and at least the reference times
    1 - (1-h^2) / (2 h^2 (D+2)).
    """
    slack = math.log1p(rel_slack)
    a = big_d + 1.0
    # integral((1-s^2)^D, h, 1) = B(a, 1/2) * (beta(a, a) mass beyond h)
    log_s = 0.5 * (math.log1p(-h) + math.log1p(h))
    log_tail = _LOG_SQRT_PI - _log_gamma_half_ratio(a) + _log_half_tail(a, log_s, math.log(h))
    log_ref = a * math.log1p(-h * h) - math.log(2.0 * h * a)
    log_ratio = log_tail - log_ref
    if log_ratio > slack:
        yield "ratio above 1", log_ratio
    lower = 1.0 - (1.0 - h * h) / (2.0 * h * h * (big_d + 2.0))
    if lower > 0.0 and log_ratio < math.log(lower) - slack:
        yield "ratio below lower bound", math.log(lower) - log_ratio


def _gauss_comparison_sides(h, alpha, rel_slack):
    """Rescaled-beta CDF vs normal CDF.

    For h in [0, sqrt(alpha)]: Phi <= Phi_alpha <= a_alpha * Phi.
    For h in [-sqrt(alpha), 0]: Phi >= Phi_alpha >= (1 - a_alpha)/2 + a_alpha * Phi.
    """
    phi_a = scaled_beta_cdf(h, alpha)
    phi = norm_cdf(h)
    ratio = gauss_beta_norm(alpha)
    if h >= 0.0:
        if phi > phi_a * (1.0 + rel_slack):
            yield "Phi above Phi_alpha", phi - phi_a
        if phi_a > ratio * phi * (1.0 + rel_slack):
            yield "Phi_alpha above a_alpha * Phi", phi_a - ratio * phi
    else:
        if phi_a > phi * (1.0 + rel_slack):
            yield "Phi_alpha above Phi", phi_a - phi
        rhs = 0.5 * (1.0 - ratio) + ratio * phi
        if rhs > 0.0 and phi_a < rhs * (1.0 - rel_slack):
            yield "Phi_alpha below mirrored bound", rhs - phi_a


# one row per suite, in report order: (name, hypothesis(a, b), the requirement
# reported for a point that fails it, sides(a, b, rel_slack) yielding
# (detail, excess) for each side of the inequality the point violates)
_SUITES = (
    ("exp_sandwich", lambda x, n: n > 0 and 0.0 <= x / n <= 0.5,
     "requires 0 <= x/n <= 1/2", _exp_sandwich_sides),
    ("tail_ratio", lambda h, big_d: big_d > -1.0 and 0.0 < h < 1.0,
     "requires D > -1 and 0 < h < 1", _tail_ratio_sides),
    ("gauss_comparison", lambda h, alpha: alpha > 0 and abs(h) <= math.sqrt(alpha),
     "requires |h| <= sqrt(alpha)", _gauss_comparison_sides),
)


def check_bounds_suite(
    exp_points=None,
    tail_points=None,
    gauss_points=None,
    rel_slack: float = 1e-12,
) -> BoundsReport:
    """Evaluate both sides of each elementary inequality on the given grids.

    Points violating a hypothesis are reported per-point under
    ``hypothesis_errors`` and skipped; genuine violations beyond
    ``rel_slack`` land in ``violations``.  ``rel_slack`` must exceed -1.
    """
    if rel_slack <= -1.0:
        raise ValueError(f"rel_slack must exceed -1, got {rel_slack}")
    report = BoundsReport()
    for (suite, hypothesis, requirement, sides), points in zip(
        _SUITES, (exp_points, tail_points, gauss_points)
    ):
        for a, b in points if points is not None else ():
            if not hypothesis(a, b):
                report.hypothesis_errors.append(Violation(suite, (a, b), requirement, 0.0))
                continue
            report.checked += 1
            report.violations.extend(
                Violation(suite, (a, b), detail, excess)
                for detail, excess in sides(a, b, rel_slack)
            )
    return report


def random_bounds_grid(num: int, seed: int = 0) -> dict:
    """Hypothesis-satisfying random grids for the three inequality suites."""
    rng = np.random.default_rng(seed)
    n = np.exp(rng.uniform(np.log(2.0), np.log(500.0), num))
    x = 0.5 * n * rng.uniform(0.0, 1.0, num)
    h_tail = rng.uniform(0.01, 0.99, num)
    big_d = 10.0 ** rng.uniform(-1.0, 3.0, num) - 0.9
    alpha = 10.0 ** rng.uniform(-0.3, 3.0, num)
    h_gauss = rng.uniform(-1.0, 1.0, num) * np.sqrt(alpha)
    return {
        "exp_points": list(zip(x.tolist(), n.tolist())),
        "tail_points": list(zip(h_tail.tolist(), big_d.tolist())),
        "gauss_points": list(zip(h_gauss.tolist(), alpha.tolist())),
    }
