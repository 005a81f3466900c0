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

The module also hosts the inequality checkers used by the verification
suite: the exponential sandwich for ``(1 - x/n)**n``, the two-sided bound
for the tail integral of ``(1 - s**2)**D``, and the comparison between the
rescaled symmetric-beta CDF and the normal CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "norm_pdf",
    "norm_cdf",
    "log_norm_cdf",
    "reg_inc_beta",
    "log_reg_inc_beta",
    "log_reg_inc_beta_from_log_x",
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
# incomplete-beta stop test (relative size of a term) and term cap
_STOP = 0.1 * 1e-12
_MAX_TERMS = 500


class ConvergenceError(ArithmeticError):
    """An iterative scheme hit max_iter before reaching its tolerance."""


# ----------------------------------------------------------------------
# normal distribution
# ----------------------------------------------------------------------

def norm_pdf(h: float) -> float:
    return math.exp(-0.5 * h * h - LOG_SQRT_2PI)


def norm_cdf(h: float) -> float:
    """Standard normal CDF via the complementary error function."""
    if math.isnan(h):
        raise ValueError("norm_cdf requires a finite argument")
    return 0.5 * math.erfc(-h * _INV_SQRT2)


def log_norm_cdf(h: float) -> float:
    """ln Phi(h), accurate far into the left tail.

    erfc carries the value down to h ~ -37 where its linear result
    underflows; below that the classical tail expansion
    phi(h)/|h| * (1 - 1/h^2 + 3/h^4 - ...) takes over.
    """
    if math.isnan(h):
        raise ValueError("log_norm_cdf requires a finite argument")
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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}"
    )


def _beta_series_log(a: float, b: float, x: float) -> float:
    """ln I_x(a, b) by the ascending series; intended for small x."""
    # int_0^x t^(a-1)(1-t)^(b-1) dt = x^a * sum_k (1-b)_k x^k / (k! (a+k))
    term = 1.0 / a
    total = term
    coeff = 1.0
    for k in range(1, _MAX_TERMS + 1):
        coeff *= (k - b) * x / k
        term = coeff / (a + k)
        total += term
        if abs(term) < _STOP * abs(total):
            break
    else:
        raise ConvergenceError(f"incomplete beta series stalled at a={a}, b={b}, x={x}")
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return a * math.log(x) + math.log(total) - log_beta


def log_reg_inc_beta(x: float, a: float, b: float) -> float:
    """ln I_x(a, b) for the regularized incomplete beta I_x(a, b).

    Stays accurate when I_x underflows linearly (arbitrarily far into the
    lower tail).  For x past the central switch point the complementary
    tail is computed first and converted through log1p, which is the
    accurate direction there.
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
    switch = (a + 1.0) / (a + b + 2.0)
    if x > switch:
        log_comp = log_reg_inc_beta(1.0 - x, b, a)
        if log_comp >= 0.0:
            return _NEG_INF
        return math.log1p(-math.exp(log_comp))
    if x * (b + 1.0) < 0.1 and x < 0.05:
        return _beta_series_log(a, b, x)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_pre = a * math.log(x) + b * math.log1p(-x) - math.log(a) - log_beta
    val = log_pre + math.log(_beta_cf(a, b, x))
    # the direct branch computes a sub-central probability; tolerate rounding
    return min(val, 0.0)


def log_reg_inc_beta_from_log_x(log_x: float, a: float, b: float) -> float:
    """ln I_x(a, b) with x supplied as ln(x); x may be below float range.

    For log_x <= -250 the ascending series collapses to its first term
    and ln I_x = a ln x - ln a - ln B(a, b) up to corrections of order x.
    """
    if log_x > 0.0:
        raise ValueError(f"log_x must be <= 0, got {log_x}")
    if log_x > -250.0:
        return log_reg_inc_beta(math.exp(log_x), a, b)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return a * log_x - math.log(a) - log_beta


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) in linear scale."""
    return math.exp(log_reg_inc_beta(x, a, b))


# ----------------------------------------------------------------------
# symmetric-beta normalizers and CDFs
# ----------------------------------------------------------------------

def log_c_alpha(alpha: float) -> float:
    """ln of the constant normalizing (1 - t**2)**alpha on [-1, 1]."""
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    return math.lgamma(alpha + 1.5) - 0.5 * math.log(math.pi) - math.lgamma(alpha + 1.0)


def gauss_beta_norm(alpha: float) -> float:
    """Normalizer of the sqrt(alpha)-rescaled symmetric beta density.

    Tends to 1 as alpha grows; the rescaled density then converges to the
    standard normal density.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return math.exp(
        math.lgamma(0.5 * (alpha + 3.0))
        - math.lgamma(0.5 * alpha + 1.0)
        - 0.5 * math.log(0.5 * alpha)
    )


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
    a = 0.5 * (d - 1)
    return log_reg_inc_beta(0.5 * (1.0 + h), a, a)


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
    a = 0.5 * alpha + 1.0
    return reg_inc_beta(0.5 * (1.0 + h / r), a, a)


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

    def merge(self, other: "BoundsReport") -> "BoundsReport":
        self.checked += other.checked
        self.violations.extend(other.violations)
        self.hypothesis_errors.extend(other.hypothesis_errors)
        return self


def _check_exp_sandwich(points, rel_slack: float) -> BoundsReport:
    """exp(-x - x^2/n) <= (1 - x/n)^n <= exp(-x) whenever 0 <= x/n <= 1/2."""
    report = BoundsReport()
    slack = math.log1p(rel_slack)
    for x, n in points:
        if not (n > 0 and 0.0 <= x / n <= 0.5):
            report.hypothesis_errors.append(
                Violation("exp_sandwich", (x, n), "requires 0 <= x/n <= 1/2", 0.0)
            )
            continue
        report.checked += 1
        mid = n * math.log1p(-x / n)
        upper = -x
        lower = -x - x * x / n
        if mid > upper + slack:
            report.violations.append(
                Violation("exp_sandwich", (x, n), "above exp(-x)", mid - upper)
            )
        if mid < lower - slack:
            report.violations.append(
                Violation("exp_sandwich", (x, n), "below exp(-x - x^2/n)", lower - mid)
            )
    return report


def _check_tail_ratio(points, rel_slack: float) -> BoundsReport:
    """Two-sided bound for integral((1-s^2)^D, h, 1).

    The reference is (1-h^2)^(D+1) / (2 h (D+1)); the true integral is at
    most the reference and at least the reference times
    1 - (1-h^2) / (2 h^2 (D+2)).
    """
    report = BoundsReport()
    slack = math.log1p(rel_slack)
    for h, big_d in points:
        if not (big_d > -1.0 and 0.0 < h < 1.0):
            report.hypothesis_errors.append(
                Violation("tail_ratio", (h, big_d), "requires D > -1 and 0 < h < 1", 0.0)
            )
            continue
        report.checked += 1
        a = big_d + 1.0
        log_full = 0.5 * math.log(math.pi) + math.lgamma(a) - math.lgamma(big_d + 1.5)
        log_tail = log_full + log_reg_inc_beta(0.5 * (1.0 - h), a, a)
        log_ref = a * math.log1p(-h * h) - math.log(2.0 * h * a)
        log_ratio = log_tail - log_ref
        if log_ratio > slack:
            report.violations.append(
                Violation("tail_ratio", (h, big_d), "ratio above 1", log_ratio)
            )
        lower = 1.0 - (1.0 - h * h) / (2.0 * h * h * (big_d + 2.0))
        if lower > 0.0 and log_ratio < math.log(lower) - slack:
            report.violations.append(
                Violation(
                    "tail_ratio", (h, big_d), "ratio below lower bound",
                    math.log(lower) - log_ratio,
                )
            )
    return report


def _check_gauss_comparison(points, rel_slack: float) -> BoundsReport:
    """Rescaled-beta CDF vs normal CDF.

    For h in [0, sqrt(alpha)]: Phi <= Phi_alpha <= a_alpha * Phi.
    For h in [-sqrt(alpha), 0]: Phi >= Phi_alpha >= (1 - a_alpha)/2 + a_alpha * Phi.
    """
    report = BoundsReport()
    for h, alpha in points:
        if not (alpha > 0 and abs(h) <= math.sqrt(alpha)):
            report.hypothesis_errors.append(
                Violation("gauss_comparison", (h, alpha), "requires |h| <= sqrt(alpha)", 0.0)
            )
            continue
        report.checked += 1
        phi_a = scaled_beta_cdf(h, alpha)
        phi = norm_cdf(h)
        ratio = gauss_beta_norm(alpha)
        if h >= 0.0:
            if phi > phi_a * (1.0 + rel_slack):
                report.violations.append(
                    Violation("gauss_comparison", (h, alpha), "Phi above Phi_alpha",
                              phi - phi_a)
                )
            if phi_a > ratio * phi * (1.0 + rel_slack):
                report.violations.append(
                    Violation("gauss_comparison", (h, alpha),
                              "Phi_alpha above a_alpha * Phi", phi_a - ratio * phi)
                )
        else:
            if phi_a > phi * (1.0 + rel_slack):
                report.violations.append(
                    Violation("gauss_comparison", (h, alpha), "Phi_alpha above Phi",
                              phi_a - phi)
                )
            rhs = 0.5 * (1.0 - ratio) + ratio * phi
            if rhs > 0.0 and phi_a < rhs * (1.0 - rel_slack):
                report.violations.append(
                    Violation("gauss_comparison", (h, alpha),
                              "Phi_alpha below mirrored bound", rhs - phi_a)
                )
    return report


def check_bounds_suite(
    exp_points=None,
    tail_points=None,
    gauss_points=None,
    rel_slack: float = 1e-12,
) -> BoundsReport:
    """Evaluate both sides of each elementary inequality on the given grids.

    Points violating a hypothesis are reported per-point under
    ``hypothesis_errors`` and skipped; genuine violations beyond
    ``rel_slack`` land in ``violations``.
    """
    report = BoundsReport()
    if exp_points is not None:
        report.merge(_check_exp_sandwich(exp_points, rel_slack))
    if tail_points is not None:
        report.merge(_check_tail_ratio(tail_points, rel_slack))
    if gauss_points is not None:
        report.merge(_check_gauss_comparison(gauss_points, rel_slack))
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
