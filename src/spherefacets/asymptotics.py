"""Regime classification and closed-form asymptotics.

As n and d grow together, the facet count and the facet heights behave
qualitatively differently depending on how fast n grows relative to d.
The growth families handled here, with their regime tags:

    n - d = c * d^a, a <= 1/2   -> SUBLINEAR_SQRT   (heights ~ 1/d)
    n - d = c * d^a, 1/2 < a < 1 -> SUBLINEAR_MID   (heights ~ (n-d)/d^(3/2))
    n - d = rho * d             -> LINEAR(rho)      (heights ~ r_rho/sqrt(d))
    n = c * d^a, a > 1          -> SUBEXPONENTIAL   (heights ~ sqrt(2 ln(n/d)/d))
    ln n = rho * d              -> EXPONENTIAL(rho) (heights -> sqrt(1-e^(-2 rho)))
    ln n = c * d * ln d         -> SUPEREXPONENTIAL (heights -> 1)
    ln n = c * d^a, a > 1       -> SUPERFACTORIAL   (gamma limit law applies)
    d fixed, n -> infinity      -> SUPERFACTORIAL

A single finite (n, d) pair does not determine a regime, so
classification always starts from a symbolic family; the CLI refuses to
guess.

The linear-regime machinery is the pair of rate functions

    height_rate(rho, r) = rho * ln Phi(r) - r^2 / 2
    count_rate(rho, r)  = height_rate(rho, r)
                          + (rho+1) ln(rho+1) - rho ln rho

whose argmax and zero-crossings locate the typical height and the
extreme heights on the 1/sqrt(d) scale, and whose peak value is the
exponential growth rate of the facet count.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .exact import MAX_DIMENSION, HeightInterval, PolytopeParams, _log_gap, log_binomial
from .logreal import LogReal, log_add_exp
from .numerics import LOG_SQRT_2PI, _log_binomial, _log_cap_constant, _log_gamma_half_ratio
from .numerics import log_norm_cdf
from .solvers import newton_bracketed

__all__ = [
    "Regime",
    "GrowthFamily",
    "RegimeSpec",
    "AmbiguousFamilyError",
    "parse_family",
    "classify",
    "height_rate",
    "height_rate_prime",
    "height_rate_second",
    "count_rate",
    "rate_argmax",
    "count_rate_roots",
    "facets_per_vertex_limit",
    "concentration_height",
    "height_window",
    "limit_height",
    "FacetCountAsymptotic",
    "facet_count_asymptotic",
    "TypicalHeightAsymptotic",
    "typical_height_asymptotic",
    "glasauer_schneider_constant",
    "HausdorffAsymptotic",
    "hausdorff_asymptotic",
    "origin_outside_prob",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# bracket width at which the rate solvers stop: in ln r for the argmax,
# in units of the peak-to-root width for the roots
_XTOL = 1e-12


class Regime(enum.Enum):
    SUBLINEAR_SQRT = "sublinear_sqrt"
    SUBLINEAR_MID = "sublinear_mid"
    LINEAR = "linear"
    SUBEXPONENTIAL = "subexponential"
    EXPONENTIAL = "exponential"
    SUPEREXPONENTIAL = "superexponential"
    SUPERFACTORIAL = "superfactorial"


class AmbiguousFamilyError(ValueError):
    """The growth family sits on a regime boundary or is ill-formed."""


@dataclass(frozen=True)
class GrowthFamily:
    """Symbolic growth of n against d.

    kinds: ``n_minus_d_power`` (n - d = coef * d^power),
    ``n_power`` (n = coef * d^power), ``log_n_power``
    (ln n = coef * d^power), ``log_n_dlogd``
    (ln n = coef * d * ln d), ``d_fixed`` (d = coef, an integer >= 2,
    n free).
    """

    kind: str
    coef: float = 1.0
    power: float = 1.0

    def __post_init__(self):
        kinds = {"n_minus_d_power", "n_power", "log_n_power", "log_n_dlogd", "d_fixed"}
        if self.kind not in kinds:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not self.coef > 0:
            raise AmbiguousFamilyError(f"family coefficient must be positive: {self}")
        if self.kind == "d_fixed" and not (self.coef >= 2 and float(self.coef).is_integer()):
            raise ValueError(f"a fixed dimension must be an integer >= 2, got d={self.coef}")


_RHS_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:\.\d*)?(?:e-?\d+)?)\*)?"
    r"(?:(?P<sqrt>sqrt\(d\))|d(?:\^(?P<power>\d+(?:\.\d*)?))?)"
    r"(?P<dlogd>\*ln\(d\))?$"
)


def parse_family(text: str) -> GrowthFamily:
    """Parse a compact growth-family string.

    Examples: ``n-d=sqrt(d)``, ``n-d=0.5*d``, ``n=2*d``, ``n=d^2``,
    ``ln(n)=d``, ``ln(n)=2*d^1.5``, ``ln(n)=d*ln(d)``, ``d=7``.
    """
    compact = text.replace(" ", "").lower()
    if "=" not in compact:
        raise ValueError(f"cannot parse growth family {text!r}")
    lhs, rhs = compact.split("=", 1)
    if lhs == "lnn":
        lhs = "ln(n)"
    if lhs == "d":
        try:
            coef = float(rhs)
        except ValueError:
            raise ValueError(f"cannot parse fixed dimension in {text!r}") from None
        return GrowthFamily("d_fixed", coef)
    if lhs == "n-d":
        try:
            return GrowthFamily("n_minus_d_power", float(rhs), 0.0)
        except ValueError:
            pass  # not a bare constant; fall through to the d-powers
    match = _RHS_RE.match(rhs)
    if lhs not in {"n-d", "n", "ln(n)"} or match is None:
        raise ValueError(f"cannot parse growth family {text!r}")
    coef = float(match.group("coef")) if match.group("coef") else 1.0
    if match.group("sqrt"):
        power = 0.5
    elif match.group("power"):
        power = float(match.group("power"))
    else:
        power = 1.0
    if match.group("dlogd"):
        if lhs != "ln(n)" or power != 1.0:
            raise ValueError(f"d*ln(d) growth is only supported for ln(n) in {text!r}")
        return GrowthFamily("log_n_dlogd", coef)
    if lhs == "n-d":
        return GrowthFamily("n_minus_d_power", coef, power)
    if lhs == "n":
        return GrowthFamily("n_power", coef, power)
    return GrowthFamily("log_n_power", coef, power)


@dataclass(frozen=True)
class RegimeSpec:
    """A growth family together with its derived regime tag."""

    tag: Regime
    rho: float | None = None
    family: GrowthFamily | None = None

    def __post_init__(self):
        if self.rho is None:
            if self.tag in {Regime.SUBLINEAR_SQRT, Regime.LINEAR, Regime.EXPONENTIAL}:
                raise ValueError(f"regime {self.tag.value} requires a rho value")
        elif not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got rho={self.rho}")
        elif self.tag in {Regime.LINEAR, Regime.EXPONENTIAL} and not self.rho > 0:
            raise ValueError(f"rho must be positive for {self.tag.value}, got rho={self.rho}")

    @classmethod
    def from_tag(cls, name: str, rho: float | None = None) -> "RegimeSpec":
        return cls(Regime(name), rho)


def classify(family: GrowthFamily) -> RegimeSpec:
    """Deterministic regime tag of a growth family.

    Families sitting exactly on an undecidable boundary raise
    AmbiguousFamilyError rather than guessing.
    """
    kind, c, a = family.kind, family.coef, family.power
    if kind == "n_minus_d_power":
        if a < 0:
            raise AmbiguousFamilyError(f"n - d must not shrink: {family}")
        if a < 0.5:
            return RegimeSpec(Regime.SUBLINEAR_SQRT, 0.0, family)
        if a == 0.5:
            return RegimeSpec(Regime.SUBLINEAR_SQRT, c, family)
        if a < 1.0:
            return RegimeSpec(Regime.SUBLINEAR_MID, None, family)
        if a == 1.0:
            return RegimeSpec(Regime.LINEAR, c, family)
        return RegimeSpec(Regime.SUBEXPONENTIAL, None, family)
    if kind == "n_power":
        if a > 1.0:
            return RegimeSpec(Regime.SUBEXPONENTIAL, None, family)
        if a == 1.0:
            if c <= 1.0:
                raise AmbiguousFamilyError(
                    f"n = c*d with c <= 1 leaves n - d unspecified: {family}"
                )
            return RegimeSpec(Regime.LINEAR, c - 1.0, family)
        raise AmbiguousFamilyError(f"n = c*d^a needs a >= 1: {family}")
    if kind == "log_n_power":
        if a > 1.0:
            return RegimeSpec(Regime.SUPERFACTORIAL, None, family)
        if a == 1.0:
            return RegimeSpec(Regime.EXPONENTIAL, c, family)
        return RegimeSpec(Regime.SUBEXPONENTIAL, None, family)
    if kind == "log_n_dlogd":
        return RegimeSpec(Regime.SUPEREXPONENTIAL, None, family)
    # d_fixed: n alone goes to infinity, the fastest possible growth
    return RegimeSpec(Regime.SUPERFACTORIAL, None, family)


# ----------------------------------------------------------------------
# linear-regime rate functions
# ----------------------------------------------------------------------

def height_rate(rho: float, r: float) -> float:
    """rho * ln Phi(r) - r^2 / 2; concentration rate of the typical height."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and positive, got rho={rho}")
    return rho * log_norm_cdf(r) - 0.5 * r * r


def _log_mills(r: float) -> float:
    """ln(phi(r) / Phi(r)), with ln phi written out so it never underflows."""
    return -0.5 * r * r - LOG_SQRT_2PI - log_norm_cdf(r)


def height_rate_prime(rho: float, r: float) -> float:
    return rho * math.exp(_log_mills(r)) - r


def height_rate_second(rho: float, r: float) -> float:
    ratio = math.exp(_log_mills(r))
    return -rho * ratio * (r + ratio) - 1.0


def _entropy(rho: float) -> float:
    """(rho+1) ln(rho+1) - rho ln rho, as two positive terms that do not cancel."""
    if rho >= 1.0:
        return math.log1p(rho) + rho * math.log1p(1.0 / rho)
    return (1.0 + rho) * math.log1p(rho) - rho * math.log(rho)


def count_rate(rho: float, r: float) -> float:
    """Exponential growth rate (per unit dimension) of facets below r/sqrt(d)."""
    return height_rate(rho, r) + _entropy(rho)  # height_rate checks rho first


def rate_argmax(rho: float) -> float:
    """The unique positive maximizer of the height rate.

    The maximizer solves rho phi(r) / Phi(r) = r.  In x = ln r the residual
    ln rho + ln(phi/Phi)(r) - x strictly decreases, with derivative
    -r (r + phi/Phi) - 1, and it changes sign on
    [min(ln rho - 1.23, -1), ln(2 + sqrt(2 max(ln rho, 0)))], so bracketed
    Newton in x finds r to relative precision for every finite normal
    float rho > 0.
    """
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and positive, got rho={rho}")
    ln_rho = math.log(rho)

    def residual(x):
        r = math.exp(x)
        return ln_rho + _log_mills(r) - x

    def slope(x):
        r = math.exp(x)
        return -r * (r + math.exp(_log_mills(r))) - 1.0

    lo = min(ln_rho - 1.23, -1.0)
    hi = math.log(2.0 + math.sqrt(2.0 * max(ln_rho, 0.0)))
    # |slope| grows with r: this tolerance in x keeps |residual| < _XTOL
    xtol = _XTOL / -slope(hi)
    return math.exp(newton_bracketed(residual, slope, lo, hi, xtol=xtol))


def count_rate_roots(rho: float) -> tuple:
    """Zero crossings (r_low, r_high) of the count rate around its maximum.

    The maximum value g* is positive for every rho > 0, and the rate is
    concave with second derivative at most -1, so both roots lie within
    w = sqrt(2 g*) of the argmax.  They are resolved to _XTOL * w, a
    tolerance relative to their distance from the peak, by bracketed
    Newton with the rate's r-derivative ``height_rate_prime``.
    """
    peak = rate_argmax(rho)
    top = count_rate(rho, peak)
    if not top > 0.0:
        raise ArithmeticError(f"count rate is not positive at its peak for rho={rho}")
    rate = functools.partial(count_rate, rho)
    width = math.sqrt(2.0 * top)
    hi = _first_negative(rate, peak, width, "upper root", rho)
    lo = _first_negative(rate, peak, -width, "lower root", rho)
    xtol = _XTOL * width
    slope = functools.partial(height_rate_prime, rho)
    return (newton_bracketed(rate, slope, lo, peak, xtol=xtol),
            newton_bracketed(rate, slope, peak, hi, xtol=xtol))


def _first_negative(f, origin: float, step: float, what: str, rho: float) -> float:
    """origin + step * 2^k at the first k = 0, 1, ..., 199 where f < 0."""
    for _ in range(200):
        x = origin + step
        if f(x) < 0.0:
            return x
        step *= 2.0
    raise ArithmeticError(
        f"failed to bracket the {what} for rho={rho}: f >= 0 from {origin} to {x}"
    )


# ----------------------------------------------------------------------
# constants and height scales
# ----------------------------------------------------------------------

def facets_per_vertex_limit(d: int) -> LogReal:
    """Limit of (expected facets)/n as n -> infinity at fixed dimension d."""
    if not 2 <= d <= MAX_DIMENSION:
        raise ValueError(f"dimension must lie in [2, 10**154], got d={d}")
    q = 0.5 * (d * d - 2 * d)
    ln_k = (
        d * math.log(2.0)
        + (0.5 * d - 1.0) * math.log(math.pi)
        - math.log(d)
        - 2.0 * math.log(d - 1.0)
        + _log_gamma_half_ratio(q + 0.5)
        + (d - 1.0) * _log_gamma_half_ratio(0.5 * d)
    )
    return LogReal.from_log(ln_k)


def concentration_height(params: PolytopeParams) -> float:
    """The height scale sqrt(1 - d^(3/(d-1)) n^(-2/(d-1))).

    Facets concentrate at this height once n outgrows every exponential
    in d; the facet count is then ~ n * K_d * h^(d-1) with
    K_d = facets_per_vertex_limit(d).
    """
    d = params.d
    arg = (3.0 * math.log(d) - 2.0 * params.ln_n) / (d - 1.0)
    if arg >= 0.0:
        raise ValueError(
            f"concentration height needs n > d^(3/2); got ln n = {params.ln_n}, d = {d}"
        )
    return math.sqrt(-math.expm1(arg))


def height_window(params: PolytopeParams, r1: float = 10.0, r2: float = 0.1) -> HeightInterval:
    """The window [h1, h2] that asymptotically brackets every facet, n >> d.

        h1 = sqrt(1 - (r1 d (ln(n/d))^(3/2) / n)^(2/(d-1)))
        h2 = sqrt(1 - (r2 d / n)^(2(d+1)/(d-1)^2))

    Each edge carries its gap u = arccos(h) from ln sin u = ln(1 - h^2)/2,
    exact where h rounds to 1.  r1 must be large enough and r2 small
    enough; the defaults are heuristic.  Raises when a radicand is
    nonpositive (n/d too small for the window to exist) or when the
    endpoints cross (r1/r2 misuse).
    """
    if not (r1 > 0 and r2 > 0):
        raise ValueError(f"r1 and r2 must be positive, got r1={r1}, r2={r2}")
    d, ln_n = params.d, params.ln_n
    log_ratio = ln_n - math.log(d)
    if log_ratio <= 0:
        raise ValueError(f"height window needs n > d, got ln(n/d) = {log_ratio}")
    arg1 = 2.0 * (math.log(r1) + math.log(d) + 1.5 * math.log(log_ratio) - ln_n) / (d - 1.0)
    if arg1 >= 0.0:
        raise ValueError(
            "lower endpoint undefined: requires r1 * d * (ln(n/d))^(3/2) < n"
        )
    arg2 = 2.0 * (d + 1.0) * (math.log(r2) + math.log(d) - ln_n) / (d - 1.0) ** 2
    if arg2 >= 0.0:
        raise ValueError("upper endpoint undefined: requires r2 * d < n")
    h1 = math.sqrt(-math.expm1(arg1))
    h2 = math.sqrt(-math.expm1(arg2))
    if arg1 < arg2:
        raise ValueError(
            f"endpoints crossed (h1={h1} > h2={h2}): r1 too small or r2 too large"
        )
    gap1, gap2 = (math.exp(_log_gap(0.5 * arg)) for arg in (arg1, arg2))
    return HeightInterval(h1, h2, gap1=gap1, gap2=gap2)


def limit_height(spec: RegimeSpec, params: PolytopeParams | None = None) -> float:
    """Asymptotic reduction of the bracketing heights for fast regimes.

    Subexponential: sqrt(2 ln(n/d) / d).  Exponential(rho):
    sqrt(1 - exp(-2 rho)).  Superexponential and beyond:
    sqrt(1 - n^(-2/(d-1))), from -ln(1 - h^2) ~ 2 ln(n) / (d-1).
    """
    if spec.tag == Regime.SUBEXPONENTIAL:
        if params is None:
            raise ValueError("subexponential height scale needs (n, d)")
        return math.sqrt(2.0 * (params.ln_n - math.log(params.d)) / params.d)
    if spec.tag == Regime.EXPONENTIAL:
        return math.sqrt(-math.expm1(-2.0 * spec.rho))
    if spec.tag in (Regime.SUPEREXPONENTIAL, Regime.SUPERFACTORIAL):
        if params is None:
            raise ValueError("superexponential height scale needs (n, d)")
        return math.sqrt(-math.expm1(-2.0 * params.ln_n / (params.d - 1.0)))
    raise ValueError(f"no fast-regime height scale for {spec.tag.value}")


# ----------------------------------------------------------------------
# facet-count asymptotics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FacetCountAsymptotic:
    regime: Regime
    log_count: float
    dropped: str


def facet_count_asymptotic(
    spec: RegimeSpec, params: PolytopeParams
) -> FacetCountAsymptotic:
    """Leading-order ln(expected facets) for the given regime at (n, d).

    The omitted correction order is attached as ``dropped``; the formulas
    carry no finite-size error control.
    """
    d = params.d
    tag = spec.tag
    if tag in (Regime.SUBLINEAR_SQRT, Regime.SUBLINEAR_MID):
        if params.n is None:
            raise ValueError("sublinear regime needs an exact point count")
        m = params.n - d
        ln_f = log_binomial(params) + math.log(2.0) - m * math.log(2.0) + m * m / (math.pi * d)
        return FacetCountAsymptotic(tag, ln_f, "exp(O((n-d)^3/d^2) + o(1))")
    if tag == Regime.LINEAR:
        peak = count_rate(spec.rho, rate_argmax(spec.rho))
        return FacetCountAsymptotic(tag, d * peak, "exp(o(d))")
    log_ratio = params.ln_n - math.log(d)
    if tag == Regime.SUBEXPONENTIAL:
        if log_ratio <= 0:
            raise ValueError(f"subexponential formula needs n > d, got ln_n={params.ln_n}, d={d}")
        ln_f = 0.5 * (d - 1.0) * math.log(4.0 * math.pi * log_ratio)
        return FacetCountAsymptotic(tag, ln_f, "(1 + o(1))^((d-1)/2) inside the log")
    if tag == Regime.EXPONENTIAL:
        ln_f = 0.5 * (d - 1.0) * (
            math.log(2.0 * math.pi * d) + math.log(math.expm1(2.0 * spec.rho))
        )
        return FacetCountAsymptotic(tag, ln_f, "(1 + o(1))^((d-1)/2) inside the log")
    if tag == Regime.SUPEREXPONENTIAL:
        h_star = concentration_height(params)
        ln_f = params.ln_n + facets_per_vertex_limit(d).ln() + (d - 1.0) * math.log(h_star)
        return FacetCountAsymptotic(tag, ln_f, "factor 1 + o(1)")
    if tag == Regime.SUPERFACTORIAL:
        ln_f = params.ln_n + facets_per_vertex_limit(d).ln()
        return FacetCountAsymptotic(tag, ln_f, "factor 1 + o(1)")
    raise ValueError(f"unsupported regime {tag}")


# ----------------------------------------------------------------------
# typical-height asymptotics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TypicalHeightAsymptotic:
    """Centering/scaling and limit law of the typical height in a regime.

    ``center`` is the height estimate at the given (n, d); for the
    normal-limit regime ``scale`` is the height-scale of one standard
    deviation.  ``law`` is one of "normal", "point_mass", "gamma".
    """

    regime: Regime
    center: float
    scale: float | None
    law: str
    law_params: dict


def typical_height_asymptotic(
    spec: RegimeSpec, params: PolytopeParams
) -> TypicalHeightAsymptotic:
    d = params.d
    tag = spec.tag
    if tag == Regime.SUBLINEAR_SQRT:
        return TypicalHeightAsymptotic(
            tag, spec.rho * _SQRT_2_OVER_PI / d, 1.0 / d, "normal",
            {"statistic": "d * H - rho * sqrt(2/pi)"},
        )
    if tag == Regime.SUBLINEAR_MID:
        if params.n is None:
            raise ValueError("sublinear regime needs an exact point count")
        loc = _SQRT_2_OVER_PI * (params.n - d) / d ** 1.5
        return TypicalHeightAsymptotic(
            tag, loc, None, "point_mass",
            {"statistic": "d^(3/2)/(n-d) * H", "limit": _SQRT_2_OVER_PI},
        )
    if tag == Regime.LINEAR:
        r_peak = rate_argmax(spec.rho)
        return TypicalHeightAsymptotic(
            tag, r_peak / math.sqrt(d), None, "point_mass",
            {"statistic": "sqrt(d) * H", "limit": r_peak},
        )
    if tag == Regime.SUBEXPONENTIAL:
        loc = limit_height(spec, params)
        return TypicalHeightAsymptotic(
            tag, loc, None, "point_mass",
            {"statistic": "sqrt(d / ln(n/d)) * H", "limit": math.sqrt(2.0)},
        )
    if tag == Regime.EXPONENTIAL:
        return TypicalHeightAsymptotic(
            tag, limit_height(spec), None, "point_mass",
            {"statistic": "H", "limit": limit_height(spec)},
        )
    if tag == Regime.SUPEREXPONENTIAL:
        return TypicalHeightAsymptotic(
            tag, limit_height(spec, params), None, "point_mass",
            {"statistic": "-(d-1)/ln(n) * ln(1 - H^2)", "limit": 2.0},
        )
    if tag == Regime.SUPERFACTORIAL:
        scale_ln = params.ln_n - _log_cap_constant(d)
        return TypicalHeightAsymptotic(
            tag, limit_height(spec, params), None, "gamma",
            {
                "shape": d - 1,
                "statistic": "scale * (1 - H^2)^((d-1)/2)",
                "ln_statistic_scale": scale_ln,
            },
        )
    raise ValueError(f"unsupported regime {tag}")


# ----------------------------------------------------------------------
# Hausdorff distance
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HausdorffAsymptotic:
    """Limit of the Hausdorff distance between the hull and the ball.

    ``approx`` is the regime's finite-(n, d) estimate when one exists;
    ``fixed_d_constant`` is the sharp constant for constant dimension.
    """

    regime: Regime
    limit: float
    approx: float | None
    fixed_d_constant: float | None


def glasauer_schneider_constant(d: int) -> float:
    """Constant in the fixed-dimension Hausdorff asymptotic c_d (ln n / n)^(2/(d-1))."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return 0.5 * math.exp((2.0 / (d - 1.0)) * _log_cap_constant(d))


def hausdorff_asymptotic(
    spec: RegimeSpec, params: PolytopeParams | None = None
) -> HausdorffAsymptotic:
    """Limit of 1 - (minimum facet height) per regime.

    Fast super-exponential growth pulls the hull boundary toward the
    sphere (distance -> 0, with rate n^(-2/(d-1)) when d also grows and
    the sharp fixed-d constant otherwise); exponential growth leaves a
    positive gap; anything slower keeps the distance at 1.
    """
    tag = spec.tag
    if tag == Regime.EXPONENTIAL:
        return HausdorffAsymptotic(tag, 1.0 - limit_height(spec), None, None)
    if tag in (Regime.SUPEREXPONENTIAL, Regime.SUPERFACTORIAL):
        approx = None
        constant = None
        if params is not None:
            d = params.d
            if spec.family is not None and spec.family.kind == "d_fixed":
                constant = glasauer_schneider_constant(d)
                approx = constant * math.exp(
                    (2.0 / (d - 1.0)) * (math.log(params.ln_n) - params.ln_n)
                )
            else:
                # 2 n^(2/(d-1)) d_H -> 1 when ln ln n << d << ln n
                approx = 0.5 * math.exp(-2.0 * params.ln_n / (params.d - 1.0))
        return HausdorffAsymptotic(tag, 0.0, approx, constant)
    return HausdorffAsymptotic(tag, 1.0, None, None)


# ----------------------------------------------------------------------
# Wendel probability
# ----------------------------------------------------------------------

def origin_outside_prob(n: int, d: int) -> float:
    """P(origin outside the hull of n symmetric random points in R^d).

    Wendel's formula: 2^(1-n) * sum_{k=0}^{d-1} binom(n-1, k); exact
    rational arithmetic up to moderate n, log-domain accumulation beyond.
    """
    if not (n >= 1 and d >= 1):
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if d >= n:
        return 1.0
    if n <= 4000:
        total = sum(math.comb(n - 1, k) for k in range(d))
        return float(Fraction(total, 1 << (n - 1)))
    log_sum = 0.0  # the k = 0 term, binom(n - 1, 0) = 1
    for j in (min(k, n - 1 - k) for k in range(1, d)):
        log_sum = log_add_exp(log_sum, _log_binomial(j, math.log((n - 1) / j)))
    return math.exp(log_sum - (n - 1) * math.log(2.0))

