"""The four seeded, closed-loop workloads: inputs, operations and checks.

A workload yields cycles.  A cycle is a list of groups; a group is a list
of operations (each one library call or one CLI command) and the check
their results must pass.  One client issues the operations one after
the other.  A run always ends on a cycle boundary, so every run has the
same operation mix whatever its length.  Each operation is timed on its
own; checks run between operations and are never timed.

The library only ever receives the generated inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import resource
import selectors
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import spherefacets as sf
from spherefacets import asymptotics as asym
from spherefacets import cli

HALF_PI = 0.5 * math.pi
P = sf.PolytopeParams

CLOSED_FORM_TOL = 1e-9  # the library's accuracy contract on counts
ADDITIVITY_TOL = 1e-9
ROUND_TRIP_TOL = 1e-8
QUANTILE_XTOL = 1e-10  # the angular accuracy typical_height_quantile documents
TABLE_TOL = 1e-6
MONOTONE_SLACK = 1e-9  # quadrature noise allowed between two CDF points
CLI_TIMEOUT_S = 150


@dataclass
class Op:
    """One timed call; ``call`` receives the results of the group so far."""

    span: str
    call: Callable
    weight: int = 1  # units of work for throughput (replicates in census)


@dataclass
class Group:
    """Operations checked together; ``check`` returns one bool per operation."""

    ops: list
    check: Callable
    inputs: str = ""  # named in the report of a failed check


def _rel_close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * abs(ref)


class Draws:
    """Seeded low-discrepancy draws, one Weyl sequence per named stream.

    Stream k yields frac(offset + i * alpha_k) with a seeded offset and
    alpha_k = frac(sqrt(k-th prime)), so every run covers each input range
    evenly and runs differ in their points, not in their mix; the cost of
    a run then depends little on the seed.
    """

    _PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._state: dict = {}

    def random(self, stream: str) -> float:
        if stream not in self._state:
            root = math.sqrt(self._PRIMES[len(self._state)])
            self._state[stream] = [self.rng.random(), root - math.floor(root)]
        state = self._state[stream]
        state[0] = (state[0] + state[1]) % 1.0
        return state[0]

    def uniform(self, stream: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random(stream)

    def log_uniform(self, stream: str, lo: float, hi: float) -> float:
        return math.exp(self.uniform(stream, math.log(lo), math.log(hi)))

    def randint(self, stream: str, lo: int, hi: int) -> int:
        return lo + int(self.random(stream) * (hi - lo + 1))


class Workload:
    """What every workload has: a name, the tail percentile it reports,
    the unit its throughput counts, the number of worker processes its
    timed loop is split over, and hooks around the timed loop."""

    name = ""
    tail_pct = 0.0
    op_unit = ""
    processes = 4

    def prepare(self) -> None:
        """Oracle values, computed after set-up and before timing."""

    def state(self):
        """What the next worker process of the run must carry on (JSON)."""
        return None

    def resume(self, state) -> None:
        """Carry on from the ``state()`` of the run's previous worker."""

    def finish(self) -> int:
        """Checks on the whole run; returns the number of operations failed."""
        return 0

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process the operations run in."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tag(params) -> str:
    if params.n is None:
        return "huge_n"
    return "high_d" if params.d >= 100 else "low_d"


# ----------------------------------------------------------------------
# counts: a stream of expected_facets queries, each on a fresh (n, d)
# ----------------------------------------------------------------------

def _count_op(tag: str, params, window=sf.FULL_RANGE) -> Op:
    return Op(f"exact.expected_facets.{tag}", lambda _: sf.expected_facets(params, window))


def closed_form_group(params, reference: float) -> Group:
    """F[-1, 1] against n (d = 2), 2n - 4 (d = 3) or d + 1 (simplex)."""
    return Group(
        [_count_op(_tag(params), params)],
        lambda res: [_rel_close(res[0].to_float(), reference, CLOSED_FORM_TOL)],
        f"{params}, reference {reference}",
    )


def _additivity_check(res) -> list:
    """res = (F[a, b], F[b, c], F[a, c]); checks F[a, b] + F[b, c] = F[a, c]."""
    left, right, whole = res
    if whole.is_zero():
        ok = left.is_zero() and right.is_zero()
    else:
        parts = left + right
        ok = parts.sign == 1 and abs(math.expm1(parts.ln() - whole.ln())) <= ADDITIVITY_TOL
    return [ok] * 3


def gap_window(gap_big: float, gap_small: float):
    """Heights between cos(gap_big) and cos(gap_small), the gaps to h = 1
    carried exactly (theta = pi/2 - gap loses a gap below ~1e-16)."""
    return sf.HeightInterval(
        math.cos(gap_big), math.cos(gap_small), HALF_PI - gap_big, HALF_PI - gap_small,
        gap_big, gap_small,
    )


def split_group(params, gap: float) -> Group:
    """The full count and its split at the upper gap ``gap``."""
    lower = gap_window(math.pi, gap)
    upper = sf.HeightInterval.upper_tail(gap)
    ops = [
        _count_op("window", params, lower),
        _count_op("window", params, upper),
        _count_op(_tag(params), params),
    ]
    return Group(ops, _additivity_check, f"{params}, split at gap {gap!r}")


def window_group(params, theta_a: float, theta_b: float, theta_c: float) -> Group:
    ops = [
        _count_op("window", params, sf.HeightInterval.from_theta(theta_a, theta_b)),
        _count_op("window", params, sf.HeightInterval.from_theta(theta_b, theta_c)),
        _count_op("window", params, sf.HeightInterval.from_theta(theta_a, theta_c)),
    ]
    return Group(ops, _additivity_check, f"{params}, theta {theta_a!r} {theta_b!r} {theta_c!r}")


def upper_tail_group(params, gap_big: float, gap_small: float) -> Group:
    ops = [
        _count_op("window", params, gap_window(gap_big, gap_small)),
        _count_op("window", params, sf.HeightInterval.upper_tail(gap_small)),
        _count_op("window", params, sf.HeightInterval.upper_tail(gap_big)),
    ]
    return Group(ops, _additivity_check, f"{params}, gaps {gap_big!r} {gap_small!r}")


class Counts(Workload):
    """expected_facets queries; no (n, d) repeats within a run.

    The first cycle holds the fixed cases of the ROADMAP baseline; later
    cycles draw every shape afresh, so nothing computed for one query can
    be reused by the next.
    """

    name = "counts"
    tail_pct = 95.0
    op_unit = "queries"

    def __init__(self, seed: int, tracer=None, root=None):
        self.draws = Draws(seed)
        self.seen: set = set()

    def _fresh(self, draw):
        while True:
            params = draw()
            key = (params.n, params.ln_n, params.d)
            if key not in self.seen:
                self.seen.add(key)
                return params

    def _mode_gap(self, params) -> float:
        """A gap near the facet-height mode, jittered by up to e^{+-3}."""
        centre = -params.ln_n / (params.d - 1)
        return min(math.exp(centre + self.draws.uniform("gap", -3.0, 3.0)), 3.0)

    def _huge_n(self):
        draws = self.draws
        return self._fresh(lambda: P.from_log(
            draws.uniform("ln_n", 500.0, 3000.0), draws.randint("huge_n_d", 20, 80)))

    def _huge_n_gap(self) -> float:
        """A split gap for n = e^500 .. e^3000, at or above 0.25.

        A window edge near the mode (u ~ n^(-1/(d-1))) at such n takes
        from 10 ms to several seconds, and about one window in thirty
        exhausts the quadrature panel budget after 6-7 s and raises
        QuadratureError; one such call would take a third of a run.  The
        timed loop therefore splits huge-n counts away from the mode, and
        ``huge_n_mode_splits`` feeds the near-mode windows to a separately
        reported group of the traced run.
        """
        return self.draws.uniform("huge_gap", 0.25, 3.0)

    def _anchor_cycle(self) -> list:
        groups = [
            closed_form_group(self._fresh(lambda: P(20, 3)), 36.0),
            closed_form_group(self._fresh(lambda: P(10**6, 3)), 2.0 * 10**6 - 4.0),
        ]
        for n, d in ((12, 4), (14, 5), (50, 4), (405, 400), (1000, 500)):
            params = self._fresh(lambda: P(n, d))
            groups.append(split_group(params, self._mode_gap(params)))
        params = self._fresh(lambda: P.from_log(2000.0, 50))
        groups.append(split_group(params, self._huge_n_gap()))
        return groups

    def _random_cycle(self) -> list:
        draws = self.draws
        groups = []
        for d in (2, 3):
            params = self._fresh(lambda: P(int(draws.log_uniform(f"n{d}", 10, 1e6)), d))
            n = int(params.n)
            groups.append(closed_form_group(params, n if d == 2 else 2 * n - 4))
        params = self._fresh(lambda: (lambda d: P(d + 1, d))(draws.randint("simplex", 2, 400)))
        groups.append(closed_form_group(params, params.d + 1))

        def high_d():
            d = draws.randint("high_d", 300, 500)
            return P(d + int(draws.log_uniform("high_d_excess", 5, 600)), d)

        params = self._fresh(high_d)
        groups.append(split_group(params, self._mode_gap(params)))
        params = self._huge_n()
        groups.append(split_group(params, self._huge_n_gap()))

        def low_d():
            d = draws.randint("low_d", 2, 8)
            return P(max(int(draws.log_uniform("low_d_n", d + 2, 2000)), d + 2), d)

        params = self._fresh(low_d)
        thetas = sorted(draws.uniform("theta", -HALF_PI, HALF_PI) for _ in range(3))
        groups.append(window_group(params, *thetas))
        params = self._fresh(low_d)
        gaps = sorted((self._mode_gap(params), self._mode_gap(params)), reverse=True)
        if gaps[0] > gaps[1]:
            groups.append(upper_tail_group(params, *gaps))
        else:
            groups.append(split_group(params, gaps[0]))
        return groups

    def cycles(self):
        yield self._anchor_cycle()
        while True:
            yield self._random_cycle()


# A huge-n split the library cannot integrate: the window [-1, cos u] at
# this gap u raises QuadratureError.
FAILING_HUGE_N_SPLIT = (P.from_log(736.1952884711244, 68), 2.2152972453795617e-05)


def huge_n_mode_splits(count: int) -> list:
    """(params, gap): the failing split above, then ``count`` huge-n splits
    near the mode drawn from a fixed stream, the same in every run."""
    counts = Counts(0)
    splits = [FAILING_HUGE_N_SPLIT]
    for _ in range(count):
        params = counts._huge_n()
        splits.append((params, counts._mode_gap(params)))
    return splits


# ----------------------------------------------------------------------
# laws: one law built per cycle, then many partial integrals of it
# ----------------------------------------------------------------------

# (label, params, CDF points, scale, lo, hi): query heights are drawn
# inside the 1%..99% quantile band of each law (measured at the
# benchmark's first commit), uniformly in h, or log-uniformly in 1 - h
# where the whole law sits within 1e-10 of h = 1.
#
# The CDF points per law place the median operation inside one class.  A
# cycle has 60 operations: 20 at n = 1e6 (3-9 ms each), then the 16 CDF
# points of (50,4) and (14,5) (4-15 ms), then 24 slower ones (gamma
# points, for_params, (405,400), quantiles and tables).  Ranks 30 and 31
# fall in the middle of the second class.
LAWS = (
    ("50_4", P(50, 4), 8, "h", 0.580, 0.942),
    ("14_5", P(14, 5), 8, "h", 0.0045, 0.729),
    ("1e6_2", P(10**6, 2), 16, "1-h", 4e-16, 1.05e-10),
    # Acceptance criterion 8 (the uncentered normal probe at this size) is a
    # known red owned by the tier-1 suite; it is not checked here.  This law
    # is checked for quantile round trips and monotonicity only.
    ("405_400", P(405, 400), 4, "h", -0.0053, 0.0063),
)
LAW_GAMMA_POINTS = 3
LAW_TABLE_ROWS = 2001
LAW_TABLE_CHECKS = 3


def _cdf_bracket_ok(law, h: float, target: float, tol: float) -> bool:
    """``target`` lies within ``tol`` of the CDF at h, or between its values
    at the floats next to h: where a law lives within 1e-10 of h = 1, the
    rounding of h to a float moves the CDF by more than ``tol``."""
    if abs(sf.typical_height_cdf(law, h) - target) <= tol:
        return True
    below = sf.typical_height_cdf(law, max(math.nextafter(h, -2.0), -1.0))
    above = sf.typical_height_cdf(law, min(math.nextafter(h, 2.0), 1.0))
    return below - tol <= target <= above + tol


def _round_trip_ok(law, q: float, prob: float) -> bool:
    """CDF(quantile(p)) = p within ROUND_TRIP_TOL, or, where the law is too
    narrow for that, p lies in the CDF band spanned by the quantile's
    documented accuracy of QUANTILE_XTOL in theta = arcsin(h)."""
    if abs(sf.typical_height_cdf(law, q) - prob) <= ROUND_TRIP_TOL:
        return True
    gap = 2.0 * math.asin(math.sqrt(0.5 * (1.0 - q)))  # pi/2 - theta, exact near h = 1
    wide, narrow = min(gap + QUANTILE_XTOL, math.pi), max(gap - QUANTILE_XTOL, 0.0)
    h_lo = max(math.nextafter(1.0 - 2.0 * math.sin(0.5 * wide) ** 2, -2.0), -1.0)
    h_hi = min(math.nextafter(1.0 - 2.0 * math.sin(0.5 * narrow) ** 2, 2.0), 1.0)
    return (sf.typical_height_cdf(law, h_lo) - ROUND_TRIP_TOL <= prob
            <= sf.typical_height_cdf(law, h_hi) + ROUND_TRIP_TOL)


def _monotone(values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values) and all(
        b >= a - MONOTONE_SLACK for a, b in zip(values, values[1:])
    )


def law_group(params, heights, stats, prob: float, table_checks, check_table: bool,
              quantile=None) -> Group:
    """for_params, then CDF points, gamma-statistic points, a quantile and a table.

    ``heights`` and ``stats`` come sorted ascending; ``table_checks`` are
    fractions of the table's in-band rows to compare with the CDF.
    """
    quantile = quantile or sf.typical_height_quantile
    ops = [Op("exact.law.for_params", lambda _: sf.TypicalHeightLaw.for_params(params))]
    ops += [Op("exact.law.cdf", lambda r, h=h: sf.typical_height_cdf(r[0], h)) for h in heights]
    ops += [Op("exact.law.gamma", lambda r, y=y: sf.gamma_statistic_cdf(r[0], y)) for y in stats]
    ops.append(Op("exact.law.quantile", lambda r: quantile(r[0], prob)))
    ops.append(Op("exact.law.cdf_table", lambda r: sf.cdf_table(r[0], LAW_TABLE_ROWS)))
    n_cdf, n_gamma = len(heights), len(stats)

    def check(res):
        law = res[0]
        ok_law = law.normalizer.sign == 1 and math.isfinite(law.normalizer.ln())
        ok_cdf = _monotone(res[1 : 1 + n_cdf])
        ok_gamma = _monotone(res[1 + n_cdf : 1 + n_cdf + n_gamma])
        q = res[-2]
        ok_quantile = -1.0 <= q <= 1.0 and _round_trip_ok(law, q, prob)
        _, table_h, table_cdf = res[-1]
        ok_table = _monotone(list(table_cdf)) and table_cdf[-1] == 1.0
        if ok_table and check_table:
            band = [i for i, c in enumerate(table_cdf) if 0.05 < c < 0.95]
            rows = [band[int(f * (len(band) - 1))] for f in table_checks]
            ok_table = bool(band) and all(
                _cdf_bracket_ok(law, float(table_h[i]), float(table_cdf[i]), TABLE_TOL)
                for i in rows
            )
        return [ok_law] + [ok_cdf] * n_cdf + [ok_gamma] * n_gamma + [ok_quantile, ok_table]

    return Group(ops, check, f"{params}, heights {heights}, stats {stats}, p {prob!r}")


class Laws(Workload):
    """Per law: a timed for_params, then a seeded mix of queries on it."""

    name = "laws"
    # p93 falls among the 1e6 table and the (14,5) and (50,4) quantiles and
    # tables (250-570 ms), ranks 54 to 57 of a cycle's 60
    tail_pct = 93.0
    op_unit = "queries"

    def __init__(self, seed: int, tracer=None, root=None):
        self.draws = Draws(seed)

    def _strata(self, stream: str, points: int) -> list:
        """``points`` values in [0, 1), one in each of ``points`` equal
        strata, at a seeded offset: every cycle then covers the whole band
        evenly and costs about the same, whatever the seed."""
        offset = self.draws.random(stream)
        return [(j + offset) / points for j in range(points)]

    def _heights(self, label: str, points: int, scale: str, lo: float, hi: float) -> list:
        strata = self._strata(f"h:{label}", points)
        if scale == "1-h":
            return sorted(1.0 - math.exp(math.log(lo) + u * math.log(hi / lo)) for u in strata)
        return [lo + (hi - lo) * u for u in strata]

    def cycles(self):
        draws = self.draws
        while True:
            groups = []
            for label, params, points, scale, lo, hi in draws.rng.sample(LAWS, len(LAWS)):
                stats = [(params.d - 1) * 0.25 * 16.0 ** u
                         for u in self._strata(f"y:{label}", LAW_GAMMA_POINTS)]
                groups.append(
                    law_group(
                        params,
                        self._heights(label, points, scale, lo, hi),
                        stats,
                        draws.uniform(f"p:{label}", 0.02, 0.98),
                        [draws.random(f"row:{label}") for _ in range(LAW_TABLE_CHECKS)],
                        check_table=label != "405_400",
                    )
                )
            yield groups


# ----------------------------------------------------------------------
# census: Monte Carlo estimate calls, checked against exact and Wendel
# ----------------------------------------------------------------------

# (n, d, replicates per call, calls per cycle).  At 0.25, 2.6, 3.6 and 21
# ms per replicate (the benchmark's first commit) a call takes about 75,
# 120, 160 and 210 ms, so no shape takes more than a third of the run,
# and the median and p90 of the five calls of a cycle fall inside one
# shape's calls rather than between two shapes.
SHAPES = ((4, 2, 300, 2), (15, 3, 45, 1), (12, 4, 45, 1), (14, 5, 10, 1))


def shape_label(n: int, d: int) -> str:
    return f"{n}_{d}"


THREE_SIGMA = 0.0026997960632601866  # 2 * (1 - Phi(3))


def binomial_tail(k: int, n: int, p: float) -> float:
    """The smaller of P(X <= k) and P(X >= k) for X ~ Binomial(n, p)."""
    if p in (0.0, 1.0):
        return 1.0 if k == round(n * p) else 0.0
    log_norm = math.lgamma(n + 1)
    ln_p, ln_q = math.log(p), math.log1p(-p)
    terms = range(0, k + 1) if k <= n * p else range(k, n + 1)
    return min(1.0, math.fsum(
        math.exp(log_norm - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * ln_p + (n - j) * ln_q)
        for j in terms
    ))


class Pooled:
    """Replicates of one shape pooled over a run, tested once at its end.

    The facet-count mean must lie within 3 SE + 1e-6 relative of the exact
    count.  The origin-inside count must pass the exact two-sided binomial
    test under Wendel's formula at the 3-sigma level: near p = 1 the count
    of misses is small and skewed, and a normal 3-SE band there rejects a
    correct sampler (11 misses in 660 replicates at (15,3), where 4.3 are
    expected, has a two-sided p-value of 0.009).  One test per shape per
    run, not one per call, keeps repeated testing from raising false alarms.
    """

    def __init__(self, exact_count: float, inside_prob: float):
        self.exact_count = exact_count
        self.inside_prob = inside_prob
        self.reps = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self.inside = 0

    def add(self, report) -> None:
        counts = report.counts.astype(float)
        self.reps += len(counts)
        self.sum += float(counts.sum())
        self.sum_sq += float((counts * counts).sum())
        self.inside += int(report.origin_inside.sum())

    def sums(self) -> list:
        return [self.reps, self.sum, self.sum_sq, self.inside]

    def ok(self) -> bool:
        mean = self.sum / self.reps
        var = max(self.sum_sq / self.reps - mean * mean, 0.0) * self.reps / max(self.reps - 1, 1)
        se = math.sqrt(var / self.reps)
        ok_count = abs(mean - self.exact_count) <= 3.0 * se + 1e-6 * self.exact_count
        ok_inside = 2.0 * binomial_tail(self.inside, self.reps, self.inside_prob) >= THREE_SIGMA
        return ok_count and ok_inside


class Census(Workload):
    """``estimate`` calls over four shapes.

    Each call is checked at once for facet counts every polytope must have
    (n for d = 2 and 2n - 4 for d = 3, since every sphere point is a
    vertex and the hull is simplicial; at least d + 1 otherwise).  The
    statistical checks run on each shape's pooled replicates when the run
    ends; a failure there fails every call on that shape.

    The replicate streams are fixed (call k on a shape always uses the
    same EnsembleSpec seed), so the statistical verdicts depend only on
    how many calls a run makes; the workload seed sets the order of the
    calls in each cycle.  Of the prefixes of 1 to 300 calls per shape,
    only the first 10 calls on (15,3) fail (10 misses in 450 replicates
    where 2.9 are expected; 20000 fresh replicates give z = 0.3), and a
    30-second run makes about 45.
    """

    name = "census"
    tail_pct = 90.0
    op_unit = "replicates"

    def __init__(self, seed: int, tracer=None, root=None):
        self.rng = random.Random(seed)
        self.calls = {shape: 0 for shape in SHAPES}
        self.cycle = [shape for shape in SHAPES for _ in range(shape[3])]
        self.pooled: dict = {}
        self.replicates = 0
        self.skipped_subsets = 0
        self.degenerate_resamples = 0

    def prepare(self, oracle=None) -> None:
        """Exact counts and Wendel probabilities, computed before timing."""
        for n, d, _, _ in SHAPES:
            if oracle is None:
                exact_count = sf.expected_facets(P(n, d)).to_float()
                inside = 1.0 - asym.origin_outside_prob(n, d)
            else:
                exact_count, inside = oracle[(n, d)]
            self.pooled[(n, d)] = Pooled(exact_count, inside)

    def finish(self) -> int:
        return sum(self.calls[shape] for shape in SHAPES
                   if self.calls[shape] and not self.pooled[shape[:2]].ok())

    def state(self):
        """Calls made and replicates pooled per shape: a run's workers go on
        along the same replicate streams and test the whole run's pool."""
        return [[self.calls[shape], *self.pooled[shape[:2]].sums()] for shape in SHAPES]

    def resume(self, state) -> None:
        for shape, (calls, *sums) in zip(SHAPES, state or ()):
            self.calls[shape] = calls
            pooled = self.pooled[shape[:2]]
            pooled.reps, pooled.sum, pooled.sum_sq, pooled.inside = sums

    def _group(self, shape) -> Group:
        n, d, reps, _ = shape
        k = self.calls[shape]
        self.calls[shape] += 1
        spec = sf.EnsembleSpec(P(n, d), replicates=reps, seed=1000 * k + SHAPES.index(shape))
        always = {2: n, 3: 2 * n - 4}.get(d)

        def check(res):
            report = res[0]
            self.replicates += reps
            self.skipped_subsets += report.skipped_subsets
            self.degenerate_resamples += report.degenerate_resamples
            self.pooled[(n, d)].add(report)
            counts = report.counts
            if always is not None:
                return [len(counts) == reps and bool((counts == always).all())]
            return [len(counts) == reps and bool((counts >= d + 1).all())]

        op = Op(f"montecarlo.estimate.{shape_label(n, d)}", lambda _: sf.estimate(spec), reps)
        return Group([op], check, f"{spec}")

    def cycles(self):
        while True:
            yield [self._group(shape) for shape in self.rng.sample(self.cycle, len(self.cycle))]


# ----------------------------------------------------------------------
# cli: spherefacets commands as subprocesses
# ----------------------------------------------------------------------

def _close(a, b, tol: float = 1e-12) -> bool:
    """Equal numbers (JSON floats round-trip exactly), None matching NaN."""
    if a is None or b is None:
        return a is None and (b is None or (isinstance(b, float) and math.isnan(b)))
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def _rows_close(got, want) -> bool:
    return len(got) == len(want) and all(
        len(g) == len(w) and all(_close(x, y) for x, y in zip(g, w)) for g, w in zip(got, want)
    )


def _law_table(params, rows: int | None = None):
    law = sf.TypicalHeightLaw(params, sf.height_integral(params))
    return sf.cdf_table(law) if rows is None else sf.cdf_table(law, rows)


def cli_commands(rng: random.Random) -> list:
    """(label, argv, oracle) for each command; oracle(report) -> bool."""
    n_exact = rng.randint(10, 40)
    cdf_rows = rng.randint(150, 250)
    ln_n = round(rng.uniform(1500.0, 2500.0), 3)
    n_start = rng.randint(10, 50)
    mc_seed = rng.randint(0, 10**6)
    n_asym = rng.randint(900, 1100)
    verify_seed = rng.randint(0, 10**6)

    def exact_oracle(params):
        want = sf.expected_facets(params).ln()
        return lambda rep: _close(rep["facets"]["ln_abs"], want)

    def cdf_oracle():
        _, heights, cdf = _law_table(P(50, 4), cdf_rows)
        step = max(1, len(heights) // cdf_rows)
        want = [[float(h), float(c)] for h, c in zip(heights[::step], cdf[::step])]
        return lambda rep: rep["columns"] == ["height", "cdf"] and _rows_close(rep["rows"], want)

    def scan_oracle():
        want = []
        for n in range(n_start, n_start + 91, 10):
            count = sf.expected_facets(P(n, 3))
            want.append([n, 3, count.ln(), count.to_float()])
        return lambda rep: _rows_close(rep["table"]["rows"], want)

    def compare_oracle():
        params = P(12, 4)
        exact_count = sf.expected_facets(params).to_float()
        result = sf.estimate(sf.EnsembleSpec(params, replicates=200, seed=mc_seed))
        inside = 1.0 - asym.origin_outside_prob(12, 4)
        _, heights, cdf = _law_table(params)
        ks = sf.ks_distance(result.pooled_heights, heights, cdf)
        want = [
            [exact_count, result.mean_facets, result.se_facets],
            [inside, result.origin_inside_freq, result.origin_inside_se],
            [0.0, ks],
        ]
        return lambda rep: all(
            _rows_close([row[1 : 1 + len(w)]], [w])
            for row, w in zip(rep["table"]["rows"], want)
        ) and len(rep["table"]["rows"]) == 3

    def asym_oracle():
        spec = sf.RegimeSpec.from_tag("linear", 1.0)
        want = sf.facet_count_asymptotic(spec, P(n_asym, 500)).log_count
        return lambda rep: _close(rep["ln_facets"], want)

    def verify_oracle():
        grids = sf.random_bounds_grid(2000, verify_seed)
        bounds = sf.check_bounds_suite(rel_slack=1e-12, **grids)
        want = ["inequality_suites", bounds.checked, len(bounds.violations)]
        return lambda rep: rep["failures"] == 0 and rep["table"]["rows"][0] == want

    return [
        ("exact", ["exact", "--n", str(n_exact), "--d", "3", "--format", "json"],
         lambda: exact_oracle(P(n_exact, 3))),
        ("exact_cdf", ["exact", "--n", "50", "--d", "4", "--cdf-points", str(cdf_rows),
                       "--format", "csv"], cdf_oracle),
        ("exact_ln_n", ["exact", "--ln-n", repr(ln_n), "--d", "50", "--format", "json"],
         lambda: exact_oracle(P.from_log(ln_n, 50))),
        ("scan", ["scan", "--d", "3", "--n-start", str(n_start), "--n-stop", str(n_start + 90),
                  "--n-step", "10", "--format", "json"], scan_oracle),
        ("compare", ["compare", "--n", "12", "--d", "4", "--replicates", "200", "--seed",
                     str(mc_seed), "--format", "json"], compare_oracle),
        ("asym", ["asym", "--regime", "linear", "--rho", "1", "--d", "500", "--n", str(n_asym),
                  "--format", "json"], asym_oracle),
        ("verify", ["verify", "--seed", str(verify_seed), "--format", "json"], verify_oracle),
    ]


def _parse(argv, stdout: str):
    fmt = argv[argv.index("--format") + 1]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        return {"columns": rows[0], "rows": [[float(x) for x in r] for r in rows[1:]]}
    return json.loads(stdout)


class Cli(Workload):
    """The ``spherefacets`` commands, each run in a fresh interpreter."""

    name = "cli"
    # p64 sits inside the fifth-fastest of the seven commands (exact_cdf)
    # for any number of whole cycles from 4 up, with 10 or more samples beyond
    tail_pct = 64.0
    op_unit = "commands"
    processes = 1  # every command already runs in a fresh process

    def __init__(self, seed: int, tracer=None, root=None):
        self.tracer = tracer
        self.root = root
        self.commands = cli_commands(random.Random(seed))
        self.oracles: dict = {}
        self.child_rss_kb = 0

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of any one CLI command run."""
        return self.child_rss_kb / 1024.0

    def prepare(self) -> None:
        self.oracles = {label: make() for label, _, make in self.commands}

    def _run(self, argv):
        """Run one command and keep its own peak RSS, reaped with os.wait4.

        The command's output is read from both pipes until they close, so
        neither can fill up; then the child is reaped here, not by Popen.
        """
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "spherefacets.cli", *argv]
        proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        chunks = {proc.stdout: [], proc.stderr: []}
        deadline = time.monotonic() + CLI_TIMEOUT_S
        timed_out = False
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map() and not timed_out:
                for key, _ in sel.select(max(deadline - time.monotonic(), 0.0)):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        chunks[key.fileobj].append(chunk)
                    else:
                        sel.unregister(key.fileobj)
                timed_out = time.monotonic() >= deadline
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for pipe in chunks:
            pipe.close()
        if timed_out:
            raise subprocess.TimeoutExpired(cmd, CLI_TIMEOUT_S)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        out, err = (b"".join(chunks[pipe]).decode() for pipe in (proc.stdout, proc.stderr))
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def _emit(self, report: dict) -> None:
        """Re-emit a JSON report in-process, timing the ``cli.emit`` layer."""
        if self.tracer is None or not self.tracer.enabled or "table" not in report:
            return
        with redirect_stdout(io.StringIO()):
            with self.tracer.span("cli.emit"):
                cli.emit(report, "json", None)

    def group(self, label: str, argv, oracle) -> Group:
        def check(res):
            proc = res[0]
            if proc.returncode != 0:
                return [False]
            report = _parse(argv, proc.stdout)
            self._emit(report)
            return [bool(oracle(report))]

        return Group([Op(f"cli.command.{label}", lambda _: self._run(argv))], check, " ".join(argv))

    def cycles(self):
        while True:
            yield [self.group(label, argv, self.oracles[label]) for label, argv, _ in self.commands]


WORKLOADS = {cls.name: cls for cls in (Counts, Laws, Census, Cli)}
