"""Monte Carlo facet censuses: the simulation ground truth.

Points are sampled uniformly on the sphere (normalized Gaussians), and
facets are found by brute force: every d-subset whose affine hull leaves
all remaining points strictly on one side is a facet.  That is the
defining criterion itself rather than a fast hull algorithm, which keeps
this module independent from the quadrature path it cross-checks; one
size rule, a cap on C(n, d) and a memory budget, keeps the O(C(n, d))
enumeration at desk scale.  A whole stack of replicates is censused at
once, with the stack on the last axis of every tensor.  In lexicographic
order the subsets that share their first d - 1 points (their prefix) are
contiguous, so each used prefix B gets one vectorised, unpivoted
Householder QR of B^T, which gives its min-norm solution of B x = 1, its
unit null vector and its volume; each subset B + {s} then finishes its
hyperplane and its determinant, for the condition guard, in O(d).  Each
subset's side test is a count of the points below its hyperplane.  A
stack's results stay arrays until ``facet_census`` builds its one summary.

Replicates draw independent RNG streams keyed by (seed, replicate,
attempt), so reports are reproducible and independent of scheduling:
the stream of replicate r, attempt a, is numpy's
``default_rng(SeedSequence(seed, spawn_key=(r, a)))``.  ``estimate``
seeds them all in one vectorised pass of SeedSequence's mixing, which
gives the same PCG64 seed words bit for bit, and draws a stack's points
into one array.  Samples with a near-tie against the half-space
tolerance are discarded and redrawn (counted), never silently
classified.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .exact import PolytopeParams

__all__ = [
    "EnsembleSpec",
    "FacetRecord",
    "CensusSummary",
    "EnsembleReport",
    "DegenerateSampleError",
    "sample_sphere",
    "facet_census",
    "estimate",
    "write_facet_csv",
    "ks_distance",
]

HALFSPACE_TOL = 1e-9
# a system is usable when cond_2 < CONDITION_LIMIT.  Since
# cond_2(A) <= ||A||_F^d / |det A|, a bound below CONDITION_LIMIT / 2
# certifies a system without an SVD; only systems the bound cannot certify
# go to the SVD.  The factor 2 absorbs the rounding of
# ln |det A| = ln vol B + ln |s.n_B| (prefix B, last point s): s.n_B carries
# a relative error of about eps ||A||_F^d / |det A|, under 1e-4 for any
# system the bound certifies.
CONDITION_LIMIT = 1e12
VERTEX_RESIDUAL_TOL = 1e-8
# a census stack's (R, n, C) side tensor and R * C * d^2 floats each stay
# within this many floats; the d^2 term is a conservative bound, since the
# largest per-subset tensor, the gathered (d, 2, R, C) x_p and n_B, holds 2d
_STACK_FLOATS = 2**16
# a census enumerates at most this many d-subsets per replicate
_MAX_SUBSETS = 1_000_000
# one replicate's census tensors, bounded by C(n, d) * max(n, d^2) floats
# (the (n, C) side tensor, or conservatively d^2 per subset), may hold at
# most this many (1 GiB); a census peaks at 3-4.5x that in resident memory
_REPLICATE_FLOATS = 2**27
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


class DegenerateSampleError(RuntimeError):
    """A non-vertex point ties the supporting hyperplane within tolerance."""


def _check_census_size(n: int, d: int) -> int:
    """A bound on the floats in one replicate's largest census tensor,
    C(n, d) * max(n, d^2).

    ValueError when C(n, d) exceeds ``_MAX_SUBSETS`` or the floats exceed
    ``_REPLICATE_FLOATS``.
    """
    subsets = math.comb(n, d)
    if subsets > _MAX_SUBSETS:
        raise ValueError(
            f"census of n={n}, d={d} needs C({n}, {d}) = {subsets} subsets, "
            f"over the limit of {_MAX_SUBSETS}"
        )
    floats = subsets * max(n, d * d)
    if floats > _REPLICATE_FLOATS:
        raise ValueError(
            f"census of n={n}, d={d} needs C({n}, {d}) = {subsets} subsets times "
            f"{max(n, d * d)} floats, over the budget of {_REPLICATE_FLOATS} floats"
        )
    return floats


def _is_int_in(value, low: int, high: float) -> bool:
    """Whether ``value`` is an integer (by ``operator.index``) in [low, high)."""
    try:
        return low <= operator.index(value) < high
    except TypeError:
        return False


@dataclass(frozen=True)
class EnsembleSpec:
    """A reproducible batch of facet censuses."""

    params: PolytopeParams
    replicates: int
    seed: int
    keep_records: bool = False

    def __post_init__(self):
        if self.params.n is None:
            raise ValueError("Monte Carlo needs an exact point count")
        # a replicate index is one uint32 word of its stream's spawn key
        if not _is_int_in(self.replicates, 1, 2**32):
            raise ValueError(
                f"replicates must be an integer in [1, 2**32), got {self.replicates!r}"
            )
        if not _is_int_in(self.seed, 0, math.inf):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        _check_census_size(int(self.params.n), self.params.d)


@dataclass(frozen=True)
class FacetRecord:
    """One detected facet: spanning vertices, outward unit normal, height."""

    vertex_indices: tuple
    normal: np.ndarray
    height: float

    def verify(self, points: np.ndarray) -> bool:
        """Re-check the defining facet properties from the raw points, to
        the census's own vertex residual bound ``VERTEX_RESIDUAL_TOL``."""
        u = self.normal
        if abs(float(np.linalg.norm(u)) - 1.0) > 1e-10:
            return False
        dots = points @ u
        for i in self.vertex_indices:
            if abs(dots[i] - self.height) > VERTEX_RESIDUAL_TOL:
                return False
        others = np.setdiff1d(np.arange(len(points)), np.asarray(self.vertex_indices))
        return bool(np.all(dots[others] <= self.height + VERTEX_RESIDUAL_TOL))


@dataclass
class CensusSummary:
    """Per-replicate aggregate of one facet census."""

    facet_count: int
    heights: np.ndarray
    min_height: float
    origin_inside: bool
    skipped_subsets: int = 0
    records: list = field(default_factory=list)

    def __post_init__(self):
        if self.facet_count != len(self.heights):
            raise ValueError(f"facet_count={self.facet_count} but {len(self.heights)} heights")
        if self.facet_count and self.origin_inside != (self.min_height > 0.0):
            raise ValueError(f"origin_inside={self.origin_inside} but min_height={self.min_height}")


def _stream_states(seed: int, keys) -> np.ndarray:
    """PCG64 seed words of the streams SeedSequence(seed, spawn_key=(r, a)).

    ``keys`` holds (r, a) pairs with 0 <= r, a < 2**32.  Row k of the
    (K, 4) uint64 result equals
    ``SeedSequence(seed, spawn_key=keys[k]).generate_state(4, np.uint64)``
    bit for bit: this is SeedSequence's entropy mixing and
    ``generate_state`` (pool size 4), whose output NEP 19 keeps fixed, run
    over all keys at once.  The hash constants do not depend on the data
    and the seed's words come first, so only r and a, the last two entropy
    words, are arrays; everything before them is plain integers.
    """
    seed = operator.index(seed)
    keys = np.asarray(keys, dtype=np.uint32).reshape(-1, 2)
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    # a spawn key pads the seed's words with zeros to the pool size
    entropy = words + [0] * (4 - len(words)) + [keys[:, 0], keys[:, 1]]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = np.empty((len(keys), 8), dtype="<u4")
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state[:, i] = value ^ value >> 16
    return state.view("<u8").astype(np.uint64)


@functools.cache
def _seeded_type() -> type:
    """``_Seeded``, the seed sequence that hands PCG64 words from
    ``_stream_states``; built on first use, so that importing this module
    does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class _Seeded(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for its 4 uint64 seed words

    return _Seeded


def _sphere_stack(n: int, d: int, generators: list) -> np.ndarray:
    """n uniform points on the unit sphere in R^d from each generator.

    Row r of the (R, n, d) result is drawn from ``generators[r]``: its
    standard Gaussian block, with any zero-norm point redrawn from the
    same generator, and then the whole stack is normalized at once.
    """
    points = np.empty((len(generators), n, d))
    for rng, block in zip(generators, points):
        rng.standard_normal(out=block)
    norms = np.linalg.norm(points, axis=2)
    for r in np.flatnonzero((norms == 0.0).any(axis=1)):  # probability-zero guard
        while np.any(norms[r] == 0.0):
            bad = norms[r] == 0.0
            points[r, bad] = generators[r].standard_normal((int(bad.sum()), d))
            norms[r] = np.linalg.norm(points[r], axis=1)
    return points / norms[..., None]


def sample_sphere(n: int, d: int, seed) -> np.ndarray:
    """n i.i.d. uniform points on the unit sphere in R^d.

    ``seed`` is an integer, a SeedSequence, or a Generator; the same seed
    always yields the same points.  Sampling normalizes standard Gaussian
    vectors, which is uniform in every dimension.
    """
    if n < 1 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    return _sphere_stack(n, d, [np.random.default_rng(seed)])[0]


def _subset_array(n: int, d: int) -> np.ndarray:
    flat = chain.from_iterable(combinations(range(n), d))
    return np.fromiter(flat, dtype=np.intp, count=math.comb(n, d) * d).reshape(-1, d)


def _census_plan(n: int, d: int) -> tuple:
    """The subsets of a census of n points in R^d, split at their last point.

    Returns (subsets, prefixes, prefix_of, last): the (C, d) d-subsets of
    range(n) in lexicographic order, the (P, d - 1) distinct prefixes
    (first d - 1 points) that some subset extends, in the same order, and
    for each subset its prefix's row in ``prefixes`` and its last point, so
    that ``subsets[c]`` is ``(*prefixes[prefix_of[c]], last[c])``.  The
    subsets sharing a prefix are contiguous.
    """
    subsets = _subset_array(n, d)
    head = subsets[:, :-1]
    starts = np.ones(len(subsets), dtype=bool)
    starts[1:] = (head[1:] != head[:-1]).any(axis=1)
    return subsets, head[starts], np.cumsum(starts) - 1, subsets[:, -1].copy()


def _solve_prefixes(bt: np.ndarray) -> tuple:
    """The hyperplane data of a stack of (d - 1) x d systems B, from one
    Householder QR of each B^T.

    ``bt`` holds the transposes with the stack on the trailing axes: shape
    (d, d - 1, ...), ``bt[i, j]`` being coordinate i of row j of every B.
    d - 1 Householder reflections H_k run over the whole stack at once, in
    place, reducing B^T = Q R with Q = H_0 ... H_{d-2}; they need no
    pivoting to be backward stable (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 19.3).  Returns (xn, ln vol B,
    ||B||_F^2), where xn, of shape (d, 2, ...), holds two vectors of every
    system: xn[:, 0] = x_p = Q [R_1^-T 1; 0], the min-norm solution of
    B x = 1, and xn[:, 1] = n_B = Q e_d, the unit vector with B n_B = 0.
    ln vol B is the sum of ln |r_kk| over the diagonal of R.
    Every step is elementwise along the stack, so a system's result does
    not depend on the others.  A rank-deficient B gives ln vol B = -inf or
    NaN and non-finite vectors.
    """
    d = len(bt)
    fro2 = np.einsum("ij...,ij...->...", bt, bt)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    taus = np.empty((d - 1,) + bt.shape[2:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d - 1):
            # the reflector of LAPACK's dlarfg, normalized so that v[0] = 1
            col, rest = bt[k:, k], bt[k:, k + 1 :]
            sumsq = np.einsum("i...,i...->...", col, col)
            norm = np.sqrt(sumsq)
            # a sum of squares that overflows or leaves the normal range
            # loses the norm: recompute it by hypot, for those systems only
            lost = ~((sumsq >= tiny) & (sumsq <= huge))
            if lost.any():
                norm[lost] = np.hypot.reduce(col[:, lost], axis=0)
            beta = -np.copysign(norm, col[0])
            v = col / (col[0] - beta)
            v[0] = 1.0
            taus[k] = (beta - col[0]) / beta
            if k < d - 2:  # the last column has nothing to its right
                rest -= v[:, None] * (taus[k] * np.einsum("i...,ij...->j...", v, rest))
            # keep v below the diagonal, as LAPACK does, to apply Q later
            col[1:] = v[1:]
            col[0] = beta
        diagonal = bt[np.arange(d - 1), np.arange(d - 1)]  # (d - 1, ...)
        logvol = np.log(np.abs(diagonal)).sum(axis=0)
        # z[:, 0] = [R_1^-T 1; 0] by forward substitution, z[:, 1] = e_d
        z = np.zeros((d, 2) + bt.shape[2:])
        z[d - 1, 1] = 1.0
        y = z[:, 0]
        for k in range(d - 1):
            y[k] = 1.0
            for j in range(k):
                y[k] -= bt[j, k] * y[j]
            y[k] /= diagonal[k]
        # z <- H_0 ... H_{d-2} z
        for k in reversed(range(d - 1)):
            head, tail = z[k], z[k + 1 :]
            scale = taus[k] * (head + np.einsum("i...,ij...->j...", bt[k + 1 :, k], tail))
            head -= scale
            tail -= bt[k + 1 :, k, None] * scale
    return z, logvol, fro2


def _hyperplanes(points: np.ndarray, plan: tuple) -> tuple:
    """x with A x = 1, ln |det A| and ||A||_F^2 of every census system.

    System (r, c) has the rows ``points[r, subsets[c]]``, for points of
    shape (R, n, d) and ``plan`` from ``_census_plan``.  One QR per used
    prefix B, ``_solve_prefixes``, gives x_p, n_B, ln vol B and ||B||_F^2;
    the system A = [B; s] then takes O(d) more work:
    x = x_p + alpha n_B with alpha = (1 - s.x_p) / (s.n_B), so that
    B x = B x_p = 1 and s.x = 1;
    ln |det A| = ln vol B + ln |s.n_B|, since A Q is block lower triangular
    with diagonal blocks R_1^T and s.n_B; and ||A||_F^2 = ||B||_F^2 + ||s||^2.
    x has shape (d, R, C), the others (R, C).  A singular system gives
    ln |det A| = -inf or NaN and a non-finite x.
    """
    _, prefixes, prefix_of, last = plan
    coords = points.transpose(2, 0, 1)  # (d, R, n)
    bt = np.take(coords, prefixes.T, axis=2).transpose(0, 2, 1, 3)  # (d, d - 1, R, P)
    xn, logvol, fro2 = _solve_prefixes(bt)
    xn = np.take(xn, prefix_of, axis=3)  # (d, 2, R, C)
    s = np.take(coords, last, axis=2)  # (d, R, C)
    # s.x_p and s.n_B in one product, whose output is never a single
    # number: einsum orders a lone sum differently from a stack's
    s_x, s_null = np.einsum("i...,ij...->j...", s, xn)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = xn[:, 0]
        x += (1.0 - s_x) / s_null * xn[:, 1]
        logdet = np.take(logvol, prefix_of, axis=1) + np.log(np.abs(s_null))
    return x, logdet, np.take(fro2, prefix_of, axis=1) + np.einsum("i...,i...->...", s, s)


def _well_conditioned(
    points: np.ndarray, subsets: np.ndarray, fro2: np.ndarray, logdet: np.ndarray
) -> np.ndarray:
    """Mask of the census systems with cond_2 < CONDITION_LIMIT, shape (R, C).

    System (r, c) has the rows ``points[r, subsets[c]]``; ``fro2`` holds
    its squared Frobenius norm and ``logdet`` its ln |det A|, from
    ``_hyperplanes``.  The determinant bound decides almost every system;
    the SVD rule decides the rest, rebuilt from ``points``, so the mask is
    the SVD rule's on every system.
    """
    d = points.shape[-1]
    # a singular system has logdet = -inf or NaN, so its bound is +inf or NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        log_bound = 0.5 * d * np.log(fro2) - logdet
    # a squared norm that underflows to a subnormal or 0 understates the bound
    usable = (fro2 >= np.finfo(float).tiny) & (log_bound < math.log(CONDITION_LIMIT / 2))
    reps, cols = np.nonzero(~usable)
    if len(reps):
        singulars = np.linalg.svd(points[reps[:, None], subsets[cols]], compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = singulars[..., 0] / singulars[..., -1]
        usable[reps, cols] = np.isfinite(cond) & (cond < CONDITION_LIMIT)
    return usable


def _census(points: np.ndarray, plan: tuple, keep_records: bool) -> tuple:
    """Census a stack of replicates, points of shape (R, n, d), over the
    subsets of ``plan``, from ``_census_plan(n, d)``.

    Returns (tied, counts, min_heights, skipped, heights, records).  The
    first four are arrays over the stack: ``tied`` marks a replicate in
    which a non-vertex point ties a candidate hyperplane within
    ``HALFSPACE_TOL``, ``min_heights`` is NaN where there is no facet, and
    ``skipped`` counts the systems left out.  ``heights`` holds the signed
    facet heights of the untied replicates in stack order, each
    replicate's below-plane facets first; a tied replicate counts no
    facets.  ``records`` is one FacetRecord list per replicate, or None
    unless ``keep_records``.  The linear algebra runs once over the whole
    stack, which stays on the last axis throughout; every check is
    applied per replicate.
    """
    stack, n, d = points.shape
    subsets = plan[0]
    count = len(subsets)
    x, logdet, fro2 = _hyperplanes(points, plan)  # (d, R, C), (R, C), (R, C)
    usable = _well_conditioned(points, subsets, fro2, logdet)
    # an unusable system may be singular, with a non-finite solution
    with np.errstate(divide="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce(x * x, axis=0))
        unit = x / norms
        heights = 1.0 / norms
        del x  # a view of the gathered x_p and n_B: free them before the side tensor
        side = np.matmul(points, unit.transpose(1, 0, 2))  # (R, n, C)
        side -= heights[:, None, :]
    # positions in a flattened (n, C) array of each subset's own points
    vertex_at = subsets.T * count + np.arange(count)
    flat = side.reshape(stack, -1)
    residual = np.abs(np.take(flat, vertex_at, axis=1)).max(axis=1)
    # a subset's own points, read: 1.0 is neither below the plane nor a tie
    flat[:, vertex_at] = 1.0
    solved = usable & (residual <= VERTEX_RESIDUAL_TOL)
    negative = (side < 0.0).sum(axis=1)
    dist = np.abs(side, out=side)  # the signs are counted: reuse side's memory
    tied = (solved & (dist < HALFSPACE_TOL).any(axis=1)).any(axis=1)
    # in an untied replicate every non-vertex point of a solved system lies
    # at least HALFSPACE_TOL off the plane, so its sign decides its side
    below = solved & (negative == n - d)
    above = solved & (negative == 0)

    facets = np.concatenate([below, above], axis=1) & ~tied[:, None]  # (R, 2C)
    signed = np.concatenate([heights, -heights], axis=1)
    counts = facets.sum(axis=1)
    min_heights = np.where(facets, signed, np.inf).min(axis=1)
    min_heights[counts == 0] = np.nan
    skipped = (~solved).sum(axis=1)
    short = ~tied & (skipped == 0) & (counts < d + 1)
    if short.any():
        raise RuntimeError(
            f"census of n={n}, d={d} found {counts[short][0]} facets with no skips; "
            "every polytope has >= d+1"
        )
    records = None
    if keep_records:
        records = [
            [
                FacetRecord(tuple(subsets[i]), sign * unit[:, r, i], float(sign * heights[r, i]))
                for sign, mask in zip((1.0, -1.0), facets[r].reshape(2, -1))
                for i in np.flatnonzero(mask)
            ]
            for r in range(stack)
        ]
    return tied, counts, min_heights, skipped, signed[facets], records


def facet_census(points: np.ndarray, keep_records: bool = False) -> CensusSummary:
    """Enumerate all facets of the hull of the given sphere points.

    For each d-subset, the linear system <x_i, u> = 1 yields the
    hyperplane through the subset (normalized to a unit normal u and
    height h > 0); the subset spans a facet when every remaining point
    falls strictly on one side.  Systems with condition number at or
    above ``CONDITION_LIMIT``, or whose solution misses a vertex by more
    than ``VERTEX_RESIDUAL_TOL``, are skipped and tallied; any remaining
    point within ``HALFSPACE_TOL`` of the plane raises
    DegenerateSampleError.  One unpivoted Householder QR per (d - 1)-point
    prefix B gives its min-norm solution x_p of B x = 1, its unit null
    vector n_B and ln vol B; a subset B + {s} then has
    x = x_p + alpha n_B, alpha = (1 - s.x_p) / (s.n_B), and
    ln |det A| = ln vol B + ln |s.n_B|.  The condition test uses the bound
    cond_2(A) <= ||A||_F^d / |det A|: a bound below CONDITION_LIMIT / 2
    (the factor 2 covers the rounding of ln |det A|) accepts a system,
    and an SVD decides only the systems the bound cannot accept, so the
    skipped systems are exactly those of the SVD rule.  A subset spans a
    facet when none or all of the remaining points lie below its plane;
    since no remaining point is within ``HALFSPACE_TOL`` of it, each sign
    decides its point's side.  This is the census ``estimate`` runs, on a
    stack of one replicate.

    ``points`` must be a finite (n, d) array with n > d >= 2 whose every
    row has a norm within ``HALFSPACE_TOL`` of 1, C(n, d) must not exceed
    ``_MAX_SUBSETS``, and the census's largest tensor, C(n, d) * max(n, d^2)
    floats, must fit ``_REPLICATE_FLOATS``, else ValueError.  The norm
    check is there because ``HALFSPACE_TOL`` and ``VERTEX_RESIDUAL_TOL``
    are absolute: far off the unit sphere, rounding alone would decide the
    skips and the facets.
    """
    points = np.asarray(points, dtype=float)
    if not (points.ndim == 2 and 2 <= points.shape[1] < points.shape[0]
            and np.isfinite(points).all()):
        raise ValueError(
            f"points must be a finite (n, d) array with n > d >= 2, got shape {points.shape}"
        )
    # a norm that overflows or underflows is far from 1 either way
    with np.errstate(over="ignore"):
        off_sphere = np.abs(np.linalg.norm(points, axis=1) - 1.0)
    worst = int(np.argmax(off_sphere))
    if off_sphere[worst] > HALFSPACE_TOL:
        raise ValueError(
            f"points must lie on the unit sphere within {HALFSPACE_TOL:g}, "
            f"got point {worst} of norm {math.hypot(*points[worst])!r}"
        )
    n, d = points.shape
    _check_census_size(n, d)
    tied, counts, min_heights, skipped, heights, records = _census(
        points[None], _census_plan(n, d), keep_records
    )
    if tied[0]:
        raise DegenerateSampleError(
            f"census of n={n}, d={d}: a non-vertex point ties a candidate hyperplane "
            f"within HALFSPACE_TOL = {HALFSPACE_TOL:g}"
        )
    return CensusSummary(
        facet_count=int(counts[0]),
        heights=heights,
        min_height=float(min_heights[0]),
        origin_inside=bool(min_heights[0] > 0.0),
        skipped_subsets=int(skipped[0]),
        records=records[0] if keep_records else [],
    )


@dataclass
class EnsembleReport:
    """Aggregated estimators over independent replicates."""

    spec: EnsembleSpec
    counts: np.ndarray
    pooled_heights: np.ndarray
    min_heights: np.ndarray
    origin_inside: np.ndarray
    skipped_subsets: int
    degenerate_resamples: int
    records_by_replicate: list | None = None

    @property
    def mean_facets(self) -> float:
        return float(self.counts.mean())

    @property
    def se_facets(self) -> float:
        if len(self.counts) < 2:
            return math.nan
        return float(self.counts.std(ddof=1) / math.sqrt(len(self.counts)))

    @property
    def origin_inside_freq(self) -> float:
        return float(self.origin_inside.mean())

    @property
    def origin_inside_se(self) -> float:
        p = self.origin_inside_freq
        return math.sqrt(p * (1.0 - p) / len(self.origin_inside))

    @property
    def negative_height_fraction(self) -> float:
        return float(np.mean(self.pooled_heights < 0.0))

    def to_dict(self) -> dict:
        return {
            "n": int(self.spec.params.n),
            "d": self.spec.params.d,
            "replicates": self.spec.replicates,
            "seed": self.spec.seed,
            "mean_facets": self.mean_facets,
            "se_facets": self.se_facets,
            "origin_inside_freq": self.origin_inside_freq,
            "origin_inside_se": self.origin_inside_se,
            "pooled_height_count": int(len(self.pooled_heights)),
            "negative_height_fraction": self.negative_height_fraction,
            "mean_min_height": float(self.min_heights.mean()),
            "skipped_subsets": self.skipped_subsets,
            "degenerate_resamples": self.degenerate_resamples,
        }


def estimate(spec: EnsembleSpec) -> EnsembleReport:
    """Run the ensemble: census every replicate and aggregate estimators.

    Replicate r, attempt a, uses the stream seeded by
    SeedSequence(seed, spawn_key=(r, a)); the report is a deterministic
    function of the spec.  The seed words of every first attempt come
    from one ``_stream_states`` call, and a redraw's when it is queued;
    no SeedSequence is built.  A worklist of (replicate, attempt) pairs is
    censused in stacks whose largest tensor holds at most
    ``_STACK_FLOATS`` floats; every stack shares the call's one plan of
    the subsets and their prefixes and runs one QR per prefix.  A
    replicate with a half-space tie is redrawn alone, as (r, a + 1) at the
    end of the worklist, and counted in ``degenerate_resamples``; after
    1000 attempts estimate raises RuntimeError naming the replicate,
    (n, d) and the seed.
    """
    n, d = int(spec.params.n), spec.params.d
    # the largest stacked tensors are (R, n, C) and (d, 2, R, C)
    stack = max(1, _STACK_FLOATS // _check_census_size(n, d))
    plan = _census_plan(n, d)
    counts = np.zeros(spec.replicates, dtype=np.intp)
    min_heights = np.full(spec.replicates, np.nan)
    records = [None] * spec.replicates if spec.keep_records else None
    owners, heights = [], []
    work = [(rep, 0) for rep in range(spec.replicates)]
    states = _stream_states(spec.seed, work)
    seeded = _seeded_type()
    degenerate = done = skipped = 0
    while done < len(work):
        batch = work[done : done + stack]
        points = _sphere_stack(n, d, [
            np.random.Generator(np.random.PCG64(seeded(words)))
            for words in states[done : done + stack]
        ])
        done += len(batch)
        tied, stack_counts, stack_min, stack_skipped, stack_heights, stack_records = _census(
            points, plan, spec.keep_records
        )
        reps = np.array([rep for rep, _ in batch])
        kept = ~tied
        counts[reps[kept]] = stack_counts[kept]
        min_heights[reps[kept]] = stack_min[kept]
        skipped += int(stack_skipped[kept].sum())
        # a tied replicate counts no facets, so it owns no heights
        owners.append(np.repeat(reps, stack_counts))
        heights.append(stack_heights)
        if records is not None:
            for i in np.flatnonzero(kept):
                records[reps[i]] = stack_records[i]
        for i in np.flatnonzero(tied):
            rep, attempt = batch[i]
            degenerate += 1
            if attempt + 1 == 1000:
                raise RuntimeError(
                    f"replicate {rep} of n={n}, d={d}, seed={spec.seed} "
                    "still ties a hyperplane after 1000 redraws"
                )
            work.append((rep, attempt + 1))
            states = np.concatenate([states, _stream_states(spec.seed, work[-1:])])
    # each replicate's heights come from its one untied census, in order
    by_replicate = np.argsort(np.concatenate(owners), kind="stable")
    return EnsembleReport(
        spec=spec,
        counts=counts,
        pooled_heights=np.concatenate(heights)[by_replicate],
        min_heights=min_heights,
        origin_inside=min_heights > 0.0,
        skipped_subsets=skipped,
        degenerate_resamples=degenerate,
        records_by_replicate=records,
    )


def write_facet_csv(path: str, records_by_replicate: list) -> None:
    """Per-facet dump: replicate, vertex indices, height, normal components."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "vertex_indices", "height", "normal"])
        for rep, records in enumerate(records_by_replicate):
            for rec in records:
                writer.writerow(
                    [
                        rep,
                        " ".join(str(i) for i in rec.vertex_indices),
                        f"{rec.height:.17g}",
                        " ".join(f"{c:.17g}" for c in rec.normal),
                    ]
                )


def ks_distance(samples: np.ndarray, grid_x: np.ndarray, grid_cdf: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of samples against a tabulated CDF.

    The reference CDF is linearly interpolated from (grid_x, grid_cdf);
    the table must be dense enough that interpolation error is below the
    distance being resolved.  Empty samples, and a ``grid_x`` that
    decreases anywhere, raise ValueError.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("ks_distance needs at least one sample")
    if np.any(np.diff(grid_x) < 0.0):
        raise ValueError("grid_x must be nondecreasing")
    ref = np.interp(xs, grid_x, grid_cdf)
    k = len(xs)
    steps_hi = np.arange(1, k + 1) / k
    steps_lo = np.arange(0, k) / k
    return float(np.max(np.maximum(steps_hi - ref, ref - steps_lo)))
