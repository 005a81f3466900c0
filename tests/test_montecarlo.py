"""Sampling, facet census, and ensemble estimators."""

import itertools
import math
import re

import numpy as np
import pytest

from spherefacets import montecarlo
from spherefacets import (
    DegenerateSampleError,
    EnsembleSpec,
    HeightInterval,
    PolytopeParams,
    estimate,
    expected_facets,
    facet_census,
    ks_distance,
    origin_outside_prob,
    sample_sphere,
    write_facet_csv,
)


# a fourth point within tolerance of the plane through two others
TIE_POINTS = np.array(
    [[1.0, 0.0], [0.0, 1.0], [math.cos(1e-13), math.sin(1e-13)], [-1.0, 0.0]]
)


def _stream(seed, rep, attempt):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep, attempt)))


def _seeded_stream(words):
    return np.random.Generator(np.random.PCG64(montecarlo._seeded_type()(words)))


class _ZeroFirstPoint:
    """A generator whose first draw puts its first point at the origin."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def standard_normal(self, size=None, out=None):
        values = self.rng.standard_normal(size, out=out)
        if not self.draws:
            values[0] = 0.0
        self.draws += 1
        return values


def _per_replicate_heights(report):
    return np.split(report.pooled_heights, np.cumsum(report.counts)[:-1])


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 12345678901, 2**96 + 3, 2**128 + 9, 2**200 + 1]
STREAM_KEYS = [(0, 0), (1, 1), (299, 999), (2**32 - 1, 0)]


class TestStreams:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_states_equal_seed_sequence(self, seed):
        """Bit for bit, including seeds longer than the 4-word pool."""
        want = np.array([
            np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
            for key in STREAM_KEYS
        ])
        got = montecarlo._stream_states(seed, STREAM_KEYS)
        assert got.dtype == np.uint64 and got.shape == (len(STREAM_KEYS), 4)
        assert np.array_equal(got, want)
        for key, words in zip(STREAM_KEYS, got):
            assert np.array_equal(
                _seeded_stream(words).standard_normal(8), _stream(seed, *key).standard_normal(8)
            )

    @pytest.mark.parametrize("seed", [0, 2**128 + 9])
    @pytest.mark.parametrize("n, d", [(4, 2), (15, 3), (14, 5)])
    def test_sphere_stack_equals_sample_sphere(self, seed, n, d):
        states = montecarlo._stream_states(seed, STREAM_KEYS)
        stack = montecarlo._sphere_stack(n, d, [_seeded_stream(w) for w in states])
        singles = []
        for key in STREAM_KEYS:
            gauss = _stream(seed, *key).standard_normal((n, d))
            singles.append(gauss / np.linalg.norm(gauss, axis=1)[:, None])
            assert np.array_equal(sample_sphere(n, d, _stream(seed, *key)), singles[-1])
        assert np.array_equal(stack, np.stack(singles))

    def test_zero_norm_point_redrawn_from_its_own_stream(self):
        n, d = 6, 3
        stubbed = _ZeroFirstPoint(_stream(4, 1, 0))
        stack = montecarlo._sphere_stack(n, d, [_stream(4, 0, 0), stubbed, _stream(4, 2, 0)])
        assert stubbed.draws == 2
        rng = _stream(4, 1, 0)
        gauss = rng.standard_normal((n, d))
        gauss[0] = rng.standard_normal((1, d))
        assert np.array_equal(stack[1], gauss / np.linalg.norm(gauss, axis=1)[:, None])
        for r in (0, 2):
            assert np.array_equal(stack[r], sample_sphere(n, d, _stream(4, r, 0)))


class TestSampling:
    def test_unit_norms(self):
        pts = sample_sphere(500, 7, seed=0)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_coordinate_means_clt_bound(self):
        pts = sample_sphere(10**5, 5, seed=1)
        assert np.all(np.abs(pts.mean(axis=0)) < 4.0 / math.sqrt(10**5))

    def test_determinism(self):
        a = sample_sphere(50, 3, seed=9)
        b = sample_sphere(50, 3, seed=9)
        c = sample_sphere(50, 3, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            sample_sphere(0, 3, seed=0)
        with pytest.raises(ValueError):
            sample_sphere(5, 1, seed=0)


class TestCensus:
    def test_simplex_counts(self):
        for d in (2, 3, 5, 7):
            summary = facet_census(sample_sphere(d + 1, d, seed=d))
            assert summary.facet_count == d + 1
            assert summary.skipped_subsets == 0

    def test_polygon_counts(self):
        for seed in range(5):
            summary = facet_census(sample_sphere(7, 2, seed=seed))
            assert summary.facet_count == 7

    def test_euler_counts_every_replicate(self):
        """d = 3: all sphere points are hull vertices, so 2n - 4 facets."""
        for seed in range(50):
            summary = facet_census(sample_sphere(12, 3, seed=seed))
            assert summary.facet_count == 20
            assert summary.skipped_subsets == 0

    def test_records_verify_from_raw_points(self):
        pts = sample_sphere(10, 4, seed=3)
        summary = facet_census(pts, keep_records=True)
        assert len(summary.records) == summary.facet_count
        assert all(rec.verify(pts) for rec in summary.records)
        heights = sorted(rec.height for rec in summary.records)
        np.testing.assert_allclose(heights, np.sort(summary.heights))

    def test_summary_consistency(self):
        summary = facet_census(sample_sphere(9, 3, seed=5))
        assert summary.facet_count == len(summary.heights)
        assert summary.origin_inside == (summary.min_height > 0)
        assert np.all(np.abs(summary.heights) <= 1.0)

    def test_degenerate_tie_detected(self):
        # a fourth point within tolerance of the plane through two others
        eps = 1e-13
        pts = np.array(
            [
                [1.0, 0.0],
                [0.0, 1.0],
                [math.cos(eps), math.sin(eps)],  # nearly duplicates (1, 0)
                [-1.0, 0.0],
            ]
        )
        with pytest.raises(DegenerateSampleError, match=r"n=4, d=2: .* HALFSPACE_TOL = 1e-09"):
            facet_census(pts)

    def test_short_census_names_its_shape(self, monkeypatch):
        """Fewer than d + 1 facets with nothing skipped cannot happen on a
        hull, so the census raises; a plan of one subset forces it."""
        plan = montecarlo._census_plan(9, 3)
        monkeypatch.setattr(montecarlo, "_census_plan", lambda n, d: [a[:1] for a in plan])
        with pytest.raises(RuntimeError, match=r"census of n=9, d=3 found [01] facets"):
            facet_census(sample_sphere(9, 3, seed=5))

    @pytest.mark.parametrize(
        "points, facets, skipped",
        [
            (np.vstack([np.eye(2), -np.eye(2)]), 4, 2),
            (np.vstack([np.eye(3), -np.eye(3)]), 8, 12),
        ],
        ids=["square", "octahedron"],
    )
    def test_singular_subsets_skipped(self, points, facets, skipped):
        """Every subset holding an antipodal pair is an exactly singular
        system: it is skipped and tallied, never a facet."""
        summary = facet_census(points)
        assert summary.facet_count == facets
        assert summary.skipped_subsets == skipped
        np.testing.assert_allclose(summary.heights, 1.0 / math.sqrt(points.shape[1]))

    @pytest.mark.parametrize(
        "points",
        [np.array([[1.0, 0.0]]), np.full((5, 3), np.nan), np.ones(4), np.eye(3)],
        ids=["one_point_in_r2", "nan", "one_dimensional", "n_equals_d"],
    )
    def test_rejects_malformed_points(self, points):
        with pytest.raises(ValueError, match="n > d >= 2"):
            facet_census(points)

    @pytest.mark.parametrize("scale", [1e9, 1e-170])
    def test_rejects_points_off_the_sphere(self, scale):
        """The tolerances are absolute: far off the unit sphere, rounding
        would decide the facets (above about 1e8), and the solutions'
        norms overflow (at 1e-170)."""
        square = np.vstack([np.eye(2), -np.eye(2)]) * scale
        with pytest.raises(ValueError, match=re.escape(f"point 0 of norm {scale!r}")):
            facet_census(square)

    def test_names_the_point_furthest_off_the_sphere(self):
        points = sample_sphere(6, 3, seed=4)
        points[2] *= 1.0 + 3e-9
        points[4] *= 1.0 - 5e-9
        with pytest.raises(ValueError, match="point 4 of norm 0.99999999"):
            facet_census(points)
        points[4] /= 1.0 - 5e-9
        points[2] /= 1.0 + 3e-9
        assert facet_census(points).facet_count == 8


def _svd_rule(mats):
    singulars = np.linalg.svd(mats, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = singulars[..., 0] / singulars[..., -1]
    return np.isfinite(cond) & (cond < montecarlo.CONDITION_LIMIT)


def _solve(mats):
    """``_hyperplanes`` on a (k, d, d) stack, each system being a replicate
    of d points censused with the one subset range(d): x as (k, d),
    ln |det A| and ||A||_F^2 as (k,)."""
    d = mats.shape[-1]
    x, logdet, fro2 = montecarlo._hyperplanes(mats, montecarlo._census_plan(d, d))
    return x[:, :, 0].T, logdet[:, 0], fro2[:, 0]


def _guard(mats):
    """``_well_conditioned`` on a (k, d, d) stack, on the kernel's
    ln |det A| and ||A||_F^2 as in the census."""
    d = mats.shape[-1]
    _, logdet, fro2 = _solve(mats)
    subsets = np.arange(d)[None]
    return montecarlo._well_conditioned(mats, subsets, fro2[:, None], logdet[:, None])[:, 0]


class TestConditionGuard:
    RATIOS = (1e-6, 0.5, 0.9, 0.999, 1.001, 1.1, 10.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_svd_rule(self, d):
        """Systems with cond_2 = ratio * CONDITION_LIMIT, built as
        Q1 diag(sigma) Q2, with a geometric spectrum or one small singular
        value, plus an exactly singular system, at several scales."""
        rng = np.random.default_rng(d)
        mats = []
        for ratio in self.RATIOS:
            smallest = 1.0 / (ratio * montecarlo.CONDITION_LIMIT)
            for sigma in (np.geomspace(1.0, smallest, d), np.r_[np.ones(d - 1), smallest]):
                for _ in range(10):
                    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
                    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
                    mats.append(q1 * sigma @ q2)
        singular = rng.standard_normal((d, d))
        singular[-1] = singular[0]
        mats = np.array(mats + [singular])
        # the last scale underflows the squared Frobenius norm
        for scale in (1.0, 1e-3, 1e3, 1e-170):
            scaled = mats * scale
            want = _svd_rule(scaled)
            assert np.array_equal(_guard(scaled), want)
            # 20 systems per ratio: the first ratio is usable, the last is not
            assert want[:20].all() and not want[-21:].any()

    def test_subset_array_order(self):
        for n, d in ((4, 2), (7, 3), (6, 6)):
            want = np.array(list(itertools.combinations(range(n), d)), dtype=np.intp)
            assert np.array_equal(montecarlo._subset_array(n, d), want)


class TestCensusPlan:
    @pytest.mark.parametrize("n, d", [(4, 2), (7, 3), (12, 4), (14, 5), (6, 6)])
    def test_prefix_and_last_point_rebuild_the_subsets(self, n, d):
        """Each subset is its prefix plus its last point, the subsets of a
        prefix are contiguous, and the prefixes are exactly the (d - 1)-
        subsets of range(n - 1): one ending at n - 1 extends to nothing."""
        subsets, prefixes, prefix_of, last = montecarlo._census_plan(n, d)
        want = montecarlo._subset_array(n, d)
        assert np.array_equal(subsets, want)
        assert np.array_equal(np.column_stack([prefixes[prefix_of], last]), want)
        assert np.array_equal(np.unique(prefix_of), np.arange(len(prefixes)))
        assert (np.diff(prefix_of) >= 0).all()
        assert np.array_equal(prefixes, montecarlo._subset_array(n - 1, d - 1))


def _systems(rng, d, cond, count):
    """Random d x d systems Q1 diag(sigma) Q2 with cond_2 = cond, half with a
    geometric spectrum and half with one small singular value."""
    mats = []
    for sigma in (np.geomspace(1.0, 1.0 / cond, d), np.r_[np.ones(d - 1), 1.0 / cond]):
        for _ in range(count // 2):
            q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
            q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
            mats.append(q1 * sigma @ q2)
    return np.array(mats)


class TestElimination:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_lapack(self, d):
        """Solution and ln |det| against LAPACK's solve and slogdet.  Two
        backward-stable solvers may differ by about cond * eps (measured
        1.6e-10 at cond 1e6, d = 6), so the bound is 1e-12 relative up to
        cond 1e3 and grows with cond beyond; the normwise backward error
        must be at rounding level at every cond, up to 1e9, well inside
        the range cond < CONDITION_LIMIT the census uses."""
        rng = np.random.default_rng(100 + d)
        for cond in (1.0, 1e3, 1e6, 1e9):
            mats = _systems(rng, d, cond, 100)
            x, logdet, fro2 = _solve(mats)
            np.testing.assert_allclose(fro2, np.einsum("kij,kij->k", mats, mats), rtol=1e-14)
            want = np.linalg.solve(mats, np.ones((len(mats), d, 1)))[..., 0]
            _, want_logdet = np.linalg.slogdet(mats)
            rel = 1e-12 * max(1.0, cond / 1e3)
            forward = np.linalg.norm(x - want, axis=-1) / np.linalg.norm(want, axis=-1)
            assert forward.max() < rel
            assert np.max(np.abs(logdet - want_logdet) / np.maximum(1.0, np.abs(want_logdet))) < rel
            residual = np.einsum("nij,nj->ni", mats, x) - 1.0
            backward = np.linalg.norm(residual, axis=-1) / (
                np.linalg.norm(mats, axis=(1, 2)) * np.linalg.norm(x, axis=-1)
            )
            assert backward.max() < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_singular_not_certified(self, d):
        rng = np.random.default_rng(d)
        twin_rows = rng.standard_normal((d, d))
        twin_rows[-1] = twin_rows[0]
        zero_column = rng.standard_normal((d, d))
        zero_column[:, 1] = 0.0
        mats = np.array([twin_rows, zero_column, np.zeros((d, d))])
        assert not _guard(mats).any()

    def test_tiny_scale(self):
        """At 1e-170 the solutions are about 1e170 and ln |det| about
        -391 d: both stay finite and match LAPACK."""
        rng = np.random.default_rng(7)
        for d in (2, 4, 6):
            mats = _systems(rng, d, 10.0, 20) * 1e-170
            x, logdet, _ = _solve(mats)
            want = np.linalg.solve(mats, np.ones((len(mats), d, 1)))[..., 0]
            _, want_logdet = np.linalg.slogdet(mats)
            assert np.isfinite(x).all()
            np.testing.assert_allclose(x, want, rtol=1e-12)
            np.testing.assert_allclose(logdet, want_logdet, rtol=1e-12)

    def test_huge_scale(self):
        """At 1e170 a column's sum of squares overflows, so its norm comes
        from hypot; the solutions are about 1e-170 and ln |det| about
        391 d, and both match LAPACK."""
        rng = np.random.default_rng(8)
        for d in (2, 4, 6):
            mats = _systems(rng, d, 10.0, 20) * 1e170
            assert np.isinf(np.einsum("kij,kij->k", mats, mats)).all()
            x, logdet, _ = _solve(mats)
            want = np.linalg.solve(mats, np.ones((len(mats), d, 1)))[..., 0]
            _, want_logdet = np.linalg.slogdet(mats)
            assert np.isfinite(x).all()
            np.testing.assert_allclose(x, want, rtol=1e-12)
            np.testing.assert_allclose(logdet, want_logdet, rtol=1e-12)

    def test_rescaled_system_leaves_its_stack_alone(self):
        """One 1e-170 system among 50 unit-scale ones takes the hypot norm
        alone: it matches LAPACK, and every unit-scale system is
        bit-identical to solving it alone."""
        rng = np.random.default_rng(9)
        for d in (2, 3, 5):
            mats = _systems(rng, d, 10.0, 50)
            mats = np.concatenate([mats[:20], _systems(rng, d, 10.0, 2)[:1] * 1e-170, mats[20:]])
            x_all, logdet_all, _ = _solve(mats)
            want = np.linalg.solve(mats[20], np.ones(d))
            np.testing.assert_allclose(x_all[20], want, rtol=1e-12)
            np.testing.assert_allclose(logdet_all[20], np.linalg.slogdet(mats[20])[1], rtol=1e-12)
            for i in np.r_[0:20, 21:51]:
                x, logdet, _ = _solve(mats[i : i + 1])
                assert np.array_equal(x[0], x_all[i])
                assert np.array_equal(logdet[0], logdet_all[i])

    def test_system_independent_of_its_stack(self):
        """A system solved alone and inside a stack of 100 others gives
        bit-identical results, so a replicate's census does not depend on
        the stack it runs in."""
        rng = np.random.default_rng(11)
        for d in (2, 3, 5):
            stack = rng.standard_normal((101, d, d))
            x_all, logdet_all, _ = _solve(stack)
            for i in (0, 57, 100):
                x, logdet, _ = _solve(stack[i : i + 1])
                assert np.array_equal(x[0], x_all[i])
                assert np.array_equal(logdet[0], logdet_all[i])


def _tolerance_census(points):
    """The census's outputs (tied, counts, min heights, skipped, heights)
    by its tolerance rule on an (R, C, n) side tensor, as an oracle for
    the sign count: a subset spans a facet when every other point lies
    ``HALFSPACE_TOL`` or more below its plane, or every one that far
    above.  The solutions come from the same kernel, run on each system
    alone as its own one-subset census, so the heights must agree bit for
    bit with the stacked census's; the guard is the SVD rule itself."""
    tol = montecarlo.HALFSPACE_TOL
    stack, n, d = points.shape
    subsets = montecarlo._subset_array(n, d)
    mats = points[:, subsets]  # (R, C, d, d)
    x, _, _ = _solve(mats.reshape(-1, d, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce(x * x, axis=1))
        normals = (x / norms[:, None]).reshape(stack, -1, d)
        heights = (1.0 / norms).reshape(stack, -1)
        side = normals @ points.transpose(0, 2, 1) - heights[..., None]  # (R, C, n)
    is_vertex = np.zeros((len(subsets), n), dtype=bool)
    np.put_along_axis(is_vertex, subsets, True, axis=1)
    dist = np.abs(side)
    residual = np.where(is_vertex, dist, 0.0).max(axis=-1)
    solved = _svd_rule(mats) & (residual <= montecarlo.VERTEX_RESIDUAL_TOL)
    tied = (solved & ((dist < tol) & ~is_vertex).any(axis=-1)).any(axis=-1)
    below = solved & ((side <= -tol) | is_vertex).all(axis=-1)
    above = solved & ((side >= tol) | is_vertex).all(axis=-1)
    facets = np.concatenate([below, above], axis=1) & ~tied[:, None]
    signed = np.concatenate([heights, -heights], axis=1)
    counts = facets.sum(axis=1)
    min_heights = np.where(facets, signed, np.inf).min(axis=1)
    min_heights[counts == 0] = np.nan
    return tied, counts, min_heights, (~solved).sum(axis=1), signed[facets]


def _rounded_stack(n, d, stack, seed, decimals, jitter=0.0):
    """Sphere points rounded to a few decimals, moved by up to ``jitter``
    and put back on the sphere: coincident points give singular systems,
    and coplanar ones ties, at distances of about ``jitter``."""
    points = np.round(np.stack([sample_sphere(n, d, _stream(seed, r, 0)) for r in range(stack)]),
                      decimals)
    points += jitter * np.random.default_rng(seed).uniform(-1.0, 1.0, points.shape)
    points[..., 0][np.all(points == 0.0, axis=-1)] = 1.0
    return points / np.linalg.norm(points, axis=-1, keepdims=True)


class TestSideRule:
    SHAPES = [(4, 2, 40), (7, 2, 30), (15, 3, 9), (9, 3, 20), (12, 4, 8), (14, 5, 1), (8, 5, 6)]

    def _check(self, points):
        got = montecarlo._census(points, montecarlo._census_plan(*points.shape[1:]), True)
        want = _tolerance_census(points)
        for name, a, b in zip(("tied", "counts", "min_heights", "skipped", "heights"), got, want):
            assert np.array_equal(a, b, equal_nan=True), name
        # records list each untied replicate's facets in the order of its heights
        records = [rec for recs in got[5] for rec in recs]
        assert [rec.height for rec in records] == got[4].tolist()
        return got

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}_{s[1]}")
    def test_sphere_stacks(self, shape):
        n, d, stack = shape
        points = np.stack([sample_sphere(n, d, _stream(5, r, 0)) for r in range(stack)])
        tied, counts, *_ = self._check(points)
        assert not tied.any() and (counts >= d + 1).all()

    @pytest.mark.parametrize("jitter", [0.0, 1e-11])
    def test_rounded_stacks(self, jitter):
        """Rounding to 1-2 decimals gives skipped systems and tied
        replicates, where the sign count and the tolerance rule part;
        the jitter puts the ties strictly inside ``HALFSPACE_TOL``."""
        ties = skips = 0
        for n, d, stack in self.SHAPES:
            for decimals in (1, 2):
                points = _rounded_stack(n, d, 3 * stack, 9, decimals, jitter)
                tied, _, _, skipped, _, _ = self._check(points)
                ties += int(tied.sum())
                skips += int(skipped.sum())
        assert ties > 0 and skips > 0

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_replicate_independent_of_its_stack(self, decimals):
        """A replicate censused alone and inside a stack gives
        bit-identical results."""
        for n, d, stack in self.SHAPES:
            if decimals is None:
                points = np.stack([sample_sphere(n, d, _stream(6, r, 0)) for r in range(stack + 2)])
            else:
                points = _rounded_stack(n, d, stack + 2, 6, decimals)
            plan = montecarlo._census_plan(n, d)
            tied, counts, min_heights, skipped, heights, _ = montecarlo._census(
                points, plan, False
            )
            own = np.split(heights, np.cumsum(counts)[:-1])
            for r in range(len(points)):
                alone = montecarlo._census(points[r : r + 1], plan, False)
                assert alone[0][0] == tied[r] and alone[1][0] == counts[r]
                assert np.array_equal(alone[2][0], min_heights[r], equal_nan=True)
                assert alone[3][0] == skipped[r]
                assert np.array_equal(alone[4], own[r])


def _pivoted_hyperplanes(points, plan):
    """``_hyperplanes`` by Gaussian elimination with partial pivoting on the
    full systems [A | 1], in a (d, d + 1, R, C) layout: an oracle for the
    census's prefix QR.  ln |det A| is the sum of ln |pivot|."""
    subsets = plan[0]
    stack, n, d = points.shape
    # aug[i, j, r, c] = points[r, subsets[c, i], j], with the ones in column d
    aug = np.empty((d, d + 1, stack, len(subsets)))
    aug[:, :d] = np.take(points.transpose(2, 0, 1), subsets.T, axis=2).transpose(2, 0, 1, 3)
    aug[:, d] = 1.0
    fro2 = np.einsum("ij...,ij...->...", aug[:, :d], aug[:, :d])
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(d - 1):
            # swap each system's largest remaining |a_ik| into row k
            pivot_row = k + np.argmax(np.abs(aug[k:, k]), axis=0)
            top = aug[k, k:]
            for i in range(k + 1, d):
                swap = pivot_row == i
                row = aug[i, k:]
                aug[i, k:], top = np.where(swap, top, row), np.where(swap, row, top)
            aug[k, k:] = top
            factors = aug[k + 1 :, k] / aug[k, k]
            aug[k + 1 :, k + 1 :] -= factors[:, None] * aug[k, k + 1 :]
        pivots = aug[np.arange(d), np.arange(d)]
        logdet = np.log(np.abs(pivots)).sum(axis=0)
        x = aug[:, d]
        for k in reversed(range(d)):
            for j in range(k + 1, d):
                x[k] -= aug[k, j] * x[j]
            x[k] /= pivots[k]
    return x, logdet, fro2


class TestPivotedOracle:
    """The census on its prefix QR and on partial-pivot elimination of the
    full systems finds the same ties, facet counts and skipped systems,
    with heights within 1e-13."""

    def _agree(self, points, monkeypatch):
        plan = montecarlo._census_plan(*points.shape[1:])
        tied, counts, min_heights, skipped, heights, _ = montecarlo._census(points, plan, False)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_hyperplanes", _pivoted_hyperplanes)
            want = montecarlo._census(points, plan, False)
        assert np.array_equal(tied, want[0])
        assert np.array_equal(counts, want[1])
        assert np.array_equal(skipped, want[3])
        np.testing.assert_allclose(min_heights, want[2], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(heights, want[4], rtol=0.0, atol=1e-13)
        return int(tied.sum()), int(skipped.sum())

    @pytest.mark.parametrize("shape", TestSideRule.SHAPES, ids=lambda s: f"{s[0]}_{s[1]}")
    def test_sphere_stacks(self, shape, monkeypatch):
        n, d, stack = shape
        points = np.stack([sample_sphere(n, d, _stream(5, r, 0)) for r in range(stack)])
        assert self._agree(points, monkeypatch) == (0, 0)

    @pytest.mark.parametrize("jitter", [0.0, 1e-11])
    def test_rounded_stacks(self, jitter, monkeypatch):
        ties = skips = 0
        for n, d, stack in TestSideRule.SHAPES:
            for decimals in (1, 2):
                tied, skipped = self._agree(
                    _rounded_stack(n, d, 3 * stack, 9, decimals, jitter), monkeypatch
                )
                ties += tied
                skips += skipped
        assert ties > 0 and skips > 0


# reports of the benchmark's four shapes, each at the seed of its first
# call, as computed with LAPACK's solve and slogdet: (n, d, replicates,
# seed) -> facet counts (one value where every replicate has it),
# origin-inside flags as packed bits, pooled height count, sum, sum of
# squares, sum weighted by position mod 7 plus 1, and first height
PINNED_REPORTS = {
    (4, 2, 300, 0): (
        [4],
        "f4eb6d03d68ede80cc83c8066a3037ce4085a4999e7abfe879d21ecabc11efce7f6afac95210",
        (1200, 729.5509735840686, 687.8069429499523, 2911.751575637706, 0.883047572075349),
    ),
    (15, 3, 45, 1): (
        [26],
        "fffffffffff8",
        (1170, 879.1765692117375, 693.2598068372405, 3514.2428638999177, 0.9939741835763694),
    ),
    (12, 4, 45, 2): (
        [35, 34, 35, 37, 38, 37, 35, 36, 36, 38, 37, 38, 38, 36, 37, 36, 40, 35, 36, 35, 40,
         37, 36, 37, 38, 35, 37, 37, 35, 36, 33, 35, 37, 37, 35, 34, 35, 36, 36, 38, 35, 35,
         35, 37, 36],
        "b9dfffdcdff8",
        (1631, 794.2135785333617, 452.8712092963507, 3170.428572681235, 0.719751056662157),
    ),
    (14, 5, 10, 3): (
        [80, 82, 82, 88, 80, 90, 90, 86, 82, 90],
        "7fc0",
        (850, 331.83604560074946, 147.44048479444504, 1329.557519104216, 0.5157850196899996),
    ),
}


class TestEnsemble:
    def test_spec_validation(self):
        p = PolytopeParams(12, 4)
        with pytest.raises(ValueError):
            EnsembleSpec(p, replicates=0, seed=0)
        # C(50, 5) = 2118760 subsets times 50 floats fits the float budget,
        # so only the subset limit rejects it, in both entry points
        with pytest.raises(ValueError, match="over the limit of 1000000"):
            EnsembleSpec(PolytopeParams(50, 5), replicates=1, seed=0)
        with pytest.raises(ValueError, match="over the limit of 1000000"):
            facet_census(sample_sphere(50, 5, seed=0))
        with pytest.raises(ValueError):
            EnsembleSpec(PolytopeParams.from_log(900.0, 30), replicates=1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None])
    def test_spec_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer in [0, inf], got seed={seed}")):
            EnsembleSpec(PolytopeParams(12, 4), replicates=1, seed=seed)

    @pytest.mark.parametrize("replicates", [0, -2, 2.0, 2**32])
    def test_spec_rejects_bad_replicates(self, replicates):
        with pytest.raises(ValueError, match=re.escape(
                f"replicates must be an integer in [1, 4294967295], got replicates={replicates}")):
            EnsembleSpec(PolytopeParams(12, 4), replicates=replicates, seed=0)

    def test_spec_accepts_integer_extremes(self):
        EnsembleSpec(PolytopeParams(12, 4), replicates=2**32 - 1, seed=2**200 + 1)
        EnsembleSpec(PolytopeParams(12, 4), replicates=np.int64(3), seed=np.uint64(0))

    def test_memory_budget(self, monkeypatch):
        # (1414, 2) passes the subset limit, but its side tensor alone
        # would hold 1.4e9 floats; only the spec is built
        with pytest.raises(ValueError, match="n=1414, d=2"):
            EnsembleSpec(PolytopeParams(1414, 2), replicates=1, seed=0)
        with pytest.raises(ValueError, match="C\\(180, 3\\) = 955860"):
            EnsembleSpec(PolytopeParams(180, 3), replicates=1, seed=0)
        EnsembleSpec(PolytopeParams(100, 3), replicates=1, seed=0)
        # facet_census checks before building any census array
        monkeypatch.setattr(montecarlo, "_REPLICATE_FLOATS", 1000)
        with pytest.raises(ValueError, match="budget of 1000 floats"):
            facet_census(sample_sphere(12, 4, seed=0))

    def test_deterministic_reports(self):
        spec = EnsembleSpec(PolytopeParams(12, 4), replicates=50, seed=21)
        a, b = estimate(spec), estimate(spec)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.pooled_heights, b.pooled_heights)
        assert a.to_dict() == b.to_dict()

    def test_mean_count_matches_exact(self):
        spec = EnsembleSpec(PolytopeParams(10, 3), replicates=400, seed=2)
        report = estimate(spec)
        assert np.all(report.counts == 16)  # 2n - 4 deterministically
        assert report.se_facets == 0.0
        exact_val = expected_facets(PolytopeParams(10, 3)).to_float()
        assert report.mean_facets == pytest.approx(exact_val, rel=1e-12)

    def test_origin_inside_matches_wendel(self):
        spec = EnsembleSpec(PolytopeParams(10, 3), replicates=2000, seed=4)
        report = estimate(spec)
        want = 1.0 - origin_outside_prob(10, 3)
        se = report.origin_inside_se
        assert abs(report.origin_inside_freq - want) < 3.0 * se

    def test_negative_height_fraction_matches_exact_split(self):
        p = PolytopeParams(10, 3)
        spec = EnsembleSpec(p, replicates=2000, seed=8)
        report = estimate(spec)
        below = expected_facets(p, HeightInterval(-1.0, 0.0)).to_float()
        total = expected_facets(p).to_float()
        want = below / total
        n_pool = len(report.pooled_heights)
        se = math.sqrt(want * (1 - want) / n_pool) * 3.0
        # pooled heights are weakly dependent within replicates; allow 2x
        assert abs(report.negative_height_fraction - want) < 2.0 * se + 0.01

    @pytest.mark.parametrize(
        "n, d, seed, levels",
        [(15, 3, 13, (0.06, 0.18, 0.32, 0.44)), (12, 4, 14, (-0.20, -0.07, 0.05, 0.17))],
        ids=["15_3", "12_4"],
    )
    def test_min_height_below_first_moment(self, n, d, seed, levels):
        """A minimum height at or below h needs a facet there, so
        P(min height <= h) <= E[#facets below h], the exact count of the
        window [-1, h]; checked at 3 standard errors at levels near the
        1/5/20/50% quantiles of the minimum, where the ratio measured
        0.23-0.50 (low facets come in clusters)."""
        params = PolytopeParams(n, d)
        report = estimate(EnsembleSpec(params, replicates=2000, seed=seed))
        for h in levels:
            p = float(np.mean(report.min_heights <= h))
            se = math.sqrt(p * (1.0 - p) / len(report.min_heights))
            bound = expected_facets(params, HeightInterval(-1.0, h)).to_float()
            assert 0.0 < p <= bound + 3.0 * se, (h, p, bound)

    def test_stacks_keep_replicate_streams(self):
        """(12, 4) censuses 8 replicates per stack, so 20 cross stack
        boundaries; each must still equal a census of its own stream."""
        report = estimate(EnsembleSpec(PolytopeParams(12, 4), replicates=20, seed=3))
        singles = [facet_census(sample_sphere(12, 4, _stream(3, r, 0))) for r in range(20)]
        assert report.degenerate_resamples == 0
        assert np.array_equal(report.counts, [s.facet_count for s in singles])
        assert np.array_equal(
            report.pooled_heights, np.concatenate([s.heights for s in singles])
        )

    def test_one_stack_keeps_replicate_streams(self):
        """(4,2) censuses all 300 replicates in one stack; each must still
        equal a census of its own stream."""
        report = estimate(EnsembleSpec(PolytopeParams(4, 2), replicates=300, seed=7))
        singles = [facet_census(sample_sphere(4, 2, _stream(7, r, 0))) for r in range(300)]
        assert report.degenerate_resamples == 0
        assert np.array_equal(report.counts, [s.facet_count for s in singles])
        assert np.array_equal(report.min_heights, [s.min_height for s in singles])
        assert np.array_equal(
            report.pooled_heights, np.concatenate([s.heights for s in singles])
        )

    @pytest.mark.parametrize("key", PINNED_REPORTS, ids=lambda k: f"{k[0]}_{k[1]}")
    def test_pinned_reports(self, key):
        """Counts, origin flags, skips and redraws equal the pinned reports
        exactly; pooled heights within 1e-12 (checked through their sums)."""
        n, d, reps, seed = key
        counts, inside_bits, (size, total, squares, weighted, first) = PINNED_REPORTS[key]
        report = estimate(EnsembleSpec(PolytopeParams(n, d), replicates=reps, seed=seed))
        assert report.counts.tolist() == (counts if len(counts) == reps else counts * reps)
        assert np.packbits(report.origin_inside).tobytes().hex() == inside_bits
        assert report.skipped_subsets == 0 and report.degenerate_resamples == 0
        heights = report.pooled_heights
        assert len(heights) == size
        weights = np.arange(size) % 7 + 1.0
        for got, want in zip(
            (math.fsum(heights), math.fsum(heights * heights), math.fsum(heights * weights)),
            (total, squares, weighted),
        ):
            assert abs(got - want) <= 1e-12 * size
        assert abs(heights[0] - first) <= 1e-12

    def test_degenerate_replicate_redrawn_alone(self, monkeypatch):
        spec = EnsembleSpec(PolytopeParams(4, 2), replicates=6, seed=11)
        clean = estimate(spec)
        real_stack = montecarlo._sphere_stack
        streams = []

        def tie_on_second_stream(n, d, generators):
            points = real_stack(n, d, generators)
            if len(streams) < 2 <= len(streams) + len(generators):
                points[1 - len(streams)] = TIE_POINTS
            streams.extend(generators)
            return points

        monkeypatch.setattr(montecarlo, "_sphere_stack", tie_on_second_stream)
        report = estimate(spec)
        assert report.degenerate_resamples == 1
        assert len(streams) == 7
        others = [0, 2, 3, 4, 5]
        assert np.array_equal(report.counts[others], clean.counts[others])
        assert np.array_equal(report.min_heights[others], clean.min_heights[others])
        assert np.array_equal(report.origin_inside[others], clean.origin_inside[others])
        heights, clean_heights = _per_replicate_heights(report), _per_replicate_heights(clean)
        for r in others:
            assert np.array_equal(heights[r], clean_heights[r])
        redrawn = facet_census(sample_sphere(4, 2, _stream(11, 1, 1)))
        assert report.counts[1] == redrawn.facet_count
        assert np.array_equal(heights[1], redrawn.heights)

    def test_redraws_give_up_naming_the_replicate(self, monkeypatch):
        """After 1000 tied attempts estimate raises, naming the replicate,
        (n, d) and the seed; forced by a census that ties every replicate."""

        def every_replicate_tied(points, plan, keep_records):
            none = np.zeros(len(points), dtype=np.intp)
            return none == 0, none, np.full(len(points), np.nan), none, np.empty(0), None

        monkeypatch.setattr(montecarlo, "_census", every_replicate_tied)
        spec = EnsembleSpec(PolytopeParams(7, 3), replicates=2, seed=5)
        with pytest.raises(RuntimeError, match=r"replicate 0 of n=7, d=3, seed=5 .* 1000 redraws"):
            estimate(spec)

    def test_report_dict_fields(self):
        spec = EnsembleSpec(PolytopeParams(8, 3), replicates=20, seed=1)
        d = estimate(spec).to_dict()
        for key in ("mean_facets", "se_facets", "origin_inside_freq",
                    "degenerate_resamples", "skipped_subsets"):
            assert key in d


class TestKsHelper:
    def test_uniform_samples_against_uniform_cdf(self):
        rng = np.random.default_rng(12)
        samples = rng.uniform(0.0, 1.0, 4000)
        grid = np.linspace(0.0, 1.0, 2001)
        d = ks_distance(samples, grid, grid)
        assert d < 0.035  # ~ 1.63/sqrt(4000) at the 1% level

    def test_detects_gross_mismatch(self):
        rng = np.random.default_rng(13)
        samples = rng.uniform(0.5, 1.0, 4000)
        grid = np.linspace(0.0, 1.0, 2001)
        assert ks_distance(samples, grid, grid) > 0.4


    def test_rejects_empty_samples(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="at least one sample"):
            ks_distance(np.array([]), grid, grid)

    def test_rejects_decreasing_grid(self):
        """On the grid [1, 0], np.interp reads 0 at 0.5, where the CDF is 0.5."""
        with pytest.raises(ValueError, match="nondecreasing"):
            ks_distance(np.array([0.5]), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        grid = np.array([0.0, 1.0, 0.5, 2.0])
        with pytest.raises(ValueError, match="nondecreasing"):
            ks_distance(np.array([0.5]), grid, np.array([0.0, 1.0, 0.5, 1.0]))


class TestRecordDump:
    def test_csv_roundtrip(self, tmp_path):
        spec = EnsembleSpec(
            PolytopeParams(8, 3), replicates=3, seed=6, keep_records=True
        )
        report = estimate(spec)
        path = tmp_path / "facets.csv"
        write_facet_csv(str(path), report.records_by_replicate)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "replicate,vertex_indices,height,normal"
        total = sum(len(r) for r in report.records_by_replicate)
        assert len(lines) == total + 1
        rep, idx, height, normal = lines[1].split(",")
        assert rep == "0"
        assert len(idx.split()) == 3
        assert len(normal.split()) == 3
        assert abs(float(height)) <= 1.0


@pytest.mark.parametrize("fields, message", [
    ({"facet_count": 2, "heights": np.array([0.5]), "min_height": 0.5, "origin_inside": True},
     "facet_count=2 but 1 heights"),
    ({"facet_count": 1, "heights": np.array([-0.5]), "min_height": -0.5, "origin_inside": True},
     "origin_inside=True but min_height=-0.5"),
], ids=["count", "origin"])
def test_census_summary_names_inconsistent_fields(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        montecarlo.CensusSummary(**fields)


@pytest.mark.parametrize("normal, height, valid", [
    ((1.0, 0.0), math.sqrt(0.5), True),
    ((2.0, 0.0), math.sqrt(0.5), False),  # not a unit normal
    ((1.0, 0.0), 0.5, False),  # its vertices off the plane
], ids=["facet", "long normal", "vertices off"])
def test_record_verify_checks_normal_and_vertices(normal, height, valid):
    points = np.array([[math.sqrt(0.5), math.sqrt(0.5)], [math.sqrt(0.5), -math.sqrt(0.5)],
                       [-1.0, 0.0]])
    assert montecarlo.FacetRecord((0, 1), np.array(normal), height).verify(points) is valid


# each integer argument refuses a fraction, a string, None and an integer
# outside its range with one message naming it:
# (label, call of the argument, name, range, integer outside)
_INTEGER_ARGS = [
    ("sample n", lambda n: sample_sphere(n, 3, 0), "n", "[1, inf]", 0),
    ("sample d", lambda d: sample_sphere(10, d, 0), "d", "[2, inf]", 1),
    ("replicates", lambda r: EnsembleSpec(PolytopeParams(12, 4), replicates=r, seed=0),
     "replicates", "[1, 4294967295]", 2**32),
    ("seed", lambda seed: EnsembleSpec(PolytopeParams(12, 4), replicates=1, seed=seed),
     "seed", "[0, inf]", -1),
]
_INTEGER_ROWS = [
    (f"{label} {kind}", call, value, f"{name} must be an integer in {bounds}, got {name}={value}")
    for label, call, name, bounds, outside in _INTEGER_ARGS
    for kind, value in (("fraction", 2.5), ("string", "3"), ("None", None), ("outside", outside))
]


@pytest.mark.parametrize("call, value, message", [row[1:] for row in _INTEGER_ROWS],
                         ids=[row[0] for row in _INTEGER_ROWS])
def test_input_checks_name_the_input(call, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)
