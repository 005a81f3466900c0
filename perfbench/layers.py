"""Per-layer metrics: probes of single layers and the numbers taken from spans.

Every figure is measured from outside, by timing calls into a module's
public functions; no library internals are wrapped.  Count metrics
(integrand evaluations, panels, skipped subsets, redraws) come from fixed
inputs and repeat exactly between runs with the same seed.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import spherefacets as sf
from spherefacets import numerics, quadrature
from spherefacets.solvers import golden_max

from spans import span_cost_us
from workloads import SHAPES, huge_n_mode_splits, shape_label, split_group

HALF_PI = 0.5 * math.pi
P = sf.PolytopeParams

BETA_DIMS = (5, 400)
BETA_PER_BRANCH = 100
BETA_BATCHES = 5
QUAD_CASES = (P(405, 400), P(50, 4), P(20, 3), P(14, 5))
PANEL_CASES = (P(50, 4), P(405, 400))
PANEL_CELLS = 2000
HEIGHT_CASES = (P(20, 3), P(405, 400), P(10**6, 3), P.from_log(2000.0, 50), P(50, 4))
SPHERE_BATCH = 200
SPHERE_BATCHES = 5
CENSUS_PROBES = {(4, 2): 40, (15, 3): 16, (12, 4): 16, (14, 5): 6}
IMPORT_PROBES = 3
INTEGRAL_TOL = 1e-9
HUGE_N_MODE_SPLITS = 7  # drawn near-mode splits, after the known failing one

LAW_QUERIES = ("for_params", "cdf", "gamma", "quantile", "cdf_table")
COUNT_TAGS = ("low_d", "high_d", "huge_n", "window")
CLI_COMMANDS = ("exact", "exact_cdf", "exact_ln_n", "scan", "compare", "asym", "verify")

# name -> unit, in the order they are reported
METRICS = {
    "numerics.log_reg_inc_beta.us.d5": "us",
    "numerics.log_reg_inc_beta.us.d400": "us",
    "quadrature.log_integrate.evals": "count",
    "quadrature.log_integrate.panels": "count",
    "quadrature.log_integrate.overhead_us_per_eval": "us",
    "quadrature.panel_log_values.us_per_cell": "us",
    **{f"exact.expected_facets.ms.{tag}": "ms" for tag in COUNT_TAGS},
    "exact.expected_facets.huge_n_mode.ok_share": "ratio",
    "exact.height_integral.ms": "ms",
    **{f"exact.law.{q}.ms": "ms" for q in LAW_QUERIES},
    "montecarlo.sample_sphere.us": "us",
    **{f"montecarlo.facet_census.ms.{shape_label(n, d)}": "ms" for n, d, _, _ in SHAPES},
    **{f"montecarlo.estimate.ms_per_rep.{shape_label(n, d)}": "ms" for n, d, _, _ in SHAPES},
    **{f"montecarlo.subsets_per_s.{shape_label(n, d)}": "1/s" for n, d, _, _ in SHAPES},
    "montecarlo.skipped_subsets": "count",
    "montecarlo.redraw_ratio": "ratio",
    "cli.import_s": "s",
    **{f"cli.command_s.{c}": "s" for c in CLI_COMMANDS},
    "cli.emit_ms": "ms",
    "trace.span_us": "us",
    "trace.overhead_pct": "%",
}


class CountingIntegrand:
    """ln of the height-integral integrand in theta, with h = sin(theta).

    (d^2 - 2d) ln cos(theta) + (n - d) ln G(sin theta), built from the
    public ``numerics.log_inner_cdf``.  Counts its evaluations and the
    time spent inside them.
    """

    def __init__(self, params):
        self.d = params.d
        self.power = params.d * params.d - 2 * params.d
        self.m = int(params.n) - params.d
        self.evals = 0
        self.seconds = 0.0

    def __call__(self, theta: float) -> float:
        start = time.perf_counter()
        self.evals += 1
        c = math.cos(theta)
        if c <= 0.0:
            value = -math.inf
        else:
            h = min(max(math.sin(theta), -1.0), 1.0)
            value = self.m * numerics.log_inner_cdf(h, self.d)
            if self.power:
                value += self.power * math.log(c)
        self.seconds += time.perf_counter() - start
        return value


def _beta_points(d: int, rng: random.Random) -> list:
    """x covering the series, continued-fraction and complement branches."""
    a = 0.5 * (d - 1)
    series_hi = min(0.05, 0.1 / (a + 1.0))
    switch = (a + 1.0) / (2.0 * a + 2.0)
    xs = [math.exp(rng.uniform(math.log(1e-8), math.log(series_hi))) for _ in range(BETA_PER_BRANCH)]
    xs += [rng.uniform(series_hi, switch) for _ in range(BETA_PER_BRANCH)]
    xs += [rng.uniform(switch, 1.0 - 1e-9) for _ in range(BETA_PER_BRANCH)]
    return xs


def _panel_count(evals: int, ladder: list, rule: int) -> int:
    """Panels ``log_integrate`` ends with: the ladder's nonempty cells plus
    one per split, where each split evaluates two new panels."""
    initial = sum(b > a for a, b in zip(ladder, ladder[1:]))
    splits, rest = divmod(evals - rule * initial, 2 * rule)
    if rest or splits < 0:
        raise RuntimeError(f"{evals} evaluations do not fit {initial} panels of {rule} points")
    return initial + splits


def huge_n_mode_probe(tracer) -> tuple:
    """Huge-n splits near the mode, a group reported apart from the checks.

    At n = e^500 .. e^3000 such a window can exhaust the quadrature panel
    budget and raise QuadratureError, a known library defect (the first
    split does at the benchmark's first commit).  A split that raises
    counts as not completed; one that completes must pass the additivity
    check like every other.  Returns (splits run, completed, completed
    but failed).
    """
    completed = wrong = 0
    splits = huge_n_mode_splits(HUGE_N_MODE_SPLITS)
    for params, gap in splits:
        group = split_group(params, gap)
        try:
            with tracer.span("exact.expected_facets.huge_n_mode"):
                results = [op.call([]) for op in group.ops]
        except sf.QuadratureError:
            continue
        completed += 1
        wrong += not all(group.check(results))
    return len(splits), completed, wrong


def run_probes(tracer, seed: int, root: str) -> tuple:
    """Time single layers on fixed and seeded inputs.

    Returns the per-metric samples not taken from spans, the number of
    probe checks attempted and failed (the counting integrand must match
    ``height_integral``, completed huge-n splits must add up), and the
    known-defect group's (splits run, splits raised).
    """
    rng = random.Random(seed)
    values: dict = {}
    attempted = failed = 0

    for d in BETA_DIMS:
        a = 0.5 * (d - 1)
        xs = _beta_points(d, rng)
        for _ in range(BETA_BATCHES):
            with tracer.span(f"numerics.log_reg_inc_beta.d{d}"):
                for x in xs:
                    numerics.log_reg_inc_beta(x, a, a)

    rule = CountingIntegrand(QUAD_CASES[0])
    quadrature.panel_log_values(rule, [0.0, 1.0])  # evaluations per panel
    evals = panels = 0
    inner = outer = 0.0
    for params in QUAD_CASES:
        f = CountingIntegrand(params)
        mode, _ = golden_max(f, -HALF_PI, HALF_PI, xtol=1e-12)
        ladder = quadrature.geometric_ladder(-HALF_PI, HALF_PI, mode)
        f.evals, f.seconds = 0, 0.0
        start = time.perf_counter()
        with tracer.span("quadrature.log_integrate"):
            value = quadrature.log_integrate(f, ladder)
        outer += time.perf_counter() - start
        evals += f.evals
        panels += _panel_count(f.evals, ladder, rule.evals)
        inner += f.seconds
        with tracer.span("exact.height_integral"):
            reference = sf.height_integral(params)
        attempted += 1
        failed += abs(math.expm1(value.ln() - reference.ln())) > INTEGRAL_TOL
    values["quadrature.log_integrate.evals"] = [evals]
    values["quadrature.log_integrate.panels"] = [panels]
    values["quadrature.log_integrate.overhead_us_per_eval"] = [(outer - inner) / evals * 1e6]

    for params in PANEL_CASES:
        grid = np.linspace(-HALF_PI, HALF_PI, PANEL_CELLS + 1).tolist()
        with tracer.span("quadrature.panel_log_values"):
            quadrature.panel_log_values(CountingIntegrand(params), grid)

    for params in HEIGHT_CASES:
        with tracer.span("exact.height_integral"):
            sf.height_integral(params)

    splits, completed, wrong = huge_n_mode_probe(tracer)
    attempted += completed
    failed += wrong
    values["exact.expected_facets.huge_n_mode.ok_share"] = [completed / splits]

    gen = np.random.default_rng(seed)
    for _ in range(SPHERE_BATCHES):
        with tracer.span("montecarlo.sample_sphere"):
            for _ in range(SPHERE_BATCH):
                sf.sample_sphere(14, 5, gen)
    for (n, d), count in CENSUS_PROBES.items():
        for k in range(count):
            points = sf.sample_sphere(n, d, np.random.default_rng([seed, n, d, k]))
            with tracer.span(f"montecarlo.facet_census.{shape_label(n, d)}"):
                try:
                    sf.facet_census(points)
                except sf.DegenerateSampleError:
                    pass  # a probability-zero tie; the timing still counts

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = "import time; t = time.perf_counter(); import spherefacets.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(out.stdout.strip()))
    values["cli.import_s"] = imports
    values["trace.span_us"] = [span_cost_us()]
    return values, attempted, failed, (splits, splits - completed)


def _span_samples(tracer) -> dict:
    """Self time in seconds of each span, grouped by span name."""
    self_times = tracer.self_times()
    by_name: dict = {}
    for sid, name, *_ in tracer.spans:
        by_name.setdefault(name, []).append(self_times[sid])
    return by_name


def layer_metrics(tracer, probe_values: dict, census, loop_spans: int, loop_seconds: float) -> dict:
    """Every per-layer metric as (value, unit, samples).

    ``census`` is the workload object of a single fixed census cycle;
    ``loop_spans`` and ``loop_seconds`` describe the traced main loop.
    """
    spans = _span_samples(tracer)
    samples: dict = dict(probe_values)

    def put(metric, name, scale):
        samples[metric] = [t * scale for t in spans.get(name, [])]

    for d in BETA_DIMS:
        put(f"numerics.log_reg_inc_beta.us.d{d}", f"numerics.log_reg_inc_beta.d{d}",
            1e6 / (3 * BETA_PER_BRANCH))
    put("quadrature.panel_log_values.us_per_cell", "quadrature.panel_log_values", 1e6 / PANEL_CELLS)
    for tag in COUNT_TAGS:
        put(f"exact.expected_facets.ms.{tag}", f"exact.expected_facets.{tag}", 1e3)
    put("exact.height_integral.ms", "exact.height_integral", 1e3)
    for q in LAW_QUERIES:
        put(f"exact.law.{q}.ms", f"exact.law.{q}", 1e3)
    put("montecarlo.sample_sphere.us", "montecarlo.sample_sphere", 1e6 / SPHERE_BATCH)
    for n, d, reps, _ in SHAPES:
        label = shape_label(n, d)
        put(f"montecarlo.facet_census.ms.{label}", f"montecarlo.facet_census.{label}", 1e3)
        put(f"montecarlo.estimate.ms_per_rep.{label}", f"montecarlo.estimate.{label}", 1e3 / reps)
        samples[f"montecarlo.subsets_per_s.{label}"] = [
            math.comb(n, d) * reps / t for t in spans.get(f"montecarlo.estimate.{label}", [])
        ]
    samples["montecarlo.skipped_subsets"] = [census.skipped_subsets]
    samples["montecarlo.redraw_ratio"] = [census.degenerate_resamples / census.replicates]
    for c in CLI_COMMANDS:
        put(f"cli.command_s.{c}", f"cli.command.{c}", 1.0)
    put("cli.emit_ms", "cli.emit", 1e3)
    span_us = probe_values["trace.span_us"][0]
    samples["trace.overhead_pct"] = [100.0 * loop_spans * span_us * 1e-6 / loop_seconds]

    out = {}
    for metric, unit in METRICS.items():
        vals = samples.get(metric) or []
        if not vals:
            raise RuntimeError(f"no samples for per-layer metric {metric}")
        out[metric] = (statistics.median(vals), unit, len(vals))
    return out
