"""Command-line surface.

Subcommands: ``exact`` (quadrature evaluation), ``asym`` (regime
formulas), ``mc`` (Monte Carlo census), ``compare`` (three-way check),
``scan`` (parameter sweeps to CSV/JSON), ``verify`` (inequality and
oracle suites; nonzero exit on any violation).

Every path is a thin adapter over the library modules: the numbers
emitted are exactly what the corresponding direct calls return.  The
quadrature runs at its one fixed accuracy (relative target 1e-9), which
``exact`` reports as ``rel_tol``; no command takes a tolerance.

Each numeric flag declares its domain as its argparse ``type``:

- ``--n``, ``--n-start``, ``--n-stop``: integers >= 3; ``--d`` in
  [2, 10**154], where d * d - 2 * d is still a float;
  ``--n-step`` >= 1; ``--seed`` >= 0;
- ``mc``/``compare --replicates`` in [1, 1000000], ``verify --points``
  in [1, 200000] and ``exact --cdf-points`` in [0, 20000], caps at which
  a command still ends within seconds;
- ``--r1``, ``--r2``: finite and > 0; ``--rho``: finite and >= 0;
  ``--h1``, ``--h2``: in [-1, 1];
- ``--ln-n`` is any float: its validity depends on ``--d`` and is the
  library's to judge.

Rules across flags stay with the code that owns them: the library checks
n > d, h1 <= h2, ln n and the regime's rho (exit 1), and ``scan`` refuses
``--n-stop`` below ``--n-start`` (exit 2).  Exit codes: 0 success, 1
library, numeric or I/O failure, 2 usage error (argparse names the flag).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import asymptotics as asym
from . import exact, montecarlo, quadrature
from .logreal import LogReal
from .numerics import check_bounds_suite, random_bounds_grid

SCHEMA_VERSION = 1


def _params_from(ns) -> exact.PolytopeParams:
    if ns.ln_n is not None:
        return exact.PolytopeParams.from_log(ns.ln_n, ns.d)
    return exact.PolytopeParams(ns.n, ns.d)


def _regime_from(ns) -> asym.RegimeSpec:
    if ns.family:
        return asym.classify(asym.parse_family(ns.family))
    if ns.regime:
        return asym.RegimeSpec.from_tag(ns.regime, ns.rho)
    raise ValueError("provide --family or --regime (a regime is never guessed)")


# ----------------------------------------------------------------------
# subcommand handlers -> report dicts
# ----------------------------------------------------------------------

def _run_exact(ns) -> dict:
    params = _params_from(ns)
    window = exact.HeightInterval(ns.h1, ns.h2)
    count = exact.expected_facets(params, window)
    n_out = int(params.n) if params.n is not None else None
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "exact",
        "n": n_out,
        "ln_n": params.ln_n,
        "d": params.d,
        "window": [window.h1, window.h2],
        "facets": count.to_dict(),
        "rel_tol": quadrature.REL_TOL,
    }
    columns = ["n", "d", "h1", "h2", "ln_facets"]
    rows = [[n_out, params.d, window.h1, window.h2, count.log_abs]]
    if ns.cdf_points:
        law = exact.TypicalHeightLaw.for_params(params)
        _, heights, cdf = exact.cdf_table(law, ns.cdf_points)
        table_rows = [[float(h), float(c)] for h, c in zip(heights, cdf)]
        report["cdf_table"] = {"columns": ["height", "cdf"], "rows": table_rows}
        columns, rows = ["height", "cdf"], table_rows
    report["table"] = {"columns": columns, "rows": rows}
    return report


def _run_asym(ns) -> dict:
    params = _params_from(ns)
    spec = _regime_from(ns)
    count = asym.facet_count_asymptotic(spec, params)
    height = asym.typical_height_asymptotic(spec, params)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "asym",
        "n": int(params.n) if params.n is not None else None,
        "ln_n": params.ln_n,
        "d": params.d,
        "regime": spec.tag.value,
        "rho": spec.rho,
        "ln_facets": count.log_count,
        "dropped_order": count.dropped,
        "typical_height": {
            "center": height.center,
            "scale": height.scale,
            "law": height.law,
            "law_params": dict(height.law_params),
        },
        "facets_per_vertex_limit": asym.facets_per_vertex_limit(params.d).to_dict(),
    }
    try:
        report["concentration_height"] = asym.concentration_height(params)
    except ValueError:
        report["concentration_height"] = None
    try:
        h1, h2 = asym.height_window(params, ns.r1, ns.r2)
        report["height_window"] = {"h1": h1, "h2": h2, "r1": ns.r1, "r2": ns.r2}
    except ValueError:
        report["height_window"] = None
    haus = asym.hausdorff_asymptotic(spec, params)
    report["hausdorff"] = {
        "limit": haus.limit,
        "approx": haus.approx,
        "fixed_d_constant": haus.fixed_d_constant,
    }
    report["table"] = {
        "columns": ["regime", "ln_facets", "dropped_order", "height_center"],
        "rows": [[spec.tag.value, count.log_count, count.dropped, height.center]],
    }
    return report


def _run_mc(ns) -> dict:
    params = _params_from(ns)
    spec = montecarlo.EnsembleSpec(
        params,
        replicates=ns.replicates,
        seed=ns.seed,
        keep_records=bool(ns.dump_facets),
    )
    result = montecarlo.estimate(spec)
    if ns.dump_facets:
        montecarlo.write_facet_csv(ns.dump_facets, result.records_by_replicate)
    report = {"schema_version": SCHEMA_VERSION, "command": "mc"} | result.to_dict()
    cols = ["n", "d", "replicates", "mean_facets", "se_facets",
            "origin_inside_freq", "origin_inside_se"]
    report["table"] = {
        "columns": cols,
        "rows": [[report[c] for c in cols]],
    }
    return report


def _run_compare(ns) -> dict:
    params = _params_from(ns)
    exact_count = exact.expected_facets(params).to_float()
    spec = montecarlo.EnsembleSpec(params, replicates=ns.replicates, seed=ns.seed)
    result = montecarlo.estimate(spec)
    miss = asym.origin_outside_prob(int(params.n), params.d)
    rows = [
        [
            "facet_count",
            exact_count,
            result.mean_facets,
            result.se_facets,
            (result.mean_facets - exact_count) / result.se_facets
            if result.se_facets
            else math.nan,
            result.mean_facets / exact_count,
        ],
        [
            "origin_inside",
            1.0 - miss,
            result.origin_inside_freq,
            result.origin_inside_se,
            (result.origin_inside_freq - (1.0 - miss)) / result.origin_inside_se
            if result.origin_inside_se > 0
            else math.nan,
            result.origin_inside_freq / (1.0 - miss) if miss < 1.0 else math.nan,
        ],
    ]
    law = exact.TypicalHeightLaw.for_params(params)
    _, heights, cdf = exact.cdf_table(law)
    ks = montecarlo.ks_distance(result.pooled_heights, heights, cdf)
    rows.append(["pooled_height_ks", 0.0, ks, math.nan, math.nan, math.nan])
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "n": int(params.n),
        "d": params.d,
        "replicates": ns.replicates,
        "seed": ns.seed,
        "table": {
            "columns": ["quantity", "reference", "estimate", "se", "z", "ratio"],
            "rows": rows,
        },
    }
    if ns.regime or ns.family:
        spec_r = _regime_from(ns)
        a = asym.facet_count_asymptotic(spec_r, params)
        report["asymptotic_ln_facets"] = a.log_count
        report["exact_ln_facets"] = math.log(exact_count)
        rows.append(["ln_facets_asym_vs_exact", math.log(exact_count), a.log_count,
                     math.nan, math.nan, a.log_count / math.log(exact_count)])
    return report


def _run_scan(ns) -> dict:
    if ns.n_stop < ns.n_start:
        raise UsageError(f"argument --n-stop: must be >= --n-start ({ns.n_start}), "
                         f"got {ns.n_stop}")
    window = exact.HeightInterval(ns.h1, ns.h2)
    spec = _regime_from(ns) if ns.regime or ns.family else None
    rows = []
    for n in range(ns.n_start, ns.n_stop + 1, ns.n_step):
        params = exact.PolytopeParams(n, ns.d)
        count = exact.expected_facets(params, window)
        row = [n, ns.d, count.log_abs, count.to_float()]
        if spec is not None:
            row.append(asym.facet_count_asymptotic(spec, params).log_count)
        rows.append(row)
    columns = ["n", "d", "ln_F_exact", "F_exact"]
    if spec is not None:
        columns.append("ln_F_asym")
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "d": ns.d,
        "window": [ns.h1, ns.h2],
        "table": {"columns": columns, "rows": rows},
    }


def _run_verify(ns) -> dict:
    grids = random_bounds_grid(ns.points, ns.seed)
    bounds = check_bounds_suite(**grids)
    rows = [
        ["inequality_suites", bounds.checked, len(bounds.violations)],
    ]
    failures = len(bounds.violations)

    oracles = [
        *((exact.PolytopeParams(n, 2), n) for n in range(3, 21)),
        *((exact.PolytopeParams(d + 1, d), d + 1) for d in range(2, 11)),
        *((exact.PolytopeParams(n, 3), 2 * n - 4) for n in range(5, 21)),
    ]
    oracle_bad = sum(
        abs(exact.expected_facets(params).to_float() - want) > 1e-6 * want
        for params, want in oracles
    )
    rows.append(["facet_count_oracles", len(oracles), oracle_bad])
    failures += oracle_bad

    const_bad = 0
    const_bad += abs(asym.facets_per_vertex_limit(2).to_float() - 1.0) > 1e-12
    const_bad += abs(asym.facets_per_vertex_limit(3).to_float() - 2.0) > 1e-12
    for d in range(1, 21):
        const_bad += abs(asym.origin_outside_prob(2 * d, d) - 0.5) > 1e-12
    rows.append(["constants", 22, const_bad])
    failures += const_bad

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "points": ns.points,
        "seed": ns.seed,
        "failures": int(failures),
        "table": {"columns": ["suite", "checked", "violations"], "rows": rows},
    }
    return report


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------

def _sanitize(obj):
    if isinstance(obj, LogReal):
        return obj.to_dict()
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def emit(report: dict, fmt: str, path: str | None) -> None:
    """Serialize a report as human text, CSV (its table), or JSON."""
    report = _sanitize(report)
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        table = report.get("table")
        if table is None:
            raise ValueError("report has no tabular section for CSV output")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(table["columns"])
        writer.writerows(table["rows"])
        text = buf.getvalue()
    else:
        lines = [f"{k}: {v}" for k, v in report.items() if k != "table"]
        table = report.get("table")
        if table:
            lines.append("  ".join(str(c) for c in table["columns"]))
            for row in table["rows"]:
                lines.append("  ".join(str(v) for v in row))
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

class UsageError(Exception):
    """A usage error only a handler can see (it spans two flags); exit 2."""


def _integer(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi], unbounded above when hi is None."""
    domain = f">= {lo}" if hi is None else f"in [{lo}, {hi if hi < 10**9 else f'{hi:.0e}'}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be an integer {domain}, got {text!r}")
        return value

    return parse


def _finite(lo: float, hi: float = math.inf, *, above: bool = False):
    """argparse type: a finite float in [lo, hi], or in (lo, hi] when ``above``."""
    if hi < math.inf:
        domain = f"in [{lo:g}, {hi:g}]"
    else:
        domain = f"{'>' if above else '>='} {lo:g}"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        low_ok = value > lo if above else value >= lo
        if not (math.isfinite(value) and low_ok and value <= hi):
            raise argparse.ArgumentTypeError(f"must be a finite number {domain}, got {text!r}")
        return value

    return parse


_HEIGHT = _finite(-1.0, 1.0)
_DIMENSION = _integer(2, exact.MAX_DIMENSION)


def _add_common(p):
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=_integer(3), default=None, help="point count")
    size.add_argument("--ln-n", type=float, default=None, dest="ln_n",
                      help="natural log of the point count (for n beyond float range)")
    p.add_argument("--d", type=_DIMENSION, required=True, help="ambient dimension")


def _add_regime(p, family_help=None):
    regime = p.add_mutually_exclusive_group()
    regime.add_argument("--family", default=None, help=family_help)
    regime.add_argument("--regime", default=None, choices=[r.value for r in asym.Regime])
    p.add_argument("--rho", type=_finite(0.0), default=None)


def _add_census(p):
    p.add_argument("--replicates", type=_integer(1, 1_000_000), default=1000)
    p.add_argument("--seed", type=_integer(0), default=0)


def _add_output(p):
    p.add_argument("--format", choices=("human", "csv", "json"), default="human")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherefacets",
        description="Facet counts and facet-height laws of spherical random polytopes",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("exact", help="quadrature-exact facet count and height CDF")
    _add_common(p)
    p.add_argument("--h1", type=_HEIGHT, default=-1.0)
    p.add_argument("--h2", type=_HEIGHT, default=1.0)
    p.add_argument("--cdf-points", type=_integer(0, 20_000), default=0,
                   help="emit the N rows of the typical-height CDF table cdf_table(law, N), "
                        "from h = -1 to h = 1 (N = 1: the h = 1 row only)")
    _add_output(p)

    p = sub.add_parser("asym", help="regime asymptotics (regime must be supplied)")
    _add_common(p)
    _add_regime(p, "growth family, e.g. 'n-d=0.5*d', 'ln(n)=2*d', 'd=3'")
    p.add_argument("--r1", type=_finite(0.0, above=True), default=10.0)
    p.add_argument("--r2", type=_finite(0.0, above=True), default=0.1)
    _add_output(p)

    p = sub.add_parser("mc", help="Monte Carlo facet census")
    _add_common(p)
    _add_census(p)
    p.add_argument("--dump-facets", default=None, dest="dump_facets",
                   help="write per-facet records to this CSV path")
    _add_output(p)

    p = sub.add_parser("compare", help="exact vs Monte Carlo (vs asymptotics)")
    _add_common(p)
    _add_census(p)
    _add_regime(p)
    _add_output(p)

    p = sub.add_parser("scan", help="sweep n at fixed d, emit a table")
    p.add_argument("--d", type=_DIMENSION, required=True)
    p.add_argument("--n-start", type=_integer(3), required=True, dest="n_start")
    p.add_argument("--n-stop", type=_integer(3), required=True, dest="n_stop")
    p.add_argument("--n-step", type=_integer(1), default=1, dest="n_step")
    p.add_argument("--h1", type=_HEIGHT, default=-1.0)
    p.add_argument("--h2", type=_HEIGHT, default=1.0)
    _add_regime(p)
    _add_output(p)

    p = sub.add_parser("verify", help="run the inequality and oracle suites")
    p.add_argument("--points", type=_integer(1, 200_000), default=2000)
    p.add_argument("--seed", type=_integer(0), default=0)
    _add_output(p)

    return parser


_HANDLERS = {
    "exact": _run_exact,
    "asym": _run_asym,
    "mc": _run_mc,
    "compare": _run_compare,
    "scan": _run_scan,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        report = _HANDLERS[ns.subcommand](ns)
        emit(report, ns.format, ns.out)
    except UsageError as err:
        parser.error(str(err))
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"spherefacets: error: {err}", file=sys.stderr)
        return 1
    if ns.subcommand == "verify" and report["failures"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
