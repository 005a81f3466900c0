"""Every workload check can fail, and a failure is counted in error_rate.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spherefacets as sf  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

P = sf.PolytopeParams


def _tally(groups, tracer=None, workload=None):
    tally = run.Tally()
    run.run_cycle(groups, tracer or NullTracer(), tally, iter(range(1000)))
    if workload is not None:
        tally.failed += workload.finish()
    return tally


def test_closed_form_passes_and_wrong_oracle_fails():
    assert _tally([wl.closed_form_group(P(20, 3), 36.0)]).failed == 0
    tally = _tally([wl.closed_form_group(P(20, 3), 36.0 * (1 + 1e-8))])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_additivity_catches_a_wrong_part():
    group = wl.split_group(P(12, 4), 0.5)
    assert _tally([group]).failed == 0
    real = group.ops[0].call
    group.ops[0].call = lambda res: real(res) * 1.000001
    assert _tally([group]).failed == 3


def test_census_wrong_oracle_counts_in_error_rate():
    census = wl.Census(seed=1)
    oracle = {(n, d): (sf.expected_facets(P(n, d)).to_float(),
                       1.0 - sf.origin_outside_prob(n, d)) for n, d, _, _ in wl.SHAPES}
    census.prepare(oracle)
    assert _tally(next(census.cycles()), workload=census).failed == 0

    census = wl.Census(seed=1)
    oracle[(4, 2)] = (4.5, oracle[(4, 2)][1])  # a polygon on 4 points has 4 edges
    census.prepare(oracle)
    tally = _tally(next(census.cycles()), workload=census)
    assert (tally.attempted, tally.failed) == (5, 2)


def test_census_state_carries_the_pool_to_the_next_worker():
    oracle = {(n, d): (sf.expected_facets(P(n, d)).to_float(),
                       1.0 - sf.origin_outside_prob(n, d)) for n, d, _, _ in wl.SHAPES}
    first = wl.Census(seed=1)
    first.prepare(oracle)
    _tally(next(first.cycles()))
    state = json.loads(json.dumps(first.state()))
    second = wl.Census(seed=2)
    second.prepare(oracle)
    second.resume(state)
    assert second.calls == first.calls
    assert second.state() == first.state()
    second._group(wl.SHAPES[0])  # the next call on the shape goes on along its stream
    assert second.calls[wl.SHAPES[0]] == first.calls[wl.SHAPES[0]] + 1


def _law_group(quantile=None):
    label, params, _, _, lo, hi = wl.LAWS[1]
    heights = [lo + (hi - lo) * k / 5 for k in range(6)]
    return wl.law_group(params, heights, [1.0, 4.0, 16.0], 0.5, [0.2, 0.5, 0.8],
                        check_table=True, quantile=quantile)


def test_broken_round_trip_counts_in_error_rate():
    assert _tally([_law_group()]).failed == 0
    shifted = lambda law, p: sf.typical_height_quantile(law, p) + 1e-3
    tally = _tally([_law_group(shifted)])
    assert (tally.attempted, tally.failed) == (12, 1)


def test_nonmonotone_cdf_fails():
    assert not wl._monotone([0.1, 0.3, 0.2])
    assert not wl._monotone([0.1, 1.5])
    assert wl._monotone([0.1, 0.1 - 1e-12, 0.4])


def test_nonzero_cli_exit_counts_in_error_rate():
    cli = wl.Cli(seed=1, tracer=Tracer(), root=ROOT)
    ok = cli.group("asym", ["asym", "--regime", "linear", "--rho", "1", "--d", "500",
                            "--n", "1000", "--format", "json"], lambda rep: True)
    assert _tally([ok]).failed == 0
    assert 10.0 < cli.peak_rss_mb() < 2000.0  # the command's own peak RSS
    bad = cli.group("exact", ["exact", "--n", "3", "--d", "5", "--format", "json"],
                    lambda rep: True)
    tally = _tally([bad])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_cli_output_must_match_the_library():
    cli = wl.Cli(seed=1, root=ROOT)
    argv = ["exact", "--n", "20", "--d", "3", "--format", "json"]
    want = sf.expected_facets(P(20, 3)).ln()
    assert _tally([cli.group("exact", argv, lambda rep: wl._close(rep["facets"]["ln_abs"], want))]).failed == 0
    wrong = math.log(37.0)
    tally = _tally([cli.group("exact", argv, lambda rep: wl._close(rep["facets"]["ln_abs"], wrong))])
    assert tally.failed == 1


def test_percentile_and_self_time():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90 and run.beyond(values, 90) == 10
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    self_times = tracer.self_times()
    parent, child = tracer.spans
    assert math.isclose(self_times[0], (parent[3] - parent[2]) - (child[3] - child[2]))


def test_panel_count_from_evaluations():
    ladder = [0.0, 0.5, 0.5, 1.0]  # two nonempty cells
    assert layers._panel_count(2 * 15, ladder, 15) == 2
    assert layers._panel_count(2 * 15 + 3 * 30, ladder, 15) == 5  # three splits
    with pytest.raises(RuntimeError):
        layers._panel_count(2 * 15 + 15, ladder, 15)


def test_times_are_reported_in_reference_units_of_their_own_process():
    class Fixed(wl.Workload):
        tail_pct = 90.0

    slow, fast = run.Tally(), run.Tally()
    slow.latencies_ms, slow.reference_ms = [2.0 * k for k in range(1, 51)], [0.9, 1.0, 1.1]
    fast.latencies_ms, fast.reference_ms = [float(k) for k in range(51, 101)], [0.5]
    slow.units, slow.busy_s, fast.units, fast.busy_s = 50, 2.55, 50, 3.775
    fast.peak_rss_mb = 40.0
    metrics = run.end_to_end(Fixed(), [slow, fast], [0.3, 0.2, 0.4])
    assert metrics["setup_s"][:2] == (0.3, "s")
    assert metrics["op_ref.p50"][:2] == (101.0, "ref")  # between 100 / 1.0 and 51 / 0.5
    assert metrics["op_ref.tail"][:2] == (180.0, "ref")  # 90 / 0.5
    assert metrics["throughput"][1] == "1/ref"
    assert math.isclose(metrics["throughput"][0], 100 / (2550.0 / 1.0 + 3775.0 / 0.5))
    assert metrics["peak_rss_mb"][:2] == (40.0, "MB")

    tally = run.Tally()
    tally.run_reference()
    assert len(tally.reference_ms) == 1  # a first sample, whatever the operations took
    tally.busy_s = 1.0
    tally.run_reference()
    assert tally.reference_s >= run.REFERENCE_SHARE * tally.busy_s
    assert run.Tally.from_json(json.loads(json.dumps(tally.to_json()))).to_json() == tally.to_json()
