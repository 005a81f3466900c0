"""The command-line surface: thin-adapter fidelity, formats, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import spherefacets
from spherefacets import (
    PolytopeParams,
    exact,
    classify,
    expected_facets,
    facet_count_asymptotic,
    parse_family,
)
from spherefacets import cli
from spherefacets.cli import emit, main
from spherefacets.numerics import BoundsReport, Violation


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExact:
    def test_euler_value(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "20", "--d", "3",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["facets"]["linear"] == pytest.approx(36.0, abs=1e-4)

    def test_matches_direct_module_call(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "31", "--d", "4",
                               "--format", "json")
        report = json.loads(out)
        direct = expected_facets(PolytopeParams(31, 4))
        assert report["facets"]["ln_abs"] == direct.ln()  # byte-identical value

    def test_cdf_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "12", "--d", "3",
                               "--cdf-points", "50", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["height", "cdf"]
        cdf_vals = [float(r[1]) for r in rows[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(cdf_vals, cdf_vals[1:]))

    @pytest.mark.parametrize("n, d", [(50, 4), (405, 400)])
    @pytest.mark.parametrize("points", [2, 7, 200, 2001])
    def test_cdf_points_rows_from_minus_one_to_one(self, capsys, n, d, points):
        code, out, _ = run_cli(capsys, "exact", "--n", str(n), "--d", str(d),
                               "--cdf-points", str(points), "--format", "json")
        assert code == 0
        rows = json.loads(out)["cdf_table"]["rows"]
        assert len(rows) == points
        assert rows[0] == [-1.0, 0.0] and rows[-1] == [1.0, 1.0]

    def test_ln_n_input(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--ln-n", "2000", "--d", "50",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert "linear" not in report["facets"]
        assert report["facets"]["ln_abs"] > 2000.0

    def test_zero_window_count_is_a_value(self, capsys):
        # ln F of the window lies below float range: the count is zero
        code, out, err = run_cli(capsys, "exact", "--ln-n", "2000", "--d", "50",
                                 "--h1", "-1", "--h2", "-0.5", "--format", "json")
        assert code == 0, err
        report = json.loads(out)
        assert report["facets"]["sign"] == 0
        assert report["table"]["rows"][0][-1] == "-inf"

    def test_zero_full_range_count_exits_one_naming_its_inputs(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--ln-n", "2.2471164185778946e307",
                                 "--d", "4", "--format", "json")
        assert code == 1
        assert out == ""
        assert "ln n = 2.2471164185778946e+307, d = 4" in err
        assert "came back zero" in err

    def test_count_below_d_plus_one_exits_one_naming_ln_n(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--ln-n", "1e140", "--d", str(10**20))
        assert code == 1
        assert out == ""
        assert f"ln n = 1e+140, d = {10**20} gives ln F = 0.0" in err

    def test_lost_continued_fraction_exits_one_naming_a(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--ln-n", "45", "--d", str(10**19))
        assert code == 1
        assert out == ""
        assert "continued fraction is not positive" in err and "a=5e+18" in err
        assert f"height integral at ln n = 45.0, d = {10**19} over the gaps" in err


class TestAsym:
    def test_linear_regime_values(self, capsys):
        code, out, _ = run_cli(capsys, "asym", "--regime", "linear", "--rho", "1",
                               "--d", "500", "--n", "1000", "--format", "json")
        assert code == 0
        report = json.loads(out)
        from spherefacets import count_rate, rate_argmax
        want = 500 * count_rate(1.0, rate_argmax(1.0))
        assert report["ln_facets"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("rho", ["1e-100", "1e20", "1e250"])
    def test_linear_regime_at_extreme_rho(self, capsys, rho):
        code, out, _ = run_cli(capsys, "asym", "--regime", "linear", "--rho", rho,
                               "--d", "500", "--n", "1000", "--format", "json")
        assert code == 0
        assert json.loads(out)["ln_facets"] > 0.0

    def test_family_string(self, capsys):
        code, out, _ = run_cli(capsys, "asym", "--family", "d=3", "--n", "1000000",
                               "--d", "3", "--format", "json")
        report = json.loads(out)
        assert report["regime"] == "superfactorial"
        assert report["ln_facets"] == pytest.approx(math.log(2e6), rel=1e-9)

    def test_fixed_dimension_family_needs_an_integer(self, capsys):
        code, _, err = run_cli(capsys, "asym", "--family", "d=2.5", "--n", "1000", "--d", "3")
        assert code == 1
        assert "a fixed dimension must be an integer >= 2, got d=2.5" in err

    def test_regime_never_guessed(self, capsys):
        code, _, err = run_cli(capsys, "asym", "--n", "100", "--d", "10")
        assert code == 1
        assert "regime" in err


class TestMc:
    def test_deterministic_given_seed(self, capsys):
        args = ("mc", "--n", "10", "--d", "3", "--replicates", "40",
                "--seed", "7", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        report = json.loads(out1)
        assert report["mean_facets"] == pytest.approx(16.0)

    def test_facet_dump(self, capsys, tmp_path):
        path = tmp_path / "recs.csv"
        code, _, _ = run_cli(capsys, "mc", "--n", "8", "--d", "3",
                             "--replicates", "2", "--seed", "1",
                             "--dump-facets", str(path), "--format", "json")
        assert code == 0
        assert path.read_text().startswith("replicate,vertex_indices,height,normal")


class TestCompare:
    def test_three_way_table(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "10", "--d", "3",
                               "--replicates", "60", "--seed", "3",
                               "--regime", "superfactorial", "--format", "json")
        assert code == 0
        report = json.loads(out)
        rows = {r[0]: r for r in report["table"]["rows"]}
        assert rows["facet_count"][1] == pytest.approx(16.0, rel=1e-9)
        assert abs(rows["facet_count"][2] - 16.0) < 1e-9
        assert rows["pooled_height_ks"][2] < 0.2
        assert "asymptotic_ln_facets" in report

    def test_rows_follow_from_reference_estimate_and_se(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "12", "--d", "4", "--replicates", "50",
                               "--seed", "7", "--regime", "superfactorial", "--format", "json")
        assert code == 0
        for _, reference, estimate, se, z, ratio in json.loads(out)["table"]["rows"]:
            assert z == ((estimate - reference) / se if se is not None and se > 0 else None)
            assert ratio == (estimate / reference if reference > 0 else None)

    def test_one_replicate_has_no_z(self, capsys):
        # the facet count's se is nan at one replicate, the origin flag's 0
        _, out, _ = run_cli(capsys, "compare", "--n", "6", "--d", "2", "--replicates", "1",
                            "--seed", "3", "--format", "json")
        rows = json.loads(out)["table"]["rows"]
        assert [row[3] for row in rows] == [None, 0.0, None]
        assert [row[4] for row in rows] == [None, None, None]


@pytest.mark.parametrize("argv", [
    ["compare", "--n", "12", "--d", "4", "--replicates", "200", "--seed", "7"],
    ["exact", "--n", "50", "--d", "4", "--cdf-points", "200"],
], ids=["compare", "exact cdf points"])
def test_count_and_table_share_one_full_range_integral(capsys, monkeypatch, argv):
    # the count and the CDF table both read one law, built once
    windows = []
    engine = exact._integrated_segment

    def counted(f_u, window):
        windows.append(window)
        return engine(f_u, window)

    monkeypatch.setattr(exact, "_integrated_segment", counted)
    code, _, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert windows == [exact.FULL_RANGE]


class TestScan:
    def test_euler_column(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--d", "3", "--n-start", "10",
                               "--n-stop", "100", "--n-step", "10",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "d", "ln_F_exact", "F_exact"]
        for row in rows[1:]:
            n, f = int(row[0]), float(row[3])
            assert f == pytest.approx(2 * n - 4, rel=1e-5)

    def test_zero_window_count_is_a_value(self, capsys):
        n = str(int(1e308))  # ln(n - d) + ln(-ln G) overflows exp below h = -0.5
        code, out, err = run_cli(capsys, "scan", "--d", "3", "--n-start", n, "--n-stop", n,
                                 "--h1", "-1", "--h2", "-0.5", "--format", "csv")
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][1:] == ["3", "-inf", "0.0"]

    def test_deterministic(self, capsys):
        args = ("scan", "--d", "4", "--n-start", "8", "--n-stop", "16",
                "--n-step", "4", "--format", "csv")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


    def test_asymptotic_column(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--d", "4", "--n-start", "10",
                               "--n-stop", "40", "--n-step", "10", "--family", "n=d^2",
                               "--format", "json")
        assert code == 0
        table = json.loads(out)["table"]
        assert table["columns"] == ["n", "d", "ln_F_exact", "F_exact", "ln_F_asym"]
        spec = classify(parse_family("n=d^2"))
        assert [row[0] for row in table["rows"]] == [10, 20, 30, 40]
        for row in table["rows"]:
            want = facet_count_asymptotic(spec, PolytopeParams(row[0], 4)).log_count
            assert row[4] == want  # byte-identical value


class TestVerify:
    def test_clean_build_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--points", "400", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == 0

    def test_a_violated_inequality_exits_one(self, capsys, monkeypatch):
        violated = BoundsReport(checked=1, violations=[
            Violation("exp_sandwich", (0.5, 2.0), "above exp(-x)", 1.0)])
        monkeypatch.setattr(cli, "check_bounds_suite", lambda **points: violated)
        code, out, _ = run_cli(capsys, "verify", "--points", "10", "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["failures"] == 1
        assert report["table"]["rows"][0] == ["inequality_suites", 1, 1]


class TestHumanFormat:
    """The default format: the header, the report's fields, then the table."""

    def test_exact(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "20", "--d", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["schema_version: 1", "command: exact"]
        assert "rel_tol: 1e-09" in lines
        ln_f = expected_facets(PolytopeParams(20, 3)).ln()
        assert lines[-2:] == ["n  d  h1  h2  ln_facets", f"20  3  -1.0  1.0  {ln_f}"]

    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--points", "50")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["schema_version: 1", "command: verify"]
        assert lines[2:5] == ["points: 50", "seed: 0", "failures: 0"]
        assert lines[5] == "suite  checked  violations"
        suites = [line.split("  ") for line in lines[6:]]
        assert [row[0] for row in suites] == ["inequality_suites", "facet_count_oracles", "constants"]
        assert [row[1:] for row in suites[1:]] == [["43", "0"], ["22", "0"]]
        assert suites[0][2] == "0"


class TestEmission:
    def test_csv_needs_a_table(self):
        # every command's report has one; a report without one cannot be CSV
        with pytest.raises(ValueError, match="report has no tabular section for CSV output"):
            emit({"command": "exact"}, "csv", None)

    def test_json_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "exact", "--n", "9", "--d", "3",
                            "--format", "json")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        assert report["schema_version"] == 1
        assert report["rel_tol"] == 1e-9  # the quadrature's fixed target

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "exact", "--n", "9", "--d", "3",
                               "--format", "json", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["command"] == "exact"

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--n", "9"])  # missing --d
        assert exc.value.code == 2

    def test_negative_cdf_points_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--n", "9", "--d", "3", "--cdf-points", "-5"])
        assert exc.value.code == 2
        assert "--cdf-points" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["exact", "--n", "20", "--ln-n", "5", "--d", "3"],
        ["mc", "--n", "12", "--ln-n", "5", "--d", "4"],
    ])
    def test_n_and_ln_n_together_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_missing_point_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--d", "3"])
        assert exc.value.code == 2
        assert "--n --ln-n" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_n_step_below_one_is_a_usage_error(self, capsys, step):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--d", "3", "--n-start", "5", "--n-stop", "9", "--n-step", step])
        assert exc.value.code == 2
        assert "--n-step" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["mc", "--n", "6", "--d", "2", "--seed", "-1"], "--seed"),
        (["compare", "--n", "6", "--d", "2", "--seed", "-1"], "--seed"),
        (["verify", "--seed", "-1"], "--seed"),
        (["mc", "--n", "6", "--d", "2", "--replicates", "0"], "--replicates"),
        (["mc", "--n", "6", "--d", "2", "--replicates", "-2"], "--replicates"),
        (["compare", "--n", "6", "--d", "2", "--replicates", str(2**32)], "--replicates"),
        (["verify", "--points", "-3"], "--points"),
        (["verify", "--points", "0"], "--points"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_out_of_range_census_and_verify_flags_are_usage_errors(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        name = flag[2:]
        err = capsys.readouterr().err
        assert f"argument {flag}: {name} must be an integer in" in err
        assert f"got {name}={argv[-1]}" in err

    def test_n_beyond_float_range_exits_one_naming_ln_n(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--n", "1" + "0" * 400, "--d", "3")
        assert code == 1
        assert "n is too large for a float; give ln_n instead" in err

    def test_infinite_ln_n_exits_one_naming_it(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--ln-n", "inf", "--d", "3")
        assert code == 1
        assert "ln_n must be a real number in (-inf, inf), got ln_n=inf" in err

    def test_numeric_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--n", "3", "--d", "5")
        assert code == 1
        assert "error" in err


# Each subcommand with every numeric flag at an edge of its domain (the
# lower one, or 1 for --h2): a valid command.  A cap itself is not run,
# since it is sized to take seconds; the walk goes one above it instead.
_EDGES = {
    "exact": {"--n": "3", "--d": "2", "--h1": "-1", "--h2": "1", "--cdf-points": "0"},
    "asym": {"--n": "3", "--d": "2", "--regime": "superfactorial", "--rho": "0",
             "--r1": "5e-324", "--r2": "5e-324"},
    "mc": {"--n": "3", "--d": "2", "--replicates": "1", "--seed": "0"},
    "compare": {"--n": "3", "--d": "2", "--replicates": "1", "--seed": "0", "--rho": "0"},
    "scan": {"--d": "2", "--n-start": "3", "--n-stop": "3", "--n-step": "1",
             "--h1": "-1", "--h2": "1", "--rho": "0"},
    "verify": {"--points": "1", "--seed": "0"},
}
# Just outside each declared domain (its lower edge, an upper edge or cap);
# nan and inf are added to every flag.  --ln-n is a plain float whose domain
# the library owns (ln 3 < 1.1 for d = 2), so it is walked from inside too.
_OUTSIDE = {
    "--n": ["2"], "--d": ["1", str(10**154 + 1)], "--n-start": ["2"], "--n-stop": ["2"],
    "--n-step": ["0"],
    "--seed": ["-1"], "--replicates": ["0", str(2**32), "1000001"], "--points": ["0", "200001"],
    "--cdf-points": ["-1", "20001"], "--rho": ["-5e-324"], "--r1": ["0"], "--r2": ["0"],
    "--h1": ["-1.0000000000000002", "1.0000000000000002"],
    "--h2": ["-1.0000000000000002", "1.0000000000000002"],
    "--ln-n": ["1.1", "1.0"],
}


def _argv(sub, flags):
    return [sub, *(token for item in flags.items() for token in item), "--format", "json"]


def _domain_cases():
    for sub, edges in _EDGES.items():
        numeric = [flag for flag in edges if flag in _OUTSIDE]
        for flag in numeric + (["--ln-n"] if "--n" in edges else []):
            shape = {k: v for k, v in edges.items() if not (flag == "--ln-n" and k == "--n")}
            for value in [*_OUTSIDE[flag], "nan", "inf"]:
                argv = _argv(sub, {**shape, flag: value})
                yield pytest.param(argv, flag, id=f"{sub} {flag} {value}")


class TestFlagDomains:
    @pytest.mark.parametrize("sub", _EDGES)
    def test_edges_are_a_valid_command(self, capsys, sub):
        code, _, err = run_cli(capsys, *_argv(sub, _EDGES[sub]))
        assert code == 0, err

    @pytest.mark.parametrize("argv, flag", _domain_cases())
    def test_every_numeric_flag_at_its_edges(self, capsys, argv, flag):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if flag != "--ln-n":
            assert code == 2
        if code == 2:
            assert f"argument {flag}: " in err
        assert "Traceback" not in err

    def test_empty_scan_range_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--d", "3", "--n-start", "50", "--n-stop", "10"])
        assert exc.value.code == 2
        assert "argument --n-stop: must be >= --n-start (50), got 10" in capsys.readouterr().err

    def test_family_and_regime_together_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["asym", "--n", "10", "--d", "3", "--family", "d=3", "--regime", "linear"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_height_window_reports_each_edge_with_its_gap(self, capsys):
        # at d = 3, ln n = 80 both heights round to 1.0; the gaps do not
        code, out, _ = run_cli(capsys, "asym", "--family", "d=3", "--ln-n", "80",
                               "--d", "3", "--format", "json")
        assert code == 0
        window = spherefacets.height_window(PolytopeParams.from_log(80.0, 3))
        assert json.loads(out)["height_window"] == {
            "h1": 1.0, "h2": 1.0, "gap1": window.gap1, "gap2": window.gap2, "r1": 10.0, "r2": 0.1,
        }
        assert 0.0 < window.gap2 < window.gap1 < 1e-15

    def test_missing_height_window_is_still_reported(self, capsys):
        code, out, _ = run_cli(capsys, "asym", "--n", "10", "--d", "5",
                               "--regime", "superfactorial", "--format", "json")
        assert code == 0
        assert json.loads(out)["height_window"] is None


def test_import_leaves_optional_modules_unloaded():
    """Importing the CLI must not pull in numpy.random, mpmath or scipy."""
    src = os.path.dirname(os.path.dirname(spherefacets.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = (
        "import sys, spherefacets.cli; "
        "print([m for m in sys.modules if m.startswith(('numpy.random', 'mpmath', 'scipy'))])"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


# each real flag refuses NaN, the infinities its interval excludes and a value
# outside it as a usage error naming the flag, the input and its value
_REAL_FLAG_ROWS = [
    *(([*shape, f"{flag}={text}"], 2,
       f"argument {flag}: {name} must be a real number in {interval}, got {name}={text}")
      for shape, flag, name, interval in (
          (["exact", "--n", "20", "--d", "3"], "--h1", "h", "[-1.0, 1.0]"),
          (["scan", "--d", "3", "--n-start", "5", "--n-stop", "9"], "--h2", "h", "[-1.0, 1.0]"),
          (["asym", "--n", "1000", "--d", "3", "--regime", "linear"], "--r1", "r1", "(0.0, inf)"),
          (["asym", "--n", "1000", "--d", "3", "--regime", "linear"], "--r2", "r2", "(0.0, inf)"),
          (["asym", "--n", "1000", "--d", "3", "--regime", "linear"], "--rho", "rho", "[0.0, inf)"))
      for text in ("nan", "inf", "-inf", "-1.5")),
    (["exact", "--n", "abc", "--d", "3"], 2,
     "argument --n: n must be an integer in [3, inf], got n=abc"),
    (["scan", "--d", "1.5", "--n-start", "5", "--n-stop", "9"], 2,
     "argument --d: d must be an integer in [2, 1e+154], got d=1.5"),
    # --ln-n is the library's to judge: a refusal there exits 1
    (["exact", "--ln-n", "nan", "--d", "3"], 1,
     "ln_n must be a real number in (-inf, inf), got ln_n=nan"),
]


@pytest.mark.parametrize("argv, code, message", [
    (["exact", "--n", "20", "--d", "3", "--h1", "abc"], 2,
     "argument --h1: h must be a real number in [-1.0, 1.0], got h=abc"),
    (["exact", "--ln-n", "29.933606208921795", "--d", str(10**13)], 1,
     "ln_n=29.933606208921795 implies n - d < 1 for d=10000000000000"),
    *_REAL_FLAG_ROWS,
], ids=["height not a number", "ln n below d + 1",
        *(" ".join(argv) for argv, _, _ in _REAL_FLAG_ROWS)])
def test_input_checks_name_the_input(capsys, argv, code, message):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert message in err and "Traceback" not in err and "math domain error" not in err
