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
    classify,
    expected_facets,
    facet_count_asymptotic,
    parse_family,
)
from spherefacets.cli import main


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


class TestEmission:
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
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_n_beyond_float_range_exits_one_naming_ln_n(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--n", "1" + "0" * 400, "--d", "3")
        assert code == 1
        assert "n is too large for a float; give ln_n instead" in err

    def test_infinite_ln_n_exits_one_naming_it(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--ln-n", "inf", "--d", "3")
        assert code == 1
        assert "ln_n must be finite" in err

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
