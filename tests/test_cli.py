"""Command-line interface: commands, exit codes, report determinism."""

import json
import math

import pytest

from rkwso.cli import main
from rkwso.tableau import parse_tableau


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_catalog_name(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "wso3-p2-s2-minus")
        assert code == 0
        doc = json.loads(out)
        assert doc["orders"]["q_wso"] == 3
        assert doc["orders"]["p_linear"] == 2
        assert doc["backend"] == "float"
        assert doc["tolerances"]["rank"] == 1e-9

    def test_file_input(self, tmp_path, capsys):
        f = tmp_path / "be.json"
        f.write_text('{"name":"be","A":[["1"]],"b":["1"]}')
        code, out, _ = run_cli(capsys, "analyze", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["orders"]["q_wso"] == 1
        assert doc["polynomials"]["Q"] == ["-1", "1"]

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"A":[["1","0"],["0"]],"b":["1","0"]}')
        code, _, err = run_cli(capsys, "analyze", str(f))
        assert code == 1
        assert "square" in err

    def test_missing_input_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "no-such-scheme")
        assert code == 1
        assert "no such file" in err

    def test_byte_stable_reports(self, capsys):
        _, out1, _ = run_cli(capsys, "analyze", "wso3-p3-s3-a0.5-minus")
        _, out2, _ = run_cli(capsys, "analyze", "wso3-p3-s3-a0.5-minus")
        assert out1 == out2


class TestBarriersAndStability:
    def test_barriers_command(self, capsys):
        code, out, _ = run_cli(capsys, "barriers", "gauss2")
        assert code == 0
        doc = json.loads(out)
        names = [e["name"] for e in doc["barriers"]["entries"]]
        assert "wso-order-stage-budget" in names

    def test_stability_command(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "backward-euler")
        assert code == 0
        doc = json.loads(out)
        assert doc["stability"]["order_vs_exp"] == 1
        assert doc["stability"]["routes_agree"] is True


class TestConstruct:
    def test_two_stage(self, capsys, tmp_path):
        out_file = tmp_path / "scheme.json"
        code, _, _ = run_cli(
            capsys, "construct", "wso3-p2-s2", "--sign", "minus", "--out", str(out_file)
        )
        assert code == 0
        t = parse_tableau(out_file.read_text())
        assert t.s == 2 and not t.exact

    def test_three_stage_analyzes_to_target(self, capsys, tmp_path):
        out_file = tmp_path / "scheme.json"
        code, _, _ = run_cli(
            capsys,
            "construct",
            "wso3-p3-s3",
            "--a",
            "0.5",
            "--sign",
            "minus",
            "--out",
            str(out_file),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "analyze", str(out_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["orders"]["q_wso"] == 3
        assert doc["orders"]["p_classical"] == 3

    def test_infeasible_generic_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "generic", "--targets", "2,3,3"
        )
        assert code == 3
        assert "dirk-wso-order-stage-budget" in err

    def test_bad_parameter_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "construct", "wso3-p3-s3", "--a", "1.0")
        assert code == 3

    def test_tie_parameter_builds(self, capsys):
        # a root of a33 = a11, 6 (1 - sqrt(2)/2) a (a - 1) = 3a - 2, is admissible
        code, out, _ = run_cli(
            capsys, "construct", "wso3-p3-s3", "--a", "0.5204654038062544", "--sign", "minus"
        )
        assert code == 0
        assert parse_tableau(out).s == 3

    def test_pole_parameter_exit_3(self, capsys):
        pole = 1 + 1 / math.sqrt(3)
        code, _, err = run_cli(capsys, "construct", "wso3-p3-s3", "--a", repr(pole))
        assert code == 3
        assert "is the degenerate parameter" in err


class TestConverge:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "converge",
            "backward-euler",
            "--regime",
            "classical",
            "--dts",
            "0.125,0.0625,0.03125,0.015625",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "scheme,regime,param,dt,error,fitted_order"
        assert len(lines) == 5
        assert lines[1].startswith("backward-euler,classical,")

    def test_semi_stiff_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "converge",
            "wso3-p2-s2-minus",
            "--regime",
            "semi-stiff",
            "--z",
            "-10",
        )
        assert code == 0
        fitted = float(out.strip().splitlines()[1].split(",")[5])
        assert fitted >= 1.8

    def test_negative_exponent_value(self, capsys):
        # the README line: argparse alone reads "-1e6" as an option
        line = "converge backward-euler --regime stiff --lambda -1e6 --phi cos --T 1"
        code, out, err = run_cli(capsys, *line.split())
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "scheme,regime,param,dt,error,fitted_order"
        param, fitted = (float(x) for x in lines[1].split(",")[2:6:3])
        assert param == -1e6
        assert abs(fitted - 1.0) <= 0.05


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        names = out.split()
        for expected in (
            "backward-euler",
            "implicit-midpoint",
            "trapezoidal",
            "gauss2",
            "sdirk2-wso1",
            "wso3-p2-s2-minus",
            "wso3-p2-s2-plus",
            "wso3-p3-s3-a0.5-minus",
        ):
            assert expected in names

    def test_show_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "show", "trapezoidal")
        assert code == 0
        t = parse_tableau(out)
        assert t.exact and t.s == 2

    def test_show_unknown_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "show", "nope")
        assert code == 1


class TestKcapPipeline:
    def test_capped_analysis_stays_consistent(self, capsys):
        code = main(["--kcap", "2", "analyze", "wso3-p2-s2-minus"])
        out = capsys.readouterr().out
        assert code == 0  # a user cap is not an internal inconsistency
        doc = json.loads(out)
        assert doc["orders"]["q_wso"] == 2
        assert doc["options"]["kcap"] == 2
        assert all(doc["consistency"].values())

    def test_infinite_wso_serializes(self, tmp_path, capsys):
        f = tmp_path / "ee.json"
        f.write_text('{"name":"explicit-euler","A":[["0"]],"b":["1"]}')
        code = main(["analyze", str(f)])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["orders"]["q_wso"] == "inf"
        assert doc["orders"]["q2_stage_quadrature"] == "inf"


class TestValueChecks:
    """Each bad value gives exit 1 and one line on stderr that names it."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--kcap=-1", "analyze", "gauss2"], "--kcap"),
            (["--tol-zero", "nan", "analyze", "gauss2"], "--tol-zero"),
            (["--tol-rank", "0", "analyze", "gauss2"], "--tol-rank"),
            (["converge", "backward-euler", "--regime", "classical", "--T=-1"], "--T"),
            (["construct", "generic", "--targets", "3,3"], "--targets"),
            (["construct", "generic", "--targets", "0,0,0"], "--targets"),
            (["construct", "wso3-p3-s3", "--a", "nan"], "--a"),
            (["construct", "wso3-p3-s3", "--a", "1e200"], "--a"),
        ],
    )
    def test_bad_value_exit_1(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and named in err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"name":"x","A":[],"b":[]}',
            '{"name":"big","A":[["1e200","0.0"],["0.5","1e200"]],"b":["0.5","0.5"]}',
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "stability", "barriers"])
    def test_bad_tableau_exit_1(self, tmp_path, capsys, doc, command):
        f = tmp_path / "bad.json"
        f.write_text(doc)
        code, out, err = run_cli(capsys, command, str(f))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("input error:")
