"""Dispatch, exit codes, determinism and round-trips of the CLI."""

import json
import time

import pytest

from funcfield import cli
from funcfield.cli import dispatch, main
from funcfield.textio import parse_ratfun


SQUARE_SYSTEM = json.dumps({
    "p": 2, "n": 1, "m": 1,
    "polys": [[{"exponents": [1, 0], "coeff": "1"},
               {"exponents": [0, 2], "coeff": "1"}]],
})


def test_deg_commands():
    report = dispatch(["deg", "--f", "z^3/(z-1)"])
    assert report.exit_code == 0
    assert report.outputs["degree"] == 3
    assert dispatch(["deg-star", "--f", "1/z"]).outputs["deg_star"] == -1


def test_val_command():
    report = dispatch(["val", "--f", "(z-1)^2/z", "--at", "inf"])
    assert report.outputs["valuation"] == -1
    report = dispatch(["val", "--f", "(z-1)^2/z", "--at", "1"])
    assert report.outputs["valuation"] == 2


def test_poles_round_trip():
    report = dispatch(["poles", "--f", "1/((z-1)^2*(z+2))"])
    assert report.outputs["geometric_degree"] == 3
    places = {item["place"]: item["mult"] for item in report.outputs["divisor"]}
    assert places == {"z + 2": 1, "z - 1": 2}
    for text in places:
        assert parse_ratfun(text).is_polynomial


def test_predicates():
    assert dispatch(["pn", "--f", "z^2", "--n", "1"]).outputs["member"]
    assert dispatch(["veps", "--f", "z^3/(z-1)", "--eps", "2/3"]).outputs["member"]
    report = dispatch(["campana", "--f", "1/(z-5)", "--S", "inf", "--l", "inf"])
    assert report.outputs["member"] is False
    assert report.exit_code == 0


def test_is_square_witness_reparses():
    report = dispatch(["is-square", "--f", "4*z^2/(z-1)^4",
                       "--semantics", "base-field"])
    assert report.outputs["square"]
    witness = parse_ratfun(report.outputs["witness"])
    assert witness ** 2 == parse_ratfun("4*z^2/(z-1)^4")


def test_hermite_and_derivative():
    report = dispatch(["hermite", "--g", "z/(z^2+1)^2"])
    assert parse_ratfun(report.outputs["h"]) == parse_ratfun("-1/(2*(z^2+1))")
    assert parse_ratfun(report.outputs["remainder"]).is_zero
    report = dispatch(["is-derivative", "--g", "1/(z-3)"])
    assert report.outputs["derivative"] is False


def test_frobenius_command():
    report = dispatch(["frobenius", "--f", "z^2", "--p", "2"])
    assert report.outputs["components"] == ["z", "0"]
    assert report.outputs["in_d"] is False


def test_ec_commands():
    report = dispatch(["ec-multiply", "--n", "2"])
    point = report.outputs["point"]
    assert parse_ratfun(point["x"]) == parse_ratfun("z^2/4")
    assert parse_ratfun(point["y"]) == parse_ratfun("-z^3/8 - 1")
    assert dispatch(["ec-height", "--n", "2"]).outputs["height"] == 2
    assert dispatch(["ec-hhat", "--k", "2"]).outputs["estimate"] == "1/2"
    report = dispatch(["ec-fibers"])
    types = sorted(fiber["type"] for fiber in report.outputs["fibers"])
    assert types == ["I1", "III*"]
    assert report.outputs["delta_degree_total"] == 12
    assert dispatch(["ec-rank"]).outputs["rank"] == 1
    growth = dispatch(["ec-growth", "--n-max", "3"]).outputs["growth"]
    assert growth[0] == {"n": 1, "degree": 0, "ratio": "0"}
    assert growth[1]["degree"] == 2


def test_ec_custom_curve():
    report = dispatch(["ec-fibers", "--A", "0", "--B", "1"])
    assert report.outputs["fibers"] == []
    report = dispatch(["ec-rank", "--A", "0", "--B", "1"])
    assert report.exit_code == 2  # not a rational elliptic surface
    assert "12" in report.outputs["error"]
    report = dispatch(["ec-hhat", "--k", "2", "--A", "0", "--B", "1",
                       "--x", "-1", "--y", "0"])
    assert report.exit_code == 2  # torsion base point
    assert "torsion" in report.outputs["error"]


def test_analytic_commands():
    assert dispatch(["eval-f", "--a", "1"]).outputs["value"] == "-1/4"
    report = dispatch(["eval-f", "--lo", "1", "--hi", "1", "--N", "4"])
    from fractions import Fraction
    assert Fraction(report.outputs["lo"]) <= Fraction(-1, 4) \
        <= Fraction(report.outputs["hi"])
    series = dispatch(["series-g", "--N", "8"]).outputs
    assert series["coefficients"][1] == "0"
    assert Fraction(series["coefficients"][2]) > 0
    points = dispatch(["graph-points", "--count", "2"]).outputs["points"]
    assert points == [["0", "0"], ["1", "-1/4"]]


def test_slice_commands(tmp_path):
    system_file = tmp_path / "system.json"
    system_file.write_text(SQUARE_SYSTEM)
    report = dispatch(["slice", "--system", str(system_file),
                       "--alpha", "2", "--beta", "1"])
    assert sorted(xs[0] for xs in report.outputs["projection"]) == \
        ["0", "1", "z^2", "z^2 + 1"]
    report = dispatch(["slice", "--system", SQUARE_SYSTEM,
                       "--alpha", "2", "--beta-max", "3"])
    assert report.outputs["stabilized_at"] == 1


def test_zero_set_command():
    report = dispatch(["zero-set", "--p", "2",
                       "--poly", "0", "--poly", "z^2+1"])
    assert report.outputs["roots"] == ["0", "1"]


def test_zero_set_command_at_large_p():
    # 5 is a non-residue mod 10^9 + 7, so z^2 - 5 adds no roots
    start = time.perf_counter()
    report = dispatch(["zero-set", "--p", "1000000007",
                       "--poly", "(z-5)*(z-77)*(z^2-5)"])
    assert time.perf_counter() - start < 1.0
    assert report.outputs["roots"] == ["5", "77"]


def test_zero_set_of_zero_above_the_budget_exits_1():
    start = time.perf_counter()
    report = dispatch(["zero-set", "--p", "2000003", "--poly", "0"])
    assert time.perf_counter() - start < 1.0
    assert report.exit_code == 1
    assert report.outputs["required"] == 2000003


def test_verify_commands_pass():
    report = dispatch(["verify-slicer"])
    assert report.ok and report.exit_code == 0
    assert all(check["pass"] for check in report.outputs["checks"])


def test_parse_error_reports_position_and_exit_2():
    report = dispatch(["deg", "--f", "z + q"])
    assert report.exit_code == 2
    assert "position 4" in report.outputs["error"]


def test_budget_error_reports_required_count():
    report = dispatch(["slice", "--system", SQUARE_SYSTEM,
                       "--alpha", "2", "--beta", "1",
                       "--max-candidates", "3"])
    assert report.exit_code == 1
    assert report.outputs["required"] == 32


def test_json_stable_output_is_byte_deterministic():
    first = dispatch(["ec-fibers"]).to_json(stable=True)
    second = dispatch(["ec-fibers"]).to_json(stable=True)
    assert first == second
    assert "timing" not in first
    unstable = dispatch(["ec-fibers"])
    assert unstable.timing_ms is not None


def test_main_prints_and_returns_exit_code(capsys):
    assert main(["--json", "--stable", "ec-rank"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["outputs"]["rank"] == 1
    assert "timing_ms" not in payload
    assert main(["campana", "--f", "z", "--S", "", "--l", "1"]) == 0
    capsys.readouterr()
    assert main(["deg", "--f", "q"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_builds_the_parser_once(capsys, monkeypatch):
    build = cli.build_parser
    calls = []

    def counting_build():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    assert main(["--json", "deg", "--f", "z^2/(z-1)"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["degree"] == 2
    assert len(calls) == 1
    assert dispatch(["deg", "--f", "z"]).outputs["degree"] == 1
    assert len(calls) == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
