"""Dispatch, exit codes, determinism and round-trips of the CLI."""

import argparse
import json
import re
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from funcfield import analytic, cli, elliptic, textio
from funcfield.cli import dispatch, main
from funcfield.elliptic import generator_point, on_curve
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
    report = dispatch(["frobenius", "--f", "z", "--p", "1009"])
    assert report.exit_code == 0
    assert report.outputs["components"] == ["0", "1"] + ["0"] * 1007


def test_frobenius_refuses_a_large_p_at_once():
    start = time.perf_counter()
    report = dispatch(["frobenius", "--f", "z", "--p", "1000000000039"])
    assert time.perf_counter() - start < 1.0
    assert report.exit_code == 1
    assert report.outputs["required"] == 1000000000039 + 1


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


def test_slice_refuses_beta_with_beta_max(monkeypatch):
    """Both flags are an input error, refused before the system is read."""
    monkeypatch.setattr(cli, "_load_system", None)
    report = dispatch(["slice", "--system", SQUARE_SYSTEM, "--alpha", "2",
                       "--beta", "1", "--beta-max", "3"])
    assert report.exit_code == 2 and not report.ok
    assert report.outputs == {
        "error": "slice takes --beta or --beta-max, not both (at position 0)"}


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


@pytest.mark.parametrize("terms,beta", [
    ([([-1, 0], "1"), ([0, 1], "1")], 0),
    ([([1, 0], "1"), ([0, -1], "z")], 1),
])
def test_negative_exponents_exit_2(terms, beta):
    """A negative exponent in either block is an input error, not a power
    looked up from the end of the slicer's power cache."""
    system = json.dumps({"p": 2, "n": 1, "m": 1, "polys": [[
        {"exponents": e, "coeff": c} for e, c in terms]]})
    report = dispatch(["slice", "--system", system,
                       "--alpha", "1", "--beta", str(beta)])
    assert report.exit_code == 2
    assert "negative" in report.outputs["error"]


def _system(**changes):
    """The x = y^2 system over F_2 as JSON, with top-level keys or the
    first term's keys replaced."""
    term = {"exponents": [1, 0], "coeff": "1"}
    term.update((k, v) for k, v in changes.items() if k in term)
    system = {"p": 2, "n": 1, "m": 1,
              "polys": [[term, {"exponents": [0, 2], "coeff": "1"}]]}
    system.update((k, v) for k, v in changes.items() if k in system)
    return json.dumps(system)


@pytest.mark.parametrize("system", [
    _system(polys=5), _system(polys=[5]), _system(polys=[[5]]),
    _system(exponents=3), _system(coeff=1), _system(p=2.9), _system(n=1.5),
    _system(m=True), _system(exponents=[2.9, 0]), _system(p="2"), "[1, 2]",
], ids=["polys", "equation", "term", "exponents", "coeff", "p", "n", "m",
        "exponent", "p-string", "system"])
def test_malformed_systems_exit_2(system, tmp_path):
    """A value of the wrong JSON type is an input error (exit 2), and a
    non-integral number is not truncated to an integer."""
    system_file = tmp_path / "system.json"
    system_file.write_text(system)
    report = dispatch(["slice", "--system", str(system_file),
                       "--alpha", "1", "--beta", "1"])
    assert report.exit_code == 2
    assert ": expected " in report.outputs["error"]


def test_budget_error_reports_required_count():
    report = dispatch(["slice", "--system", SQUARE_SYSTEM,
                       "--alpha", "2", "--beta", "1",
                       "--max-candidates", "3"])
    assert report.exit_code == 1
    assert report.outputs["required"] == 32


def test_a_power_over_the_budget_exits_1_at_once():
    start = time.perf_counter()
    report = dispatch(["deg", "--f", "(z+1)^200000"])
    assert time.perf_counter() - start < 1.0
    assert report.exit_code == 1
    assert report.outputs["required"] > textio.POWER_BUDGET


def test_eval_f_refuses_deep_points_at_once():
    start = time.perf_counter()
    report = dispatch(["eval-f", "--a", "22"])
    assert time.perf_counter() - start < 1.0
    assert report.exit_code == 1
    assert report.outputs["required"] == analytic.square_index(22) - 1
    # a 10^8-bit index
    start = time.perf_counter()
    report = dispatch(["eval-f", "--a", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert report.exit_code == 1
    assert report.outputs["required"] == "at least 2^99999999"
    # a 10^9-bit index is refused on its bit length, never built
    start = time.perf_counter()
    report = dispatch(["eval-f", "--a", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert report.exit_code == 1
    assert report.outputs["required"] == "at least 2^999999999"
    start = time.perf_counter()
    report = dispatch(["eval-f", "--lo", "0", "--hi", "10000"])
    assert time.perf_counter() - start < 1.0
    assert report.exit_code == 1
    assert report.outputs["required"] > analytic.TERM_BUDGET
    report = dispatch(["series-g", "--N", "1984"])
    assert report.exit_code == 1
    assert report.outputs["required"] == 1000 * 1003 // 2
    report = dispatch(["graph-points", "--count", "400"])
    assert report.exit_code == 1
    assert report.outputs["required"] == 400 * 399 // 2


@pytest.mark.parametrize("argv,count", [
    (["eval-f", "--a", "20000"], analytic.square_index(20000) - 1),
    (["slice", "--system", SQUARE_SYSTEM, "--alpha", "20000", "--beta", "1"],
     2 ** (20001 + 2)),  # p^((alpha + 1) n + (beta + 1) m)
], ids=["eval-f", "slice"])
def test_refusals_past_the_int_digit_limit(argv, count, capsys):
    """A count too long to print is reported as a power-of-two lower bound
    in text and JSON mode, with exit 1 rather than the digit-limit error."""
    report = dispatch(argv)
    assert report.exit_code == 1
    required = report.outputs["required"]
    assert required == f"at least 2^{count.bit_length() - 1}"
    assert f"needs {required} " in report.outputs["error"]
    assert main(argv) == 1
    assert capsys.readouterr().out.endswith(
        f"\nrequired: {required}\nresult: FAIL\n")
    assert main(["--json", *argv]) == 1
    assert json.loads(capsys.readouterr().out)["outputs"]["required"] == required


def test_text_output_renders_lists_and_the_result_line(capsys):
    assert main(["--stable", "series-g", "--N", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    coefficients = [str(c) for c in analytic.series_of_g(2).coefficients]
    assert lines == ["command: series-g", "  N = 2",
                     *(f"coefficients[{i}]: {json.dumps(c)}"
                       for i, c in enumerate(coefficients)),
                     "cutoff: 2"]
    assert main(["--stable", "verify-slicer"]) == 0
    assert capsys.readouterr().out.endswith("\nresult: PASS\n")


def test_eval_f_prints_values_past_the_int_digit_limit():
    # square index 171: the value's denominator has more than 4300 digits
    a = Fraction(21, 34)
    report = dispatch(["eval-f", "--a", str(a)])
    assert report.exit_code == 0
    value = analytic.eval_exact(a)
    assert len(str(Decimal(value.denominator))) > 4300
    # read back through Decimal, which the digit limit does not cover
    numerator, denominator = report.outputs["value"].split("/")
    assert Fraction(int(Decimal(numerator)), int(Decimal(denominator))) == value


def test_json_stable_output_is_byte_deterministic():
    first = dispatch(["ec-fibers"]).to_json(stable=True)
    second = dispatch(["ec-fibers"]).to_json(stable=True)
    assert first == second
    assert "timing" not in first
    unstable = dispatch(["ec-fibers"])
    assert unstable.timing_ms is not None


def test_timing_has_sub_millisecond_resolution():
    # a command well under a millisecond still reports a positive time
    report = dispatch(["deg", "--f", "z"])
    assert isinstance(report.timing_ms, float) and report.timing_ms > 0
    assert json.loads(report.to_json(stable=False))["timing_ms"] \
        == report.timing_ms
    assert "timing_ms" not in report.to_json(stable=True)


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


def test_requests_share_the_one_parser(capsys, monkeypatch):
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["--json", "--stable", "deg", "--f", "z"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["degree"] == 1
    # --json from the previous request must not leak into this one
    assert main(["deg", "--f", "z"]) == 0
    assert capsys.readouterr().out.startswith("command: deg\n")
    report = dispatch(["zero-set", "--p", "5", "--poly", "z", "--poly", "z+1"])
    assert report.inputs["polys"] == ["z", "z + 1"]
    # the append default is not shared between requests
    report = dispatch(["zero-set", "--p", "5", "--poly", "z+2"])
    assert report.inputs["polys"] == ["z + 2"]
    assert report.outputs["roots"] == ["3"]
    assert constructed == []


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


# -- golden outputs -----------------------------------------------------------
#
# cli_golden.json holds the recorded `--json --stable` output of main() for
# at least one invocation of every subcommand, error exits included; the
# output must stay byte-identical unless the CLI's contract changes.

GOLDEN = json.loads(
    Path(__file__).with_name("cli_golden.json").read_text("utf-8"))


def registered_commands():
    parser = cli.build_parser()
    [subparsers] = [action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)]
    return set(subparsers.choices)


def test_golden_cases_cover_every_command():
    assert {case["argv"][0] for case in GOLDEN} == registered_commands()
    assert len(registered_commands()) == 26
    assert {case["exit_code"] for case in GOLDEN} == {0, 1, 2}


@pytest.mark.parametrize("case", GOLDEN, ids=[
    f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(GOLDEN)])
def test_golden_output_is_byte_identical(case, capsys):
    assert main(["--json", "--stable", *case["argv"]]) == case["exit_code"]
    captured = capsys.readouterr()
    printed = {"stdout": captured.out, "stderr": captured.err}
    assert printed.pop(case["stream"]) == case["text"]
    assert printed.popitem()[1] == ""


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name in registered_commands():
        assert re.search(rf"^\s+{re.escape(name)}\s", out, re.M), name


def test_ec_height_checks_only_the_base_point(monkeypatch):
    calls = []

    def counting_on_curve(curve, point):
        calls.append(point)
        return on_curve(curve, point)

    monkeypatch.setattr(elliptic, "on_curve", counting_on_curve)
    report = dispatch(["ec-height", "--n", "5"])
    assert report.exit_code == 0
    assert report.outputs["height"] == 12
    assert calls == [generator_point()]
