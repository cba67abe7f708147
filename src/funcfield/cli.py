"""Command-line front end: one subcommand per library operation.

All values are read and printed in the exact text syntax ("3/4*z^2 - z + 1",
"(z^2+1)/(z-5)"); numbers are emitted as exact strings, never floats.
Output is plain text by default and JSON under --json; with --stable the
timing field is suppressed so identical invocations produce identical bytes.

Exit codes: 0 on success (and on verification pass), 1 on verification
failure or exceeded enumeration budget, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from math import inf
from typing import Optional

from . import analytic
from .definability import (BudgetError, DioSystem, enumerate_slice,
                           frobenius_decompose, hermite_reduce, is_derivative,
                           slice_union, zero_set)
from .divisors import (campana_member, divisor_to_json, geometric_degree,
                       pn_member, pole_divisor, veps_member)
from .elliptic import (Curve, ECPoint, bad_fibers, canonical_height_estimate,
                       degree_growth_report, delta_degree_total, ec_multiply,
                       mordell_weil_lattice, naive_height, shioda_tate_rank)
from .fields import PrimeField
from .textio import (ParseError, parse_point, parse_poly, parse_ratfun,
                     parse_rational)
from .verify import ALL_SUITES


@dataclass
class Report:
    command: str
    inputs: dict
    outputs: dict
    ok: Optional[bool] = None
    timing_ms: Optional[int] = None
    exit_code: int = 0

    def to_json(self, stable: bool) -> str:
        payload = {"command": self.command, "inputs": self.inputs,
                   "outputs": self.outputs}
        if self.ok is not None:
            payload["pass"] = self.ok
        if not stable and self.timing_ms is not None:
            payload["timing_ms"] = self.timing_ms
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self, stable: bool) -> str:
        lines = [f"command: {self.command}"]
        for key in sorted(self.inputs):
            lines.append(f"  {key} = {self.inputs[key]}")
        lines.extend(_render_value("", self.outputs))
        if self.ok is not None:
            lines.append("result: " + ("PASS" if self.ok else "FAIL"))
        if not stable and self.timing_ms is not None:
            lines.append(f"({self.timing_ms} ms)")
        return "\n".join(lines)


def _render_value(prefix: str, value) -> list:
    if isinstance(value, dict):
        lines = []
        for key in sorted(value):
            lines.extend(_render_value(f"{prefix}{key}.", value[key]))
        return lines
    if isinstance(value, list):
        label = prefix.rstrip(".")
        return [f"{label}[{i}]: {json.dumps(v, sort_keys=True)}"
                for i, v in enumerate(value)]
    return [f"{prefix.rstrip('.')}: {value}"]


def _curve_from_args(args) -> Curve:
    a = parse_ratfun(args.A)
    b = parse_ratfun(args.B)
    return Curve(a, b)


def _point_from_args(args, curve: Curve) -> ECPoint:
    x = parse_ratfun(args.x, curve.field)
    y = parse_ratfun(args.y, curve.field)
    return ECPoint.affine(x, y)


def _point_json(point: ECPoint) -> dict:
    if point.is_identity:
        return {"identity": True}
    return {"x": str(point.x), "y": str(point.y)}


def _add_curve_options(sub) -> None:
    sub.add_argument("--A", default="z", help="curve coefficient A (default z)")
    sub.add_argument("--B", default="1", help="curve coefficient B (default 1)")
    sub.add_argument("--x", default="0", help="base point x (default 0)")
    sub.add_argument("--y", default="1", help="base point y (default 1)")


def _parse_ell(text: str):
    if text.strip() in ("inf", "oo", "infinity"):
        return inf
    return int(text)


def _load_system(source: str) -> DioSystem:
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return DioSystem.from_json(json.loads(text))


class _Subcommands:
    """Registers subparsers that all share the --json/--stable flags."""

    def __init__(self, parser: argparse.ArgumentParser,
                 common: argparse.ArgumentParser):
        self._sub = parser.add_subparsers(dest="command", required=True)
        self._common = common

    def add_parser(self, name: str, **kwargs):
        return self._sub.add_parser(name, parents=[self._common], **kwargs)


def build_parser() -> argparse.ArgumentParser:
    # The flags are registered twice with distinct action objects: on the
    # main parser with real defaults, and on every subparser with SUPPRESS
    # so a subcommand cannot clobber flags given before the command name.
    def output_flags(default) -> argparse.ArgumentParser:
        holder = argparse.ArgumentParser(add_help=False)
        holder.add_argument("--json", action="store_true", default=default,
                            help="emit a JSON report")
        holder.add_argument("--stable", action="store_true", default=default,
                            help="suppress the timing field for "
                                 "byte-stable output")
        return holder

    parser = argparse.ArgumentParser(
        prog="funcfield",
        parents=[output_flags(False)],
        description="Exact arithmetic over k(z): degrees, divisors, the "
                    "reference elliptic surface, a computable transcendental "
                    "function, and Diophantine slice enumeration.")
    sub = _Subcommands(parser, output_flags(argparse.SUPPRESS))

    p = sub.add_parser("deg", help="degree as a map P^1 -> P^1")
    p.add_argument("--f", required=True)

    p = sub.add_parser("deg-star", help="deg num - deg den (= -v_inf)")
    p.add_argument("--f", required=True)

    p = sub.add_parser("val", help="valuation at a point or at inf")
    p.add_argument("--f", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("poles", help="divisor of poles")
    p.add_argument("--f", required=True)

    p = sub.add_parser("pn", help="at most n geometric poles?")
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("veps", help="deg den <= (1-eps) deg num?")
    p.add_argument("--f", required=True)
    p.add_argument("--eps", required=True)

    p = sub.add_parser("campana",
                       help="poles outside S all of multiplicity >= l?")
    p.add_argument("--f", required=True)
    p.add_argument("--S", default="", help="comma-separated points, e.g. inf,1")
    p.add_argument("--l", required=True, help="integer >= 1 or inf")

    p = sub.add_parser("is-square", help="square test with optional witness")
    p.add_argument("--f", required=True)
    p.add_argument("--semantics", choices=("geometric", "base-field"),
                   default="geometric")

    p = sub.add_parser("is-derivative",
                       help="is g the derivative of a rational function?")
    p.add_argument("--g", required=True)

    p = sub.add_parser("hermite", help="g = h' + remainder decomposition")
    p.add_argument("--g", required=True)

    p = sub.add_parser("frobenius",
                       help="decompose f = sum z^j f_j^p over F_p(z)")
    p.add_argument("--f", required=True)
    p.add_argument("--p", type=int, required=True)

    for name, help_text in (
            ("ec-multiply", "n-th multiple of the base point"),
            ("ec-height", "naive height of the n-th multiple"),
            ("ec-hhat", "canonical height estimate h(2^k P)/4^k"),
            ("ec-fibers", "bad fibers with Kodaira types"),
            ("ec-rank", "Shioda-Tate rank count"),
            ("ec-growth", "degree growth of x-coordinates")):
        p = sub.add_parser(name, help=help_text)
        _add_curve_options(p)
        if name in ("ec-multiply", "ec-height"):
            p.add_argument("--n", type=int, required=True)
        if name == "ec-hhat":
            p.add_argument("--k", type=int, required=True)
        if name == "ec-growth":
            p.add_argument("--n-max", type=int, default=8, dest="n_max")

    p = sub.add_parser("eval-f",
                       help="evaluate the transcendental function exactly "
                            "or on an interval")
    p.add_argument("--a", help="exact rational argument")
    p.add_argument("--lo", help="interval lower endpoint")
    p.add_argument("--hi", help="interval upper endpoint")
    p.add_argument("--N", type=int, default=6,
                   help="explicit terms for interval mode")

    p = sub.add_parser("series-g", help="truncated even series of g(t) = f(it)")
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("graph-points",
                       help="first points (a, f(a)) of the fixed enumeration")
    p.add_argument("--count", type=int, required=True)

    p = sub.add_parser("slice", help="enumerate a Diophantine slice over F_p")
    p.add_argument("--system", required=True,
                   help="JSON file (or inline JSON) describing the system")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int)
    p.add_argument("--beta-max", type=int, dest="beta_max")
    p.add_argument("--max-candidates", type=int, default=2_000_000,
                   dest="max_candidates")

    p = sub.add_parser("zero-set", help="zeros of a polynomial family in F_p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--poly", action="append", default=[], dest="polys")

    for name in ("verify-elliptic", "verify-analytic", "verify-divisors",
                 "verify-slicer"):
        p = sub.add_parser(name, help=f"run the {name.split('-')[1]} suite")
        if name == "verify-elliptic":
            p.add_argument("--n-max", type=int, default=8, dest="n_max")

    return parser


def _run_command(args) -> Report:
    name = args.command
    inputs: dict = {}
    outputs: dict = {}
    ok: Optional[bool] = None

    if name == "deg":
        f = parse_ratfun(args.f)
        inputs["f"] = str(f)
        outputs["degree"] = f.map_degree()
    elif name == "deg-star":
        f = parse_ratfun(args.f)
        inputs["f"] = str(f)
        outputs["deg_star"] = f.deg_star()
    elif name == "val":
        f = parse_ratfun(args.f)
        point = parse_point(args.at)
        inputs["f"], inputs["at"] = str(f), str(point)
        outputs["valuation"] = f.valuation_at(point)
    elif name == "poles":
        f = parse_ratfun(args.f)
        inputs["f"] = str(f)
        divisor = pole_divisor(f)
        outputs["divisor"] = divisor_to_json(divisor)
        outputs["geometric_degree"] = geometric_degree(divisor)
    elif name == "pn":
        f = parse_ratfun(args.f)
        inputs["f"], inputs["n"] = str(f), args.n
        outputs["member"] = pn_member(f, args.n)
    elif name == "veps":
        f = parse_ratfun(args.f)
        eps = parse_rational(args.eps)
        inputs["f"], inputs["eps"] = str(f), str(eps)
        outputs["member"] = veps_member(f, eps)
    elif name == "campana":
        f = parse_ratfun(args.f)
        points = [parse_point(token)
                  for token in args.S.split(",") if token.strip()]
        ell = _parse_ell(args.l)
        inputs["f"] = str(f)
        inputs["S"] = ",".join(str(p) for p in points)
        inputs["l"] = "inf" if ell == inf else str(ell)
        outputs["member"] = campana_member(f, points, ell)
    elif name == "is-square":
        f = parse_ratfun(args.f)
        inputs["f"], inputs["semantics"] = str(f), args.semantics
        result = f.is_square(args.semantics)
        outputs["square"] = result.ok
        if result.witness is not None:
            outputs["witness"] = str(result.witness)
    elif name == "is-derivative":
        g = parse_ratfun(args.g)
        inputs["g"] = str(g)
        flag, certificate = is_derivative(g)
        outputs["derivative"] = flag
        if certificate is not None:
            outputs["antiderivative"] = str(certificate)
    elif name == "hermite":
        g = parse_ratfun(args.g)
        inputs["g"] = str(g)
        h, remainder = hermite_reduce(g)
        outputs["h"] = str(h)
        outputs["remainder"] = str(remainder)
    elif name == "frobenius":
        field = PrimeField(args.p)
        f = parse_ratfun(args.f, field)
        inputs["f"], inputs["p"] = str(f), args.p
        decomposition = frobenius_decompose(f)
        outputs["components"] = [str(c) for c in decomposition.components]
        outputs["in_d"] = decomposition.in_d
    elif name == "ec-multiply":
        curve = _curve_from_args(args)
        point = _point_from_args(args, curve)
        inputs["curve"], inputs["n"] = str(curve), args.n
        outputs["point"] = _point_json(ec_multiply(curve, args.n, point))
    elif name == "ec-height":
        curve = _curve_from_args(args)
        point = _point_from_args(args, curve)
        inputs["curve"], inputs["n"] = str(curve), args.n
        outputs["height"] = naive_height(
            curve, ec_multiply(curve, args.n, point))
    elif name == "ec-hhat":
        curve = _curve_from_args(args)
        point = _point_from_args(args, curve)
        inputs["curve"], inputs["k"] = str(curve), args.k
        outputs["estimate"] = str(
            canonical_height_estimate(curve, point, args.k))
    elif name == "ec-fibers":
        curve = _curve_from_args(args)
        inputs["curve"] = str(curve)
        fibers = bad_fibers(curve)
        outputs["fibers"] = [fiber.to_json() for fiber in fibers]
        outputs["delta_degree_total"] = delta_degree_total(fibers)
    elif name == "ec-rank":
        curve = _curve_from_args(args)
        inputs["curve"] = str(curve)
        fibers = bad_fibers(curve)
        outputs["rank"] = shioda_tate_rank(fibers)
        lattice = mordell_weil_lattice(fibers)
        if lattice is not None:
            outputs["lattice"] = {"name": lattice.name,
                                  "rank": lattice.rank,
                                  "minimal_norm": str(lattice.minimal_norm)}
    elif name == "ec-growth":
        curve = _curve_from_args(args)
        point = _point_from_args(args, curve)
        inputs["curve"], inputs["n_max"] = str(curve), args.n_max
        rows = degree_growth_report(curve, point, args.n_max)
        outputs["growth"] = [
            {"n": n, "degree": degree, "ratio": str(ratio)}
            for n, degree, ratio in rows]
    elif name == "eval-f":
        if args.a is not None:
            a = parse_rational(args.a)
            inputs["a"] = str(a)
            outputs["value"] = str(analytic.eval_exact(a))
        elif args.lo is not None and args.hi is not None:
            lo, hi = parse_rational(args.lo), parse_rational(args.hi)
            inputs["lo"], inputs["hi"], inputs["N"] = str(lo), str(hi), args.N
            enclosure = analytic.eval_interval(lo, hi, args.N)
            outputs["lo"] = str(enclosure.lo)
            outputs["hi"] = str(enclosure.hi)
        else:
            raise ParseError("eval-f needs --a or both --lo and --hi", 0)
    elif name == "series-g":
        inputs["N"] = args.N
        series = analytic.series_of_g(args.N)
        outputs["cutoff"] = series.cutoff
        outputs["coefficients"] = [str(c) for c in series.coefficients]
    elif name == "graph-points":
        inputs["count"] = args.count
        outputs["points"] = [[str(a), str(value)]
                             for a, value in analytic.graph_points(args.count)]
    elif name == "slice":
        system = _load_system(args.system)
        inputs["p"], inputs["alpha"] = system.field.p, args.alpha
        if args.beta_max is not None:
            inputs["beta_max"] = args.beta_max
            union = slice_union(system, args.alpha, args.beta_max,
                                args.max_candidates)
            outputs["members"] = [[str(p) for p in xs]
                                  for xs in union.members]
            outputs["stabilized_at"] = union.stabilized_at
        elif args.beta is not None:
            inputs["beta"] = args.beta
            result = enumerate_slice(system, args.alpha, args.beta,
                                     args.max_candidates)
            outputs["projection"] = [[str(p) for p in xs]
                                     for xs in result.projection]
            outputs["solutions"] = len(result.solutions)
            outputs["stabilized"] = result.stabilized
        else:
            raise ParseError("slice needs --beta or --beta-max", 0)
    elif name == "zero-set":
        field = PrimeField(args.p)
        polys = [parse_poly(text, field) for text in args.polys]
        inputs["p"] = args.p
        inputs["polys"] = [str(p) for p in polys]
        roots = zero_set(polys, field)
        outputs["roots"] = sorted(str(a) for a in roots)
    elif name.startswith("verify-"):
        suite_name = name.split("-", 1)[1]
        runner = ALL_SUITES[suite_name]
        suite = (runner(n_max=args.n_max) if suite_name == "elliptic"
                 else runner())
        outputs.update(suite.to_json())
        ok = suite.ok
    else:  # pragma: no cover - argparse enforces the command set
        raise ParseError(f"unknown command {name}", 0)

    return Report(name, inputs, outputs, ok)


def dispatch(argv) -> Report:
    """Run one CLI invocation and return its report (never prints)."""
    return _dispatch(build_parser().parse_args(argv))


def _dispatch(args) -> Report:
    start = time.perf_counter()
    try:
        report = _run_command(args)
    except BudgetError as error:
        report = Report(args.command, {}, {"error": str(error),
                                           "required": error.required},
                        ok=False)
        report.exit_code = 1
        return report
    except (ParseError, ValueError, ArithmeticError, OSError,
            json.JSONDecodeError, KeyError) as error:
        report = Report(args.command, {}, {"error": str(error)})
        report.exit_code = 2
        return report
    report.timing_ms = int((time.perf_counter() - start) * 1000)
    if report.ok is False:
        report.exit_code = 1
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)  # SystemExit(2) on usage errors
    report = _dispatch(args)
    text = (report.to_json(args.stable) if args.json
            else report.to_text(args.stable))
    stream = sys.stderr if report.exit_code == 2 else sys.stdout
    print(text, file=stream)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
