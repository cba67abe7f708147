"""Command-line front end: one subcommand per library operation.

All values are read and printed in the exact text syntax ("3/4*z^2 - z + 1",
"(z^2+1)/(z-5)"); numbers are emitted as exact strings, never floats.
Output is plain text by default and JSON under --json; with --stable the
timing field is suppressed so identical invocations produce identical bytes.

Exit codes: 0 on success (and on verification pass), 1 on verification
failure or an exceeded candidate or term budget, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import inf
from typing import Optional, Tuple

from . import analytic
from .budget import BudgetError
from .definability import (DEFAULT_CANDIDATE_BUDGET, DioSystem,
                           enumerate_slice, frobenius_decompose,
                           hermite_reduce, is_derivative, slice_union,
                           zero_set)
from .divisors import (campana_member, divisor_to_json, geometric_degree,
                       pn_member, pole_divisor, veps_member)
from .elliptic import (Curve, ECPoint, _naive_height, bad_fibers,
                       canonical_height_estimate, degree_growth_report,
                       delta_degree_total, ec_multiply, mordell_weil_lattice,
                       shioda_tate_rank)
from .fields import QQ, Field, PrimeField
from .ratfun import RatFun
from .textio import (_INFINITY_TOKENS, ParseError, parse_point, parse_poly,
                     parse_ratfun, parse_rational)
from .verify import ALL_SUITES


@dataclass
class Report:
    command: str
    inputs: dict
    outputs: dict
    ok: Optional[bool] = None
    timing_ms: Optional[float] = None
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


def _point_json(point: ECPoint) -> dict:
    if point.is_identity:
        return {"identity": True}
    return {"x": str(point.x), "y": str(point.y)}


def _parse_ell(text: str):
    if text.strip() in _INFINITY_TOKENS:
        return inf
    return int(text)


def _load_system(source: str) -> DioSystem:
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return DioSystem.from_json(json.loads(text))


# -- the command registry -----------------------------------------------------
# One parser, built at import: `_command` registers a subcommand on it once,
# on its handler (name, help, arguments), and the handler becomes the
# subcommand's `run` default.  A handler fills `inputs` with the canonical
# inputs from the parsed `args` and returns the outputs, or (outputs, ok)
# for a verification suite.


def _output_flags(default) -> argparse.ArgumentParser:
    # The flags are registered twice with distinct action objects: on the
    # main parser with real defaults, and on every subparser with SUPPRESS
    # so a subcommand cannot clobber flags given before the command name.
    holder = argparse.ArgumentParser(add_help=False)
    holder.add_argument("--json", action="store_true", default=default,
                        help="emit a JSON report")
    holder.add_argument("--stable", action="store_true", default=default,
                        help="suppress the timing field for "
                             "byte-stable output")
    return holder


_PARSER = argparse.ArgumentParser(
    prog="funcfield",
    parents=[_output_flags(False)],
    description="Exact arithmetic over k(z): degrees, divisors, the "
                "reference elliptic surface, a computable transcendental "
                "function, and Diophantine slice enumeration.")
_COMMON = _output_flags(argparse.SUPPRESS)
_SUBPARSERS = _PARSER.add_subparsers(dest="command", required=True)


def _command(name: str, help_text: str, *arguments):
    def register(run):
        sub = _SUBPARSERS.add_parser(name, help=help_text, parents=[_COMMON])
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(run=run)
        return run
    return register


def _arg(*flags, **options):
    """One add_argument call: its flags and keyword options."""
    return flags, options


_F = _arg("--f", required=True)
_G = _arg("--g", required=True)
_N = _arg("--n", type=int, required=True)
_P = _arg("--p", type=int, required=True)
_N_MAX = _arg("--n-max", type=int, default=8, dest="n_max")
_CURVE = (_arg("--A", default="z", help="curve coefficient A (default z)"),
          _arg("--B", default="1", help="curve coefficient B (default 1)"),
          _arg("--x", default="0", help="base point x (default 0)"),
          _arg("--y", default="1", help="base point y (default 1)"))


def _parsed(args, inputs: dict, key: str = "f", field: Field = QQ) -> RatFun:
    """Parse the --f or --g text and echo its canonical form as an input."""
    value = parse_ratfun(getattr(args, key), field)
    inputs[key] = str(value)
    return value


def _curve(args, inputs: dict) -> Curve:
    curve = Curve(parse_ratfun(args.A), parse_ratfun(args.B))
    inputs["curve"] = str(curve)
    return curve


def _curve_and_point(args, inputs: dict) -> Tuple[Curve, ECPoint]:
    curve = _curve(args, inputs)
    x = parse_ratfun(args.x, curve.field)
    y = parse_ratfun(args.y, curve.field)
    return curve, ECPoint.affine(x, y)


@_command("deg", "degree as a map P^1 -> P^1", _F)
def _deg(args, inputs):
    return {"degree": _parsed(args, inputs).map_degree()}


@_command("deg-star", "deg num - deg den (= -v_inf)", _F)
def _deg_star(args, inputs):
    return {"deg_star": _parsed(args, inputs).deg_star()}


@_command("val", "valuation at a point or at inf", _F,
          _arg("--at", required=True))
def _val(args, inputs):
    f = _parsed(args, inputs)
    point = parse_point(args.at)
    inputs["at"] = str(point)
    return {"valuation": f.valuation_at(point)}


@_command("poles", "divisor of poles", _F)
def _poles(args, inputs):
    divisor = pole_divisor(_parsed(args, inputs))
    return {"divisor": divisor_to_json(divisor),
            "geometric_degree": geometric_degree(divisor)}


@_command("pn", "at most n geometric poles?", _F, _N)
def _pn(args, inputs):
    inputs["n"] = args.n
    return {"member": pn_member(_parsed(args, inputs), args.n)}


@_command("veps", "deg den <= (1-eps) deg num?", _F,
          _arg("--eps", required=True))
def _veps(args, inputs):
    f = _parsed(args, inputs)
    eps = parse_rational(args.eps)
    inputs["eps"] = str(eps)
    return {"member": veps_member(f, eps)}


@_command("campana", "poles outside S all of multiplicity >= l?", _F,
          _arg("--S", default="", help="comma-separated points, e.g. inf,1"),
          _arg("--l", required=True, help="integer >= 1 or inf"))
def _campana(args, inputs):
    f = _parsed(args, inputs)
    points = [parse_point(token)
              for token in args.S.split(",") if token.strip()]
    ell = _parse_ell(args.l)
    inputs["S"] = ",".join(str(p) for p in points)
    inputs["l"] = "inf" if ell == inf else str(ell)
    return {"member": campana_member(f, points, ell)}


@_command("is-square", "square test with optional witness", _F,
          _arg("--semantics", choices=("geometric", "base-field"),
               default="geometric"))
def _is_square(args, inputs):
    inputs["semantics"] = args.semantics
    result = _parsed(args, inputs).is_square(args.semantics)
    outputs = {"square": result.ok}
    if result.witness is not None:
        outputs["witness"] = str(result.witness)
    return outputs


@_command("is-derivative", "is g the derivative of a rational function?", _G)
def _is_derivative(args, inputs):
    flag, certificate = is_derivative(_parsed(args, inputs, "g"))
    outputs = {"derivative": flag}
    if certificate is not None:
        outputs["antiderivative"] = str(certificate)
    return outputs


@_command("hermite", "g = h' + remainder decomposition", _G)
def _hermite(args, inputs):
    h, remainder = hermite_reduce(_parsed(args, inputs, "g"))
    return {"h": str(h), "remainder": str(remainder)}


@_command("frobenius", "decompose f = sum z^j f_j^p over F_p(z)", _F, _P)
def _frobenius(args, inputs):
    inputs["p"] = args.p
    f = _parsed(args, inputs, field=PrimeField(args.p))
    decomposition = frobenius_decompose(f)
    return {"components": [str(c) for c in decomposition.components],
            "in_d": decomposition.in_d}


@_command("ec-multiply", "n-th multiple of the base point", *_CURVE, _N)
def _ec_multiply(args, inputs):
    curve, point = _curve_and_point(args, inputs)
    inputs["n"] = args.n
    return {"point": _point_json(ec_multiply(curve, args.n, point))}


@_command("ec-height", "naive height of the n-th multiple", *_CURVE, _N)
def _ec_height(args, inputs):
    curve, point = _curve_and_point(args, inputs)
    inputs["n"] = args.n
    # ec_multiply checks P; the multiple it returns is on the curve
    return {"height": _naive_height(ec_multiply(curve, args.n, point))}


@_command("ec-hhat", "canonical height estimate h(2^k P)/4^k", *_CURVE,
          _arg("--k", type=int, required=True))
def _ec_hhat(args, inputs):
    curve, point = _curve_and_point(args, inputs)
    inputs["k"] = args.k
    return {"estimate": str(canonical_height_estimate(curve, point, args.k))}


@_command("ec-fibers", "bad fibers with Kodaira types", *_CURVE)
def _ec_fibers(args, inputs):
    fibers = bad_fibers(_curve(args, inputs))
    return {"fibers": [fiber.to_json() for fiber in fibers],
            "delta_degree_total": delta_degree_total(fibers)}


@_command("ec-rank", "Shioda-Tate rank count", *_CURVE)
def _ec_rank(args, inputs):
    fibers = bad_fibers(_curve(args, inputs))
    outputs = {"rank": shioda_tate_rank(fibers)}
    lattice = mordell_weil_lattice(fibers)
    if lattice is not None:
        outputs["lattice"] = {"name": lattice.name, "rank": lattice.rank,
                              "minimal_norm": str(lattice.minimal_norm)}
    return outputs


@_command("ec-growth", "degree growth of x-coordinates", *_CURVE, _N_MAX)
def _ec_growth(args, inputs):
    curve, point = _curve_and_point(args, inputs)
    inputs["n_max"] = args.n_max
    rows = degree_growth_report(curve, point, args.n_max)
    return {"growth": [{"n": n, "degree": degree, "ratio": str(ratio)}
                       for n, degree, ratio in rows]}


def _exact(q: Fraction) -> str:
    """str(q) past CPython's 4300-digit cap on int-to-str conversion, which
    values of f reach from about enumeration index 137 on."""
    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


@_command("eval-f",
          "evaluate the transcendental function exactly or on an interval",
          _arg("--a", help="exact rational argument"),
          _arg("--lo", help="interval lower endpoint"),
          _arg("--hi", help="interval upper endpoint"),
          _arg("--N", type=int, default=6,
               help="explicit terms for interval mode"))
def _eval_f(args, inputs):
    if args.a is not None:
        a = parse_rational(args.a)
        inputs["a"] = str(a)
        return {"value": _exact(analytic.eval_exact(a))}
    if args.lo is None or args.hi is None:
        raise ParseError("eval-f needs --a or both --lo and --hi", 0)
    lo, hi = parse_rational(args.lo), parse_rational(args.hi)
    inputs["lo"], inputs["hi"], inputs["N"] = str(lo), str(hi), args.N
    enclosure = analytic.eval_interval(lo, hi, args.N)
    return {"lo": _exact(enclosure.lo), "hi": _exact(enclosure.hi)}


@_command("series-g", "truncated even series of g(t) = f(it)",
          _arg("--N", type=int, required=True))
def _series_g(args, inputs):
    inputs["N"] = args.N
    series = analytic.series_of_g(args.N)
    return {"cutoff": series.cutoff,
            "coefficients": [_exact(c) for c in series.coefficients]}


@_command("graph-points", "first points (a, f(a)) of the fixed enumeration",
          _arg("--count", type=int, required=True))
def _graph_points(args, inputs):
    inputs["count"] = args.count
    points = analytic.graph_points(args.count)
    return {"points": [[str(a), _exact(value)] for a, value in points]}


@_command("slice", "enumerate a Diophantine slice over F_p",
          _arg("--system", required=True,
               help="JSON file (or inline JSON) describing the system"),
          _arg("--alpha", type=int, required=True),
          _arg("--beta", type=int),
          _arg("--beta-max", type=int, dest="beta_max"),
          _arg("--max-candidates", type=int, dest="max_candidates",
               default=DEFAULT_CANDIDATE_BUDGET))
def _slice(args, inputs):
    if args.beta is not None and args.beta_max is not None:
        raise ParseError("slice takes --beta or --beta-max, not both", 0)
    system = _load_system(args.system)
    inputs["p"], inputs["alpha"] = system.field.p, args.alpha
    if args.beta_max is not None:
        inputs["beta_max"] = args.beta_max
        union = slice_union(system, args.alpha, args.beta_max,
                            args.max_candidates)
        return {"members": [[str(p) for p in xs] for xs in union.members],
                "stabilized_at": union.stabilized_at}
    if args.beta is None:
        raise ParseError("slice needs --beta or --beta-max", 0)
    inputs["beta"] = args.beta
    result = enumerate_slice(system, args.alpha, args.beta,
                             args.max_candidates)
    return {"projection": [[str(p) for p in xs] for xs in result.projection],
            "solutions": len(result.solutions),
            "stabilized": result.stabilized}


@_command("zero-set", "zeros of a polynomial family in F_p", _P,
          _arg("--poly", action="append", default=[], dest="polys"))
def _zero_set(args, inputs):
    field = PrimeField(args.p)
    polys = [parse_poly(text, field) for text in args.polys]
    inputs["p"] = args.p
    inputs["polys"] = [str(p) for p in polys]
    return {"roots": sorted(str(a) for a in zero_set(polys, field))}


def _run_suite(args, inputs):
    name = args.command[len("verify-"):]
    runner = ALL_SUITES[name]
    suite = runner(n_max=args.n_max) if name == "elliptic" else runner()
    return suite.to_json(), suite.ok


for _name in ALL_SUITES:
    _command(f"verify-{_name}", f"run the {_name} suite",
             *([_N_MAX] if _name == "elliptic" else []))(_run_suite)


def build_parser() -> argparse.ArgumentParser:
    """The program's parser, with every subcommand registered at import."""
    return _PARSER


def _run_command(args) -> Report:
    inputs: dict = {}
    result = args.run(args, inputs)
    outputs, ok = result if isinstance(result, tuple) else (result, None)
    return Report(args.command, inputs, outputs, ok)


def dispatch(argv) -> Report:
    """Run one CLI invocation and return its report (never prints)."""
    return _dispatch(build_parser().parse_args(argv))


def _dispatch(args) -> Report:
    start = time.perf_counter()
    try:
        report = _run_command(args)
    except BudgetError as error:
        report = Report(args.command, {}, {"error": str(error),
                                           "required": error.reported},
                        ok=False)
        report.exit_code = 1
        return report
    except (ValueError, ArithmeticError, OSError, KeyError) as error:
        report = Report(args.command, {}, {"error": str(error)})
        report.exit_code = 2
        return report
    report.timing_ms = round((time.perf_counter() - start) * 1000, 3)
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
