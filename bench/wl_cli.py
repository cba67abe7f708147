"""cli-mix: hundreds of small requests through `funcfield.cli.main(argv)`.

Each round sends one request of each kind below, with stdout captured;
round 0 also runs each `verify-*` suite once.  Inputs are built from
chosen parts so the expected answer is known without funcfield:

* f = c * prod (z - r_i)^e_i / prod (z - s_j)^f_j with distinct integer
  roots, for `deg`, `val`, `poles`, `pn`, `veps`, `campana` and
  `is-square` (squares get even multiplicities);
* g = sum a_i d/dz (z - r_i)^-k_i + sum rho_j / (z - t_j) + P(z), for
  `is-derivative` and `hermite` (a derivative iff every rho_j is 0, and the
  Hermite remainder has denominator prod (z - t_j));
* f = sum z^j f_j^p / (z - r)^p over F_p for `frobenius`, whose components
  are f_j / (z - r);
* seeded curves of the ec-heights family for `ec-fibers` and `ec-rank`
  (three I1 fibers on the discriminant block and III* at infinity, rank 1,
  lattice A1* with minimal norm 1/2);
* shallow `eval-f`, `series-g` (N <= 20, and one with N in [56, 60]) and
  `zero-set` (p < 50, and two cubic families with p in [907, 997]),
  checked with refmath as in the other workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import isqrt

import refmath
from common import Job
from wl_ec import REFERENCE, delta_poly, seeded_curve

TRACE_ROUNDS_PER_S = 2.0
SERIES_BUFFER = 8
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
LARGER_PRIMES = (907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977,
                 983, 991, 997)

VERIFY_CHECKS = {
    "verify-elliptic": ["fiber-multiset", "shioda-tate-rank",
                        "section-lattice", "naive-height-2P",
                        "canonical-height-band", "degree-growth-band",
                        "dual-route-multiples"],
    "verify-analytic": ["exact-values-with-zero-tails",
                        "series-parity-positivity",
                        "coefficient-bound-certificate", "interval-soundness"],
    "verify-divisors": ["pole-degree-equals-map-degree",
                        "veps-infinity-multiplicity",
                        "multiplicity-contradiction",
                        "campana-ell-one-accepts-all",
                        "campana-infinity-is-polynomials",
                        "pn-matches-radical-count"],
    "verify-slicer": ["slice-projection", "union-stabilization", "zero-set"],
}


def _lin(r):
    if r == 0:
        return "z"
    return f"z - {r}" if r > 0 else f"z + {-r}"


def _factors_text(pairs):
    return "*".join(f"({_lin(r)})^{e}" for r, e in pairs)


class RootedFunction:
    """c * prod (z - r)^e / prod (z - s)^f with distinct integer roots."""

    def __init__(self, rng, square=False):
        roots = rng.sample(range(-9, 10), rng.randint(1, 5))
        split = rng.randint(0, len(roots))
        mult = (lambda: rng.choice((2, 4))) if square else \
            (lambda: rng.randint(1, 3))
        self.zeros = [(r, mult()) for r in roots[:split]]
        self.poles = [(s, mult()) for s in roots[split:]]
        self.c = rng.choice((1, 4, 9, 1, -1, 2, -3, 5)) if square else \
            rng.choice([c for c in range(-6, 7) if c])
        self.num_degree = sum(e for _, e in self.zeros)
        self.den_degree = sum(f for _, f in self.poles)

    def text(self):
        num = str(self.c)
        if self.zeros:
            num += "*" + _factors_text(self.zeros)
        if not self.poles:
            return num
        return f"{num}/({_factors_text(self.poles)})"

    def value(self, t):
        v = Fraction(self.c)
        for r, e in self.zeros:
            v *= (t - r) ** e
        for s, f in self.poles:
            v /= (t - s) ** f
        return v

    def remaining_poles(self, points, drop_infinity):
        out = [f for s, f in self.poles if s not in points]
        if self.num_degree > self.den_degree and not drop_infinity:
            out.append(self.num_degree - self.den_degree)
        return out


def _sample_points(rng, avoid, count=3):
    points = []
    while len(points) < count:
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        if t not in avoid and t not in points:
            points.append(t)
    return points


class Workload:
    def __init__(self, seed: int):
        from funcfield import cli
        self.cli = cli
        self.seed = seed
        self.bounds = refmath.a_bounds(64)
        self.bounds_mod = {ell: [b % ell for b in self.bounds]
                           for ell in refmath.PRIMES}

    def request(self, kind, argv, check):
        main = self.cli.main

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            return code, out.getvalue()

        def checked(answer):
            code, text = answer
            return code == 0 and check(text)
        return Job(kind, call, checked)

    def json_request(self, kind, argv, check):
        return self.request(kind, argv + ["--json", "--stable"],
                            lambda text: check(json.loads(text)["outputs"]))

    # -- divisor-side requests ---------------------------------------

    def divisor_requests(self, rng):
        f = RootedFunction(rng)
        text = f.text()
        jobs = []
        degree = max(f.num_degree, f.den_degree)
        jobs.append(self.request(
            "deg", ["deg", f"--f={text}"],
            lambda out: f"degree: {degree}" in out.splitlines()))

        choice = rng.choice(["zero", "pole", "inf", "other"])
        if choice == "zero" and f.zeros:
            at, expected = f.zeros[0][0], f.zeros[0][1]
        elif choice == "pole" and f.poles:
            at, expected = f.poles[0][0], -f.poles[0][1]
        elif choice == "inf":
            at, expected = "inf", f.den_degree - f.num_degree
        else:
            used = {r for r, _ in f.zeros + f.poles}
            at = next(t for t in range(10, 40) if t not in used)
            expected = 0
        jobs.append(self.request(
            "val", ["val", f"--f={text}", f"--at={at}"],
            lambda out: f"valuation: {expected}" in out.splitlines()))

        blocks = {}
        for s, m in f.poles:
            blocks.setdefault(m, []).append(s)
        expected_divisor = sorted(
            (tuple(Fraction(c) for c in refmath.from_roots(roots)), m)
            for m, roots in blocks.items())
        inf_mult = f.num_degree - f.den_degree
        geometric = f.den_degree + max(0, inf_mult)

        def poles_ok(outputs):
            finite, infinite = [], []
            for item in outputs["divisor"]:
                if item["place"] == "inf":
                    infinite.append(item["mult"])
                else:
                    finite.append((tuple(refmath.parse_poly_text(
                        item["place"])), item["mult"]))
            return (sorted(finite) == expected_divisor
                    and infinite == ([inf_mult] if inf_mult > 0 else [])
                    and outputs["geometric_degree"] == geometric)
        jobs.append(self.json_request("poles", ["poles", f"--f={text}"],
                                      poles_ok))

        n = rng.randint(1, 4)
        distinct = len(f.poles) + (1 if inf_mult > 0 else 0)
        jobs.append(self.json_request(
            "pn", ["pn", f"--f={text}", f"--n={n}"],
            lambda out: out["member"] is (distinct <= n)))

        eps = rng.choice((Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                          Fraction(2, 3), Fraction(1)))
        veps = f.den_degree <= (1 - eps) * f.num_degree
        jobs.append(self.json_request(
            "veps", ["veps", f"--f={text}", f"--eps={eps}"],
            lambda out: out["member"] is veps))

        points = [s for s, _ in f.poles if rng.random() < 0.5]
        points.append(rng.randint(10, 20))
        drop_infinity = rng.random() < 0.5
        ell = rng.choice((1, 2, 3, "inf"))
        remaining = f.remaining_poles(points, drop_infinity)
        campana = (not remaining) if ell == "inf" else \
            all(m >= ell for m in remaining)
        tokens = [str(t) for t in points] + (["inf"] if drop_infinity else [])
        jobs.append(self.json_request(
            "campana", ["campana", f"--f={text}", f"--S={','.join(tokens)}",
                        f"--l={ell}"],
            lambda out: out["member"] is campana))
        return jobs

    def square_request(self, rng):
        f = RootedFunction(rng, square=rng.random() < 0.6)
        semantics = rng.choice(("geometric", "base-field"))
        even = all(e % 2 == 0 for _, e in f.zeros + f.poles)
        c_square = f.c > 0 and isqrt(f.c) ** 2 == f.c
        expected = even and (semantics == "geometric" or c_square)
        avoid = {Fraction(s) for s, _ in f.poles}
        samples = _sample_points(rng, avoid)

        def check(out):
            if out["square"] is not expected:
                return False
            if semantics == "geometric" or not expected:
                return "witness" not in out
            witness = refmath.parse_ratfun_text(out["witness"])
            return all(refmath.rat_eval(witness, t) ** 2 == f.value(t)
                       for t in samples)
        return self.json_request(
            "is-square", ["is-square", f"--f={f.text()}",
                          f"--semantics={semantics}"], check)

    # -- Hermite-side requests ---------------------------------------

    def hermite_requests(self, rng):
        roots = rng.sample(range(-8, 9), rng.randint(2, 4))
        split = rng.randint(1, len(roots))
        derivative_parts = [(r, rng.choice([a for a in range(-5, 6) if a]),
                             rng.randint(1, 2)) for r in roots[:split]]
        residues = [(t, rng.choice([a for a in range(-5, 6) if a]))
                    for t in roots[split:]]
        poly_part = [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
        terms = [f"({-a * k})/({_lin(r)})^{k + 1}"
                 for r, a, k in derivative_parts]
        terms += [f"({rho})/({_lin(t)})" for t, rho in residues]
        if refmath.trim(poly_part):
            terms.append(refmath.poly_text(poly_part))
        g_text = " + ".join(terms)

        def g_value(t):
            v = Fraction(refmath.peval(poly_part, t))
            for r, a, k in derivative_parts:
                v += Fraction(-a * k) / (t - r) ** (k + 1)
            for s, rho in residues:
                v += Fraction(rho) / (t - s)
            return v

        samples = _sample_points(rng, {Fraction(r) for r in roots})
        flag = not residues

        def derivative_ok(out):
            if out["derivative"] is not flag:
                return False
            if not flag:
                return "antiderivative" not in out
            cert = refmath.parse_ratfun_text(out["antiderivative"])
            return all(refmath.rat_deriv_eval(cert, t) == g_value(t)
                       for t in samples)

        remainder_den = [Fraction(c) for c in
                         refmath.from_roots([t for t, _ in residues])]

        def hermite_ok(out):
            h = refmath.parse_ratfun_text(out["h"])
            rem = refmath.parse_ratfun_text(out["remainder"])
            return (rem[1] == remainder_den
                    and all(refmath.rat_deriv_eval(h, t)
                            + refmath.rat_eval(rem, t) == g_value(t)
                            for t in samples))
        return [
            self.json_request("is-derivative",
                              ["is-derivative", f"--g={g_text}"],
                              derivative_ok),
            self.json_request("hermite", ["hermite", f"--g={g_text}"],
                              hermite_ok),
        ]

    def frobenius_request(self, rng):
        p = rng.choice((3, 5, 7))
        r = rng.randrange(p)
        parts = [refmath.pmod_p([rng.randrange(p)
                                 for _ in range(rng.randint(0, 3))], p)
                 for _ in range(p)]
        numerator = []
        for j, fj in enumerate(parts):
            numerator = refmath.padd(
                numerator, refmath.pmul([0] * j + [1], refmath.ppow(fj, p)))
        numerator = refmath.pmod_p(numerator, p)
        if numerator:
            text = f"({refmath.poly_text(numerator)})/(({_lin(r)})^{p})"
        else:
            text = "0"
        expected = []
        for fj in parts:
            if not fj:
                expected.append(([], [1]))
                continue
            num, den = fj, [-r % p, 1]
            if refmath.peval(fj, r) % p == 0:  # (z - r) divides f_j
                num, den = _divide_linear(fj, r, p), [1]
            expected.append((num, den))
        in_d = any(parts[1:])

        def check(out):
            got = []
            for comp in out["components"]:
                num, den = refmath.parse_ratfun_text(comp)
                got.append((refmath.pmod_p([int(c) for c in num], p),
                            refmath.pmod_p([int(c) for c in den], p)))
            return got == expected and out["in_d"] is in_d
        return self.json_request(
            "frobenius", ["frobenius", f"--f={text}", f"--p={p}"], check)

    # -- elliptic, analytic and F_p requests ---------------------------

    def curve_requests(self, rng):
        if rng.random() < 0.25:
            a_cs, b_cs = REFERENCE[0], REFERENCE[1]
        else:
            a_cs, b_cs, _, _ = seeded_curve(rng)
        options = [f"--A={refmath.poly_text(a_cs)}",
                   f"--B={refmath.poly_text(b_cs)}"]
        delta = refmath.pscale(delta_poly(a_cs, b_cs),
                               Fraction(1, 4 * a_cs[1] ** 3))

        def fibers_ok(out):
            fibers = out["fibers"]
            return (len(fibers) == 2
                    and refmath.parse_poly_text(fibers[0]["place"]) == delta
                    and fibers[0]["type"] == "I1"
                    and fibers[0]["geometric_fibers"] == 3
                    and fibers[1]["place"] == "inf"
                    and fibers[1]["type"] == "III*"
                    and out["delta_degree_total"] == 12)

        def rank_ok(out):
            return out["rank"] == 1 and out.get("lattice") == {
                "name": "A1*", "rank": 1, "minimal_norm": "1/2"}
        return [self.json_request("ec-fibers", ["ec-fibers"] + options,
                                  fibers_ok),
                self.json_request("ec-rank", ["ec-rank"] + options, rank_ok)]

    def eval_request(self, rng):
        index = rng.randint(1, 40)
        a = rng.choice((1, -1)) * Fraction(*refmath.cw_pair(index))
        num, den = refmath.f_exact(a.numerator, a.denominator, self.bounds)
        return self.json_request(
            "eval-f", ["eval-f", f"--a={a}"],
            lambda out: Fraction(out["value"]) == Fraction(num, den))

    def series_request(self, rng, half_lo, half_hi):
        cutoff = 2 * rng.randint(half_lo, half_hi)
        ell = refmath.PRIMES[0]
        expected = refmath.series_mod(cutoff, SERIES_BUFFER, ell,
                                      self.bounds_mod[ell])

        def check(out):
            cs = [Fraction(c) for c in out["coefficients"]]
            return (out["cutoff"] == cutoff and len(cs) == cutoff + 1
                    and all(cs[k] == 0 for k in range(1, cutoff + 1, 2))
                    and [refmath.frac_mod(cs[2 * j], ell)
                         for j in range(len(expected))] == expected)
        return self.json_request("series-g", ["series-g", f"--N={cutoff}"],
                                 check)

    def zero_set_request(self, rng, primes, degrees):
        p = rng.choice(primes)
        family = [refmath.pmod_p([rng.randrange(p) for _ in
                                  range(rng.choice(degrees))] + [1], p)
                  for _ in range(rng.randint(1, 2))]
        expected = sorted(str(a) for a in refmath.roots_fp(family, p))
        argv = ["zero-set", f"--p={p}"]
        for f in family:
            argv.append(f"--poly={refmath.poly_text(f)}")
        return self.json_request("zero-set", argv,
                                 lambda out: out["roots"] == expected)

    def verify_request(self, name):
        names = VERIFY_CHECKS[name]
        return self.json_request(
            name, [name],
            lambda out: out["pass"] is True
            and [c["name"] for c in out["checks"]] == names
            and all(c["pass"] is True for c in out["checks"]))

    def round(self, r: int):
        rng = random.Random(self.seed * 1_000_003 + r)
        jobs = self.divisor_requests(rng)
        jobs.append(self.square_request(rng))
        jobs.extend(self.hermite_requests(rng))
        jobs.append(self.frobenius_request(rng))
        jobs.extend(self.curve_requests(rng))
        jobs.append(self.eval_request(rng))
        jobs.append(self.series_request(rng, 2, 10))
        jobs.append(self.zero_set_request(rng, SMALL_PRIMES, (1, 2, 3)))
        # Three requests about twice as costly as the rest form the top
        # class, so that p90 falls inside a class of known cost instead of
        # in the timing jitter of the tail.
        jobs.append(self.series_request(rng, 28, 30))
        for _ in range(2):
            jobs.append(self.zero_set_request(rng, LARGER_PRIMES, (3,)))
        if r == 0:
            jobs.extend(self.verify_request(name) for name in VERIFY_CHECKS)
        return jobs

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(["deg", "--f=z"])


def _divide_linear(cs, r, p):
    """cs / (z - r) over F_p by synthetic division (exact)."""
    out = [0] * (len(cs) - 1)
    carry = 0
    for i in range(len(cs) - 1, 0, -1):
        carry = (cs[i] + carry * r) % p
        out[i - 1] = carry
    return refmath.trim(out)
