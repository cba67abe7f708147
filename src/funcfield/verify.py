"""Deterministic verification suites for the package's headline computations.

Each suite re-derives a family of claims from scratch -- fiber data and rank
of the reference elliptic surface, exactness and positivity facts for the
transcendental function, the divisor-degree identities behind the pole
predicates, and the brute-force slice projection -- and reports one named
check per claim.  All sampling uses fixed seeds, so byte-identical reruns
are guaranteed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from . import analytic
from .definability import (DioSystem, enumerate_slice, slice_union,
                           zero_set)
from .divisors import (Divisor, INFINITY, Place, campana_member,
                       geometric_degree, mult_at, pn_member, pole_divisor,
                       support_point_count, veps_member, z_set_member)
from .elliptic import (canonical_height_estimate, bad_fibers, default_curve,
                       degree_growth_report, delta_degree_total, ec_add,
                       ec_multiply, generator_point, mordell_weil_lattice,
                       naive_height, shioda_tate_rank)
from .fields import Field, PrimeField, QQ
from .poly import Poly, poly_gcd, radical
from .ratfun import RatFun
from .textio import parse_poly


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_json(self) -> dict:
        return {"suite": self.name, "pass": self.ok,
                "checks": [check.to_json() for check in self.checks]}


# -- deterministic sample generators -------------------------------------


def random_poly(rng: random.Random, max_degree: int, field: Field = QQ,
                nonzero: bool = False) -> Poly:
    """Random polynomial of degree <= max_degree; over Q the coefficients
    lie in [-9, 9]."""
    while True:
        degree = rng.randint(0, max_degree)
        if field.characteristic == 0:
            coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        else:
            coeffs = [rng.randrange(field.characteristic)
                      for _ in range(degree + 1)]
        p = Poly(coeffs, field)
        if not (nonzero and p.is_zero):
            return p


def random_ratfun(rng: random.Random, max_degree: int = 5,
                  field: Field = QQ, nonzero: bool = False) -> RatFun:
    num = random_poly(rng, max_degree, field, nonzero=nonzero)
    den = random_poly(rng, max_degree, field, nonzero=True)
    f = RatFun(num, den)
    if nonzero and f.is_zero:
        return random_ratfun(rng, max_degree, field, nonzero)
    return f


def random_divisor(rng: random.Random) -> Divisor:
    """Random effective divisor from coprime linear/quadratic blocks, with
    infinity in its support half the time."""
    pairs = []
    roots = rng.sample(range(-6, 7), rng.randint(1, 3))
    for a in roots:
        pairs.append((Place.finite(Poly([-a, 1], QQ)), rng.randint(1, 4)))
    if rng.random() < 0.5:
        c = rng.randint(1, 6)
        pairs.append((Place.finite(Poly([c, 0, 1], QQ)), rng.randint(1, 3)))
    if rng.random() < 0.5:
        pairs.append((Place.infinity(), rng.randint(1, 4)))
    return Divisor(pairs)


# -- elliptic suite -------------------------------------------------------


_HEIGHT_BAND = (Fraction(45, 100), Fraction(55, 100))
_GROWTH_BAND = (Fraction(85, 100), Fraction(115, 100))


def verify_elliptic(n_max: int = 8) -> SuiteResult:
    """Fibers, rank, lattice, heights and degree growth of the reference
    point.  The dual route checks `ec_add` chains against `ec_multiply`:
    the sums run the chord-tangent law, the multiples the division values,
    and the two share only the move to the polynomial model."""
    curve = default_curve()
    base = generator_point()
    checks: List[CheckResult] = []

    fibers = bad_fibers(curve)
    expected_block = parse_poly("4*z^3 + 27").monic()
    finite = [f for f in fibers if not f.place.is_infinity]
    infinite = [f for f in fibers if f.place.is_infinity]
    fiber_ok = (
        len(finite) == 1 and len(infinite) == 1
        and finite[0].place.poly == expected_block
        and finite[0].place.degree == 3
        and finite[0].kodaira == "I1" and finite[0].v_delta == 1
        and infinite[0].kodaira == "III*"
        and infinite[0].v_c4 == 3 and infinite[0].v_c6 >= 5
        and infinite[0].v_delta == 9
        and delta_degree_total(fibers) == 12)
    checks.append(CheckResult(
        "fiber-multiset", fiber_ok,
        "; ".join(f"{f.kodaira} at {f.place} (v_delta={f.v_delta})"
                  for f in fibers)))

    rank = shioda_tate_rank(fibers)
    checks.append(CheckResult("shioda-tate-rank", rank == 1, f"rank={rank}"))

    lattice = mordell_weil_lattice(fibers)
    checks.append(CheckResult(
        "section-lattice",
        lattice is not None and lattice.rank == 1
        and lattice.minimal_norm == Fraction(1, 2),
        "none identified" if lattice is None else
        f"{lattice.name}, minimal norm {lattice.minimal_norm}"))

    double = ec_multiply(curve, 2, base)
    h2 = naive_height(curve, double)
    checks.append(CheckResult("naive-height-2P", h2 == 2, f"h(2P)={h2}"))

    lo, hi = _HEIGHT_BAND
    estimates = [canonical_height_estimate(curve, base, k) for k in (1, 2, 3)]
    checks.append(CheckResult(
        "canonical-height-band",
        all(lo <= value <= hi for value in estimates),
        ", ".join(f"k={k}: {value}" for k, value in zip((1, 2, 3), estimates))))

    rows = degree_growth_report(curve, base, n_max)
    lo, hi = _GROWTH_BAND
    band_rows = [row for row in rows if row[0] >= 6]
    checks.append(CheckResult(
        "degree-growth-band",
        all(lo <= ratio <= hi for _, _, ratio in band_rows),
        ", ".join(f"n={n}: deg={deg} ratio={ratio}"
                  for n, deg, ratio in rows)))

    accumulated, dual_ok = base, True
    for n in range(2, n_max + 1):
        accumulated = ec_add(curve, accumulated, base)
        dual_ok = accumulated == ec_multiply(curve, n, base)
        if not dual_ok:
            break
    checks.append(CheckResult(
        "dual-route-multiples", dual_ok, f"n <= {n_max}"))

    return SuiteResult("elliptic", tuple(checks))


# -- analytic suite -------------------------------------------------------


_RATIONAL_COUNT = 100
_SERIES_CUTOFF = 40
_BOUND_SAMPLES = 100
_BOUND_MAX_N = 10
_ANALYTIC_SEED = 20839


def verify_analytic() -> SuiteResult:
    checks: List[CheckResult] = []

    tails_ok = True
    for n in range(1, _RATIONAL_COUNT + 1):
        a = analytic.enumerated_rational(n)
        analytic.eval_exact(a)  # must return an exact rational
        m = analytic.square_index(a)
        if analytic.q_n(m) != a * a:
            tails_ok = False
            break
        product = Fraction(1)
        for i in range(1, m + 1):
            product *= analytic.q_n(i) - a * a
        if product != 0:
            tails_ok = False
            break
    checks.append(CheckResult(
        "exact-values-with-zero-tails", tails_ok,
        f"first {_RATIONAL_COUNT} enumerated rationals"))

    series = analytic.series_of_g(_SERIES_CUTOFF)
    odd_ok = all(series.coefficient(k) == 0
                 for k in range(1, _SERIES_CUTOFF + 1, 2))
    even_ok = all(series.coefficient(k) > 0
                  for k in range(2, _SERIES_CUTOFF + 1, 2))
    checks.append(CheckResult(
        "series-parity-positivity",
        odd_ok and even_ok and series.coefficient(0) == 0,
        f"degrees up to {_SERIES_CUTOFF}"))

    rng = random.Random(_ANALYTIC_SEED)
    bound_ok = True
    for _ in range(_BOUND_SAMPLES):
        re = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        im = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if not all(analytic.product_bound_holds(re, im, n)
                   for n in range(1, _BOUND_MAX_N + 1)):
            bound_ok = False
            break
    checks.append(CheckResult(
        "coefficient-bound-certificate", bound_ok,
        f"{_BOUND_SAMPLES} complex rational samples, n <= {_BOUND_MAX_N}"))

    interval_ok = True
    for n in range(1, 21):
        a = analytic.enumerated_rational(n)
        exact = analytic.eval_exact(a)
        for terms in (1, 3, 6):
            enclosure = analytic.eval_interval(a, a, terms)
            if not enclosure.contains(exact):
                interval_ok = False
    widths = [analytic.eval_interval(1, 1, terms).width
              for terms in range(1, 8)]
    shrinking = all(w2 <= w1 for w1, w2 in zip(widths, widths[1:]))
    checks.append(CheckResult(
        "interval-soundness", interval_ok and shrinking,
        "point enclosures contain exact values; widths shrink"))

    return SuiteResult("analytic", tuple(checks))


# -- divisor suite --------------------------------------------------------


_DEGREE_SAMPLES = 500
_VEPS_SAMPLES = 200
_CONTRADICTION_SAMPLES = 50
_CAMPANA_SAMPLES = 200
_PN_SAMPLES = 200
_DIVISORS_SEED = 50311


def verify_divisors() -> SuiteResult:
    rng = random.Random(_DIVISORS_SEED)
    checks: List[CheckResult] = []

    degree_ok = True
    for _ in range(_DEGREE_SAMPLES):
        f = random_ratfun(rng, max_degree=6, nonzero=True)
        if geometric_degree(pole_divisor(f)) != f.map_degree():
            degree_ok = False
            break
    checks.append(CheckResult(
        "pole-degree-equals-map-degree", degree_ok,
        f"{_DEGREE_SAMPLES} random rational functions"))

    veps_ok = True
    epsilons = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    for i in range(_VEPS_SAMPLES):
        eps = epsilons[i % len(epsilons)]
        f = _random_veps_member(rng, eps)
        if not veps_member(f, eps):
            veps_ok = False
            break
        if Fraction(mult_at(pole_divisor(f), INFINITY)) < eps * f.map_degree():
            veps_ok = False
            break
    checks.append(CheckResult(
        "veps-infinity-multiplicity", veps_ok,
        f"{_VEPS_SAMPLES} members across eps in {{1/4, 1/2, 1}}"))

    contradiction_ok = True
    for _ in range(_CONTRADICTION_SAMPLES):
        if not _contradiction_case_fails(rng):
            contradiction_ok = False
            break
    checks.append(CheckResult(
        "multiplicity-contradiction", contradiction_ok,
        f"{_CONTRADICTION_SAMPLES} random (P, Q, r, eps, m) tuples"))

    ell_one_ok = True
    for _ in range(_CAMPANA_SAMPLES):
        f = random_ratfun(rng, max_degree=5, nonzero=True)
        points = [rng.randint(-5, 5)] if rng.random() < 0.5 else []
        if not campana_member(f, points, 1):
            ell_one_ok = False
            break
    checks.append(CheckResult(
        "campana-ell-one-accepts-all", ell_one_ok,
        f"{_CAMPANA_SAMPLES} random functions"))

    poly_ok = True
    for i in range(_CAMPANA_SAMPLES):
        if i % 2 == 0:
            f = RatFun.from_poly(random_poly(rng, 5, nonzero=True))
        else:
            f = random_ratfun(rng, max_degree=5, nonzero=True)
        if campana_member(f, [INFINITY], float("inf")) != f.is_polynomial:
            poly_ok = False
            break
    checks.append(CheckResult(
        "campana-infinity-is-polynomials", poly_ok,
        f"{_CAMPANA_SAMPLES} mixed samples"))

    pn_ok = True
    for _ in range(_PN_SAMPLES):
        f = random_ratfun(rng, max_degree=6, nonzero=True)
        distinct = radical(f.den).degree
        if f.num.degree > f.den.degree:
            distinct += 1
        if support_point_count(pole_divisor(f)) != distinct:
            pn_ok = False
            break
        n = rng.randint(1, 7)
        if pn_member(f, n) != (distinct <= n):
            pn_ok = False
            break
    checks.append(CheckResult(
        "pn-matches-radical-count", pn_ok,
        f"{_PN_SAMPLES} random functions vs radical-degree oracle"))

    return SuiteResult("divisors", tuple(checks))


def _random_veps_member(rng: random.Random, eps: Fraction) -> RatFun:
    """A rational function p/q with q nonzero coprime, deg q <= (1-eps) deg p."""
    while True:
        deg_p = rng.randint(1, 8)
        max_q = int((1 - eps) * deg_p)
        coeffs = [rng.randint(-9, 9) for _ in range(deg_p)] + \
            [rng.choice([c for c in range(-9, 10) if c])]
        p = Poly(coeffs, QQ)
        deg_q = rng.randint(0, max_q)
        q = random_poly(rng, deg_q, nonzero=True)
        if poly_gcd(p, q).degree == 0:
            return RatFun(p, q)


def _contradiction_case_fails(rng: random.Random) -> bool:
    """P + r*m*Q must fall outside the (eps, deg P + r*m) divisor class."""
    base = random_divisor(rng)
    a = geometric_degree(base)
    eps = Fraction(rng.randint(1, 4), 4)
    r = rng.randint(1, 3)
    threshold = Fraction(a, r) * (1 - eps) / eps
    m = int(threshold) + 1 + rng.randint(0, 3)
    point = rng.randint(7, 12)  # outside the root range of random_divisor
    bump = Divisor([(Place.finite(Poly([-point, 1], QQ)), r * m)])
    total = base + bump
    return not z_set_member(total, eps, a + r * m)


# -- slicer suite ---------------------------------------------------------


def square_slice_system() -> DioSystem:
    """x = y^2 over F_2[z], the worked slice-enumeration example."""
    field = PrimeField(2)
    equation = (((1, 0), Poly([1], field)), ((0, 2), Poly([1], field)))
    return DioSystem(field, 1, 1, (equation,))


def verify_slicer() -> SuiteResult:
    checks: List[CheckResult] = []
    system = square_slice_system()
    field = system.field

    expected = {parse_poly(text, field)
                for text in ("0", "1", "z^2", "z^2 + 1")}
    result = enumerate_slice(system, 2, 1)
    projection = {xs[0] for xs in result.projection}
    checks.append(CheckResult(
        "slice-projection", projection == expected,
        "projection at alpha=2, beta=1 is {0, 1, z^2, z^2+1}"))

    union = slice_union(system, 2, 3)
    union_set = {xs[0] for xs in union.members}
    checks.append(CheckResult(
        "union-stabilization",
        union_set == expected and union.stabilized_at == 1,
        f"stabilized at beta={union.stabilized_at}"))

    roots = zero_set(union_set, field)
    expected_roots = {field.coerce(0), field.coerce(1)}
    checks.append(CheckResult(
        "zero-set", roots == expected_roots,
        "zero set of the projection is {0, 1}"))

    return SuiteResult("slicer", tuple(checks))


ALL_SUITES = {
    "elliptic": verify_elliptic,
    "analytic": verify_analytic,
    "divisors": verify_divisors,
    "slicer": verify_slicer,
}
