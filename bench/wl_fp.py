"""fp-slicer: brute-force slices over F_2, F_3 and F_5, and zero sets.

Each round runs ten small seeded slices (10^3 to ~3*10^3 candidates), the
x = y^2 system over F_2 at alpha = 6, beta = 5 (8192 candidates, a ROADMAP
baseline row), one seeded x + c1 y^2 + c2 y over F_3 (19683 candidates), one
`slice_union` sweep (~10^3 candidates in all), and three `zero_set`
families of two quintic or quartic polynomials: two with p in
[9*10^4, 10^5] and one with p in [10^2, 10^3].  The two large-p zero sets
are the p90 class of the workload.

Seeded systems put one x-variable linearly against two terms in the other
unknowns, so that solutions exist, plus a two-term second equation when
there are three unknowns (see `_seeded_system`).  The exponents are fixed
per shape; the seed draws the coefficients, polynomials of degree <= 1
over F_p.

Checks: refmath.PackedSystem enumerates every candidate again on
Kronecker-packed ints, so the solution list, the projection and the
`stabilized` flag are checked for completeness as well as soundness.
Zero sets over p <= 2000 are re-evaluated at every point of F_p; larger
families are built as products of chosen linear factors and a quadratic
z^2 - nu with nu a non-residue, so their roots are known exactly.
"""

from __future__ import annotations

import random

import refmath
from common import Job

TRACE_ROUNDS_PER_S = 0.05

# (p, n, m, alpha, beta): small shapes with 1024..3125 candidates
SMALL_SHAPES = [(2, 1, 1, 4, 4), (2, 1, 2, 3, 2), (2, 2, 1, 2, 3),
                (2, 1, 1, 5, 4), (3, 1, 1, 3, 2), (3, 1, 2, 2, 1),
                (5, 1, 1, 2, 1), (2, 2, 1, 3, 1), (2, 1, 1, 6, 3),
                (5, 1, 1, 1, 2)]
# x + c1 y^2 + c2 y over F_3 at alpha = 4, beta = 3: 19683 candidates; the
# same shape every round keeps the rounds alike
LARGE_SHAPE = (3, 1, 1, 4, 3)
# (p, n, m, alpha, beta_max): 750..1053 candidates over all beta
UNION_SHAPES = [(2, 1, 1, 4, 3), (3, 1, 1, 2, 2), (5, 1, 1, 1, 1)]
# zero-set strata of p
P_STRATA = [(100, 1000), (90_000, 95_000), (95_000, 100_000)]


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_near(rng, lo, hi):
    while True:
        q = rng.randint(lo, hi)
        if _is_prime(q):
            return q


def _rand_coeff(rng, p, max_degree=1):
    while True:
        cs = refmath.trim([rng.randrange(p)
                           for _ in range(rng.randint(0, max_degree) + 1)])
        if cs:
            return cs


def _seeded_system(rng, p, n, m):
    """x_1 + c1 v^2 + c2 w = 0, with v the last unknown and w the second;
    with three unknowns also c3 w v + c4 v = 0 (satisfied by v = 0).

    The pattern of exponents is fixed so that the cost per candidate does
    not depend on the seed; the seed draws the coefficients c_i, which
    decide the solutions.
    """
    width = n + m

    def monomial(**powers):
        return tuple(powers.get(f"v{i}", 0) for i in range(width))

    last = f"v{width - 1}"
    polys = [[(monomial(v0=1), [1]),
              (monomial(**{last: 2}), _rand_coeff(rng, p)),
              (monomial(v1=1) if width > 2 else monomial(**{last: 1}),
               _rand_coeff(rng, p))]]
    if width > 2:
        polys.append([(monomial(v1=1, **{last: 1}), _rand_coeff(rng, p)),
                      (monomial(**{last: 1}), _rand_coeff(rng, p))])
    return polys


def _system_json(p, n, m, polys):
    return {"p": p, "n": n, "m": m,
            "polys": [[{"exponents": list(e), "coeff": refmath.poly_text(c)}
                       for e, c in poly] for poly in polys]}


SQUARE_SYSTEM = (2, 1, 1, [[((1, 0), [1]), ((0, 2), [1])]])  # x = y^2


def _key(poly):
    return tuple(c.v for c in poly.coeffs)


class Workload:
    def __init__(self, seed: int):
        from funcfield import definability, fields, textio
        self.definability, self.fields, self.textio = \
            definability, fields, textio
        self.seed = seed

    def slice_job(self, p, n, m, polys, alpha, beta, tag=""):
        d = self.definability
        spec = _system_json(p, n, m, polys)

        def call():
            return d.enumerate_slice(d.DioSystem.from_json(spec), alpha, beta)

        def check(result):
            ref = refmath.PackedSystem(p, n, m, polys, alpha, beta)
            expected = sorted(ref.solutions(alpha, beta))
            got = [(tuple(_key(x) for x in xs), tuple(_key(y) for y in ys))
                   for xs, ys in result.solutions]
            projection = sorted({xs for xs, _ in expected})
            previous = {xs for xs, ys in expected
                        if all(len(y) <= beta for y in ys)}
            stabilized = beta > 0 and previous == set(projection)
            return (got == expected
                    and [tuple(_key(x) for x in xs)
                         for xs in result.projection] == projection
                    and result.stabilized == stabilized)
        return Job("enumerate_slice", call, check, tag)

    def union_job(self, p, n, m, polys, alpha, beta_max):
        d = self.definability
        spec = _system_json(p, n, m, polys)

        def call():
            return d.slice_union(d.DioSystem.from_json(spec), alpha, beta_max)

        def check(result):
            ref = refmath.PackedSystem(p, n, m, polys, alpha, beta_max)
            union, previous, stabilized_at = set(), None, None
            for beta in range(beta_max + 1):
                keys = {xs for xs, _ in ref.solutions(alpha, beta)}
                union |= keys
                if previous is not None and stabilized_at is None \
                        and keys == previous:
                    stabilized_at = beta - 1
                previous = keys
            return ([tuple(_key(x) for x in xs) for xs in result.members]
                    == sorted(union)
                    and result.stabilized_at == stabilized_at)
        return Job("slice_union", call, check)

    def zero_set_job(self, rng, p):
        d, parse = self.definability, self.textio.parse_poly
        if p <= 2000:
            family = [refmath.pmod_p([rng.randrange(p) for _ in range(5)]
                                     + [1], p) for _ in range(2)]
            expected = refmath.roots_fp(family, p)
        else:
            nu = next(v for v in range(2, p)
                      if pow(v, (p - 1) // 2, p) == p - 1)
            family, expected = [], set()
            for _ in range(2):
                roots = [rng.randrange(p) for _ in range(2)]
                expected.update(roots)
                f = refmath.pmul(refmath.from_roots(roots), [-nu, 0, 1])
                family.append(refmath.pmod_p(f, p))
        texts = [refmath.poly_text(f) for f in family]
        field_of = self.fields.PrimeField

        def call():
            field = field_of(p)
            return d.zero_set([parse(t, field) for t in texts], field)

        def check(roots):
            values = {a.v for a in roots}
            if p > 2000 and not all(
                    any(refmath.peval(f, a) % p == 0 for f in family)
                    for a in values):
                return False
            return values == expected
        return Job("zero_set", call, check)

    def round(self, r: int):
        rng = random.Random(self.seed * 1_000_003 + r)
        jobs = []
        for p, n, m, alpha, beta in SMALL_SHAPES:
            polys = _seeded_system(rng, p, n, m)
            jobs.append(self.slice_job(p, n, m, polys, alpha, beta))
        p, n, m, polys = SQUARE_SYSTEM
        jobs.append(self.slice_job(p, n, m, polys, 6, 5, "square-a6b5"))
        p, n, m, alpha, beta = LARGE_SHAPE
        jobs.append(self.slice_job(p, n, m, _seeded_system(rng, p, n, m),
                                   alpha, beta))
        p, n, m, alpha, beta_max = UNION_SHAPES[r % len(UNION_SHAPES)]
        jobs.append(self.union_job(p, n, m, _seeded_system(rng, p, n, m),
                                   alpha, beta_max))
        for lo, hi in P_STRATA:
            jobs.append(self.zero_set_job(rng, _prime_near(rng, lo, hi)))
        return jobs

    def warmup(self):
        p, n, m, polys = SQUARE_SYSTEM
        d = self.definability
        d.enumerate_slice(d.DioSystem.from_json(_system_json(p, n, m, polys)),
                          1, 1)
