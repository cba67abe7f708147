"""ec-heights: a few large exact jobs on elliptic curves over Q(z).

Curves: the reference y^2 = x^3 + z x + 1 with P = (0, 1), and per round a
seeded curve y^2 = x^3 + A x + B with A = alpha z + beta and a seeded
constant point (c, d), B = d^2 - c^3 - c A chosen so that P lies on the
curve (alpha, c in {-1, 1}, beta in {-1, 0, 1}, d in {1, 2}).  Every
such curve with a squarefree discriminant has three I1
fibers and a III* fiber at infinity through whose singular point P passes,
so by Shioda's height formula h^(P) = 2 - 3/2 = 1/2 and deg x(nP) =
floor(n^2 / 2) for all of them.  That fixes the degree band (n = 20 gives
degree 200) independently of the seed; the seeded curves have larger
coefficients than the reference, so their n is capped lower (at 12) to keep
every seed in the same cost band.

Checks: the curve and the point are specialized at a seeded rational z0
with a nonsingular, non-torsion fiber; the chord-tangent law over Q (in
refmath) gives n * P(z0), which must equal x(nP)(z0) and y(nP)(z0).  The
degree and the height estimates must match floor(n^2/2) and
floor(4^k/2) / 4^k.
"""

from __future__ import annotations

import random
from fractions import Fraction

import refmath
from common import Job

# Rounds per traced run, per second of --seconds (see run.py).
TRACE_ROUNDS_PER_S = 0.15
# Degree cap from the height: deg x(nP) ~ h^ n^2 <= 200 with h^ = 1/2.
H_HAT = Fraction(1, 2)
MAX_DEG_X = 200

REFERENCE = ([0, 1], [1], 0, 1)  # A, B coefficient lists; point (x0, y0)


def delta_poly(a_cs, b_cs):
    """4A^3 + 27B^2 as a coefficient list."""
    return refmath.padd(refmath.pscale(refmath.ppow(a_cs, 3), 4),
                        refmath.pscale(refmath.pmul(b_cs, b_cs), 27))


def seeded_curve(rng: random.Random):
    """A generic member of the family: c nonzero, squarefree delta.

    alpha and c come from {-1, 1}, beta from {-1, 0, 1} and d from {1, 2},
    which keeps the coefficient sizes, and with them the cost of a job,
    within about 10% across curves.
    """
    while True:
        alpha = rng.choice((1, -1))
        beta = rng.randint(-1, 1)
        c = rng.choice((1, -1))
        d = rng.choice((1, 2))
        a_cs = [beta, alpha]
        b_cs = refmath.padd([d * d - c ** 3], refmath.pscale(a_cs, -c))
        delta = delta_poly(a_cs, b_cs)
        if len(refmath.pgcd_q(delta, refmath.pderiv(delta))) == 1:
            return a_cs, b_cs, c, d


def _specialize(rng: random.Random, a_cs, b_cs, x0, y0):
    """A seeded z0 with a smooth fiber on which P(z0) has infinite order."""
    while True:
        z0 = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        a0 = refmath.peval(a_cs, z0)
        b0 = refmath.peval(b_cs, z0)
        if 4 * a0 ** 3 + 27 * b0 ** 2 == 0:
            continue
        point = (Fraction(x0), Fraction(y0))
        multiple, torsion = point, False
        for _ in range(2, 13):  # Mazur: torsion orders are at most 12
            multiple = refmath.ec_add_q(a0, multiple, point)
            if multiple is None:
                torsion = True
                break
        if not torsion:
            return z0, a0, point


class Workload:
    def __init__(self, seed: int):
        from funcfield import elliptic, textio
        self.elliptic, self.textio = elliptic, textio
        self.seed = seed
        self.n_cap = int((MAX_DEG_X / H_HAT) ** 0.5)  # 20

    # -- jobs -------------------------------------------------------

    def _curve_factory(self, a_cs, b_cs, x0, y0):
        texts = (refmath.poly_text(a_cs), refmath.poly_text(b_cs), str(x0),
                 str(y0))
        ell, parse = self.elliptic, self.textio.parse_ratfun

        def build():
            a, b, x, y = (parse(t) for t in texts)
            return ell.Curve(a, b), ell.ECPoint.affine(x, y)
        return build

    @staticmethod
    def _point_ok(point, n, spec):
        z0, a0, p0 = spec
        if point.is_identity:
            return False
        x_num, x_den = list(point.x.num.coeffs), list(point.x.den.coeffs)
        if max(len(x_num), len(x_den)) - 1 != n * n // 2:
            return False
        expected = refmath.ec_mul_q(a0, n, p0)
        return (refmath.rat_eval((x_num, x_den), z0) == expected[0]
                and refmath.rat_eval((list(point.y.num.coeffs),
                                      list(point.y.den.coeffs)), z0)
                == expected[1])

    def multiply(self, build, n, spec, tag=""):
        ell = self.elliptic

        def call():
            curve, point = build()
            return ell.ec_multiply(curve, n, point)
        return Job("ec_multiply", call, lambda q: self._point_ok(q, n, spec),
                   tag)

    def naive(self, build, n, spec):
        ell = self.elliptic

        def call():
            curve, point = build()
            multiple = ell.ec_multiply(curve, n, point)
            return multiple, ell.naive_height(curve, multiple)

        def check(answer):
            multiple, height = answer
            return height == n * n // 2 and self._point_ok(multiple, n, spec)
        return Job("naive_height", call, check)

    def hhat(self, build, k, tag=""):
        ell = self.elliptic

        def call():
            curve, point = build()
            return ell.canonical_height_estimate(curve, point, k)
        expected = Fraction(4 ** k // 2, 4 ** k)
        return Job("canonical_height", call, lambda h: h == expected, tag)

    def growth(self, build, n_max):
        ell = self.elliptic

        def call():
            curve, point = build()
            return ell.degree_growth_report(curve, point, n_max)
        expected = [(n, n * n // 2, Fraction(2 * (n * n // 2), n * n))
                    for n in range(1, n_max + 1)]
        return Job("degree_growth", call, lambda rows: list(rows) == expected)

    # -- rounds ------------------------------------------------------

    def round(self, r: int):
        rng = random.Random(self.seed * 1_000_003 + r)
        ref = self._curve_factory(*REFERENCE)
        ref_spec = _specialize(rng, REFERENCE[0], REFERENCE[1], 0, 1)
        a_cs, b_cs, c, d = seeded_curve(rng)
        seeded = self._curve_factory(a_cs, b_cs, c, d)
        spec = _specialize(rng, a_cs, b_cs, c, d)
        cap = min(self.n_cap, 12)
        return [
            # reference curve: the ROADMAP rows n = 8, 12, 16, 20 and k = 4.
            # With 17 jobs the median falls inside one job's class (growth
            # to 10) and p90 between the two jobs below k = 4, not on the
            # boundary between two classes.
            self.multiply(ref, 8, ref_spec, "ref-n8"),
            self.multiply(ref, 12, ref_spec, "ref-n12"),
            self.multiply(ref, 16, ref_spec, "ref-n16"),
            self.multiply(ref, self.n_cap, ref_spec, f"ref-n{self.n_cap}"),
            self.hhat(ref, 4, "ref-k4"),
            self.hhat(ref, 3),
            self.hhat(ref, 2),
            self.growth(ref, 10),
            self.naive(ref, 10, ref_spec),
            # seeded curve, n capped lower for its larger coefficients
            self.multiply(seeded, 6, spec),
            self.multiply(seeded, 9, spec),
            self.multiply(seeded, cap, spec),
            self.hhat(seeded, 2),
            self.hhat(seeded, 3),
            self.growth(seeded, 8),
            self.naive(seeded, 8, spec),
            self.naive(seeded, 10, spec),
        ]

    def warmup(self):
        build = self._curve_factory(*REFERENCE)
        curve, point = build()
        self.elliptic.ec_multiply(curve, 2, point)
