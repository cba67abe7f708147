"""The elliptic curve y^2 = x^3 + A x + B over k(z), exactly.

Everything here is short-Weierstrass, characteristic 0.  Beyond the group
law and point multiplication, the module computes naive heights (degree of
the x-coordinate), canonical-height estimates h(2^k P)/4^k, the c4/c6/delta
invariants, the Kodaira type of each bad fiber from the valuation triple of
a minimal model, and the Shioda-Tate rank count for rational elliptic
surfaces.

The reference curve throughout the package is y^2 = x^3 + z*x + 1 with the
generator point (0, 1): a rational elliptic surface with three I1 fibers on
the block 4z^3 + 27 and a III* fiber at infinity, Mordell-Weil lattice of
rank 1 with minimal height 1/2 (the lattice A1-dual).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import List, Optional, Tuple

from .divisors import Place
from .fields import Field, QQ, same_field
from .poly import Poly, poly_gcd, squarefree_decomposition
from .ratfun import RatFun


class OffCurveError(ValueError):
    """A point handed to the group law does not satisfy the curve equation."""


class NonMinimalModelError(ValueError):
    """Valuation triple admits a u^12 reduction; minimalize before classifying."""


class NotRationalSurfaceError(ValueError):
    """Fiber data whose delta degrees do not sum to 12."""


class TorsionPointError(ArithmeticError):
    """A multiple of the input point hit the identity."""


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + A x + B with nonzero discriminant."""

    A: RatFun
    B: RatFun

    def __post_init__(self):
        same_field(self.A.field, self.B.field)
        if not (4 * self.A ** 3 + 27 * self.B ** 2):
            raise ValueError("singular curve: 4A^3 + 27B^2 = 0")

    @property
    def field(self) -> Field:
        return self.A.field

    def __str__(self):
        return f"y^2 = x^3 + ({self.A})*x + ({self.B})"


def default_curve(field: Field = QQ) -> Curve:
    """The reference curve y^2 = x^3 + z*x + 1."""
    return Curve(RatFun.gen(field), RatFun.one(field))


@dataclass(frozen=True)
class ECPoint:
    x: Optional[RatFun]
    y: Optional[RatFun]

    @staticmethod
    def identity() -> "ECPoint":
        return ECPoint(None, None)

    @staticmethod
    def affine(x: RatFun, y: RatFun) -> "ECPoint":
        return ECPoint(x, y)

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "ECPoint":
        if self.is_identity:
            return self
        return ECPoint(self.x, -self.y)

    def __str__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


def generator_point(field: Field = QQ) -> ECPoint:
    """(0, 1) on the reference curve."""
    return ECPoint.affine(RatFun.zero(field), RatFun.one(field))


def on_curve(curve: Curve, point: ECPoint) -> bool:
    if point.is_identity:
        return True
    return point.y ** 2 == point.x ** 3 + curve.A * point.x + curve.B


def _require_on_curve(curve: Curve, point: ECPoint) -> None:
    if not on_curve(curve, point):
        raise OffCurveError(f"{point} does not lie on {curve}")


def _add(curve: Curve, p: ECPoint, q: ECPoint) -> ECPoint:
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    if p.x == q.x:
        if not (p.y + q.y):
            return ECPoint.identity()
        slope = (3 * p.x ** 2 + curve.A) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope ** 2 - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return ECPoint.affine(x3, y3)


def ec_add(curve: Curve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent addition."""
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    return _add(curve, p, q)


def ec_multiply(curve: Curve, n: int, point: ECPoint) -> ECPoint:
    """n-th multiple by double-and-add; negative n via negation."""
    _require_on_curve(curve, point)
    return _multiply(curve, n, point)


def _multiply(curve: Curve, n: int, point: ECPoint) -> ECPoint:
    if n == 0:
        return ECPoint.identity()
    if n < 0:
        n, point = -n, -point
    result = ECPoint.identity()
    base = point
    while n:
        if n & 1:
            result = _add(curve, result, base)
        n >>= 1
        if n:
            base = _add(curve, base, base)
    return result


def naive_height(curve: Curve, point: ECPoint) -> int:
    """Map degree of the x-coordinate of an affine point."""
    _require_on_curve(curve, point)
    if point.is_identity:
        raise ValueError("naive height of the identity is undefined")
    return point.x.map_degree()


def canonical_height_estimate(curve: Curve, point: ECPoint, k: int) -> Fraction:
    """h(2^k P) / 4^k as an exact rational (k >= 1, P affine non-torsion).

    Only P is checked against the curve; 2^k P is computed here and its
    height read off directly.
    """
    if k < 1:
        raise ValueError("doubling count must be >= 1")
    _require_on_curve(curve, point)
    if point.is_identity:
        raise ValueError("height estimate needs an affine point")
    doubled = point
    for _ in range(k):
        doubled = _add(curve, doubled, doubled)
        if doubled.is_identity:
            raise TorsionPointError(f"{point} is torsion")
    return Fraction(doubled.x.map_degree(), 4 ** k)


def degree_growth_report(
        curve: Curve, point: ECPoint, n_max: int,
) -> List[Tuple[int, int, Fraction]]:
    """(n, deg(x_n), deg(x_n) / (n^2/2)) for n = 1..n_max.

    Each multiple is the sum of two earlier ones, nP = (n - n//2)P +
    (n//2)P, so the report takes n_max group-law steps, each on points of
    about a quarter of the result's degree; adding P to (n-1)P instead
    works on points almost as large as the result and costs more.  The
    point is checked once; its multiples, computed here, are not.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _require_on_curve(curve, point)
    rows = []
    multiples = {0: ECPoint.identity(), 1: point}
    for n in range(1, n_max + 1):
        multiple = multiples[n] = _add(curve, multiples[n - n // 2],
                                       multiples[n // 2])
        if multiple.is_identity:
            raise TorsionPointError(f"{n} * {point} is the identity")
        degree = multiple.x.map_degree()
        rows.append((n, degree, Fraction(2 * degree, n * n)))
    return rows


# -- discriminant, fibers, rank ------------------------------------------


def discriminant_and_c_invariants(curve: Curve) -> Tuple[RatFun, RatFun, RatFun]:
    """(delta, c4, c6) = (-16(4A^3 + 27B^2), -48A, -864B)."""
    delta = -16 * (4 * curve.A ** 3 + 27 * curve.B ** 2)
    return delta, -48 * curve.A, -864 * curve.B


def kodaira_classify(v_c4: Optional[int], v_c6: Optional[int],
                     v_delta: int) -> str:
    """Kodaira type from the valuations of a minimal model, residue char 0.

    None encodes an infinite valuation (c4 or c6 identically zero).  Raises
    NonMinimalModelError when v(c4) >= 4 and v(delta) >= 12, and ValueError
    on triples no fiber type attains.
    """
    if (v_c4 is None or v_c4 >= 4) and v_delta >= 12:
        raise NonMinimalModelError(
            f"triple ({v_c4}, {v_c6}, {v_delta}) admits a u^12 reduction")
    if v_delta < 0:
        raise ValueError("v(delta) must be >= 0")

    def invalid():
        return ValueError(
            f"no fiber type has valuations ({v_c4}, {v_c6}, {v_delta})")

    if v_delta == 0:
        return "I0"
    if v_c4 == 0:
        if v_c6 != 0:
            raise invalid()
        return f"I{v_delta}"
    # additive reduction: v(c4) >= 1 or c4 = 0
    if v_delta == 2:
        if v_c6 != 1:
            raise invalid()
        return "II"
    if v_delta == 3:
        if v_c4 != 1 or (v_c6 is not None and v_c6 < 2):
            raise invalid()
        return "III"
    if v_delta == 4:
        if v_c6 != 2:
            raise invalid()
        return "IV"
    if v_delta == 6:
        if (v_c4 is not None and v_c4 < 2) or (v_c6 is not None and v_c6 < 3):
            raise invalid()
        return "I0*"
    if v_c4 == 2 and v_c6 == 3 and v_delta >= 7:
        return f"I{v_delta - 6}*"
    if v_delta == 8:
        if v_c6 != 4 or (v_c4 is not None and v_c4 < 3):
            raise invalid()
        return "IV*"
    if v_delta == 9:
        if v_c4 != 3 or (v_c6 is not None and v_c6 < 5):
            raise invalid()
        return "III*"
    if v_delta == 10:
        if v_c6 != 5 or (v_c4 is not None and v_c4 < 4):
            raise invalid()
        return "II*"
    raise invalid()


_COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3,
               "IV*": 7, "III*": 8, "II*": 9}


def fiber_components(kodaira: str) -> int:
    """Number of irreducible components of a Kodaira fiber."""
    if kodaira in _COMPONENTS:
        return _COMPONENTS[kodaira]
    if kodaira.startswith("I") and kodaira.endswith("*"):
        return int(kodaira[1:-1]) + 5
    if kodaira.startswith("I"):
        return int(kodaira[1:])
    raise ValueError(f"unknown Kodaira type {kodaira!r}")


@dataclass(frozen=True)
class FiberReport:
    """Valuations and Kodaira type of a bad fiber, after minimalization.

    A finite place of block degree d stands for d geometric fibers with the
    same data.  v_c4 / v_c6 are None when the invariant vanishes identically.
    """

    place: Place
    v_c4: Optional[int]
    v_c6: Optional[int]
    v_delta: int
    kodaira: str

    def to_json(self) -> dict:
        return {"place": str(self.place), "v_c4": self.v_c4,
                "v_c6": self.v_c6, "v_delta": self.v_delta,
                "type": self.kodaira,
                "geometric_fibers": self.place.degree}


def _minimalize(v4: Optional[int], v6: Optional[int],
                vd: int) -> Tuple[Optional[int], Optional[int], int]:
    while (v4 is None or v4 >= 4) and (v6 is None or v6 >= 6) and vd >= 12:
        v4 = None if v4 is None else v4 - 4
        v6 = None if v6 is None else v6 - 6
        vd -= 12
    return v4, v6, vd


def _block_valuation(block: Poly, decomposition) -> int:
    for factor, exponent in decomposition:
        if (factor % block).is_zero:
            return exponent
    return 0


def bad_fibers(curve: Curve) -> List[FiberReport]:
    """All bad fibers of the elliptic surface of a polynomial-coefficient curve.

    Finite places are the squarefree blocks of the discriminant, refined so
    the c4/c6 valuations are constant across each block, then minimalized
    and classified.  The place at infinity uses the substitution z = 1/w
    with the least (x, y) -> (u^2 x, u^3 y) rescaling making the
    coefficients w-integral, after which valuations reduce to degree counts.
    """
    if not (curve.A.is_polynomial and curve.B.is_polynomial):
        raise ValueError("fiber analysis needs polynomial coefficients")
    if curve.field.characteristic != 0:
        raise ValueError("fiber classification is residue-characteristic 0")
    a_poly, b_poly = curve.A.num, curve.B.num
    delta, c4, c6 = discriminant_and_c_invariants(curve)
    delta_poly, c4_poly, c6_poly = delta.num, c4.num, c6.num

    reports: List[FiberReport] = []

    # finite part: refine delta blocks against c4/c6 blocks
    c4_dec = [] if c4_poly.is_zero else squarefree_decomposition(c4_poly)
    c6_dec = [] if c6_poly.is_zero else squarefree_decomposition(c6_poly)
    refiners = [s for s, _ in c4_dec] + [s for s, _ in c6_dec]
    if delta_poly.degree > 0:
        for block, v_delta in squarefree_decomposition(delta_poly):
            pieces = [block]
            for refiner in refiners:
                split: List[Poly] = []
                for piece in pieces:
                    g = poly_gcd(piece, refiner)
                    if 0 < g.degree < piece.degree:
                        split.extend([g, piece // g])
                    else:
                        split.append(piece)
                pieces = split
            for piece in pieces:
                v4 = None if c4_poly.is_zero else _block_valuation(piece, c4_dec)
                v6 = None if c6_poly.is_zero else _block_valuation(piece, c6_dec)
                v4, v6, vd = _minimalize(v4, v6, v_delta)
                kodaira = kodaira_classify(v4, v6, vd)
                if kodaira != "I0":
                    reports.append(
                        FiberReport(Place.finite(piece), v4, v6, vd, kodaira))

    # infinity: valuations in w = 1/z after the minimal u = w^k rescaling
    k = 0
    if not a_poly.is_zero:
        k = max(k, ceil(a_poly.degree / 4))
    if not b_poly.is_zero:
        k = max(k, ceil(b_poly.degree / 6))
    v4 = None if c4_poly.is_zero else 4 * k - c4_poly.degree
    v6 = None if c6_poly.is_zero else 6 * k - c6_poly.degree
    vd = 12 * k - delta_poly.degree
    v4, v6, vd = _minimalize(v4, v6, vd)
    kodaira = kodaira_classify(v4, v6, vd)
    if kodaira != "I0":
        reports.append(FiberReport(Place.infinity(), v4, v6, vd, kodaira))
    return reports


def delta_degree_total(fibers: List[FiberReport]) -> int:
    """Sum of v(delta) over geometric fibers of the minimal model."""
    return sum(report.v_delta * report.place.degree for report in fibers)


def shioda_tate_rank(fibers: List[FiberReport]) -> int:
    """Mordell-Weil rank bound 8 - sum(m_v - 1) for a rational surface.

    Requires the minimal-model delta degrees to sum to 12 (the rational
    elliptic surface case); each finite block contributes one fiber per
    geometric point.
    """
    total = delta_degree_total(fibers)
    if total != 12:
        raise NotRationalSurfaceError(
            f"delta degree sum {total} != 12; not a rational elliptic surface")
    correction = sum(
        (fiber_components(report.kodaira) - 1) * report.place.degree
        for report in fibers)
    return 8 - correction


@dataclass(frozen=True)
class MordellWeilLattice:
    name: str
    rank: int
    minimal_norm: Fraction


def mordell_weil_lattice(fibers: List[FiberReport]) -> Optional[MordellWeilLattice]:
    """The lattice of the section group, as a constant lookup.

    Only the configuration {I1 x 3, III*} of the reference surface is
    identified: rank 1 with minimal norm 1/2, the dual of A1.  Every
    other configuration returns None rather than guessing.
    """
    counts: dict = {}
    for report in fibers:
        counts[report.kodaira] = counts.get(report.kodaira, 0) \
            + report.place.degree
    if counts == {"I1": 3, "III*": 1} and shioda_tate_rank(fibers) == 1:
        return MordellWeilLattice("A1*", 1, Fraction(1, 2))
    return None
