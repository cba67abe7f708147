"""Effective divisors on the projective line, represented without factoring.

A place is either the point at infinity or a monic squarefree "block"
polynomial; a block of degree d stands for d geometric points over the
algebraic closure, grouped Galois-stably.  A divisor maps places to positive
multiplicities, with the finite blocks of distinct entries pairwise coprime,
so multiplicities and geometric point counts are exact without ever
factoring into irreducibles.  Blocks are made coprime by one routine,
`_coprime_basis`, the factor refinement (gcd-free basis) of Bach, Driscoll
and Shallit (1993); divisor sums and `elliptic.bad_fibers` both use it.

The membership predicates at the bottom express pole-behaviour classes of
rational functions: pole count without multiplicity (pn_member), the
denominator-degree gap classes (veps_member), Campana conditions
(campana_member), and the two divisor families cut out by support size
(y_set_member) and multiplicity at infinity (z_set_member).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isinf
from typing import Iterable, List, Optional, Tuple

from .fields import Field, FpElement
from .poly import Poly, _strip_root, poly_gcd, squarefree_decomposition
from .ratfun import INFINITY, RatFun
from .textio import _checked, parse_poly


def _coeff_key(c):
    return c.v if isinstance(c, FpElement) else c


@dataclass(frozen=True)
class Place:
    """A closed point of P^1: infinity, or a monic squarefree block."""

    poly: Optional[Poly]  # None encodes the point at infinity

    @staticmethod
    def infinity() -> "Place":
        return Place(None)

    @staticmethod
    def finite(poly: Poly) -> "Place":
        if poly.is_zero or poly.degree < 1:
            raise ValueError("finite place needs a polynomial of degree >= 1")
        poly = poly.monic()
        if poly_gcd(poly, poly.derivative()).degree != 0:
            raise ValueError(f"block {poly} is not squarefree")
        return Place(poly)

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        """Number of geometric points of the place."""
        return 1 if self.poly is None else self.poly.degree

    def sort_key(self):
        if self.poly is None:
            return (1, 0, ())
        return (0, self.poly.degree,
                tuple(_coeff_key(c) for c in reversed(self.poly.coeffs)))

    def __str__(self):
        return "inf" if self.poly is None else str(self.poly)


@dataclass(frozen=True)
class Divisor:
    """Effective divisor: finite map from places to positive multiplicities."""

    entries: Tuple[Tuple[Place, int], ...]

    def __init__(self, entries: Iterable[Tuple[Place, int]] = ()):
        pairs = list(entries)
        for place, mult in pairs:
            if _checked(mult, int, "multiplicity") < 1:
                raise ValueError(f"multiplicity {mult} at {place} not >= 1")
        finite = [p for p, _ in pairs if not p.is_infinity]
        if sum(1 for p, _ in pairs if p.is_infinity) > 1:
            raise ValueError("duplicate entry at infinity")
        if len(set(finite)) != len(finite):
            raise ValueError("duplicate finite place")
        for i, a in enumerate(finite):
            for b in finite[i + 1:]:
                if poly_gcd(a.poly, b.poly).degree != 0:
                    raise ValueError(
                        f"blocks {a} and {b} are not coprime")
        pairs.sort(key=lambda item: item[0].sort_key())
        object.__setattr__(self, "entries", tuple(pairs))

    @staticmethod
    def empty() -> "Divisor":
        return Divisor(())

    def mult(self, place: Place) -> int:
        for p, m in self.entries:
            if p == place:
                return m
        return 0

    def __add__(self, other: "Divisor") -> "Divisor":
        """Sum of divisors, refining overlapping blocks into coprime ones."""
        sides = [[(p.poly, m) for p, m in d.entries if not p.is_infinity]
                 for d in (self, other)]
        pairs = [(Place(block), sum(mults))  # monic, squarefree
                 for block, mults in _coprime_basis(sides)]
        inf_mult = sum(m for d in (self, other) for p, m in d.entries
                       if p.is_infinity)
        if inf_mult:
            pairs.append((Place.infinity(), inf_mult))
        return Divisor(pairs)

    def __str__(self):
        if not self.entries:
            return "0"
        return " + ".join(
            f"{m}*({p})" if m != 1 else f"({p})" for p, m in self.entries)


def _coprime_basis(sources) -> List[Tuple[Poly, List[int]]]:
    """Factor refinement of k lists of (monic squarefree block, mult).

    Returns [(block, [m_0, ..., m_{k-1}])] with the blocks monic, squarefree
    and pairwise coprime, and m_i the block's multiplicity in source i, so
    each source's product of block^mult is the product of block^m_i.  Each
    incoming block takes its gcd g with every basis block in turn; a basis
    block that g splits is replaced in place by g, followed by the rest,
    and what is left of the incoming block is appended.  So blocks keep
    their order of first appearance.
    """
    basis: List[Tuple[Poly, List[int]]] = []
    for s, source in enumerate(sources):
        for block, mult in source:
            i = 0
            while i < len(basis) and block.degree > 0:
                existing, mults = basis[i]
                g = poly_gcd(existing, block)
                i += 1
                if g.degree == 0:
                    continue
                block = block // g
                shared = list(mults)
                shared[s] += mult
                basis[i - 1] = (g, shared)
                if g.degree < existing.degree:
                    basis.insert(i, (existing // g, mults))
                    i += 1
            if block.degree > 0:
                mults = [0] * len(sources)
                mults[s] = mult
                basis.append((block, mults))
    return basis


# -- divisor measurements ----------------------------------------------


def pole_divisor(f: RatFun) -> Divisor:
    """The divisor of poles of f on P^1 (f != 0).

    Finite part from the squarefree decomposition of the denominator; the
    multiplicity at infinity is max(0, deg num - deg den).  Its geometric
    degree equals the map degree of f.
    """
    if f.is_zero:
        raise ValueError("pole divisor of the zero function is undefined")
    pairs: List[Tuple[Place, int]] = []
    if f.den.degree > 0:
        for block, mult in squarefree_decomposition(f.den):
            pairs.append((Place(block), mult))  # monic, squarefree
    inf_mult = f.num.degree - f.den.degree
    if inf_mult > 0:
        pairs.append((Place.infinity(), inf_mult))
    return Divisor(pairs)


def geometric_degree(divisor: Divisor) -> int:
    """Number of geometric points counted with multiplicity."""
    return sum(m * p.degree for p, m in divisor.entries)


def support_point_count(divisor: Divisor) -> int:
    """Number of geometric points in the support, ignoring multiplicity."""
    return sum(p.degree for p, _ in divisor.entries)


def mult_at(divisor: Divisor, point) -> int:
    """Multiplicity at a base-field point or at INFINITY (0 if absent)."""
    if point is INFINITY:
        return divisor.mult(Place.infinity())
    for place, mult in divisor.entries:
        if not place.is_infinity and not place.poly(point):
            return mult
    return 0


# -- membership predicates ---------------------------------------------


def pn_member(f: RatFun, n: int) -> bool:
    """f has at most n poles on P^1 over the algebraic closure, support-wise."""
    if n < 1:
        raise ValueError("pole-count bound must be >= 1")
    return support_point_count(pole_divisor(f)) <= n


def veps_member(f: RatFun, eps: Fraction) -> bool:
    """deg den <= (1 - eps) * deg num, compared in exact rational arithmetic.

    eps must lie in (0, 1]; at eps = 1 the members are exactly the nonzero
    polynomials.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if f.is_zero:
        raise ValueError("membership is defined for nonzero functions only")
    return Fraction(f.den.degree) <= (1 - eps) * f.num.degree


def campana_member(f: RatFun, points, ell) -> bool:
    """Every pole outside the point set has multiplicity >= ell.

    `points` is a finite iterable of base-field points and/or INFINITY;
    `ell` is an integer >= 1 or math.inf / INFINITY.  Removing a finite
    point from a block strips exactly that point: the rest of the block
    keeps its multiplicity.  ell = 1 accepts everything; ell = inf accepts
    exactly the functions with no pole outside the set.
    """
    if f.is_zero:
        raise ValueError("membership is defined for nonzero functions only")
    unbounded = ell is INFINITY or (isinstance(ell, float) and isinf(ell))
    if not unbounded and (not isinstance(ell, int) or ell < 1):
        raise ValueError(f"ell must be an integer >= 1 or infinity, got {ell}")
    points = list(points)
    drop_infinity = any(point is INFINITY for point in points)
    finite_points = [f.field.coerce(point) for point in points
                     if point is not INFINITY]
    remaining: List[int] = []
    for place, mult in pole_divisor(f).entries:
        if place.is_infinity:
            if not drop_infinity:
                remaining.append(mult)
            continue
        block = place.poly
        for a in finite_points:
            block = _strip_root(block, a)[1]
        if block.degree > 0:
            remaining.append(mult)
    return not remaining if unbounded else all(m >= ell for m in remaining)


def y_set_member(divisor: Divisor, n: int, ell: int) -> bool:
    """Effective, of geometric degree ell, with at most n support points."""
    if n < 1 or ell < 0:
        raise ValueError("need n >= 1 and ell >= 0")
    return (geometric_degree(divisor) == ell
            and support_point_count(divisor) <= n)


def z_set_member(divisor: Divisor, eps: Fraction, ell: int) -> bool:
    """Effective, of geometric degree ell, with mult at infinity >= eps*ell."""
    if ell < 0:
        raise ValueError("need ell >= 0")
    eps = Fraction(eps)
    return (geometric_degree(divisor) == ell
            and Fraction(mult_at(divisor, INFINITY)) >= eps * ell)


# -- serialization ------------------------------------------------------


def divisor_to_json(divisor: Divisor) -> List[dict]:
    """Deterministic list form: infinity last, blocks by degree then coeffs."""
    return [{"place": str(place), "mult": mult}
            for place, mult in divisor.entries]


def divisor_from_json(items: Iterable[dict], field: Field) -> Divisor:
    """The divisor of `divisor_to_json`'s list form; an entry that is no
    object, a place that is no string or a mult that is no JSON integer
    raises ValueError."""
    pairs = []
    for item in items:
        item = _checked(item, dict, "a divisor entry")
        place_text, mult = _checked(item["place"], str, "place"), item["mult"]
        if place_text == "inf":
            pairs.append((Place.infinity(), mult))
        else:
            pairs.append((Place.finite(parse_poly(place_text, field)), mult))
    return Divisor(pairs)
