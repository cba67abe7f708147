"""Rational functions p/q over an exact field, kept in canonical form.

Canonical form: gcd(num, den) = 1, den monic, the zero function is 0/1.
Equality is therefore structural.  The arithmetic routes (add, mul, div,
derivative) cancel cross-gcds before multiplying out, so the expensive
full-gcd normalization only runs on raw construction.

`INFINITY` is the sentinel for the point at infinity of P^1, accepted by
`valuation_at` and by the divisor predicates built on top of it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .fields import Field, QQ, same_field
from .poly import (Poly, _over_lc, _strip_root, poly_gcd,
                   squarefree_decomposition)


class _InfinityPoint:
    __slots__ = ()

    def __repr__(self):
        return "inf"


INFINITY = _InfinityPoint()


class SquareResult(NamedTuple):
    ok: bool
    witness: Optional["RatFun"]


def _monic_den(num: Poly, den: Poly):
    """The canonical pair for num/den, num and den coprime, den nonzero:
    den made monic, and 0/1 for zero."""
    if num.is_zero:
        return num, Poly.one(num.field)
    return _over_lc(num, den), _over_lc(den, den)


class RatFun:
    """Immutable rational function in canonical coprime-monic form."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly.one(num.field)
        num._same(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.is_zero:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        self.num, self.den = _monic_den(num, den)

    @classmethod
    def _coprime(cls, num: Poly, den: Poly) -> "RatFun":
        """Construct from a pair already known to be coprime (skips the gcd)."""
        obj = object.__new__(cls)
        obj.num, obj.den = _monic_den(num, den)
        return obj

    # -- constructors -------------------------------------------------

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFun":
        return cls._coprime(p, Poly.one(p.field))

    @classmethod
    def constant(cls, c, field: Field = QQ) -> "RatFun":
        return cls.from_poly(Poly.constant(c, field))

    @classmethod
    def zero(cls, field: Field = QQ) -> "RatFun":
        return cls.from_poly(Poly.zero(field))

    @classmethod
    def one(cls, field: Field = QQ) -> "RatFun":
        return cls.from_poly(Poly.one(field))

    @classmethod
    def gen(cls, field: Field = QQ) -> "RatFun":
        """The rational function z."""
        return cls.from_poly(Poly.gen(field))

    # -- basic queries ------------------------------------------------

    @property
    def field(self) -> Field:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        return (isinstance(other, RatFun) and self.field == other.field
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> Optional["RatFun"]:
        if isinstance(other, RatFun):
            same_field(self.field, other.field)
            return other
        if isinstance(other, Poly):
            same_field(self.field, other.field)
            return RatFun.from_poly(other)
        try:
            return RatFun.constant(other, self.field)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        d1, d2 = self.den, o.den
        g0 = poly_gcd(d1, d2)
        if g0.degree == 0:
            num = self.num * d2 + o.num * d1
            return RatFun._coprime(num, d1 * d2)
        e1, e2 = d1 // g0, d2 // g0
        num = self.num * e2 + o.num * e1
        g1 = poly_gcd(num, g0)
        if g1.degree > 0:
            num, g0 = num // g1, g0 // g1
        return RatFun._coprime(num, g0 * e1 * e2)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._coprime(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return RatFun.zero(self.field)
        n1, d2 = _cancel(self.num, o.den)
        n2, d1 = _cancel(o.num, self.den)
        return RatFun._coprime(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return self * RatFun._coprime(o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n == 0:
            return RatFun.one(self.field)
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero function")
            return RatFun._coprime(self.den ** -n, self.num ** -n)
        return RatFun._coprime(self.num ** n, self.den ** n)

    def derivative(self) -> "RatFun":
        """Quotient-rule derivative, in canonical form.

        With den = e * s (e = gcd(den, den'), s the radical), the derivative
        is (num' * s - num * u) / (e * s^2) with u = den'/e; in characteristic
        0 that fraction is already coprime.
        """
        if self.is_zero:
            return self
        dp = self.den.derivative()
        if self.den.degree == 0:
            return RatFun._coprime(self.num.derivative(), self.den)
        e = poly_gcd(self.den, dp)
        s = self.den // e
        u = dp // e
        m = self.num.derivative() * s - self.num * u
        if m.is_zero:
            return RatFun.zero(self.field)
        if self.field.characteristic == 0:
            return RatFun._coprime(m, e * s * s)
        return RatFun(m, e * s * s)

    # -- degrees and valuations ----------------------------------------

    def map_degree(self) -> int:
        """Degree as a morphism P^1 -> P^1; every constant (incl. 0) is 0."""
        if self.is_zero:
            return 0
        return max(self.num.degree, self.den.degree)

    def deg_star(self) -> int:
        """-v_inf, i.e. deg num - deg den; undefined for the zero function."""
        if self.is_zero:
            raise ValueError("deg* of the zero function is undefined")
        return self.num.degree - self.den.degree

    def valuation_at(self, point) -> int:
        """Order of vanishing at a base-field point or at INFINITY (f != 0)."""
        if self.is_zero:
            raise ValueError("valuation of the zero function is undefined")
        if point is INFINITY:
            return self.den.degree - self.num.degree
        a = self.field.coerce(point)
        return _strip_root(self.num, a)[0] - _strip_root(self.den, a)[0]

    # -- squares --------------------------------------------------------

    def is_square(self, semantics: str = "geometric") -> SquareResult:
        """Square test with two semantics (characteristic != 2).

        "geometric" models an algebraically closed constant field: f is a
        square iff every multiplicity in the squarefree decompositions of
        num and den is even.  "base-field" additionally requires the leading
        coefficient to be a square in the base field and returns a witness g
        with g^2 = f.
        """
        if semantics not in ("geometric", "base-field"):
            raise ValueError(f"unknown square semantics {semantics!r}")
        if self.field.characteristic == 2:
            raise ValueError("square test requires characteristic != 2")
        if self.is_zero:
            witness = self if semantics == "base-field" else None
            return SquareResult(True, witness)
        num_dec = squarefree_decomposition(self.num)
        den_dec = squarefree_decomposition(self.den)
        if any(e % 2 for _, e in num_dec) or any(e % 2 for _, e in den_dec):
            return SquareResult(False, None)
        if semantics == "geometric":
            return SquareResult(True, None)
        root = self.field.sqrt(self.num.lc)
        if root is None:
            return SquareResult(False, None)
        wn = Poly.constant(root, self.field)
        for s, e in num_dec:
            wn = wn * s ** (e // 2)
        wd = Poly.one(self.field)
        for s, e in den_dec:
            wd = wd * s ** (e // 2)
        return SquareResult(True, RatFun._coprime(wn, wd))

    # -- printing -------------------------------------------------------

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def _cancel(num: Poly, den: Poly):
    g = poly_gcd(num, den)
    if g.degree > 0:
        return num // g, den // g
    return num, den

