"""Dense univariate polynomials over an exact field.

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree -1.  The variable is
always called z.

Over Q the coefficients are stored as `Fraction`s, but multiplication,
division and gcds run on integer numerators over one common denominator.
A product costs one big-int multiply: each operand is packed into a single
int with one fixed-width slot per coefficient (Kronecker substitution),
the two ints are multiplied, and the slots of the product are read back
with borrows and divided by the product of the denominators.  Division is
fraction-free pseudo-division: each step scales the remainder by
lc / gcd(lc, top), which is 1 whenever the division is exact over Z (the
divisor is made primitive first), so `Fraction`s are built only for the
returned quotient and remainder.  Gcds over Q run a primitive
pseudo-remainder sequence on the same integer numerators, so intermediate
coefficient blowup stays bounded.  Over F_p the schoolbook loops and the
plain Euclidean algorithm are used.  Squarefree decomposition is
the derivative-gcd cascade (Yun); in characteristic p a nonzero part with
vanishing derivative aborts with an explicit inseparable-part report.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm
from typing import Iterable, List, Tuple

from .fields import Field, same_field


class InseparablePartError(ArithmeticError):
    """Squarefree decomposition hit a nonzero part with zero derivative.

    `part` is the undigested factor (a polynomial in z^p); `factors` holds
    the separable factors already extracted, as (poly, exponent) pairs.
    """

    def __init__(self, part: "Poly", factors):
        self.part = part
        self.factors = list(factors)
        super().__init__(
            f"inseparable part {part} (characteristic "
            f"{part.field.characteristic})")


class Poly:
    """Immutable dense polynomial over a fixed exact field."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs: Iterable, field: Field):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: Tuple = tuple(cs)
        self.field = field

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls((), field)

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls((1,), field)

    @classmethod
    def constant(cls, c, field: Field) -> "Poly":
        return cls((c,), field)

    @classmethod
    def gen(cls, field: Field) -> "Poly":
        """The polynomial z."""
        return cls((0, 1), field)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def lc(self):
        """Leading coefficient (of the zero polynomial: 0)."""
        return self.coeffs[-1] if self.coeffs else self.field.zero

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coefficient(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.field))

    # -- arithmetic ---------------------------------------------------

    def _same(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {other!r}")
        same_field(self.field, other.field)

    def __add__(self, other: "Poly") -> "Poly":
        self._same(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out, self.field)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], self.field)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        if self.field.characteristic == 0:
            return Poly(_q_mul(self.coeffs, other.coeffs), self.field)
        zero = self.field.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out, self.field)

    def scale(self, c) -> "Poly":
        c = self.field.coerce(c)
        return Poly([c * a for a in self.coeffs], self.field)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.one(self.field)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        self._same(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.field), self
        if self.field.characteristic == 0:
            quot, rem = _q_divmod(self.coeffs, other.coeffs)
            return Poly(quot, self.field), Poly(rem, self.field)
        rem = list(self.coeffs)
        quot = [self.field.zero] * (self.degree - other.degree + 1)
        inv_lc = self.field.one / other.lc
        for k in range(len(quot) - 1, -1, -1):
            c = rem[other.degree + k] * inv_lc
            quot[k] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[i + k] = rem[i + k] - c * b
        return Poly(quot, self.field), Poly(rem[:other.degree], self.field)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def __call__(self, a):
        """Horner evaluation at a field element."""
        a = self.field.coerce(a)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:], self.field)

    def monic(self) -> "Poly":
        if self.is_zero or self.lc == self.field.one:
            return self
        return self.scale(self.field.one / self.lc)

    # -- printing -----------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts: List[str] = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            negative = isinstance(c, Fraction) and c < 0
            mag = -c if negative else c
            if d == 0:
                body = str(mag)
            else:
                zpow = "z" if d == 1 else f"z^{d}"
                body = zpow if mag == self.field.one else f"{mag}*{zpow}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"{'-' if negative else '+'} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    a._same(b)
    if a.is_zero and b.is_zero:
        return a
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.field.characteristic == 0:
        return _rational_gcd(a, b)
    x, y = a, b
    while not y.is_zero:
        x, y = y, x % y
    return x.monic()


# -- integer kernels over Q ------------------------------------------------


def _int_numerators(cs) -> Tuple[List[int], int]:
    """Integer numerators of Fraction coefficients over their least common
    denominator, and that denominator."""
    den = int_lcm(*(c.denominator for c in cs))
    if den == 1:
        return [c.numerator for c in cs], 1
    return [c.numerator * (den // c.denominator) for c in cs], den


def _pack(cs: List[int], width: int) -> int:
    """sum(c_i * 2^(8 width i)): the positive and the negative coefficients
    are laid out as fixed-width little-endian slots separately."""
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero
                   for c in cs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero
                   for c in cs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_mul(u: List[int], v: List[int]) -> List[int]:
    """Product of two integer coefficient lists by one big-int multiply.

    Every product coefficient is below 2^(bu + bv + bl) in absolute value
    (bu, bv the largest coefficient sizes in bits, bl the size of the
    shorter length), so slots of that many bits plus a sign bit hold them.
    A slot read as an unsigned value plus the borrow from the slot below
    is the coefficient itself when below half the slot range, and that
    minus the range otherwise, with a borrow into the next slot.
    """
    bits = (max(map(abs, u)).bit_length() + max(map(abs, v)).bit_length()
            + min(len(u), len(v)).bit_length())
    width = bits // 8 + 1
    size = len(u) + len(v) - 1
    data = (_pack(u, width) * _pack(v, width)).to_bytes(
        width * size, "little", signed=True)
    half = 1 << (8 * width - 1)
    full = half << 1
    out = []
    borrow = 0
    for k in range(0, width * size, width):
        c = int.from_bytes(data[k:k + width], "little") + borrow
        borrow = c >= half
        out.append(c - full if borrow else c)
    return out


def _q_mul(a, b) -> List[Fraction]:
    """Coefficients of the product of two nonzero Fraction lists."""
    u, du = _int_numerators(a)
    v, dv = _int_numerators(b)
    den = du * dv
    return [Fraction(c, den) for c in _kronecker_mul(u, v)]


def _pseudo_divmod(u: List[int], v: List[int]):
    """Fraction-free division of integer lists, len(u) >= len(v) > 0.

    Returns (qn, qd, r, d) with u = sum_k (qn_k / qd_k) z^k * v + r / d.
    Each step removes the top coefficient s of the remainder after scaling
    the remainder by m = lc(v) / gcd(lc(v), s), so the remainder grows
    only when the step is not exact over Z, and d is the product of the
    scalings so far.
    """
    r = list(u)
    lv, dv = v[-1], len(v) - 1
    low = v[:-1]
    n = len(u) - dv
    qn, qd = [0] * n, [1] * n
    d = 1
    for k in range(n - 1, -1, -1):
        top = dv + k
        s = r[top]
        if not s:
            continue
        g = int_gcd(s, lv)
        m, t = lv // g, s // g
        if m != 1:
            d *= m
            r[:top] = [m * c for c in r[:top]]
        qn[k], qd[k] = t, d
        r[k:top] = [c - t * w for c, w in zip(r[k:top], low)]
    return qn, qd, r[:dv], d


def _q_divmod(a, b) -> Tuple[List[Fraction], List[Fraction]]:
    """Quotient and remainder coefficients of Fraction lists, b nonzero
    and len(a) >= len(b)."""
    u, du = _int_numerators(a)
    v, dv = _int_numerators(b)
    primitive = _int_primitive(v)
    content = v[-1] // primitive[-1]
    # a = u/du and b = (content/dv) primitive, so q = (dv / (du content))
    # (qn/qd) and r = r/(du d).
    qn, qd, r, d = _pseudo_divmod(u, primitive)
    qden, rden = du * content, du * d
    return ([Fraction(c * dv, e * qden) for c, e in zip(qn, qd)],
            [Fraction(c, rden) for c in r])


def _int_primitive(cs: List[int]) -> List[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return cs
    g = 0
    for c in cs:
        g = int_gcd(g, c)
        if g == 1:
            break
    if cs[-1] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


def _int_prem(u: List[int], v: List[int]) -> List[int]:
    """Pseudo-remainder of integer coefficient lists (up to content)."""
    r = list(u)
    dv, lv = len(v) - 1, v[-1]
    while r and len(r) - 1 >= dv:
        s = r[-1]
        r = [lv * c for c in r]
        shift = len(r) - 1 - dv
        for i, cv in enumerate(v):
            r[shift + i] -= s * cv
        while r and r[-1] == 0:
            r.pop()
    return r


def _rational_gcd(a: Poly, b: Poly) -> Poly:
    u = _int_primitive(_int_numerators(a.coeffs)[0])
    v = _int_primitive(_int_numerators(b.coeffs)[0])
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _int_primitive(_int_prem(u, v))
    return Poly([Fraction(c, u[-1]) for c in u], a.field)


def squarefree_decomposition(a: Poly) -> List[Tuple[Poly, int]]:
    """Write a = lc(a) * prod s_i^i with the s_i monic squarefree coprime.

    Returns the (s_i, i) pairs with ascending exponents, omitting trivial
    factors.  Constants decompose as the empty product.  Raises ValueError
    on the zero polynomial and InseparablePartError when a characteristic-p
    input has a factor in z^p.
    """
    if a.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    f = a.monic()
    if f.degree == 0:
        return []
    fp = f.derivative()
    if fp.is_zero:
        raise InseparablePartError(f, [])
    g = poly_gcd(f, fp)
    b = f // g
    d = (fp // g) - b.derivative()
    factors: List[Tuple[Poly, int]] = []
    i = 1
    while b.degree > 0:
        if i > f.degree:
            raise InseparablePartError(f, factors)
        s = poly_gcd(b, d)
        if s.degree > 0:
            factors.append((s, i))
        b = b // s
        d = (d // s) - b.derivative()
        i += 1
    if a.field.characteristic != 0:
        rebuilt = Poly.one(a.field)
        for s, e in factors:
            rebuilt = rebuilt * s ** e
        quot, rem = divmod(f, rebuilt)
        if not rem.is_zero:
            raise InseparablePartError(f, factors)
        if quot.degree > 0:
            raise InseparablePartError(quot, factors)
    return factors


def radical(a: Poly) -> Poly:
    """Product of the distinct monic irreducible factors of a (a != 0)."""
    if a.is_zero:
        raise ValueError("radical of the zero polynomial")
    if a.degree == 0:
        return Poly.one(a.field)
    return a.monic() // poly_gcd(a, a.derivative())
