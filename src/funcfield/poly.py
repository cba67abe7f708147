"""Dense univariate polynomials over Q and over the prime fields F_p.

A polynomial is a tuple of ints, low degree first with no trailing zeros,
over one denominator.  Over Q it is sum(c_i z^i) / d with d > 0 and
gcd(d, c_0, c_1, ...) = 1, so every value has one stored form (zero is
the empty tuple over 1) and equality and hashing compare ints.  Over F_p
the ints are residues in [0, p) over 1.  `Fraction` and `FpElement` values
are built only at the edge: `Poly(coeffs, field)` validates and converts
its input once, and `coeffs`, `lc`, `coefficient` and evaluation build
them on the way out.  Nothing in between builds any: `zero`, `one`, `gen`
and `constant` of an int store their tuples directly, `monic` and the
other divisions by a leading coefficient (`_over_lc`) run on the
numerators, and printing reduces each c/d with one int gcd.  The variable
is always called z.

Each arithmetic operation is one code path for both fields: it works on
the ints and hands the result to `_normal`, the one constructor that
knows the stored form of each field (over F_p it reduces mod p, over Q it
cancels the content).  Products of every size run `_mul`, which
`definability` also calls on residue lists: short or small products run
the schoolbook loop over Z, and the others one big-int multiply
(Kronecker substitution: both operands evaluated at a power of two by the
shifts GCDHEU also uses, the product read back with an offset per slot; a
square is evaluated once and squared); with p nonzero each coefficient is
then reduced mod p once.  Before that multiply, and before every gcd, the
supports are read: a single term c z^k is a shift and a scale, and when
u = z^a U(z^d) and v = z^b V(z^d) with d > 1, the product is
z^(a+b) (U V)(z^d) and the gcd z^min(a, b) gcd(U, V)(z^d), so both run on
U and V and not on their zeros.  Over Q, division by a constant scales the
numerators; other divisions are fraction-free pseudo-division
d u = q v + r with one integer d.  Gcds over Q run the heuristic gcd
(GCDHEU) on the primitive numerators with a primitive pseudo-remainder
sequence as fallback; README states the cost model.  Over F_p division
and the Euclidean algorithm run on the residues.  Squarefree decomposition
is one loop for both fields (Musser): over F_p what it leaves has zero
derivative, so it is r(z^p) = r^p, and the loop runs again on r, read off
every p-th coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd as int_gcd
from math import isqrt
from math import lcm as int_lcm
from typing import Iterable, List, Sequence, Tuple

from .fields import Field, FpElement, same_field


class Poly:
    """Immutable dense polynomial over a fixed exact field."""

    __slots__ = ("_ints", "_den", "field")

    def __init__(self, coeffs: Iterable, field: Field):
        cs = [field.coerce(c) for c in coeffs]
        if field.characteristic:
            ints, den = [c.v for c in cs], 1
        else:
            # canonical already: each prime power of the lcm is all of some
            # reduced denominator, and that numerator stays prime to it
            den = int_lcm(*(c.denominator for c in cs))
            ints = [c.numerator * (den // c.denominator) for c in cs]
        _trim(ints)
        self._ints: Tuple[int, ...] = tuple(ints)
        self._den = den if ints else 1
        self.field = field

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return _poly((), 1, field)

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return _poly((1,), 1, field)

    @classmethod
    def constant(cls, c, field: Field) -> "Poly":
        """The constant c: an int is stored as it stands (reduced mod p),
        any other value is validated by the constructor."""
        if type(c) is int:
            return _normal([c], 1, field)
        return cls((c,), field)

    @classmethod
    def gen(cls, field: Field) -> "Poly":
        """The polynomial z."""
        return _poly((0, 1), 1, field)

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self) -> Tuple:
        """The coefficients as field elements, low degree first."""
        return tuple(map(self.coefficient, range(len(self._ints))))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._ints) - 1

    @property
    def lc(self):
        """Leading coefficient (of the zero polynomial: 0)."""
        return self.coefficient(len(self._ints) - 1)

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def is_constant(self) -> bool:
        return len(self._ints) <= 1

    @property
    def is_monic(self) -> bool:
        """Whether the leading coefficient is 1 (never for zero)."""
        return bool(self._ints) and self._ints[-1] == self._den

    def coefficient(self, i: int):
        ints, p = self._ints, self.field.characteristic
        c = ints[i] if 0 <= i < len(ints) else 0
        return FpElement(c, p) if p else Fraction(c, self._den)

    def __bool__(self):
        return bool(self._ints)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self._ints == other._ints
                and self._den == other._den
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self._ints, self._den, self.field))

    # -- arithmetic ---------------------------------------------------

    def _same(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {other!r}")
        same_field(self.field, other.field)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, over the lcm of the denominators."""
        if not isinstance(other, Poly):
            return NotImplemented
        same_field(self.field, other.field)
        d = int_lcm(self._den, other._den)
        sa, sb = d // self._den, sign * d // other._den
        return _normal([x * sa + y * sb for x, y in zip_longest(
            self._ints, other._ints, fillvalue=0)], d, self.field)

    def __neg__(self) -> "Poly":
        return _normal([-c for c in self._ints], self._den, self.field)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        same_field(self.field, other.field)
        return _normal(_mul(self._ints, other._ints),
                       self._den * other._den, self.field)

    def scale(self, c) -> "Poly":
        n, d = _ratio(self.field.coerce(c))
        return _normal([n * a for a in self._ints], self._den * d,
                       self.field)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return _poly((1,), 1, self.field)
        if len(self._ints) <= 1:  # a constant: one power of its ints
            p = self.field.characteristic
            return _normal([pow(c, n, p) if p else c ** n
                            for c in self._ints], self._den ** n, self.field)
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
        a, b, field = self._ints, other._ints, self.field
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(a) < len(b):
            return _poly((), 1, field), self
        p = field.characteristic
        if p:
            quot, rem = _divmod(a, b, p)
            return _poly(quot, 1, field), _poly(rem, 1, field)
        if len(b) == 1:
            # a / (b0 / db) = a db / (da b0), with no remainder
            return (_normal([c * other._den for c in a], self._den * b[0],
                            field), _poly((), 1, field))
        w = _int_primitive(list(b))
        content = b[-1] // w[-1]
        quot, rem, d = _pseudo_divmod(a, w)
        # With a = u / da, b = content w / db and d u = quot w + rem:
        # a = quot db / (d da content) b + rem / (d da).
        d *= self._den
        return (_normal([c * other._den for c in quot], d * content, field),
                _normal(rem, d, field))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, a):
        """Horner evaluation at a field element."""
        a = self.field.coerce(a)
        ints, p = self._ints, self.field.characteristic
        if p:
            acc = 0
            for c in reversed(ints):
                acc = (acc * a.v + c) % p
            return FpElement(acc, p)
        if not ints:
            return Fraction(0)
        acc, power = _homogeneous(ints, a.numerator, a.denominator)
        return Fraction(acc, self._den * power)

    def derivative(self) -> "Poly":
        return _normal([i * c for i, c in enumerate(self._ints)][1:],
                       self._den, self.field)

    def monic(self) -> "Poly":
        return _over_lc(self, self) if self._ints else self

    # -- printing -----------------------------------------------------

    def __str__(self):
        """Terms from the top down, each c/d cancelled by one int gcd (over
        F_p d is 1 and the residues are never negative)."""
        ints, den = self._ints, self._den
        if not ints:
            return "0"
        parts: List[str] = []
        for d in range(len(ints) - 1, -1, -1):
            n = ints[d]
            if not n:
                continue
            negative = n < 0
            if negative:
                n = -n
            m = den
            if m != 1:
                g = int_gcd(n, m)
                n, m = n // g, m // g
            mag = str(n) if m == 1 else f"{n}/{m}"
            if d == 0:
                body = mag
            else:
                zpow = "z" if d == 1 else f"z^{d}"
                body = zpow if mag == "1" else f"{mag}*{zpow}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"{'-' if negative else '+'} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def _poly(ints: Sequence[int], den: int, field: Field) -> Poly:
    """A Poly from ints and den already in the stored form."""
    obj = object.__new__(Poly)
    obj._ints = tuple(ints)
    obj._den = den
    obj.field = field
    return obj


def _over_lc(f: Poly, g: Poly, k: int = 1) -> Poly:
    """f / lc(g)^k for a nonzero g, on the ints.  Over F_p the residues are
    multiplied by lc^-k mod p.  Over Q, with f = F / d and lc(g) = c / e,
    it is F e^k / (d c^k), and the monic form of f (g is f, k = 1) is F
    over c alone; either is one `_normal` call."""
    c, field = g._ints[-1], f.field
    if c == g._den:
        return f
    p = field.characteristic
    if p:
        inv = pow(c, -k, p)
        return _poly([a * inv % p for a in f._ints], 1, field)
    if f is g and k == 1:
        return _normal(list(f._ints), c, field)
    e = g._den ** k
    return _normal([a * e for a in f._ints], f._den * c ** k, field)


def _strip_root(f: Poly, a) -> Tuple[int, Poly]:
    """(m, f / (z - a)^m) for the multiplicity m of the root a of f (0 for
    f = 0), by one division per step: its remainder is f(a)."""
    n, d = _ratio(a)
    linear, count = _normal([-n, d], d, f.field), 0
    while f:
        quotient, remainder = divmod(f, linear)
        if remainder:
            break
        f, count = quotient, count + 1
    return count, f


def _ratio(c) -> Tuple[int, int]:
    """(n, d) with c = n / d for a field element: a Fraction's own pair, an
    FpElement's residue over 1."""
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    return c.v, 1


def _normal(ints: List[int], den: int, field: Field) -> Poly:
    """sum(ints_i z^i) / den in the stored form of `field`, for any ints
    and a nonzero den.  Over F_p den is 1 and the ints are reduced mod p;
    over Q the sign moves to the ints and the content is cancelled.  Both
    trim trailing zeros, over Q in place, so ints must be a list that no
    one else holds."""
    p = field.characteristic
    if p:
        ints = [c % p for c in ints]
    while ints and not ints[-1]:
        ints.pop()
    if den != 1:
        if den < 0:
            ints, den = [-c for c in ints], -den
        g = int_gcd(den, *ints)
        if g != 1:
            ints, den = [c // g for c in ints], den // g
    return _poly(ints, den, field)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0.

    When a = z^s U(z^d) and b = z^t V(z^d) with d > 1, the gcd is
    z^min(s, t) gcd(U, V)(z^d) over any field: z -> z^d is an injective
    ring map that commutes with division with remainder, and z divides
    neither U(z^d) nor V(z^d).  The gcd of U and V is the Euclidean one
    over F_p, and over Q the primitive one over Z, made monic by its
    leading coefficient as denominator."""
    a._same(b)
    if a.is_zero and b.is_zero:
        return a
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    field = a.field
    if a.degree == 0 or b.degree == 0:
        return _poly((1,), 1, field)
    u, v, p = a._ints, b._ints, field.characteristic
    s, d = _stride(u)
    t, e = _stride(v)
    d = int_gcd(d, e)
    if d > 1:
        u, v = u[s::d], v[t::d]
    g = _gcd(u, v, p) if p else _primitive_gcd(u, v)
    if d > 1:
        m = min(s, t)
        h = [0] * (m + d * (len(g) - 1) + 1)
        h[m::d] = g
        g = h
    return _poly(g, g[-1], field)


# -- F_p[z] on int lists ---------------------------------------------------
#
# Coefficient lists of ints in [0, p), low degree first, with no trailing
# zeros ([] is the zero polynomial).  They are the F_p divisions and gcds of
# Poly, and the slicer and zero sets in `definability` run on them directly,
# with the products of `_mul` below.


def _trim(cs: List[int]) -> List[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _add(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _divmod(a: Sequence[int], b: Sequence[int], p: int,
            ) -> Tuple[List[int], List[int]]:
    """Quotient and remainder; b must be nonzero."""
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return [], rem
    inv, low = pow(b[-1], -1, p), b[:db]
    quot = [0] * (len(rem) - db)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[db + k] * inv % p
        quot[k] = c
        if c:
            for i, d in enumerate(low, k):
                rem[i] = (rem[i] - c * d) % p
    return quot, _trim(rem[:db])


def _gcd(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Monic gcd; a must be nonzero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _powmod(a: Sequence[int], e: int, m: Sequence[int], p: int) -> List[int]:
    """a^e mod m by square-and-multiply; deg m >= 1."""
    result = [1]
    a = _divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, a, p), m, p)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a, p), m, p)[1]
    return result


# -- integer kernels: products over both fields, the rest over Q ----------

# Products with a factor of at most _SCHOOLBOOK_SHORT terms, or with
# at most _SCHOOLBOOK_TERMS coefficient products, run the schoolbook loop
# over Z; larger ones run `_kronecker_mul`.  The crossover comes from timing
# both on dense operands of 4 to 1024 bits (the table is in CHANGES.md).
_SCHOOLBOOK_SHORT = 5
_SCHOOLBOOK_TERMS = 144


def _mul(u: Sequence[int], v: Sequence[int], p: int = 0) -> List[int]:
    """Product of two integer lists over Z, each coefficient then reduced
    mod p when p is nonzero; p is 0 or a prime that does not divide the
    leading coefficients, so the product has no trailing zeros.

    Short products run the schoolbook loop.  For the others the supports
    are read, though past a dense u only to see whether v is a single term,
    so dense products pay one short scan and one index: a single term
    c z^a on either side is a shift and a scale; when u = z^a U(z^d) and
    v = z^b V(z^d) with d > 1, the product z^(a+b) (U V)(z^d) is spread
    from U V, itself routed by the same rule; and otherwise
    `_kronecker_mul` runs.  A square (u is v) stays a square."""
    lu, lv = len(u), len(v)
    if not (lu and lv):
        return []
    if lu * lv <= _SCHOOLBOOK_TERMS or min(lu, lv) <= _SCHOOLBOOK_SHORT:
        out = [0] * (lu + lv - 1)
        for i, c in enumerate(u):
            if c:
                for j, d in enumerate(v, i):
                    out[j] += c * d
        return [c % p for c in out] if p else out
    a, d = _stride(u)
    if d == 1 and (v[-2] or any(v[:-1])):
        out = _kronecker_mul(u, v)
    else:
        b, e = (a, d) if u is v else _stride(v)
        if not d * e:
            if d:
                u, v, a = v, u, b
            out = [0] * a + [u[a] * c for c in v]
        elif (g := int_gcd(d, e)) > 1:
            deflated = u[a::g]
            out = [0] * (lu + lv - 1)
            out[a + b::g] = _mul(deflated, deflated if u is v else v[b::g], p)
            return out
        else:
            out = _kronecker_mul(u, v)
    return [c % p for c in out] if p else out


def _stride(cs: Sequence[int]) -> Tuple[int, int]:
    """(a, d) with cs = z^a U(z^d) and d as large as possible, for a
    nonzero list: a is the index of the first nonzero coefficient and d
    the gcd of the distances from it to the others (0 for a single term,
    which has every stride).  The scan stops at the first d of 1, so a
    dense list costs two steps."""
    a = 0
    while not cs[a]:
        a += 1
    d = 0
    for i in range(a + 1, len(cs)):
        if cs[i]:
            d = int_gcd(d, i - a)
            if d == 1:
                break
    return a, d


def _kronecker_mul(u: List[int], v: List[int]) -> List[int]:
    """Product of two integer coefficient lists by one big-int multiply.

    Every product coefficient is below 2^(bu + bv + bl) in absolute value
    (bu, bv the largest coefficient sizes in bits, bl the size of the
    shorter length), so slots of that many bits plus a sign bit hold them.
    Both operands are evaluated at 2^(8 width) and the product is read
    back by `_unpack`.  A square (u is v) is evaluated once, and CPython
    squares an int faster than it multiplies two.
    """
    bu = max(map(abs, u)).bit_length()
    bv = bu if u is v else max(map(abs, v)).bit_length()
    width = (bu + bv + min(len(u), len(v)).bit_length()) // 8 + 1
    shift = 8 * width
    eu = _evaluate(u, shift)
    ev = eu if u is v else _evaluate(v, shift)
    return _unpack(eu * ev, width)


def _unpack(n: int, width: int) -> List[int]:
    """The integer list h without trailing zeros with h(2^(8 width)) = n
    and every coefficient in [-2^(8 width - 1), 2^(8 width - 1)).

    Adding half the slot range to every slot of n makes each slot of the
    sum h_i + half, in [0, 2^(8 width)), so one unsigned conversion lays
    the slots out and each is read back minus half.  There are k slots
    with |n| < half 2^(8 width (k - 1)), which keeps the sum in
    [0, 2^(8 width k)).
    """
    k = n.bit_length() // (8 * width) + 2
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * k, "little")
    data = (n + offset).to_bytes(width * k, "little")
    return _trim([int.from_bytes(data[i:i + width], "little") - half
                  for i in range(0, width * k, width)])


def _evaluate(cs: List[int], shift: int) -> int:
    """sum(c_i 2^(shift i)), the Kronecker packing and the GCDHEU
    evaluation.  Horner's rule with shifts moves O(n^2 shift) bits for n
    coefficients; halving the list moves O(n log(n) shift), so lists
    longer than 16 are halved."""
    n = len(cs)
    if n > 16:
        m = n // 2
        return _evaluate(cs[:m], shift) + (_evaluate(cs[m:], shift)
                                           << (shift * m))
    acc = 0
    for c in reversed(cs):
        acc = (acc << shift) + c
    return acc


def _pseudo_divmod(u: List[int], v: List[int]):
    """Fraction-free division of integer lists, len(u) >= len(v) > 0.

    Returns (q, r, d) with d u = q v + r and len(r) < len(v).  Each step
    removes the top coefficient s of the remainder after scaling the
    remainder and the quotient so far by m = lc(v) / gcd(lc(v), s), so
    they grow only when the step is not exact over Z, and d is the product
    of the scalings.
    """
    r = list(u)
    lv, dv = v[-1], len(v) - 1
    low = v[:-1]
    n = len(u) - dv
    q = [0] * n
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
            q[k + 1:] = [m * c for c in q[k + 1:]]
        q[k] = t
        r[k:top] = [c - t * w for c, w in zip(r[k:top], low)]
    return q, r[:dv], d


def _int_primitive(cs: List[int]) -> List[int]:
    if not _trim(cs):
        return cs
    g = 0
    for c in cs:
        g = int_gcd(g, c)
        if g == 1:
            break
    if cs[-1] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


def _primitive_gcd(u: Sequence[int], v: Sequence[int]) -> List[int]:
    """Primitive gcd with a positive leading coefficient of two nonzero
    integer lists."""
    if len(u) == 1 or len(v) == 1:
        return [1]
    u, v = _int_primitive(list(u)), _int_primitive(list(v))
    if len(u) < len(v):
        u, v = v, u
    if len(v) == 2:
        return v if _divides(v, u) else [1]
    return _heu_gcd(u, v) or _prs_gcd(u, v)


def _divides(v: List[int], u: List[int]) -> bool:
    """Whether the primitive v with lc(v) > 0 divides u over Z.  A linear
    v = v1 z + v0 does iff u vanishes at -v0/v1, tested as
    v1^deg(u) u(-v0/v1) = 0 by homogeneous Horner."""
    if len(v) != 2:
        return _exact_quotient(u, v) is not None
    return not _homogeneous(u, -v[0], v[1])[0]


def _homogeneous(u: Sequence[int], n: int, m: int) -> Tuple[int, int]:
    """m^deg(u) u(n/m) and m^deg(u), for u nonzero (homogeneous Horner)."""
    acc, power = u[-1], 1
    for c in reversed(u[:-1]):
        power *= m
        acc = acc * n + c * power
    return acc, power


_HEU_TRIES = 6


def _heu_gcd(u: List[int], v: List[int]):
    """Heuristic gcd (GCDHEU) of primitive integer lists with positive
    leading coefficients, or None when every evaluation point fails.

    Both inputs are evaluated at xi = 2^(8 width), and the integer gcd g of
    the two values is read back as a polynomial h with coefficients in
    [-xi/2, xi/2).  The primitive part of h is the gcd whenever it divides
    both inputs exactly: xi exceeds twice the Cauchy root bound
    1 + max|c| / |lc| of one input, so a nonconstant k with h k = gcd(u, v)
    would give |k(xi)| > xi / 2, while k(xi) divides the content of h,
    which is at most xi / 2.  Failing that, the cofactors u(xi)/g and
    v(xi)/g are read back the same way, and the quotient of the input by
    its cofactor is tried.  The first xi is the power of two at or above
    the choice of Liao and Fateman (1995), and xi grows to about xi^(5/4)
    between tries, as in sympy's `dup_zz_heu_gcd` (Char, Geddes and
    Gonnet 1989).
    """
    nu, nv = max(map(abs, u)), max(map(abs, v))
    bound = 2 * min(nu, nv) + 29
    xi = max(min(bound, 99 * isqrt(bound)),
             2 * min(nu // u[-1], nv // v[-1]) + 4)
    width = (xi.bit_length() + 7) // 8
    # gcd(u, v) = z^m w, where w(0) divides the gcd of the lowest nonzero
    # coefficients of u and v; w(xi) = w(0) mod xi then has as many
    # factors 2 as w(0), at most twos, while twos < log2(xi).
    ou = next(i for i, c in enumerate(u) if c)
    ov = next(i for i, c in enumerate(v) if c)
    m = min(ou, ov)
    low = int_gcd(u[ou], v[ov])
    twos = (low & -low).bit_length() - 1
    for _ in range(_HEU_TRIES):
        shift = 8 * width
        eu, ev = _evaluate(u, shift), _evaluate(v, shift)
        g = int_gcd(eu, ev)
        if twos < shift:
            # The cofactor values at a power of two often share many
            # factors 2; keep only those gcd(u, v)(xi) can have.
            g >>= max(0, (g & -g).bit_length() - 1 - m * shift - twos)
        h = _int_primitive(_unpack(g, width))
        if len(h) == 1 or (_divides(h, u) and _divides(h, v)):
            return h
        for w, other, ew in ((u, v, eu), (v, u, ev)):
            cofactor = _int_primitive(_unpack(ew // g, width))
            h = _exact_quotient(w, cofactor)
            if h is not None and _divides(h, other):
                return h
        width += width // 4 + 1
    return None


def _exact_quotient(u: List[int], v: List[int]):
    """u / v for lc(v) > 0, or None when v does not divide u in Z[z]."""
    if len(v) > len(u) or u[-1] % v[-1] \
            or (u[0] % v[0] if v[0] else u[0]):
        return None
    q, r, d = _pseudo_divmod(u, v)
    return q if d == 1 and not any(r) else None


def _prs_gcd(u: List[int], v: List[int]) -> List[int]:
    """Primitive pseudo-remainder sequence gcd of primitive integer lists
    with positive leading coefficients, len(u) >= len(v) > 0."""
    while v:
        u, v = v, _int_primitive(_pseudo_divmod(u, v)[1])
    return u


def squarefree_decomposition(a: Poly) -> List[Tuple[Poly, int]]:
    """Write a = lc(a) * prod s_e^e with the s_e monic squarefree coprime.

    Returns the (s_e, e) pairs with ascending exponents, omitting trivial
    factors.  Constants decompose as the empty product.  Raises ValueError
    on the zero polynomial.

    Musser's loop, total over both fields: with g = gcd(f, f') and
    h = f / g, h holds every factor whose multiplicity is not divisible by
    the characteristic, and step i splits off s = h / gcd(g, h), those of
    multiplicity exactly i, then divides g by gcd(g, h).  Over Q the g
    left is 1.  Over F_p it is r(z^p) = r^p (as is every f with f' = 0),
    so the loop runs again on r, read off every p-th coefficient, with its
    exponents times p.  The rounds' exponents differ in their p-adic
    valuation, so one sort orders them.
    """
    if a.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    f, n, p = a.monic(), 1, a.field.characteristic
    factors: List[Tuple[Poly, int]] = []
    while f.degree > 0:
        g = poly_gcd(f, f.derivative())
        h, i = f // g, n
        while h.degree > 0:
            c = poly_gcd(g, h)
            s = h // c
            if s.degree > 0:
                factors.append((s, i))
            g, h, i = g // c, c, i + n
        f, n = (_poly(g._ints[::p], 1, g.field) if p else g), n * p
    factors.sort(key=lambda pair: pair[1])
    return factors


def radical(a: Poly) -> Poly:
    """Product of the distinct monic irreducible factors of a (a != 0).

    f / gcd(f, f') has every factor of f whose multiplicity is not
    divisible by the characteristic.  Over F_p the other factors are left
    in the gcd once the ones found are divided out: that part is h(z^p) =
    h(z)^p, so its radical is that of h, read off every p-th coefficient.
    """
    if a.is_zero:
        raise ValueError("radical of the zero polynomial")
    if a.degree == 0:
        return Poly.one(a.field)
    f = a.monic()
    rest = poly_gcd(f, f.derivative())
    found = f // rest
    common = poly_gcd(rest, found)
    while common.degree > 0:
        rest = rest // common
        common = poly_gcd(rest, common)
    if rest.degree == 0:
        return found
    p = a.field.characteristic
    return found * radical(_poly(rest._ints[::p], 1, a.field))
