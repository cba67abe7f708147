"""Exact base fields: the rationals and the prime fields F_p.

Field elements are plain values with operator arithmetic: `fractions.Fraction`
over Q and `FpElement` over F_p.  A field *tag* (`RationalField` or
`PrimeField`) carries the constructors and the few whole-field queries the
rest of the library needs: characteristic, exact square roots, and element
enumeration when the field is finite.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, Optional, Union


class FieldMismatchError(ValueError):
    """Operands carry different field tags."""


# psi_13, the least strong pseudoprime to the 13 prime bases 2..41
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017): below it the test in `is_prime` is a proof.
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin test with the prime bases 2..41.

    Exact for n < MILLER_RABIN_BOUND; above it a strong-probable-prime
    test, which PrimeField refuses to rely on.
    """
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """Residue class modulo a prime p, with field arithmetic.

    The canonical representative is the integer in [0, p).  Mixed-int
    arithmetic coerces the int mod p; mixing different moduli raises
    FieldMismatchError.  An element hashes as its canonical representative,
    so it shares its hash with the int it equals in [0, p); an int outside
    that range, such as 6 in F_5, compares equal by residue but does not
    share the hash.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other) -> Optional["FpElement"]:
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix F_{self.p} and F_{other.p} elements")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __pow__(self, n: int):
        if n < 0:
            if self.v == 0:
                raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
            return FpElement(pow(self.v, -1, self.p), self.p) ** (-n)
        return FpElement(pow(self.v, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        return (isinstance(other, FpElement)
                and self.p == other.p and self.v == other.v)

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"FpElement({self.v}, {self.p})"


Element = Union[Fraction, FpElement]


class RationalField:
    """Tag for Q; elements are `fractions.Fraction`."""

    characteristic = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def sqrt(self, c: Fraction) -> Optional[Fraction]:
        """Exact square root of c in Q, or None if c is not a square."""
        if c < 0:
            return None
        rn, rd = isqrt(c.numerator), isqrt(c.denominator)
        if rn * rn == c.numerator and rd * rd == c.denominator:
            return Fraction(rn, rd)
        return None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Tag for F_p, p prime; elements are `FpElement`."""

    def __init__(self, p: int):
        if p >= MILLER_RABIN_BOUND:
            raise ValueError(
                f"{p} is not below {MILLER_RABIN_BOUND}, the bound up to "
                f"which primality is proven")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.characteristic = p

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def coerce(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldMismatchError(
                    f"element of F_{x.p} used in F_{self.p}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def elements(self) -> Iterator[FpElement]:
        for v in range(self.p):
            yield FpElement(v, self.p)

    def sqrt(self, c: FpElement) -> Optional[FpElement]:
        """A square root of c in F_p (Tonelli-Shanks), or None."""
        p, v = self.p, self.coerce(c).v
        if v == 0:
            return FpElement(0, p)
        if p == 2:
            return FpElement(v, p)
        if pow(v, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return FpElement(pow(v, (p + 1) // 4, p), p)
        # Tonelli-Shanks: write p-1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        n = 2
        while pow(n, (p - 1) // 2, p) != p - 1:
            n += 1
        z = pow(n, q, p)
        m, c_, t, r = s, z, pow(v, q, p), pow(v, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c_, 1 << (m - i - 1), p)
            m, c_ = i, b * b % p
            t, r = t * c_ % p, r * b % p
        return FpElement(r, p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def same_field(a: Field, b: Field) -> Field:
    if a != b:
        raise FieldMismatchError(f"mixed field tags: {a!r} vs {b!r}")
    return a
