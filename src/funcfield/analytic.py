"""A computable transcendental function built from an enumeration of squares.

The fixed enumeration: q_1 = 0, and for n >= 2, q_n is the square of the
(n-1)-th positive rational in Calkin-Wilf order (1, 1/2, 2, 1/3, 3/2, 2/3,
3, ...).  Every rational square appears exactly once, and the index of a
given square is computable in closed form from the continued-fraction bit
path in the Calkin-Wilf tree.

With P_n(t) = (q_1 - t^2) ... (q_n - t^2) and the certified integer bounds
A_n > prod(q_i + 1) (so |P_n(t)| < A_n (|t|^{2n} + 1) on all of C), the
function

    f(t) = sum_{n >= 1} P_n(t) / ((2n)! A_n)

is analytic on C, maps Q into Q, and is exactly computable at rationals:
at t = a the factor (q_m - a^2) with m = square_index(a) kills every term
from index m on, leaving a finite sum.  Interval evaluation encloses f on a
rational interval by exact interval arithmetic on a partial sum plus a
truncated-exponential tail majorant.

All functions are stateless and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import factorial
from typing import Iterator, List, Tuple

from .fields import QQ
from .poly import Poly


def cw_rational(i: int) -> Fraction:
    """The i-th positive rational in Calkin-Wilf (heap) order, i >= 1."""
    if i < 1:
        raise ValueError("index must be >= 1")
    a, b = 1, 1
    for bit in bin(i)[3:]:
        if bit == "0":
            b = a + b
        else:
            a = a + b
    return Fraction(a, b)


def cw_index(q: Fraction) -> int:
    """Position of a positive rational in Calkin-Wilf order.

    Walks the tree from the node to the root; runs of equal steps are the
    continued-fraction quotients, so the cost is O(number of bits) and not
    O(numerator + denominator).
    """
    if q <= 0:
        raise ValueError("Calkin-Wilf enumerates positive rationals")
    a, b = q.numerator, q.denominator
    runs: List[str] = []
    while not (a == 1 and b == 1):
        if a > b:
            steps, r = divmod(a, b)
            if r == 0:
                steps, a = a - 1, 1
            else:
                a = r
            runs.append("1" * steps)
        else:
            steps, r = divmod(b, a)
            if r == 0:
                steps, b = b - 1, 1
            else:
                b = r
            runs.append("0" * steps)
    path = "".join(reversed(runs))
    return int("1" + path, 2)


def enumerated_rational(n: int) -> Fraction:
    """The fixed enumeration of evaluation points: 0, then Calkin-Wilf."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if n == 1:
        return Fraction(0)
    return cw_rational(n - 1)


def q_n(n: int) -> Fraction:
    """The n-th enumerated square: q_1 = 0, then squared Calkin-Wilf values."""
    value = enumerated_rational(n)
    return value * value


def square_index(a) -> int:
    """The unique m with q_m = a^2 (a = 0 maps to 1)."""
    a = Fraction(a)
    if a == 0:
        return 1
    return cw_index(abs(a)) + 1


def _terms() -> Iterator[Tuple[int, Fraction, int]]:
    """(n, q_n, A_n) for n = 1, 2, ..., with A_n from the running product
    of the q_i + 1."""
    product = Fraction(1)
    for n in count(1):
        qn = q_n(n)
        product *= qn + 1
        yield n, qn, 1 + -((-product.numerator) // product.denominator)


def a_bound(n: int) -> int:
    """A_n = 1 + ceil(prod_{i<=n} (q_i + 1)).

    Certificate: |P_n(t)| <= prod(q_i + |t|^2), a polynomial in |t|^2 with
    positive coefficients summing to prod(q_i + 1), hence bounded by
    prod(q_i + 1) * (|t|^{2n} + 1) < A_n (|t|^{2n} + 1).
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    return next(islice(_terms(), n - 1, None))[2]


def eval_exact(a) -> Fraction:
    """f(a) for rational a: the finite sum of the terms below square_index(a).

    Cost scales with the enumeration index of a (the sum has
    square_index(a) - 1 terms with factorial denominators), so arguments
    deep in the Calkin-Wilf order are exact but expensive.
    """
    a = Fraction(a)
    m = square_index(a)
    a2 = a * a
    total = Fraction(0)
    product = Fraction(1)
    for n, qn, a_n in islice(_terms(), m - 1):
        product *= qn - a2
        total += product / (factorial(2 * n) * a_n)
    return total


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(value) -> "RatInterval":
        value = Fraction(value)
        return RatInterval(value, value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(products), max(products))

    def square(self) -> "RatInterval":
        if self.lo >= 0:
            return RatInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RatInterval(self.hi * self.hi, self.lo * self.lo)
        return RatInterval(Fraction(0), max(self.lo * self.lo,
                                            self.hi * self.hi))

    def scale(self, c: Fraction) -> "RatInterval":
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

    def widen(self, margin: Fraction) -> "RatInterval":
        return RatInterval(self.lo - margin, self.hi + margin)

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi


def _tail_bound(m: Fraction, n_from: int) -> Fraction:
    """Exact majorant of sum_{n >= n_from} (M^{2n} + 1) / (2n)!.

    Uses u_{n+1} <= u_n * (M^2 + 1) / ((2n+1)(2n+2)); explicit terms are
    added until the ratio drops below 1/2, then the rest is a geometric
    series bounded by twice the next term.
    """
    m2_plus = m * m + 1

    def term(n: int) -> Fraction:
        return (m ** (2 * n) + 1) / factorial(2 * n)

    total = Fraction(0)
    n = n_from
    while m2_plus / ((2 * n + 1) * (2 * n + 2)) >= Fraction(1, 2):
        total += term(n)
        n += 1
    return total + 2 * term(n)


def eval_interval(lo, hi, n_terms: int) -> RatInterval:
    """Certified enclosure of f on [lo, hi] from n_terms explicit terms."""
    if n_terms < 1:
        raise ValueError("need at least one explicit term")
    x = RatInterval(Fraction(lo), Fraction(hi))
    x2 = x.square()
    partial = RatInterval.point(0)
    product = RatInterval.point(1)
    for n, qn, a_n in islice(_terms(), n_terms):
        product = product * RatInterval(qn - x2.hi, qn - x2.lo)
        partial = partial + product.scale(Fraction(1, factorial(2 * n) * a_n))
    m = max(abs(x.lo), abs(x.hi))
    return partial.widen(_tail_bound(m, n_terms + 1))


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact coefficients c_0..c_N of a power series truncated at degree N."""

    coefficients: Tuple[Fraction, ...]
    cutoff: int

    def coefficient(self, k: int) -> Fraction:
        return self.coefficients[k] if k <= self.cutoff else Fraction(0)


# Extra product terms summed past the leading-term cutoff N/2; every term
# past index 1 also feeds coefficients below its leading degree.
_SERIES_BUFFER = 8


def series_of_g(cutoff: int) -> TruncatedSeries:
    """Truncated expansion of g(t) = f(it) = sum P_n^+(t) / ((2n)! A_n).

    P_n^+(t) = (q_1 + t^2) ... (q_n + t^2), so the series is even with
    non-negative contributions; the sum runs over n <= cutoff/2 + buffer and
    is truncated at the even cutoff degree.  Odd coefficients are exactly 0,
    the constant term is 0 (q_1 = 0), and every even coefficient of degree
    2..cutoff is strictly positive.
    """
    if cutoff < 2 or cutoff % 2:
        raise ValueError("cutoff must be an even integer >= 2")
    half = cutoff // 2
    # polynomials in the variable t^2, summed untruncated: the degrees past
    # half never feed the coefficients below it
    acc = Poly.zero(QQ)
    product = Poly.one(QQ)
    for n, qn, a_n in islice(_terms(), half + _SERIES_BUFFER):
        product = product * Poly((qn, 1), QQ)
        acc = acc + product.scale(Fraction(1, factorial(2 * n) * a_n))
    coefficients = [Fraction(0)] * (cutoff + 1)
    for j in range(half + 1):
        coefficients[2 * j] = acc.coefficient(j)
    return TruncatedSeries(tuple(coefficients), cutoff)


def graph_points(count: int) -> List[Tuple[Fraction, Fraction]]:
    """The first `count` points (a, f(a)) along the fixed enumeration."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return [(enumerated_rational(n), eval_exact(enumerated_rational(n)))
            for n in range(1, count + 1)]


def product_bound_holds(re, im, n: int) -> bool:
    """Exact check of |P_n(z)|^2 < (A_n (|z|^{2n} + 1))^2 at z = re + im*i."""
    re, im = Fraction(re), Fraction(im)
    z2_re, z2_im = re * re - im * im, 2 * re * im
    p_re, p_im = Fraction(1), Fraction(0)
    for i in range(1, n + 1):
        qi = q_n(i)
        f_re, f_im = qi - z2_re, -z2_im
        p_re, p_im = (p_re * f_re - p_im * f_im,
                      p_re * f_im + p_im * f_re)
    abs2 = p_re * p_re + p_im * p_im
    norm = re * re + im * im
    bound = a_bound(n) * (norm ** n + 1)
    return abs2 < bound * bound
