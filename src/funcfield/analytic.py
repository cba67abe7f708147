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
from index m on, leaving a finite sum of m - 1 terms.  That sum is taken by
binary splitting over integers (Haible-Papanikolaou), so its cost is a few
big-int products and one final gcd, not a gcd per term.  Interval
evaluation encloses f on a rational interval: the ends of the interval
products P_n([lo, hi]) are integers over one running denominator, their
partial sums take the same merge, and a truncated-exponential tail
majorant, one forward integer sum, widens the result.  The even series of
g(t) = f(it) is nested from its last term over integer coefficient lists
with one denominator.

Every entry point counts its work before doing any, and raises
`BudgetError` when the count is over budget: `eval_exact` sums m - 1
terms, `eval_interval` its explicit and tail terms, and `graph_points` the
terms of all its points, against TERM_BUDGET; `series_of_g` counts the
coefficients of its polynomial terms against COEFFICIENT_BUDGET.  Each
budget stops its entry points within a few seconds of work.

All functions are stateless and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import factorial, isqrt, lcm
from typing import Iterator, List, Tuple

from .budget import BudgetError

# Scalar terms summed by one call.  At 1000 terms, on a 2 vCPU machine
# (CPython 3.11): eval_exact 1.2 s, eval_interval 4 ms with 998 tail terms
# and 2.7 s with 999 explicit ones, graph_points (45 points) 3 ms.
TERM_BUDGET = 1000
# Coefficients of the polynomial terms of series_of_g, K(K+3)/2 for K terms:
# 10000 allows K = 139 (cutoff 262), 0.14 s on the same machine.  A series
# coefficient costs far less than a term of eval_exact, hence the two units.
COEFFICIENT_BUDGET = 10000


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
    index, shift = 0, 0  # bits below shift, read from the node upwards
    while not (a == 1 and b == 1):
        if a > b:
            steps, r = divmod(a, b)
            if r == 0:
                steps, a = a - 1, 1
            else:
                a = r
            index |= ((1 << steps) - 1) << shift
        else:
            steps, r = divmod(b, a)
            if r == 0:
                steps, b = b - 1, 1
            else:
                b = r
        shift += steps
    return index | 1 << shift


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


def _index_bits(q: Fraction) -> int:
    """cw_index(q).bit_length() without the index: the sum of the
    continued-fraction quotients of q >= 0, one bit per step of the walk
    (0 for q = 0)."""
    a, b = q.numerator, q.denominator
    total = 0
    while b:
        quotient, r = divmod(a, b)
        total += quotient
        a, b = b, r
    return total


def _terms() -> Iterator[Tuple[int, int, int, int]]:
    """(n, s_n, r_n, A_n) for n = 1, 2, ..., with q_n = s_n / r_n in lowest
    terms and A_n = 1 + ceil(N_n / D_n) from the unreduced running products
    N_n = prod (s_i + r_i) and D_n = prod r_i."""
    top, bottom = 1, 1
    c, d = 0, 1  # the enumerated rational c/d, so q_n = c^2/d^2
    for n in count(1):
        s, r = c * c, d * d
        top *= s + r
        bottom *= r
        yield n, s, r, 1 - (-top // bottom)
        # Newman's successor 1/(2 floor(x) + 1 - x) walks Calkin-Wilf order
        c, d = d, (2 * (c // d) + 1) * d - c


def _refuse_over(required: int) -> None:
    if required > TERM_BUDGET:
        raise BudgetError(required, TERM_BUDGET, "evaluation", "series terms")


def a_bound(n: int) -> int:
    """A_n = 1 + ceil(prod_{i<=n} (q_i + 1)).

    Certificate: |P_n(t)| <= prod(q_i + |t|^2), a polynomial in |t|^2 with
    positive coefficients summing to prod(q_i + 1), hence bounded by
    prod(q_i + 1) * (|t|^{2n} + 1) < A_n (|t|^{2n} + 1).
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    return next(islice(_terms(), n - 1, None))[3]


def eval_exact(a) -> Fraction:
    """f(a) for rational a: the finite sum of the terms below square_index(a).

    The sum has m - 1 terms for m = square_index(a), which is known before
    any work: above TERM_BUDGET it raises BudgetError(required=m - 1).  With
    a = u/v and q_n = s_n/r_n, term n is (1/A_n) prod_{k<=n} p_k/q_k for
    the integers p_k = s_k v^2 - u^2 r_k and q_k = r_k v^2 2k(2k-1); the
    sum is taken by binary splitting and reduced once, so its cost is a
    few products of big ints and one gcd of the result's size (at index
    400 the reduced denominator has about 120k bits).
    """
    a = Fraction(a)
    # m - 1 has as many bits as the quotients of a sum to; a count too
    # long to print is refused before it is built
    error = BudgetError._past_digit_limit(
        _index_bits(abs(a)), TERM_BUDGET, "evaluation", "series terms")
    if error:
        raise error
    required = square_index(a) - 1
    _refuse_over(required)
    if not required:
        return Fraction(0)
    u2, v2 = a.numerator ** 2, a.denominator ** 2
    nodes = []
    for n, s, r, a_n in islice(_terms(), required):
        p = s * v2 - u2 * r
        nodes.append((p, r * v2 * (2 * n) * (2 * n - 1), a_n, p))
    _, q, b, t = _binary_split(nodes)
    return Fraction(t, b * q)


def _binary_split(nodes: list) -> Tuple[int, int, int, int]:
    """Merge the leaves (p_n, q_n, b_n, p_n) of sum_n (1/b_n) prod_{k<=n}
    p_k/q_k into one (P, Q, B, T) with sum = T / (B Q).

    Adjacent nodes merge level by level, bottom-up and in place, so each
    level frees the one below it: P = P1 P2, Q = Q1 Q2, B = B1 B2 and
    T = B2 Q2 T1 + B1 P1 T2.
    """
    while len(nodes) > 1:
        half, odd = divmod(len(nodes), 2)
        for i in range(half):
            p1, q1, b1, t1 = nodes[2 * i]
            p2, q2, b2, t2 = nodes[2 * i + 1]
            nodes[i] = (p1 * p2, q1 * q2, b1 * b2,
                        b2 * q2 * t1 + b1 * p1 * t2)
        if odd:
            nodes[half] = nodes[-1]
        del nodes[half + odd:]
    return nodes[0]


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def square(self) -> "RatInterval":
        if self.lo >= 0:
            return RatInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RatInterval(self.hi * self.hi, self.lo * self.lo)
        return RatInterval(Fraction(0), max(self.lo * self.lo,
                                            self.hi * self.hi))

    def widen(self, margin: Fraction) -> "RatInterval":
        return RatInterval(self.lo - margin, self.hi + margin)

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi


def _tail_end(m: Fraction, n_from: int) -> int:
    """The first n >= n_from with (M^2 + 1) / ((2n+1)(2n+2)) < 1/2.

    (2n+1)(2n+2) is an integer, so the test is against the integer
    bound = floor(2(M^2 + 1)).  From n0 = isqrt(bound) // 2 the loop steps
    at most twice, and n0 is never past the answer: n0 - 1 still passes
    the test, since (2n0 - 1) 2n0 < (2n0)^2 <= bound.
    """
    bound = 2 * (m * m + 1)
    bound = bound.numerator // bound.denominator
    n = max(n_from, isqrt(bound) // 2)
    while (2 * n + 1) * (2 * n + 2) <= bound:
        n += 1
    return n


def _tail_bound(m: Fraction, n_from: int, n_end: int) -> Fraction:
    """Exact majorant of sum_{n >= n_from} (M^{2n} + 1) / (2n)!.

    Uses u_{n+1} <= u_n * (M^2 + 1) / ((2n+1)(2n+2)); explicit terms are
    added for n_from <= n < n_end = _tail_end(m, n_from), where the ratio
    drops below 1/2, then the rest is a geometric series bounded by twice
    the next term.  With M^2 = u/v the sum is one integer numerator over
    v^n (2n)!, carried forward with u^n and v^n, and one Fraction at the
    end.
    """
    m2 = m * m
    u, v = m2.numerator, m2.denominator
    # num / (v^n (2n)!) is the sum of the terms below n; un, vn = u^n, v^n
    num, un, vn = 0, u ** n_from, v ** n_from
    for n in range(n_from, n_end):
        num = (num + un + vn) * v * (2 * n + 1) * (2 * n + 2)
        un, vn = un * u, vn * v
    return Fraction(num + 2 * (un + vn), vn * factorial(2 * n_end))


def eval_interval(lo, hi, n_terms: int) -> RatInterval:
    """Certified enclosure of f on [lo, hi] from n_terms explicit terms.

    The tail majorant adds terms up to index _tail_end(M, n_terms + 1) for
    M = max(|lo|, |hi|), about M/sqrt(2) of them for large M; above
    TERM_BUDGET that index is raised as BudgetError(required) before any
    term is summed.
    """
    if n_terms < 1:
        raise ValueError("need at least one explicit term")
    x = RatInterval(Fraction(lo), Fraction(hi))
    m = max(abs(x.lo), abs(x.hi))
    n_end = _tail_end(m, n_terms + 1)
    _refuse_over(n_end)
    # x^2 = [l, h] / w; after n factors the product P_n(x) lies in
    # [lo_n, hi_n] / prod_{k<=n} r_k w, each end a product of factor ends
    x2 = x.square()
    w = lcm(x2.lo.denominator, x2.hi.denominator)
    l = x2.lo.numerator * (w // x2.lo.denominator)
    h = x2.hi.numerator * (w // x2.hi.denominator)
    lo_n = hi_n = 1
    lows, highs = [], []
    for n, s, r, a_n in islice(_terms(), n_terms):
        c, d = s * w - h * r, s * w - l * r
        ends = (lo_n * c, lo_n * d, hi_n * c, hi_n * d)
        lo_n, hi_n = min(ends), max(ends)
        q = r * w * (2 * n) * (2 * n - 1)
        lows.append((1, q, a_n, lo_n))
        highs.append((1, q, a_n, hi_n))
    # sum_n end_n / (A_n prod_{k<=n} q_k): the merge of eval_exact with P = 1
    _, q, b, t_lo = _binary_split(lows)
    _, _, _, t_hi = _binary_split(highs)
    partial = RatInterval(Fraction(t_lo, b * q), Fraction(t_hi, b * q))
    return partial.widen(_tail_bound(m, n_terms + 1, n_end))


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

    Term n is a polynomial with n + 1 coefficients, so the K = cutoff/2 +
    buffer terms carry K(K+3)/2 of them; above COEFFICIENT_BUDGET that
    count raises BudgetError before any term is summed.
    """
    if cutoff < 2 or cutoff % 2:
        raise ValueError("cutoff must be an even integer >= 2")
    half = cutoff // 2
    n_terms = half + _SERIES_BUFFER
    required = n_terms * (n_terms + 3) // 2
    if required > COEFFICIENT_BUDGET:
        raise BudgetError(required, COEFFICIENT_BUDGET, "series",
                          "polynomial coefficients")
    # nested from the last term, in T = t^2: with p_n = s_n + r_n T and
    # q_n = r_n 2n(2n-1), S_n = p_n (1 + A_n S_{n+1}) / (A_n q_n), and
    # S_{n+1} = sum_j num[j] T^j / den truncated at T^half, which is exact
    # since multiplying by p_n never moves a coefficient down
    num, den = [0] * (half + 1), 1
    for n, s, r, a_n in reversed(list(islice(_terms(), n_terms))):
        inner = [a_n * c for c in num]
        inner[0] += den
        num = [s * inner[0]] + [s * c + r * b
                                for b, c in zip(inner, inner[1:])]
        den *= a_n * r * (2 * n) * (2 * n - 1)
    coefficients = [Fraction(0)] * (cutoff + 1)
    coefficients[::2] = (Fraction(c, den) for c in num)
    return TruncatedSeries(tuple(coefficients), cutoff)


def graph_points(count: int) -> List[Tuple[Fraction, Fraction]]:
    """The first `count` points (a, f(a)) along the fixed enumeration.

    Point n sums n - 1 terms, count(count - 1)/2 in all; above TERM_BUDGET
    that total raises BudgetError before any point is evaluated.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    _refuse_over(count * (count - 1) // 2)
    points = [enumerated_rational(n) for n in range(1, count + 1)]
    return [(a, eval_exact(a)) for a in points]


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
