"""Executable definability witnesses.

Four independent tools live here:

* brute-force slice enumeration of the solutions of a polynomial system
  over F_p[z] with degree-bounded unknowns, and the union of the projected
  slices as the witness degree grows, read off the largest slice, since
  the slices are nested (`enumerate_slice`, `slice_union`);
* zero sets of finite polynomial families over F_p, by gcds with z^p - z
  (`zero_set`);
* Hermite reduction g = h' + r with squarefree remainder denominator, in
  Mack's linear version (gcds, exact divisions and one Bezout solve per
  pole order), and the derivative test built on it (`hermite_reduce`,
  `is_derivative`);
* the square-pair test for the family "constant, or f and f+4 both
  non-squares" (`nonsquare_pair_check`), and the characteristic-p
  decomposition f = sum z^j f_j^p (`frobenius_decompose`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .budget import BudgetError
from .fields import FpElement, PrimeField, same_field
from .poly import (Poly, _add, _divmod, _gcd, _mul, _normal, _over_lc,
                   _powmod, _trim, poly_gcd)
from .ratfun import RatFun
from .textio import _checked, parse_poly

DEFAULT_CANDIDATE_BUDGET = 2_000_000
# Components plus cleared-numerator coefficients of one Frobenius
# decomposition, p + (p - 1) deg den + deg num.  At the bound, on a 2 vCPU
# machine (CPython 3.11), the CLI answers f = z at p = 199999 in 1.4 s,
# 1/(z + 1) at p = 99991 in 2.6 s and (z^5 + z + 1)/(z^3 + z + 1) at
# p = 49999 in 4.3 s.
FROBENIUS_BUDGET = 200_000


@dataclass(frozen=True)
class DioSystem:
    """Polynomial system F_1..F_r over F_p[z] in x- and y-variables.

    Each polynomial is a sparse map from exponent vectors (length n + m,
    entries >= 0, x-block first) to coefficients in F_p[z].
    """

    field: PrimeField
    n: int  # number of x-variables (the projected block)
    m: int  # number of y-variables (the witness block)
    polys: Tuple[Tuple[Tuple[Tuple[int, ...], Poly], ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 0 or not self.polys:
            raise ValueError("need n >= 1, m >= 0 and at least one equation")
        for poly in self.polys:
            for exponents, coeff in poly:
                if len(exponents) != self.n + self.m:
                    raise ValueError(
                        f"exponent vector {exponents} has wrong length")
                if min(exponents, default=0) < 0:
                    raise ValueError(
                        f"exponent vector {exponents} has a negative entry")
                if coeff.field != self.field:
                    raise ValueError("coefficient field mismatch")

    @classmethod
    def from_json(cls, data: dict) -> "DioSystem":
        """The system of a decoded JSON object; a value of the wrong JSON
        type (a non-integral p, n, m or exponent among them) raises
        ValueError."""
        _checked(data, dict, "the system")
        field = PrimeField(_checked(data["p"], int, "p"))

        def term(item):
            item = _checked(item, dict, "a term")
            exponents = _checked(item["exponents"], list, "exponents")
            return (tuple(_checked(e, int, "an exponent") for e in exponents),
                    parse_poly(_checked(item["coeff"], str, "coeff"), field))

        polys = tuple(tuple(map(term, _checked(poly, list, "an equation")))
                      for poly in _checked(data["polys"], list, "polys"))
        return cls(field, _checked(data["n"], int, "n"),
                   _checked(data["m"], int, "m"), polys)

    def to_json(self) -> dict:
        return {
            "p": self.field.p,
            "n": self.n,
            "m": self.m,
            "polys": [[{"exponents": list(exponents), "coeff": str(coeff)}
                       for exponents, coeff in poly]
                      for poly in self.polys],
        }

    def evaluate(self, assignment: Sequence[Poly]) -> List[Poly]:
        """The values of F_1..F_r at a tuple of polynomials in z."""
        values = []
        for poly in self.polys:
            total = Poly.zero(self.field)
            for exponents, coeff in poly:
                term = coeff
                for variable, exponent in zip(assignment, exponents):
                    if exponent:
                        term = term * variable ** exponent
                total = total + term
            values.append(total)
        return values


def _monomials(values: Sequence[Sequence[int]],
               exponent_vectors: Sequence[Tuple[int, ...]],
               p: int) -> List[List[int]]:
    """prod_i values[i]^e[i] for each exponent vector e (0^0 = 1)."""
    powers = [[[1]] for _ in values]
    out = []
    for e in exponent_vectors:
        term = [1]
        for value, cache, k in zip(values, powers, e):
            while len(cache) <= k:
                cache.append(_mul(cache[-1], value, p))
            term = _mul(term, cache[k], p)
        out.append(term)
    return out


def _sparse(cs: Sequence[int]) -> List[Tuple[int, int]]:
    return [(i, c) for i, c in enumerate(cs) if c]


def _vanishes(live, y_mono: Sequence[List[Tuple[int, int]]], p: int) -> bool:
    """Whether A_0 + sum_b A_b y^b is zero for every live equation.

    The sums are formed unreduced and tested mod p once; the test stops at
    the first equation that does not vanish.
    """
    for const, terms in live:
        value = const[:]
        for i, a_b in terms:
            y_b = y_mono[i]
            for k, c in a_b:
                for j, d in y_b:
                    value[j + k] += c * d
        if any(map(p.__rmod__, value)):  # some v % p != 0
            return False
    return True


def _coefficient_tuples(p: int, max_degree: int) -> List[Tuple[int, ...]]:
    """All polynomials over F_p of degree <= max_degree, deterministic order."""
    return [tuple(_trim(list(cs)))
            for cs in itertools.product(range(p), repeat=max_degree + 1)]


@dataclass(frozen=True)
class SliceResult:
    """Solutions of a system with deg x <= alpha, deg y <= beta."""

    alpha: int
    beta: int
    solutions: Tuple[Tuple[Tuple[Poly, ...], Tuple[Poly, ...]], ...]
    projection: Tuple[Tuple[Poly, ...], ...]
    stabilized: bool  # projection unchanged from the beta - 1 slice


def enumerate_slice(system: DioSystem, alpha: int, beta: int,
                    max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
                    ) -> SliceResult:
    """Exhaustive search over all coefficient tuples of the two degree slices.

    Each equation is grouped by y-exponent vector b as F = sum_b A_b(x) y^b.
    The A_b are evaluated once per x-tuple and the y^b once per y-tuple, so
    each candidate only multiplies A_b by y^b and adds, and moves on at the
    first equation that does not vanish.  An equation free of y rules out
    or passes the whole x-tuple at once.  The output is sorted, so the
    order of the two loops is free: the block with fewer tuples is the
    inner one, kept in memory.

    More than `max_candidates` tuples raise BudgetError before any work; a
    count too long to print is reported as the lower bound
    2^(e (bits(p) - 1)) <= p^e, read off the exponent e.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("degree bounds must be >= 0")
    p, n, m = system.field.p, system.n, system.m
    exponent = (alpha + 1) * n + (beta + 1) * m
    # p^e >= 2^(e (bits(p) - 1)): a count too long to print is refused on
    # its exponent, before it is built
    error = BudgetError._past_digit_limit(
        exponent * (p.bit_length() - 1) + 1, max_candidates, "enumeration",
        "candidate tuples")
    if error:
        raise error
    required = p ** exponent
    if required > max_candidates:
        raise BudgetError(required, max_candidates, "enumeration",
                          "candidate tuples")
    no_y = (0,) * m
    equations = []  # per equation: {b: [(x-exponents a, coefficient)]}
    for poly in system.polys:
        groups: Dict[Tuple[int, ...], list] = {}
        for exponents, coeff in poly:
            groups.setdefault(exponents[n:], []).append(
                (exponents[:n], coeff._ints))
        equations.append(groups)
    x_exps = sorted({a for groups in equations
                     for terms in groups.values() for a, _ in terms})
    y_exps = sorted({b for groups in equations for b in groups} - {no_y})
    y_index = {b: i for i, b in enumerate(y_exps)}

    def live_equations(xs):
        """(A_0 padded, [(index of b, sparse A_b)]) for each equation that
        depends on y; None when an equation free of y does not vanish."""
        x_mono = dict(zip(x_exps, _monomials(xs, x_exps, p)))
        live = []
        for groups in equations:
            const, terms, width = [], [], 0
            for b, group in groups.items():
                a_b = []
                for a, coeff in group:
                    a_b = _add(a_b, _mul(coeff, x_mono[a], p), p)
                if not a_b:
                    continue
                if b == no_y:
                    const = a_b
                else:
                    terms.append((y_index[b], _sparse(a_b)))
                    # deg y^b <= beta * |b|
                    width = max(width, len(a_b) + beta * sum(b))
            if terms:
                live.append((const + [0] * (width - len(const)), terms))
            elif const:
                return None
        return live

    x_rows = ((xs, live_equations(xs)) for xs in itertools.product(
        _coefficient_tuples(p, alpha), repeat=n))
    y_rows = ((ys, [_sparse(v) for v in _monomials(ys, y_exps, p)])
              for ys in itertools.product(_coefficient_tuples(p, beta),
                                          repeat=m))
    # the smaller block has at most sqrt(required) tuples
    solutions = []
    if (alpha + 1) * n <= (beta + 1) * m:
        x_table = [(xs, live) for xs, live in x_rows if live is not None]
        for ys, y_mono in y_rows:
            solutions += [(xs, ys) for xs, live in x_table
                          if _vanishes(live, y_mono, p)]
    else:
        y_table = list(y_rows)
        for xs, live in x_rows:
            if live is not None:
                solutions += [(xs, ys) for ys, y_mono in y_table
                              if _vanishes(live, y_mono, p)]

    solutions.sort()
    poly_of = {k: Poly(k, system.field)
               for k in {k for xs, ys in solutions for k in xs + ys}}

    def as_polys(keys):
        return tuple(poly_of[k] for k in keys)

    solutions = tuple((as_polys(xs), as_polys(ys)) for xs, ys in solutions)
    # sorted, since the solutions are sorted by their x-tuples first
    projection = tuple(dict.fromkeys(xs for xs, _ in solutions))
    stabilized = beta > 0 and beta not in _first_betas(solutions)
    return SliceResult(alpha, beta, solutions, projection, stabilized)


def _first_betas(solutions) -> set:
    """The betas at which some projected x-tuple first appears.

    A tuple's slice is the least beta that holds one of its solutions: the
    smallest largest witness degree (at least 0) over its solutions.
    """
    first: Dict[Tuple[Poly, ...], int] = {}
    for xs, ys in solutions:
        beta = max([0] + [y.degree for y in ys])
        first[xs] = min(first.get(xs, beta), beta)
    return set(first.values())


@dataclass(frozen=True)
class SliceUnionResult:
    """Union of slice projections for beta = 0..beta_max."""

    alpha: int
    beta_max: int
    members: Tuple[Tuple[Poly, ...], ...]
    stabilized_at: Optional[int]  # least beta with projection(beta+1) equal


def slice_union(system: DioSystem, alpha: int, beta_max: int,
                max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
                ) -> SliceUnionResult:
    """The union of the slice projections for beta = 0..beta_max, and the
    least beta at which they stop growing.

    A solution with every deg y <= beta is also one with deg y <= beta + 1,
    so the slices, and with them their projections, are nested: the union
    is the beta_max projection.  One enumeration of the beta_max slice
    therefore gives both results, and `max_candidates` bounds that one
    enumeration, refused before any work.  Projection beta + 1 equals
    projection beta exactly when no x-tuple first appears at beta + 1.
    """
    if beta_max < 0:
        raise ValueError("beta_max must be >= 0")
    result = enumerate_slice(system, alpha, beta_max, max_candidates)
    appears = _first_betas(result.solutions)
    stabilized_at = next(
        (beta for beta in range(beta_max) if beta + 1 not in appears), None)
    return SliceUnionResult(alpha, beta_max, result.projection, stabilized_at)


def _distinct_roots(f: List[int], p: int) -> List[int]:
    """The roots in F_p of a nonzero f, each once.

    g = gcd(f, z^p - z) is the product of (z - r) over the roots r, found
    with O(log p) squarings mod f.  g is split by deterministic
    equal-degree splitting: (z + a)^((p-1)/2) = 1 holds at r exactly when
    r + a is a nonzero square, so gcd(g, (z + a)^((p-1)/2) - 1) separates
    two roots r, s for some a in F_p (the squares are not invariant under
    the shift by r - s), and the a that failed on g fail on its factors.
    """
    if len(f) < 2:
        return []
    if p == 2:
        return [r for r, value in ((0, f[0]), (1, sum(f) % 2)) if not value]
    g = _gcd(f, _add(_powmod([0, 1], p, f, p), [0, p - 1], p), p)
    roots = []
    pending = [(g, 0)]  # (monic product of distinct z - r, next shift a)
    while pending:
        g, a = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            h = g
            while not 1 < len(h) < len(g):
                h = _gcd(g, _add(_powmod([a, 1], (p - 1) // 2, g, p),
                                 [p - 1], p), p)
                a += 1
            pending += [(h, a), (_divmod(g, h, p)[0], a)]
    return roots


def zero_set(polys, field: Optional[PrimeField] = None) -> frozenset:
    """All a in F_p with f(a) = 0 for some f in the family.

    The zero polynomial vanishes everywhere; nonzero constants nowhere.
    The field may be omitted when the family is nonempty.  Each f costs
    O(d^2 log p) operations in F_p for d = deg f, not O(p).  A family
    containing the zero polynomial has all p elements as its zero set;
    for p above DEFAULT_CANDIDATE_BUDGET that raises BudgetError with
    required = p instead of listing them.
    """
    polys = list(polys)
    if field is None:
        if not polys:
            return frozenset()
        field = polys[0].field
    if not isinstance(field, PrimeField):
        raise ValueError("zero sets are computed over prime fields only")
    for f in polys:
        same_field(f.field, field)
    p = field.p
    if any(f.is_zero for f in polys):
        if p > DEFAULT_CANDIDATE_BUDGET:
            raise BudgetError(p, DEFAULT_CANDIDATE_BUDGET, "enumeration",
                              "candidate tuples")
        return frozenset(field.elements())
    roots = set()
    for f in polys:
        roots.update(_distinct_roots(f._ints, p))
    return frozenset(FpElement(r, p) for r in roots)


# -- Hermite reduction and the derivative test ---------------------------


def _bezout(a: Poly, b: Poly, c: Poly) -> Tuple[Poly, Poly]:
    """(s, t) with s*a + t*b = c and deg s < deg b, for coprime a and b.

    The half-extended Euclidean algorithm tracks s_i with
    s_i * a = r_i (mod b); the last nonzero remainder is a constant.
    """
    r0, s0 = b, Poly.zero(b.field)
    r1, s1 = a % b, Poly.one(b.field)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, s0, r1, s1 = r1, s1, r, s0 - q * s1
    s = _over_lc(s0 * c, r0) % b
    return s, (c - s * a) // b


def hermite_reduce(g: RatFun) -> Tuple[RatFun, RatFun]:
    """Write g = h' + r with h proper and the proper part of r over a
    squarefree denominator.

    Mack's linear version (Bronstein, Symbolic Integration I, 2.2): with
    D_ = gcd(D, D') and D* = D / D_, each pass peels one pole order off
    the proper part a / D.  It takes D_2 = gcd(D_, D_'), D_* = D_ / D_2,
    solves b u = a (mod D_*) for u = -D* D_' / D_ and deg b < deg D_*, adds
    b / D_ to h and continues with a <- (a - b u) / D_* - b' D* / D_* over
    D_2.  Each pass costs two gcds, exact divisions and one Bezout solve
    modulo the squarefree D_*; no linear system is built.  The polynomial
    part of g stays in the remainder untouched.  h and r are unique, since
    the derivative of a proper h with a pole has a pole of order >= 2.
    """
    if g.field.characteristic != 0:
        raise ValueError("Hermite reduction requires characteristic 0")
    h = RatFun.zero(g.field)
    poly_part, a = divmod(g.num, g.den)
    d_minus = poly_gcd(g.den, g.den.derivative())
    d_star = g.den // d_minus
    while d_minus.degree > 0:
        d_minus2 = poly_gcd(d_minus, d_minus.derivative())
        d_minus_star = d_minus // d_minus2
        u = -(d_star * d_minus.derivative() // d_minus)
        b, c = _bezout(u, d_minus_star, a)
        a = c - b.derivative() * d_star // d_minus_star
        h = h + RatFun(b, d_minus)
        d_minus = d_minus2
    return h, RatFun.from_poly(poly_part) + RatFun(a, d_star)


def is_derivative(g: RatFun) -> Tuple[bool, Optional[RatFun]]:
    """Whether g = F' for a rational function F; returns (flag, certificate).

    After Hermite reduction the proper part of the remainder has a
    squarefree denominator, so it is a derivative only when it vanishes;
    the certificate integrates the polynomial part term by term.
    """
    h, remainder = hermite_reduce(g)
    poly_part, proper_num = divmod(remainder.num, remainder.den)
    if not proper_num.is_zero:
        return False, None
    # over Q (`hermite_reduce` refuses characteristic p), the integral of
    # sum c_i z^i / d is sum c_i (L / (i + 1)) z^(i + 1) / (d L), L = lcm(1..n)
    scale = lcm(*range(1, len(poly_part._ints) + 1))
    antiderivative = _normal([0] + [c * (scale // i) for i, c in enumerate(
        poly_part._ints, 1)], poly_part._den * scale, g.field)
    return True, h + RatFun.from_poly(antiderivative)


# -- square pairs and Frobenius decomposition ----------------------------


@dataclass(frozen=True)
class SquarePairReport:
    """Membership report for "constant, or f and f+4 both non-squares"."""

    is_constant: bool
    f_is_square: bool
    shifted_is_square: bool

    @property
    def member(self) -> bool:
        return self.is_constant or (
            not self.f_is_square and not self.shifted_is_square)


def nonsquare_pair_check(f: RatFun) -> SquarePairReport:
    """Geometric square data of f and f + 4 (f != 0)."""
    if f.is_zero:
        raise ValueError("the zero function is excluded")
    return SquarePairReport(
        is_constant=f.is_constant,
        f_is_square=f.is_square("geometric").ok,
        shifted_is_square=(f + 4).is_square("geometric").ok,
    )


@dataclass(frozen=True)
class FrobeniusDecomposition:
    """f = sum_j z^j components[j]^p; in_d iff some component with j >= 1."""

    components: Tuple[RatFun, ...]
    in_d: bool


def frobenius_decompose(f: RatFun) -> FrobeniusDecomposition:
    """The unique decomposition f = sum_{j<p} z^j f_j^p over F_p(z).

    Clearing the denominator with den^(p-1) makes the denominator a p-th
    power; the numerator splits by exponent residue mod p, and p-th roots
    are taken coefficientwise (Frobenius is the identity on F_p).  The
    work is counted before any is done, as p components plus
    (p - 1) deg den + deg num coefficients; above FROBENIUS_BUDGET that
    count is raised as BudgetError(required).
    """
    field = f.field
    p = field.characteristic
    if p == 0:
        raise ValueError("Frobenius decomposition needs characteristic p")
    required = p + (p - 1) * f.den.degree + max(f.num.degree, 0)
    if required > FROBENIUS_BUDGET:
        raise BudgetError(required, FROBENIUS_BUDGET, "decomposition",
                          "components and coefficients")
    if f.is_zero:
        zero = RatFun.zero(field)
        return FrobeniusDecomposition((zero,) * p, False)
    den = f.den
    cleared = (f.num * den ** (p - 1))._ints
    components = [RatFun(_normal(list(cleared[j::p]), 1, field), den)
                  for j in range(p)]
    in_d = any(not comp.is_zero for comp in components[1:])
    return FrobeniusDecomposition(tuple(components), in_d)
