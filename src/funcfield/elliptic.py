"""The elliptic curve y^2 = x^3 + A x + B over k(z), exactly.

Everything here is short-Weierstrass, so the characteristic is not 2.
Beyond the group law and point multiplication, the module computes naive
heights (degree of the x-coordinate), canonical-height estimates
h(2^k P)/4^k, the c4/c6/delta invariants, the Kodaira type of each bad
fiber from the valuation triple of a minimal model (characteristic 0),
and the Shioda-Tate rank count for rational elliptic surfaces.

The group law and the heights move the curve to a model with polynomial
A and B, (x, y, A, B) -> (u^2 x, u^3 y, u^4 A, u^6 B) for the least monic
u (`_curve_model`, Silverman, AEC, III.1), check the point and compute
there, and map the result back by x / u^2 and y / u^3; `bad_fibers`
reads the fibers on the same model.  `ec_add` and `degree_growth_report`
run the chord-tangent law in weighted coordinates, x = X / Z^2 and
y = Y / Z^3, with no division and one certified gcd per sum (`_add`,
`_lowest_weighted`).  `ec_multiply` and
`canonical_height_estimate` read nP (|n| >= 2, y(P) != 0) off the
division values W_k = psi_k(P) in k[z] (Ward's elliptic divisibility
sequence) on a model where x and y are polynomials too
(`_integral_model`).  There

    x(nP) = (x W_n^2 - W_{n-1} W_{n+1}) / W_n^2,
    y(nP) = Omega_n / (2 W_n^3),
    Omega_n = (W_{n+2} W_{n-1}^2 - W_{n-2} W_{n+1}^2) / W_2,

with W_n = 0 exactly when nP = O.  Only the O(log n) values that the
halving recurrences touch are computed, and two gcds on W_n-sized
operands certify lowest terms (`_division_multiple`).

The division values of the reference point below are sparse in a fixed
pattern.  psi_n is isobaric of weight n^2 - 1 when x, y, A and B have
weights 2, 3, 4 and 6 (Silverman, AEC, Ex. 3.7).  At (x, y, A, B) =
(0, 1, z, 1) only the monomials y^j A^k B^l with 3j + 4k + 6l = n^2 - 1
survive, and each puts z^k with k = n^2 - 1 (mod 3), so W_n = z^a g(z^3)
(W_13 has 15 nonzero coefficients out of 43).  Products and gcds over Q
run on g rather than on its zeros (see `poly`).

The reference curve throughout the package is y^2 = x^3 + z*x + 1 with the
generator point (0, 1): a rational elliptic surface with three I1 fibers on
the block 4z^3 + 27 and a III* fiber at infinity, Mordell-Weil lattice of
rank 1 with minimal height 1/2 (the lattice A1-dual).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, inf
from typing import List, Optional, Tuple

from .divisors import Place, _coprime_basis
from .fields import Field, QQ, same_field
from .poly import (Poly, _over_lc, poly_gcd, radical,
                   squarefree_decomposition)
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
    """y^2 = x^3 + A x + B with nonzero discriminant (never over F_2)."""

    A: RatFun
    B: RatFun

    def __post_init__(self):
        # with A = a/alpha and B = b/beta, 4A^3 + 27B^2 = 0 exactly when
        # 4 a^3 beta^2 + 27 b^2 alpha^3 = 0 (both sides times alpha^3 beta^2)
        same_field(self.A.field, self.B.field)
        a, alpha = self.A.num, self.A.den
        b, beta = self.B.num, self.B.den
        if self.field.characteristic == 2 or not (
                (a ** 3 * beta ** 2).scale(4)
                + (b ** 2 * alpha ** 3).scale(27)):
            raise ValueError("singular curve: -16(4A^3 + 27B^2) = 0")

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
    # Z of `_weight_den`, kept once derived; not part of the value, so
    # equality, hashing and dataclasses.replace ignore it
    _z: Optional[Poly] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

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
        return self if self.is_identity else ECPoint(self.x, -self.y)

    def __str__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


def generator_point(field: Field = QQ) -> ECPoint:
    """(0, 1) on the reference curve."""
    return ECPoint.affine(RatFun.zero(field), RatFun.one(field))


def on_curve(curve: Curve, point: ECPoint) -> bool:
    """Whether the point satisfies the curve equation.

    The test runs on `_curve_model`'s model, whose equation is the
    curve's times u^6, and needs no gcd there.  With x = N/D and y = M/E
    in canonical form, y^2 = M^2/E^2 is canonical, and so is
    x^3 + A x + B = (N (N^2 + A D^2) + B D^3) / D^3, since that numerator
    is N^3 mod D and N is prime to D.  Two canonical forms are equal
    exactly when their parts are: E^2 = D^3 (degrees first) and
    M^2 = N (N^2 + A D^2) + B D^3.
    """
    if point.is_identity:
        return True
    u, curve = _curve_model(curve)
    point = _to_model(u, point)
    d, e = point.x.den, point.y.den
    if 2 * e.degree != 3 * d.degree:
        return False
    d2 = d * d
    d3 = d2 * d
    if e * e != d3:
        return False
    n, m = point.x.num, point.y.num
    return m * m == n * (n * n + curve.A.num * d2) + curve.B.num * d3


def _add(curve: Curve, p: ECPoint, q: ECPoint) -> ECPoint:
    """P + Q by the chord-tangent law, for polynomial A and B.

    Every affine point is then (X / Z^2, Y / Z^3) in lowest terms
    (`on_curve`'s E^2 = D^3), and the law in these weighted coordinates
    (Cohen-Miyaji-Ono 1998) needs no division:

        chord:   U1 = X1 Z2^2, U2 = X2 Z1^2, S1 = Y1 Z2^3, S2 = Y2 Z1^3,
                 H = U2 - U1, R = S2 - S1,
                 X3 = R^2 - H^3 - 2 U1 H^2, Y3 = R (U1 H^2 - X3) - S1 H^3,
                 Z3 = Z1 Z2 H;
        tangent: L = 3 X1^2 + A Z1^4, S = 4 X1 Y1^2,
                 X3 = L^2 - 2 S, Y3 = L (S - X3) - 8 Y1^4, Z3 = 2 Y1 Z1.

    One gcd, or three small ones when its certificate fails, brings the
    sum to lowest terms (`_lowest_weighted`).
    """
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    if p.x == q.x and p.y == -q.y:
        return ECPoint.identity()
    x1, y1, z1 = p.x.num, p.y.num, _weight_den(p)
    if p.x == q.x:  # then y(P) = y(Q) != 0
        l = (x1 * x1).scale(3) + curve.A.num * (z1 * z1) ** 2
        y1y1 = y1 * y1
        s = (x1 * y1y1).scale(4)
        x3 = l * l - s.scale(2)
        return _lowest_weighted(x3, l * (s - x3) - (y1y1 * y1y1).scale(8),
                                (y1 * z1).scale(2))
    x2, y2, z2 = q.x.num, q.y.num, _weight_den(q)
    z1z1, z2z2 = z1 * z1, z2 * z2
    u1, s1 = x1 * z2z2, y1 * z2z2 * z2
    h = x2 * z1z1 - u1
    r = y2 * z1z1 * z1 - s1
    hh = h * h
    u1hh, hhh = u1 * hh, hh * h
    x3 = r * r - hhh - u1hh.scale(2)
    return _lowest_weighted(x3, r * (u1hh - x3) - s1 * hhh, z1 * z2 * h)


def _weight_den(point: ECPoint) -> Poly:
    """Z with den x = Z^2 and den y = Z^3, for an affine point on a curve
    with polynomial A and B: `on_curve`'s E^2 = D^3 makes den y / den x
    exact.  The division runs once per point; Z is kept on it."""
    z = point._z
    if z is None:
        z = point.y.den // point.x.den
        object.__setattr__(point, "_z", z)
    return z


def _lowest_weighted(x3: Poly, y3: Poly, z3: Poly) -> ECPoint:
    """(X3 / Z3^2, Y3 / Z3^3) in lowest terms, for a sum on a curve with
    polynomial A and B, by one gcd, or three small ones.

    Let the sum be (N / Z^2, M / Z^3) in lowest terms.  Then Z^2 divides
    N Z3^2 with N prime to Z, so Z3 = c Z, X3 = c^2 N and Y3 = c^3 M for a
    polynomial c.  Take g = gcd(X3, Z3).  At each prime,
    v(g) = min(2 v(c) + v(N), v(c) + v(Z)) >= v(c), since v(N) or v(Z) is
    0, with equality unless the prime divides both c and Z; there v(N) = 0
    and v(g^2) > 2 v(c) = v(X3).  So g^2 | X3 exactly when g = c up to a
    constant, and then N = X3 / g^2, M = Y3 / g^3 and Z = Z3 / g are the
    lowest terms: N is prime to Z, and so is M, because a prime dividing M
    and Z would divide N^3 = M^2 - A N Z^4 - B Z^6.

    Otherwise c is found from g.  By the same case split,
    v(c) = min(v(X3) / 2, v(Z3)) at each prime, so gcd(X3, g^2) = c^2, and
    it is gcd(X3 mod g^2, g^2), whose operands are below the degree of
    g^2.  Then Y3 / c^2 = c M, and gcd(c M, g) = c: where v(Z) = 0,
    v(g) = v(c), and elsewhere v(M) = 0.
    """
    g = poly_gcd(x3, z3)
    if g.degree > 0:
        gg = g * g
        n, remainder = divmod(x3, gg)
        if remainder:  # then g is not c: find c^2 and c
            gg = poly_gcd(remainder, gg)
            n, g = x3 // gg, poly_gcd(y3 // gg, g)
        x3, y3, z3 = n, y3 // (gg * g), z3 // g
    # Z3 made monic, so that Z3^2 and Z3^3 are monic as built
    x3, y3, z3 = _over_lc(x3, z3, 2), _over_lc(y3, z3, 3), _over_lc(z3, z3)
    z3z3 = z3 * z3
    point = ECPoint.affine(RatFun._coprime(x3, z3z3),
                           RatFun._coprime(y3, z3z3 * z3))
    object.__setattr__(point, "_z", z3)  # what `_weight_den` would derive
    return point


def ec_add(curve: Curve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent addition, by `_add` on `_curve_model`'s model."""
    u, model, (p, q) = _on_model(curve, p, q)
    total = _add(model, p, q)
    return total if u is None or total.is_identity else ECPoint.affine(
        _from_model(u, total.x, 2), _from_model(u, total.y, 3))


def ec_multiply(curve: Curve, n: int, point: ECPoint) -> ECPoint:
    """n-th multiple, from the division values of P on a polynomial model
    for |n| >= 2 (see the module docstring); negative n via negation."""
    u, model, base = _integral_model(curve, point)
    if n == 0 or point.is_identity or (point.y.is_zero and n % 2 == 0):
        return ECPoint.identity()
    if abs(n) == 1 or point.y.is_zero:  # W_2 = 2y = 0 cannot divide
        return point if n > 0 else -point
    multiple = _division_multiple(model, base, abs(n))
    if u is not None and not multiple.is_identity:
        multiple = ECPoint.affine(_from_model(u, multiple.x, 2),
                                  _from_model(u, multiple.y, 3))
    return multiple if n > 0 else -multiple


# -- the polynomial model and its division values ---------------------------


def _curve_model(curve: Curve):
    """(u, E') with E': y^2 = x^3 + u^4 A x + u^6 B for the least monic u
    making both polynomials (Silverman, AEC, III.1), or (None, E) when they
    already are.  Each round takes up to 4 and 6 off every pole order."""
    a, b, u = curve.A, curve.B, None
    while not (a.is_polynomial and b.is_polynomial):
        t = radical(a.den * b.den)
        a, b, u = a * t ** 4, b * t ** 6, t if u is None else u * t
    return (None, curve) if u is None else (u, Curve(a, b))


def _to_model(u: Optional[Poly], point: ECPoint) -> ECPoint:
    """(u^2 x, u^3 y), or the point itself for u = None or the identity."""
    if u is None or point.is_identity:
        return point
    return ECPoint.affine(point.x * u ** 2, point.y * u ** 3)


def _from_model(u: Optional[Poly], value: RatFun, weight: int) -> RatFun:
    """value / u^weight: x (weight 2) or y (weight 3) back from a model."""
    return value if u is None else value / u ** weight


def _on_model(curve: Curve, *points: ECPoint):
    """(u, E', [P', ...]) for `_curve_model` and P' = `_to_model(u, P)`,
    each checked on E' (the curve's equation times u^6)."""
    u, model = _curve_model(curve)
    moved = [_to_model(u, point) for point in points]
    for point, image in zip(points, moved):
        if not on_curve(model, image):
            raise OffCurveError(f"{point} does not lie on {curve}")
    return u, model, moved


def _integral_model(curve: Curve, point: ECPoint):
    """(u, E', P') as `_on_model`, with u times the Z of `_weight_den`
    when x is not a polynomial, so that x and y are too."""
    u, model, (point,) = _on_model(curve, point)
    if point.is_identity or point.x.is_polynomial:
        return u, model, point
    z = _weight_den(point)
    return (z if u is None else u * z), \
        Curve(model.A * z ** 4, model.B * z ** 6), _to_model(z, point)


def _division_values(curve: Curve, point: ECPoint):
    """k -> W_k = psi_k(P) in k[z], memoized, for a point with y(P) != 0
    on a curve where A, B, x(P) and y(P) are polynomials.

    W_0..W_4 are the division polynomials evaluated at P, with W_2 = 2y;
    above that W_{2m+1} = W_{m+2} W_m^3 - W_{m-1} W_{m+1}^3 and
    W_{2m} = W_m Omega_m, and W_{-k} = -W_k.
    """
    a, b = curve.A.num, curve.B.num
    x, y = point.x.num, point.y.num
    x2 = x * x
    a2 = a * a
    w2 = y.scale(2)
    memo = {
        0: Poly.zero(curve.field),
        1: Poly.one(curve.field),
        2: w2,
        # 3x^4 + 6Ax^2 + 12Bx - A^2
        3: (x2 * (x2.scale(3) + a.scale(6)) + (b * x).scale(12) - a2),
        # 4y (x^6 + 5Ax^4 + 20Bx^3 - 5A^2x^2 - 4ABx - 8B^2 - A^3)
        4: w2 * (x2 * (x2 * (x2 + a.scale(5)) + (b * x).scale(20)
                       - a2.scale(5))
                 - (a * b * x).scale(4) - (b * b).scale(8) - a2 * a).scale(2),
    }

    def w(k: int) -> Poly:
        if k < 0:
            return -w(-k)
        value = memo.get(k)
        if value is None:
            m = k // 2
            if k & 1:
                value = w(m + 2) * w(m) ** 3 - w(m - 1) * w(m + 1) ** 3
            else:
                value = w(m) * _omega(w, m)
            memo[k] = value
        return value

    return w


def _omega(w, m: int) -> Poly:
    """Omega_m = (W_{m+2} W_{m-1}^2 - W_{m-2} W_{m+1}^2) / W_2, an exact
    division that is checked rather than assumed."""
    quotient, remainder = divmod(
        w(m + 2) * w(m - 1) ** 2 - w(m - 2) * w(m + 1) ** 2, w(2))
    if remainder:
        raise ArithmeticError(f"W_2 does not divide Omega_{m}")
    return quotient


def _division_x(w, x: Poly, n: int):
    """(x(nP), lowest) for n >= 1 from the division values, x = x(P); x(nP)
    is None when W_n = 0, that is nP = O.

    lowest says that gcd(W_n, W_{n-1}) and gcd(W_n, W_{n+1}) are constant;
    then x(nP) is built without a gcd, and otherwise reduced by a full one.
    """
    wn = w(n)
    if wn.is_zero:
        return None, True
    before, after = w(n - 1), w(n + 1)
    lowest = (poly_gcd(wn, before).degree == 0
              and poly_gcd(wn, after).degree == 0)
    square = wn * wn
    build = RatFun._coprime if lowest else RatFun
    return build(x * square - before * after, square), lowest


def _division_multiple(curve: Curve, point: ECPoint, n: int) -> ECPoint:
    """nP for n >= 1 and a point as `_division_values` takes it.

    Lowest terms: let gcd(W_n, W_{n-1}) and gcd(W_n, W_{n+1}) be constant.
    A prime dividing W_n and the numerator x W_n^2 - W_{n-1} W_{n+1} of
    x(nP) would divide W_{n-1} W_{n+1}, so x(nP) is in lowest terms with
    denominator monic(W_n)^2.  With A and B polynomial, the denominator of
    x^3 + A x + B is then monic(W_n)^6, the square of the denominator of
    y(nP); so y(nP) = Omega_n / (2 W_n^3) has denominator monic(W_n)^3 and
    is in lowest terms too.  When either gcd is nonconstant (P meets a
    singular point of a finite fiber), both coordinates are reduced by a
    full gcd.
    """
    w = _division_values(curve, point)
    x, lowest = _division_x(w, point.x.num, n)
    if x is None:
        return ECPoint.identity()
    wn = w(n)
    build = RatFun._coprime if lowest else RatFun
    return ECPoint.affine(x, build(_omega(w, n), (wn * wn * wn).scale(2)))


def naive_height(curve: Curve, point: ECPoint) -> int:
    """Map degree of the x-coordinate of an affine point."""
    _on_model(curve, point)
    return _naive_height(point)


def _naive_height(point: ECPoint) -> int:
    """naive_height of a point already known to lie on its curve."""
    if point.is_identity:
        raise ValueError("naive height of the identity is undefined")
    return point.x.map_degree()


def canonical_height_estimate(curve: Curve, point: ECPoint, k: int) -> Fraction:
    """h(2^k P) / 4^k as an exact rational (k >= 1, P affine non-torsion).

    Only P is checked; x(2^k P) comes from the division values on P's
    integral model, and its height is read off directly."""
    if k < 1:
        raise ValueError("doubling count must be >= 1")
    u, model, base = _integral_model(curve, point)
    if point.is_identity:
        raise ValueError("height estimate needs an affine point")
    x = None if point.y.is_zero else _division_x(
        _division_values(model, base), base.x.num, 2 ** k)[0]
    if x is None:  # 2^k P = O, or 2P = O at y = 0
        raise TorsionPointError(f"{point} is torsion")
    return Fraction(_from_model(u, x, 2).map_degree(), 4 ** k)


def degree_growth_report(
        curve: Curve, point: ECPoint, n_max: int,
) -> List[Tuple[int, int, Fraction]]:
    """(n, deg(x_n), deg(x_n) / (n^2/2)) for n = 1..n_max.

    Each multiple is the sum of two earlier ones, nP = (n - n//2)P +
    (n//2)P, so the report takes n_max group-law steps, each on points of
    about a quarter of the result's degree; adding P to (n-1)P instead
    works on points almost as large as the result and costs more.  Each
    step is `_add` on `_curve_model`'s model.  The point is checked once;
    its multiples, computed here, are not.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    u, model, (base,) = _on_model(curve, point)
    rows = []
    multiples = {0: ECPoint.identity(), 1: base}
    for n in range(1, n_max + 1):
        multiple = multiples[n] = _add(model, multiples[n - n // 2],
                                       multiples[n // 2])
        if multiple.is_identity:
            raise TorsionPointError(f"{n} * {point} is the identity")
        degree = _from_model(u, multiple.x, 2).map_degree()
        rows.append((n, degree, Fraction(2 * degree, n * n)))
    return rows


# -- discriminant, fibers, rank ------------------------------------------


def discriminant_and_c_invariants(curve: Curve) -> Tuple[RatFun, RatFun, RatFun]:
    """(delta, c4, c6) = (-16(4A^3 + 27B^2), -48A, -864B)."""
    delta = -16 * (4 * curve.A ** 3 + 27 * curve.B ** 2)
    return delta, -48 * curve.A, -864 * curve.B


# additive fiber types by v(delta); the conductor exponent f is 2 for each
_ADDITIVE = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*",
             10: "II*"}
_ADDITIVE_DELTA = {name: v_delta for v_delta, name in _ADDITIVE.items()}


def kodaira_classify(v_c4: Optional[int], v_c6: Optional[int],
                     v_delta: int) -> str:
    """Kodaira type from the valuations of a minimal model, residue char 0.

    None encodes an infinite valuation (c4 or c6 identically zero).  Raises
    NonMinimalModelError when v(c4) >= 4 and v(delta) >= 12.  The identity
    1728 delta = c4^3 - c6^2 (Tate 1975) forces v(delta) = min(3 v(c4),
    2 v(c6)) when the two differ and v(delta) >= min when they tie; any
    other triple, or a negative valuation, is no fiber's and raises
    ValueError.  Then v(c4) = 0 is multiplicative, I_n with n = v(delta);
    3 v(c4) = 2 v(c6) = 6 is I_n* with n = v(delta) - 6; every other
    additive type is read off v(delta).
    """
    if (v_c4 is None or v_c4 >= 4) and v_delta >= 12:
        raise NonMinimalModelError(
            f"triple ({v_c4}, {v_c6}, {v_delta}) admits a u^12 reduction")
    if v_delta < 0:
        raise ValueError("v(delta) must be >= 0")
    three = inf if v_c4 is None else 3 * v_c4
    two = inf if v_c6 is None else 2 * v_c6
    low = min(three, two)
    if v_delta < low or (v_delta > low and three != two) or low < 0:
        raise ValueError(
            f"no fiber type has valuations ({v_c4}, {v_c6}, {v_delta})")
    if v_delta == 0 or three == 0:
        return f"I{v_delta}"
    if three == two == 6:
        return f"I{v_delta - 6}*"
    return _ADDITIVE[v_delta]


def fiber_components(kodaira: str) -> int:
    """Number m of irreducible components of a Kodaira fiber.

    Ogg's formula (1967) v(delta) = f + m - 1, with conductor exponent
    f = 0 for I0, 1 for I_n (n >= 1) and 2 for the additive types, gives
    m = n for I_n, n + 5 for I_n* and v(delta) - 1 for `_ADDITIVE`.
    """
    if kodaira in _ADDITIVE_DELTA:
        return _ADDITIVE_DELTA[kodaira] - 1
    if kodaira.startswith("I") and kodaira.endswith("*"):
        return int(kodaira[1:-1]) + 5
    if kodaira.startswith("I"):
        return int(kodaira[1:]) or 1
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


def bad_fibers(curve: Curve) -> List[FiberReport]:
    """All bad fibers of the elliptic surface of the curve.

    The fibers are read on `_curve_model`'s model, whose A and B are
    polynomials; it is isomorphic to the curve over k(z), so its minimal
    models, bad fibers and Kodaira types are the curve's.  Finite places
    are the blocks of the discriminant in the factor refinement
    (`divisors._coprime_basis`) of the squarefree decompositions of delta,
    c4 and c6, so each block carries one triple (v_c4, v_c6, v_delta).
    The place at infinity uses the substitution z = 1/w with the least
    (x, y) -> (u^2 x, u^3 y) rescaling making the coefficients w-integral,
    after which valuations reduce to degree counts.  Each triple is then
    minimalized and classified.
    """
    if curve.field.characteristic != 0:
        raise ValueError("fiber classification is residue-characteristic 0")
    curve = _curve_model(curve)[1]
    a_poly, b_poly = curve.A.num, curve.B.num
    delta, c4, c6 = discriminant_and_c_invariants(curve)
    delta_poly, c4_poly, c6_poly = delta.num, c4.num, c6.num

    sources = [[] if poly.is_zero else squarefree_decomposition(poly)
               for poly in (delta_poly, c4_poly, c6_poly)]
    # the blocks of delta in the refinement, each with one triple; they
    # are monic and squarefree already, so Place.finite has nothing to check
    triples = [(Place(block), v4, v6, vd)
               for block, (vd, v4, v6) in _coprime_basis(sources) if vd]
    # infinity: valuations in w = 1/z after the minimal u = w^k rescaling
    # (the zero polynomial has degree -1, which asks for no k)
    k = max(0, ceil(a_poly.degree / 4), ceil(b_poly.degree / 6))
    triples.append((Place.infinity(), 4 * k - c4_poly.degree,
                    6 * k - c6_poly.degree, 12 * k - delta_poly.degree))
    reports: List[FiberReport] = []
    for place, v4, v6, vd in triples:
        # None: c4 or c6 vanishes identically
        v4, v6, vd = _minimalize(None if c4_poly.is_zero else v4,
                                 None if c6_poly.is_zero else v6, vd)
        kodaira = kodaira_classify(v4, v6, vd)
        if kodaira != "I0":
            reports.append(FiberReport(place, v4, v6, vd, kodaira))
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
