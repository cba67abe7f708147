"""Independent arithmetic used to check funcfield's answers.

Nothing here imports funcfield.  Every check in the benchmark recomputes
its expected answer with these helpers (plain ints, `fractions.Fraction`
and Python lists) or takes it from how the generator built the input.

Contents:
* dense Q[z] / F_p[z] helpers on coefficient lists (low degree first);
* a parser for funcfield's printed polynomial and rational-function form;
* the chord-tangent law on a curve over Q (the specialization route);
* an exhaustive F_p slice enumerator on Kronecker-packed ints;
* the analytic function's finite sum, exactly and modulo primes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd

# -- coefficient-list polynomials ---------------------------------------


def trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def pscale(a, c):
    return trim([c * x for x in a])


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def ppow(a, e):
    out = [1]
    for _ in range(e):
        out = pmul(out, a)
    return out


def pderiv(a):
    return trim([i * c for i, c in enumerate(a)][1:])


def peval(a, t):
    acc = 0
    for c in reversed(a):
        acc = acc * t + c
    return acc


def pmod_p(a, p):
    return trim([c % p for c in a])


def from_roots(roots):
    """prod (z - r) as a coefficient list."""
    out = [1]
    for r in roots:
        out = pmul(out, [-r, 1])
    return out


def pdivmod_q(a, b):
    """Quotient and remainder over Q (Fraction coefficients)."""
    a = [Fraction(c) for c in a]
    b = trim(b)
    if len(a) < len(b):
        return [], trim(a)
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = a[len(b) - 1 + k] / b[-1]
        quot[k] = c
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
    return trim(quot), trim(a[:len(b) - 1])


def pgcd_q(a, b):
    """Monic gcd over Q by the plain Euclidean algorithm."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, pdivmod_q(a, b)[1]
    return [Fraction(c) / a[-1] for c in a] if a else []


def poly_text(cs):
    """Text in funcfield's input syntax for an integer/rational list."""
    terms = [f"({c})*z^{d}" for d, c in enumerate(cs) if c]
    return " + ".join(terms) if terms else "0"


# -- parsing funcfield's printed forms ----------------------------------


def parse_poly_text(text):
    """Coefficients of a polynomial printed as '3/4*z^2 - z + 1'."""
    text = text.strip()
    if text == "0":
        return []
    coeffs = {}
    sign = 1
    for token in text.split():
        if token in ("+", "-"):
            sign = -1 if token == "-" else 1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        if "z" in token:
            head, _, tail = token.partition("z")
            coeff = Fraction(head[:-1]) if head else Fraction(1)
            degree = int(tail[1:]) if tail else 1
        else:
            coeff, degree = Fraction(token), 0
        coeffs[degree] = coeffs.get(degree, 0) + sign * coeff
        sign = 1
    top = max(coeffs)
    return trim([coeffs.get(d, 0) for d in range(top + 1)])


def parse_ratfun_text(text):
    """(numerator, denominator) lists of '(num)/(den)' or a polynomial."""
    text = text.strip()
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(")
        return parse_poly_text(num), parse_poly_text(den)
    return parse_poly_text(text), [1]


def rat_eval(numden, t):
    num, den = numden
    d = peval(den, t)
    if d == 0:
        return None
    return Fraction(peval(num, t)) / d


def rat_deriv_eval(numden, t):
    num, den = numden
    d = peval(den, t)
    if d == 0:
        return None
    n = peval(num, t)
    return (Fraction(peval(pderiv(num), t)) * d - n * peval(pderiv(den), t)) \
        / (d * d)


# -- chord-tangent law on y^2 = x^3 + a x + b over Q ---------------------


def ec_add_q(a, p, q):
    """Sum of two points (None is the identity) on y^2 = x^3 + a x + b."""
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        slope = (3 * x1 * x1 + a) / (2 * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return x3, slope * (x1 - x3) - y1


def ec_mul_q(a, n, p):
    result, base = None, p
    while n:
        if n & 1:
            result = ec_add_q(a, result, base)
        n >>= 1
        if n:
            base = ec_add_q(a, base, base)
    return result


# -- F_p slices on Kronecker-packed ints ---------------------------------


def all_polys_fp(p, max_degree):
    """Coefficient tuples of every poly of degree <= max_degree, in the
    order a product over coefficient vectors gives them."""
    return [tuple(c)
            for c in itertools.product(range(p), repeat=max_degree + 1)]


class PackedSystem:
    """Exhaustive evaluator for a system over F_p[z] (coefficients in [0, p)).

    A polynomial becomes the integer sum c_i * 2^(w*i); all coefficients
    stay non-negative, so products and sums are exact over Z as long as
    each slot stays below 2^w, and the value is 0 in F_p[z] iff every slot
    is divisible by p.
    """

    def __init__(self, p, n, m, polys, alpha, beta):
        self.p, self.n, self.m = p, n, m
        self.polys = polys  # [[(exponents, coeff_list), ...], ...]
        top_total = 0
        for poly in polys:
            for exps, coeff in poly:
                d = len(coeff) - 1
                k = sum(exps)
                bound = (p - 1) ** (k + 1) * (max(alpha, beta) + 1) ** k \
                    * (d + 1)
                top_total += bound
        self.width = max(8, top_total.bit_length() + 1)

    def pack(self, cs):
        w, v = self.width, 0
        for c in reversed(cs):
            v = (v << w) | c
        return v

    def is_zero(self, v):
        p, w = self.p, self.width
        mask = (1 << w) - 1
        while v:
            if (v & mask) % p:
                return False
            v >>= w
        return True

    def solutions(self, alpha, beta):
        p, n, m = self.p, self.n, self.m
        x_space = all_polys_fp(p, alpha)
        y_space = all_polys_fp(p, beta)
        x_packed = {xs: self.pack(xs) for xs in x_space}
        y_packed = {ys: self.pack(ys) for ys in y_space}
        coeffs = [[(exps, self.pack(coeff)) for exps, coeff in poly]
                  for poly in self.polys]
        out = []
        for xs in itertools.product(x_space, repeat=n):
            xv = [x_packed[x] for x in xs]
            for ys in itertools.product(y_space, repeat=m):
                values = xv + [y_packed[y] for y in ys]
                for poly in coeffs:
                    total = 0
                    for exps, c in poly:
                        term = c
                        for v, e in zip(values, exps):
                            if e:
                                term *= v ** e
                        total += term
                    if not self.is_zero(total):
                        break
                else:
                    out.append((tuple(tuple(trim(x)) for x in xs),
                                tuple(tuple(trim(y)) for y in ys)))
        return out


def roots_fp(polys, p):
    """All a in F_p with f(a) = 0 for some f (int coefficient lists)."""
    roots = set()
    for a in range(p):
        for f in polys:
            if peval(f, a) % p == 0:
                roots.add(a)
                break
    return roots


# -- the analytic function ------------------------------------------------


def cw_pair(i):
    """Numerator and denominator of the i-th Calkin-Wilf rational."""
    a, b = 1, 1
    for bit in bin(i)[3:]:
        if bit == "0":
            b = a + b
        else:
            a = a + b
    return a, b


def cw_index_of(a, b):
    """Calkin-Wilf position of a/b > 0 by walking up the tree one step at
    a time (parent of a/b is a/(b-a) or (a-b)/b)."""
    bits = []
    while (a, b) != (1, 1):
        if a > b:
            a -= b
            bits.append("1")
        else:
            b -= a
            bits.append("0")
    return int("1" + "".join(reversed(bits)), 2)


def q_pair(n):
    """q_n as (r, s) with q_n = (r/s)^2; q_1 = 0."""
    if n == 1:
        return 0, 1
    return cw_pair(n - 1)


def term_count(num, den):
    """Number of non-vanishing terms of f at num/den: square_index - 1."""
    if num == 0:
        return 0
    return cw_index_of(abs(num), den)


def a_bounds(count):
    """A_1..A_count as ints: 1 + ceil(prod_{i<=n} (q_i + 1))."""
    top, bottom, out = 1, 1, []
    for n in range(1, count + 1):
        r, s = q_pair(n)
        top, bottom = top * (r * r + s * s), bottom * s * s
        out.append(1 - ((-top) // bottom))
    return out


def f_exact(num, den, bounds):
    """f(num/den) as a reduced (numerator, denominator) pair, integers only."""
    count = term_count(num, den)
    p2, q2 = num * num, den * den
    tn, td = 0, 1
    un, vd = 1, 1  # running product P_n(a) = un / vd
    for n in range(1, count + 1):
        r, s = q_pair(n)
        un *= r * r * q2 - s * s * p2
        vd *= s * s * q2
        g = gcd(un, vd)
        if g > 1:
            un, vd = un // g, vd // g
        d = vd * factorial(2 * n) * bounds[n - 1]
        tn, td = tn * d + un * td, td * d
        g = gcd(tn, td)
        tn, td = tn // g, td // g
    if td < 0:
        tn, td = -tn, -td
    return tn, td


# Two 61-bit primes for the modular evaluations.
PRIMES = (2305843009213693951, 2305843009213693921)


def f_mod(num, den, ell, bounds_mod):
    """f(num/den) modulo the prime ell (None if a denominator vanishes)."""
    count = term_count(num, den)
    p2, q2 = num * num % ell, den * den % ell
    total, product = 0, 1
    fact = 1
    for n in range(1, count + 1):
        r, s = q_pair(n)
        s2q2 = s * s % ell * q2 % ell
        if s2q2 == 0:
            return None
        product = product * (r * r % ell * q2 - s * s % ell * p2) % ell \
            * pow(s2q2, -1, ell) % ell
        fact = fact * (2 * n - 1) % ell * (2 * n) % ell
        d = fact * bounds_mod[n - 1] % ell
        if d == 0:
            return None
        total = (total + product * pow(d, -1, ell)) % ell
    return total


def series_mod(cutoff, buffer, ell, bounds_mod):
    """Even coefficients (in t^2) of g(t) modulo ell, degree <= cutoff."""
    half = cutoff // 2
    acc = [0] * (half + 1)
    product = [1]
    fact = 1
    for n in range(1, half + buffer + 1):
        r, s = q_pair(n)
        qn = r * r % ell * pow(s * s % ell, -1, ell) % ell
        updated = [0] * min(len(product) + 1, half + 1)
        for j, c in enumerate(product):
            if j < len(updated):
                updated[j] = (updated[j] + qn * c) % ell
            if j + 1 < len(updated):
                updated[j + 1] = (updated[j + 1] + c) % ell
        product = updated
        fact = fact * (2 * n - 1) % ell * (2 * n) % ell
        inv = pow(fact * bounds_mod[n - 1] % ell, -1, ell)
        for j, c in enumerate(product):
            acc[j] = (acc[j] + c * inv) % ell
    return acc


def frac_mod(value, ell):
    """A Fraction reduced modulo ell (None if ell divides the denominator)."""
    value = Fraction(value)
    if value.denominator % ell == 0:
        return None
    return value.numerator % ell * pow(value.denominator, -1, ell) % ell
