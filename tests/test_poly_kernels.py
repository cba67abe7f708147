"""Integer kernels of Q[z] multiply, divide and gcd against references.

`schoolbook_mul` and `schoolbook_divmod` are the per-coefficient Fraction
loops the Q kernels replaced; the kernels must agree with them exactly.
The heuristic gcd is checked against the primitive PRS route it falls back
on, and against sympy where it is installed.
"""

import random
from fractions import Fraction

import pytest

from funcfield import poly
from funcfield.fields import PrimeField, QQ
from funcfield.poly import Poly, poly_gcd

F5 = PrimeField(5)


def schoolbook_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def schoolbook_divmod(a, b):
    if len(a) < len(b):
        return [], list(a)
    rem = list(a)
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    inv_lc = 1 / b[-1]
    for k in range(len(quot) - 1, -1, -1):
        c = rem[len(b) - 1 + k] * inv_lc
        quot[k] = c
        if c:
            for i, y in enumerate(b):
                rem[i + k] = rem[i + k] - c * y
    return quot, rem[:len(b) - 1]


def stripped(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def random_coeff(rng, bits):
    """A signed rational with a numerator of up to `bits` bits and a
    denominator that is 1 half the time."""
    num = rng.choice((-1, 1)) * rng.getrandbits(bits) if bits else 0
    den = 1 if rng.random() < 0.5 else rng.randint(2, 10 ** rng.randint(1, 6))
    return Fraction(num, den)


def random_poly(rng, degree, bits):
    """Coefficients with mixed sizes up to `bits`, some zero, nonzero
    leading coefficient (for degree >= 0)."""
    if degree < 0:
        return []
    cs = [random_coeff(rng, rng.randint(0, bits)) for _ in range(degree)]
    lead = Fraction(0)
    while not lead:
        lead = random_coeff(rng, rng.randint(1, bits))
    return cs + [lead]


SHAPES = [(-1, 5), (0, 1), (0, 700), (1, 3), (2, 64), (5, 700), (13, 200),
          (40, 30), (64, 700)]


def test_q_mul_matches_schoolbook(rng=random.Random(4401)):
    for _ in range(6):
        for da, ba in SHAPES:
            for db, bb in SHAPES:
                a, b = random_poly(rng, da, ba), random_poly(rng, db, bb)
                product = Poly(a, QQ) * Poly(b, QQ)
                assert product.coeffs == stripped(schoolbook_mul(a, b))


def test_q_mul_sign_and_cancellation_edges():
    big = 2 ** 700 - 1
    cases = [
        ([Fraction(-big)], [Fraction(-big)]),
        ([Fraction(big), Fraction(-big)], [Fraction(big), Fraction(big)]),
        ([Fraction(-1, 3)] * 9, [Fraction(1, 7), Fraction(-1, 7)]),
        ([Fraction(0), Fraction(0), Fraction(-5, 2)], [Fraction(2, 5)]),
        ([Fraction(-(2 ** 63))] * 4, [Fraction(2 ** 63 - 1)] * 4),
    ]
    for a, b in cases:
        assert (Poly(a, QQ) * Poly(b, QQ)).coeffs \
            == stripped(schoolbook_mul(a, b))
    zero, one = Poly.zero(QQ), Poly.one(QQ)
    assert (zero * Poly(cases[0][0], QQ)).is_zero
    assert (Poly(cases[0][0], QQ) * zero).is_zero
    assert Poly(cases[1][0], QQ) * one == Poly(cases[1][0], QQ)


def test_q_divmod_matches_schoolbook(rng=random.Random(4402)):
    for _ in range(6):
        for da, ba in SHAPES:
            for db, bb in SHAPES:
                if db < 0:
                    continue
                a, b = random_poly(rng, da, ba), random_poly(rng, db, bb)
                quot, rem = divmod(Poly(a, QQ), Poly(b, QQ))
                q_ref, r_ref = schoolbook_divmod(a, b)
                assert quot.coeffs == stripped(q_ref)
                assert rem.coeffs == stripped(r_ref)


def test_q_divmod_leading_coefficient_cases(rng=random.Random(4403)):
    leads = [Fraction(-1), Fraction(-7, 3), Fraction(1, 2 ** 200),
             Fraction(-(2 ** 300), 11), Fraction(6)]
    for lead in leads:
        for degree in (0, 1, 4, 17):
            b = random_poly(rng, degree - 1, 80) + [lead]
            a = random_poly(rng, degree + rng.randint(0, 20), 300)
            quot, rem = divmod(Poly(a, QQ), Poly(b, QQ))
            q_ref, r_ref = schoolbook_divmod(a, b)
            assert quot.coeffs == stripped(q_ref)
            assert rem.coeffs == stripped(r_ref)
            # exact divisions come back with a zero remainder
            product = Poly(a, QQ) * Poly(b, QQ)
            assert divmod(product, Poly(b, QQ)) == (Poly(a, QQ), Poly.zero(QQ))


def test_q_divmod_small_dividend_and_zero_divisor():
    a, b = Poly([Fraction(1, 2), Fraction(3)], QQ), Poly([1, 0, -1], QQ)
    assert divmod(a, b) == (Poly.zero(QQ), a)
    assert divmod(Poly.zero(QQ), b) == (Poly.zero(QQ), Poly.zero(QQ))
    with pytest.raises(ZeroDivisionError):
        divmod(b, Poly.zero(QQ))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_pow_forms_no_product_above_the_result_degree(field, monkeypatch):
    f = Poly([3, 1, 2, 1], field)  # degree 3 over both fields
    mul = Poly.__mul__
    largest = []

    def recording_mul(self, other):
        product = mul(self, other)
        largest[-1] = max(largest[-1], product.degree)
        return product

    monkeypatch.setattr(Poly, "__mul__", recording_mul)
    for n in range(10):
        largest.append(-1)
        power = f ** n
        assert power.degree == n * f.degree
        assert largest[-1] <= n * f.degree
        reference = Poly.one(field)
        for _ in range(n):
            reference = mul(reference, f)
        assert power == reference


def test_q_kernels_match_sympy_at_degree_512(rng=random.Random(4404)):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def to_sympy(cs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(cs)], z, domain=sympy.QQ)

    def from_sympy(poly):
        return tuple(Fraction(int(c.p), int(c.q))
                     for c in reversed(poly.all_coeffs())) if poly else ()

    a, b = random_poly(rng, 512, 700), random_poly(rng, 512, 700)
    assert (Poly(a, QQ) * Poly(b, QQ)).coeffs \
        == from_sympy(to_sympy(a) * to_sympy(b))
    # a * b + r divided by b: quotient a and remainder r, of the same sizes
    r = random_poly(rng, 511, 700)
    dividend = Poly(a, QQ) * Poly(b, QQ) + Poly(r, QQ)
    quot, rem = divmod(dividend, Poly(b, QQ))
    q_ref, r_ref = sympy.div(to_sympy(list(dividend.coeffs)), to_sympy(b))
    assert quot.coeffs == from_sympy(q_ref) == tuple(a)
    assert rem.coeffs == from_sympy(r_ref) == stripped(r)


# -- gcd over Q -----------------------------------------------------------

Z = Poly.gen(QQ)


def gcd_pair(rng, dg, d1, d2, bits):
    """f * c1 and f * c2 for random f, c1, c2 of degrees dg, d1, d2, each
    multiplied by a power of z a third of the time."""
    f = Poly(random_poly(rng, dg, bits), QQ)
    a = f * Poly(random_poly(rng, d1, bits), QQ)
    b = f * Poly(random_poly(rng, d2, bits), QQ)
    if rng.random() < 0.3:
        a = a * Z ** rng.randint(1, 3)
    if rng.random() < 0.3:
        b = b * Z ** rng.randint(1, 3)
    return a, b


def gcd_pairs(rng, common_degrees, bit_sizes):
    cofactor_degrees = ((0, 3), (1, 1), (3, 10), (12, 12), (30, 5))
    for dg in common_degrees:
        for d1, d2 in cofactor_degrees:
            for bits in bit_sizes:
                yield gcd_pair(rng, dg, d1, d2, bits)


def monic_of(cs):
    return Poly([c / cs[-1] for c in cs], QQ)


@pytest.fixture
def prs_calls(monkeypatch):
    """Counts the calls of the PRS fallback."""
    calls = []
    prs = poly._prs_gcd

    def counting(u, v):
        calls.append(len(u))
        return prs(u, v)

    monkeypatch.setattr(poly, "_prs_gcd", counting)
    return calls


def prs_route(a, b, monkeypatch):
    """poly_gcd with the heuristic reporting failure on every input."""
    with monkeypatch.context() as patch:
        patch.setattr(poly, "_heu_gcd", lambda u, v: None)
        return poly_gcd(a, b)


def test_gcd_matches_prs_route(monkeypatch, prs_calls,
                               rng=random.Random(4405)):
    for a, b in gcd_pairs(rng, (0, 1, 2, 7, 20), (1, 8, 64, 200)):
        g = poly_gcd(a, b)
        assert not prs_calls  # the heuristic answered on its own
        assert g == prs_route(a, b, monkeypatch) == poly_gcd(b, a)
        assert g.lc == 1 and (a % g).is_zero and (b % g).is_zero
        prs_calls.clear()


def test_gcd_matches_sympy(prs_calls, rng=random.Random(4406)):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)], z, domain=sympy.QQ)

    for a, b in gcd_pairs(rng, (0, 1, 3, 25, 60), (1, 64, 300, 700)):
        ref = sympy.gcd(to_sympy(a), to_sympy(b)).all_coeffs()
        expected = monic_of([Fraction(int(c.p), int(c.q))
                             for c in reversed(ref)])
        assert poly_gcd(a, b) == expected
    assert not prs_calls


def P(cs):
    return Poly(cs, QQ)


def test_gcd_edge_cases(monkeypatch, prs_calls):
    big = 2 ** 700 + 1
    f = P([Fraction(-3, 7), 0, big, Fraction(-5, 2)])  # fractional lc < 0
    f_monic = monic_of(f.coeffs)
    coprime = P([1, 1, 1]), P([1, 0, 0, 1, 1])
    cases = [
        # (a, b, gcd)
        (P([5]), f, P([1])),
        (f, P([Fraction(-2, 3)]), P([1])),
        (P([-3, 6]), P([1, -2]) * f, P([Fraction(-1, 2), 1])),
        (P([1, 2]), P([1, 3]), P([1])),
        (P([big, -big]), P([-1, 1]) * P([7, 0, 1]), P([-1, 1])),
        (f, f, f_monic),
        (f.scale(Fraction(-6, 35)), f.scale(big), f_monic),
        (f, f * f * P([1, 1]), f_monic),
        (f ** 3 * coprime[0], f ** 2 * coprime[1], monic_of((f * f).coeffs)),
        (coprime[0], coprime[1], P([1])),
        (Z ** 5 * f, Z ** 2 * P([2 ** 200, 0, 1]), Z ** 2),
        (P([2 ** 162, 1]) * Z ** 3, P([0, 2 ** 36, 2 ** 40, 1]), Z),
        (Poly.zero(QQ), f, f_monic),
        (Poly.zero(QQ), Poly.zero(QQ), Poly.zero(QQ)),
    ]
    for a, b, expected in cases:
        assert poly_gcd(a, b) == poly_gcd(b, a) == expected
        if a.degree > 1 and b.degree > 1:
            assert prs_route(a, b, monkeypatch) == expected
    assert len(prs_calls) == sum(1 for a, b, _ in cases
                                 if a.degree > 1 and b.degree > 1)


def test_gcd_fallback_returns_prs_result(monkeypatch, prs_calls):
    f = P([Fraction(1, 3), -2, 0, 5, Fraction(-7, 4)])
    a, b = f * P([2, 0, 0, 1]), f * P([-3, 0, 1])  # cofactors coprime
    tries = []

    def failing(u, v):
        tries.append((u, v))
        return None

    monkeypatch.setattr(poly, "_heu_gcd", failing)
    assert poly_gcd(a, b) == monic_of(f.coeffs)
    assert len(tries) == 1 and prs_calls == [len(tries[0][0])]


def test_gcd_heuristic_retries_with_a_larger_point(monkeypatch, prs_calls):
    # At the first point the integer gcd carries an extra factor of the
    # cofactor values, and no candidate divides; the second point answers.
    f = P([1, 5, 8])
    a, b = f * P([2, 0, -2, -4, 4]), f * P([-7, 9, 0, 7, 8])
    assert poly_gcd(a, b) == monic_of(f.coeffs)
    assert not prs_calls
    monkeypatch.setattr(poly, "_HEU_TRIES", 1)
    assert poly_gcd(a, b) == monic_of(f.coeffs)
    assert len(prs_calls) == 1
