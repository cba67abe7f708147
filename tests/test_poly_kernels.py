"""Integer kernels of Q[z] multiply and divide against schoolbook references.

`schoolbook_mul` and `schoolbook_divmod` are the per-coefficient Fraction
loops the Q kernels replaced; the kernels must agree with them exactly.
"""

import random
from fractions import Fraction

import pytest

from funcfield.fields import PrimeField, QQ
from funcfield.poly import Poly

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
