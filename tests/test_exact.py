"""Core exact arithmetic: fields, polynomials, rational functions, parsing."""

import random
from fractions import Fraction

import pytest

from funcfield.fields import FieldMismatchError, PrimeField, QQ, is_prime
from funcfield.poly import (InseparablePartError, Poly, poly_gcd, radical,
                            squarefree_decomposition)
from funcfield.ratfun import INFINITY, RatFun
from funcfield.textio import ParseError, parse_poly, parse_point, parse_ratfun


def P(text, field=QQ):
    return parse_poly(text, field)


def R(text, field=QQ):
    return parse_ratfun(text, field)


# -- base fields ---------------------------------------------------------


def test_prime_validation():
    assert is_prime(2) and is_prime(97) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(91)
    with pytest.raises(ValueError):
        PrimeField(6)


def test_prime_validation_at_the_miller_rabin_bound():
    # psi_12: a strong pseudoprime to every prime base up to 37
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    with pytest.raises(ValueError):
        PrimeField(psi_12)
    largest = 3317044064679887385961813  # the last prime below psi_13
    assert is_prime(largest) and PrimeField(largest).p == largest
    # psi_13 passes all 13 bases; it and every prime beyond are refused
    for p in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            PrimeField(p)


def test_fp_arithmetic():
    f5 = PrimeField(5)
    a, b = f5.coerce(3), f5.coerce(4)
    assert a + b == 2 and a * b == 2 and a - b == 4
    assert a / b == 2  # 3 * 4^-1 = 3 * 4 = 12 = 2
    assert (a ** -1) * a == 1
    with pytest.raises(ZeroDivisionError):
        a / f5.zero
    with pytest.raises(FieldMismatchError):
        a + PrimeField(7).coerce(1)


def test_fp_sqrt():
    f13 = PrimeField(13)
    root = f13.sqrt(f13.coerce(4))
    assert root is not None and root * root == 4
    assert f13.sqrt(f13.coerce(5)) is None  # 5 is not a QR mod 13
    f17 = PrimeField(17)  # p % 4 == 1 exercises full Tonelli-Shanks
    for v in range(17):
        root = f17.sqrt(f17.coerce(v * v))
        assert root is not None and root * root == v * v


def test_rational_sqrt():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None


# -- polynomial gcd ------------------------------------------------------


def test_gcd_common_root():
    assert poly_gcd(P("z^2 - 1"), P("z - 1")) == P("z - 1")


def test_gcd_mixed_tags_rejected():
    with pytest.raises(FieldMismatchError):
        poly_gcd(P("z"), P("z", PrimeField(5)))


def test_gcd_with_zero_is_monic_identity():
    a = P("3*z^2 - 3")
    assert poly_gcd(a, Poly.zero(QQ)) == P("z^2 - 1")
    assert poly_gcd(Poly.zero(QQ), Poly.zero(QQ)).is_zero


def test_gcd_discriminant_factor_coprime_to_derivative():
    # Euclid by hand: 4z^3 + 27 = (z/3)(12z^2) + 27, then gcd(12z^2, 27) = 1
    assert poly_gcd(P("4*z^3 + 27"), P("12*z^2")) == Poly.one(QQ)


def test_gcd_divides_and_is_divided(rng=random.Random(7101)):
    for _ in range(60):
        g = _random_poly(rng, 3)
        a = g * _random_poly(rng, 3)
        b = g * _random_poly(rng, 3)
        if a.is_zero and b.is_zero:
            continue
        d = poly_gcd(a, b)
        assert a.is_zero or (a % d).is_zero
        assert b.is_zero or (b % d).is_zero
        if not g.is_zero:
            assert (d % g.monic()).is_zero  # any common divisor divides gcd


def _random_poly(rng, max_degree, field=QQ, nonzero=False):
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, max_degree) + 1)]
        p = Poly(coeffs, field)
        if not (nonzero and p.is_zero):
            return p


def _naive_euclid(a, b):
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def test_gcd_matches_naive_euclid(rng=random.Random(6006)):
    # the primitive pseudo-remainder sequence must agree with plain
    # fraction-coefficient Euclid
    for _ in range(80):
        a = _random_poly(rng, 6, nonzero=True)
        b = _random_poly(rng, 6, nonzero=True)
        assert poly_gcd(a, b) == _naive_euclid(a, b)
        g = _random_poly(rng, 2, nonzero=True)
        assert poly_gcd(a * g, b * g) == _naive_euclid(a * g, b * g)


# -- squarefree decomposition --------------------------------------------


def test_squarefree_read_off_exponents():
    factors = squarefree_decomposition(P("(z - 1)^2 * (z + 2)"))
    assert factors == [(P("z + 2"), 1), (P("z - 1"), 2)]


def test_squarefree_squarefree_input():
    assert squarefree_decomposition(P("z - 5")) == [(P("z - 5"), 1)]


def test_squarefree_reconstruction_oracle():
    original = P("(z^2 + 1)^3 * (z - 3)")
    factors = squarefree_decomposition(original)
    assert factors == [(P("z - 3"), 1), (P("z^2 + 1"), 3)]
    rebuilt = Poly.constant(original.lc, QQ)
    for s, e in factors:
        rebuilt = rebuilt * s ** e
    assert rebuilt == original


def test_squarefree_random_properties(rng=random.Random(90210)):
    for _ in range(80):
        p = _random_poly(rng, 3, nonzero=True)
        q = _random_poly(rng, 2, nonzero=True)
        product = p * p * q
        factors = squarefree_decomposition(product)
        rebuilt = Poly.constant(product.lc, QQ)
        for s, e in factors:
            rebuilt = rebuilt * s ** e
            assert poly_gcd(s, s.derivative()).degree == 0
        assert rebuilt == product
        for i, (s1, _) in enumerate(factors):
            for s2, _ in factors[i + 1:]:
                assert poly_gcd(s1, s2).degree == 0


def test_squarefree_zero_rejected():
    with pytest.raises(ValueError):
        squarefree_decomposition(Poly.zero(QQ))


def test_squarefree_inseparable_part_reported():
    f2 = PrimeField(2)
    with pytest.raises(InseparablePartError):
        squarefree_decomposition(P("z^2 + 1", f2))  # (z+1)^2 in F_2[z^2]
    try:
        squarefree_decomposition(P("z^4 * (z + 1)", f2))
    except InseparablePartError as error:
        assert error.part == P("z^4", f2)
        assert (P("z + 1", f2), 1) in error.factors
    else:
        pytest.fail("inseparable part went unreported")


def test_squarefree_char_p_separable_cases():
    f5 = PrimeField(5)
    factors = squarefree_decomposition(P("(z - 1)^2 * (z + 2)", f5))
    assert factors == [(P("z + 2", f5), 1), (P("z - 1", f5), 2)]


# -- rational function arithmetic ----------------------------------------


def test_arith_examples():
    assert (R("1/z") + R("-1/z")).is_zero
    assert R("z/(z-1)") * R("(z-1)/z") == RatFun.one(QQ)
    assert R("1/z^2") + R("z^2") == R("(z^4 + 1)/z^2")
    assert R("z") - R("1") == R("z - 1")
    assert R("z^2 - 1") / R("z + 1") == R("z - 1")
    with pytest.raises(ZeroDivisionError):
        R("z") / RatFun.zero(QQ)


def test_canonical_form_idempotent():
    raw = RatFun(P("2*z^2 - 2"), P("4*z - 4"))
    assert raw == R("(z + 1)/2")
    again = RatFun(raw.num, raw.den)
    assert again.num == raw.num and again.den == raw.den
    assert raw.den.lc == QQ.one
    assert poly_gcd(raw.num, raw.den).degree == 0


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun(P("z"), Poly.zero(QQ))


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        R("z") + R("z", PrimeField(3))


def test_field_ops_random(rng=random.Random(5150)):
    for _ in range(40):
        f = _random_ratfun(rng)
        g = _random_ratfun(rng)
        h = _random_ratfun(rng)
        assert (f + g) * h == f * h + g * h
        assert f - f == RatFun.zero(QQ)
        if not g.is_zero:
            assert (f / g) * g == f
        assert poly_gcd((f + g).num, (f + g).den).degree == 0


def _random_ratfun(rng, max_degree=4):
    num = _random_poly(rng, max_degree)
    den = _random_poly(rng, max_degree, nonzero=True)
    return RatFun(num, den)


# -- derivative ----------------------------------------------------------


def test_derivative_examples():
    assert R("z^3").derivative() == R("3*z^2")
    assert R("1/(z-2)").derivative() == R("-1/(z-2)^2")
    assert R("7").derivative().is_zero


def test_derivative_leibniz(rng=random.Random(333)):
    for _ in range(30):
        f, g = _random_ratfun(rng), _random_ratfun(rng)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


# -- degrees and valuations ----------------------------------------------


def test_map_degree():
    assert RatFun.zero(QQ).map_degree() == 0
    assert R("z^3/(z-1)").map_degree() == 3
    assert R("(z^2+1)/z^5").map_degree() == 5


def test_deg_star():
    assert R("1/z").deg_star() == -1
    assert R("z^3 + 1").deg_star() == 3
    assert R("(z^2+1)/(z^2-1)").deg_star() == 0
    with pytest.raises(ValueError):
        RatFun.zero(QQ).deg_star()


def test_degree_laws(rng=random.Random(2024)):
    for _ in range(40):
        f = _random_ratfun(rng)
        g = _random_ratfun(rng)
        assert (f * g).map_degree() <= f.map_degree() + g.map_degree()
        if f and g:
            assert (f * g).deg_star() == f.deg_star() + g.deg_star()


def test_valuation_examples():
    f = R("(z-1)^2/z")
    assert f.valuation_at(Fraction(1)) == 2
    assert f.valuation_at(INFINITY) == -1
    assert R("5").valuation_at(Fraction(3)) == 0
    assert R("5").valuation_at(INFINITY) == 0
    with pytest.raises(ValueError):
        RatFun.zero(QQ).valuation_at(INFINITY)


def test_valuation_laws(rng=random.Random(777)):
    points = [Fraction(0), Fraction(1), Fraction(-2), INFINITY]
    for _ in range(40):
        f = _random_ratfun(rng)
        g = _random_ratfun(rng)
        if f.is_zero or g.is_zero:
            continue
        for point in points:
            vf, vg = f.valuation_at(point), g.valuation_at(point)
            assert (f * g).valuation_at(point) == vf + vg
            total = f + g
            if total:
                assert total.valuation_at(point) >= min(vf, vg)


# -- squares -------------------------------------------------------------


def test_square_symmetric_laurent():
    f = R("1/z^2 - 2 + z^2")
    assert f.is_square("geometric").ok
    ok, witness = f.is_square("base-field")
    assert ok and witness ** 2 == f
    assert witness in (R("(1 - z^2)/z"), R("(z^2 - 1)/z"))


def test_square_odd_multiplicity():
    assert not R("z").is_square("geometric").ok
    assert not R("z").is_square("base-field").ok


def test_square_with_witness():
    ok, witness = R("4*z^2/(z-1)^4").is_square("base-field")
    assert ok and witness == R("2*z/(z-1)^2")


def test_square_zero_and_leading_coefficient():
    ok, witness = RatFun.zero(QQ).is_square("base-field")
    assert ok and witness.is_zero
    # geometrically a square, but 2 is not a square in Q
    f = R("2*z^2")
    assert f.is_square("geometric").ok
    assert not f.is_square("base-field").ok
    # -z^2 = (iz)^2 needs the algebraically closed reading
    assert R("-z^2").is_square("geometric").ok
    assert not R("-z^2").is_square("base-field").ok


def test_square_witness_roundtrip(rng=random.Random(808)):
    for _ in range(30):
        g = _random_ratfun(rng, max_degree=3)
        if g.is_zero:
            continue
        f = g * g
        ok, witness = f.is_square("base-field")
        assert ok and witness ** 2 == f


def test_square_char_two_rejected():
    with pytest.raises(ValueError):
        R("z", PrimeField(2)).is_square("geometric")


# -- evaluation ----------------------------------------------------------


def test_poly_eval():
    assert P("z^2 + 1")(Fraction(2)) == 5
    assert Poly.zero(QQ)(Fraction(17)) == 0
    f2 = PrimeField(2)
    assert P("z^2 + z + 1", f2)(f2.one) == 1


def test_radical():
    assert radical(P("(z-1)^3 * (z+2)^2")) == P("(z-1)*(z+2)")


# -- text syntax ---------------------------------------------------------


def test_parse_whitespace_and_forms():
    assert R(" 3/4*z^2 - z + 1 ") == R("3/4*z^2-z+1")
    assert R("(z^2 + 1)/(z - 5)") == RatFun(P("z^2+1"), P("z-5"))
    assert R("z^-2") == R("1/z^2")
    assert R("--z") == R("z")
    assert R("2^3") == R("8")


def test_parse_rejects_other_variables():
    with pytest.raises(ParseError) as info:
        R("3*q + 1")
    assert info.value.position == 2
    with pytest.raises(ParseError):
        R("x*y")


def test_parse_errors():
    with pytest.raises(ParseError):
        R("z +")
    with pytest.raises(ParseError):
        R("(z")
    with pytest.raises(ParseError):
        R("1/(z - z)")
    with pytest.raises(ParseError):
        parse_poly("1/z")
    with pytest.raises(ParseError):
        R("z @ 1")


def test_parse_point():
    assert parse_point("inf") is INFINITY
    assert parse_point("3/4") == Fraction(3, 4)
    with pytest.raises(ParseError):
        parse_point("z")


def test_print_parse_roundtrip(rng=random.Random(41)):
    for _ in range(40):
        f = _random_ratfun(rng)
        assert R(str(f)) == f
    f3 = PrimeField(3)
    g = RatFun(P("2*z^2 + 1", f3), P("z + 2", f3))
    assert parse_ratfun(str(g), f3) == g


def test_fp_parsing_divides_coefficients():
    f7 = PrimeField(7)
    assert P("3/4*z", f7) == P("6*z", f7)  # 4^-1 = 2 mod 7, 3*2 = 6
