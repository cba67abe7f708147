"""Core exact arithmetic: fields, polynomials, rational functions, parsing."""

import random
from fractions import Fraction

import pytest

from funcfield.fields import FieldMismatchError, PrimeField, QQ, is_prime
from funcfield.poly import Poly, poly_gcd, radical, squarefree_decomposition
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


def test_fp_hash_agrees_with_equality_to_canonical_ints():
    f5 = PrimeField(5)
    one = f5.coerce(1)
    assert one == 1 and hash(one) == hash(1)
    assert len({1, one}) == 1 and len({one, f5.coerce(6)}) == 1
    assert {one: "element"}[1] == "element"
    assert {1: "int"}[one] == "int"
    assert {f5.coerce(v) for v in range(10)} == set(range(5))
    # a non-canonical int equals its residue but does not share its hash
    assert one == 6 and 6 not in {one}


def test_fp_sqrt():
    f13 = PrimeField(13)
    root = f13.sqrt(f13.coerce(4))
    assert root is not None and root * root == 4
    assert f13.sqrt(f13.coerce(5)) is None  # 5 is not a QR mod 13
    # p % 4 == 1 exercises full Tonelli-Shanks, p = 2 and p % 4 == 3 the
    # shortcuts
    for p in (17, 2, 3, 7, 19, 10007):
        field = PrimeField(p)
        for v in range(min(p, 200)):
            square = field.coerce(v * v)
            root = field.sqrt(square)
            assert root is not None and root * root == square
        if p % 4 == 3:
            assert field.sqrt(field.coerce(-1)) is None


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


def test_squarefree_inseparable_parts_decomposed():
    # parts in z^p are p-th powers, whose roots are decomposed in turn
    f2, f3, f5 = PrimeField(2), PrimeField(3), PrimeField(5)
    cases = [
        ("z^2 + 1", f2, [("z + 1", 2)]),
        ("z^4 * (z + 1)", f2, [("z + 1", 1), ("z", 4)]),
        ("(z + 1)^3", f3, [("z + 1", 3)]),
        ("(z + 1)^2 * (z + 2)^6", f3, [("z + 1", 2), ("z + 2", 6)]),
        ("(z^2 + 1)^5 * (z + 1)^10", f5, [("z^2 + 1", 5), ("z + 1", 10)]),
    ]
    for text, field, expected in cases:
        assert squarefree_decomposition(P(text, field)) \
            == [(P(s, field), e) for s, e in expected]


def _sqf_case(rng, field, max_exponent):
    """A random nonzero polynomial over a prime field: a scaled product of
    one to four random factors of degree 1 to 3 with exponents up to
    max_exponent, so parts in z^p are common."""
    p = field.characteristic
    f = Poly.constant(rng.randrange(1, p), field)
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(1, 3)
        factor = Poly([rng.randrange(p) for _ in range(degree)]
                      + [rng.randrange(1, p)], field)
        f = f * factor ** rng.randint(1, max_exponent)
    return f


def test_squarefree_matches_sympy_gf_sqf_list(rng=random.Random(2828)):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    # at p = 97 the products reach degree ~1400, so fewer of them
    for p, count in ((2, 40), (3, 40), (5, 40), (7, 40), (97, 8)):
        field = PrimeField(p)
        for _ in range(count):
            f = _sqf_case(rng, field, 2 * p + 1)
            _, ref = galoistools.gf_sqf_list(list(reversed(f._ints)), p, ZZ)
            expected = sorted(((tuple(int(c) for c in reversed(s)), e)
                               for s, e in ref), key=lambda pair: pair[1])
            assert [(s._ints, e) for s, e in squarefree_decomposition(f)] \
                == expected, (p, f)


def test_squarefree_contract_property():
    # over Q, F_2, F_3 and F_5: the product rebuilds monic(f), each factor
    # is monic and squarefree, the factors are pairwise coprime, and the
    # exponents strictly ascend
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, max_examples=120, derandomize=True,
                         database=None)
    @hypothesis.given(st.sampled_from([0, 2, 3, 5]), st.lists(
        st.tuples(st.lists(st.integers(-4, 4), min_size=2, max_size=4),
                  st.integers(1, 11)), min_size=1, max_size=4))
    def check(p, parts):
        field = PrimeField(p) if p else QQ
        f = Poly.one(field)
        for coeffs, exponent in parts:
            factor = Poly(coeffs, field)
            if not factor.is_zero:
                f = f * factor ** exponent
        factors = squarefree_decomposition(f)
        rebuilt = Poly.one(field)
        for s, e in factors:
            assert s.is_monic and s.degree > 0
            assert radical(s) == s
            rebuilt = rebuilt * s ** e
        assert rebuilt == f.monic()
        for i, (s1, _) in enumerate(factors):
            for s2, _ in factors[i + 1:]:
                assert poly_gcd(s1, s2).degree == 0
        exponents = [e for _, e in factors]
        assert exponents == sorted(set(exponents))

    check()


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


def test_ratfun_equality_is_symmetric_and_agrees_with_hash():
    z = P("z")
    for value, other in ((RatFun.from_poly(z), z), (RatFun.one(QQ), 1),
                         (RatFun.constant(Fraction(1, 2)), Fraction(1, 2))):
        assert value != other and other != value
        assert len({value, other}) == 2
    built = RatFun(P("z^2 - z"), P("z - 1"))
    assert built == RatFun.from_poly(z) and hash(built) == hash(R("z"))


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_derivative_over_fp_matches_the_quotient_rule(p, rng=random.Random(77)):
    field = PrimeField(p)
    for _ in range(30):
        num = Poly([rng.randrange(p) for _ in range(rng.randint(1, 5))], field)
        den = P("1", field)
        for _ in range(rng.randint(1, 3)):
            # exponents up to 2p: p-th powers have a vanishing derivative
            factor = Poly([rng.randrange(p), 1], field)
            den = den * factor ** rng.randint(1, 2 * p)
        f = RatFun(num, den)
        quotient = RatFun(f.num.derivative() * f.den
                          - f.num * f.den.derivative(), f.den * f.den)
        assert f.derivative() == quotient, (p, f)


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
    # over F_p, factors whose multiplicity p divides are kept
    f3 = PrimeField(3)
    assert radical(P("(z+1)^3*(z+2)", f3)) == P("z^2 + 2", f3)
    assert radical(P("z^3 + 1", f3)) == P("z + 1", f3)
    assert radical(P("2*(z^2+1)^9*(z+1)^4*z^3", f3)) == P("(z^2+1)*(z+1)*z", f3)


def test_radical_over_fp_of_seeded_products(rng=random.Random(8513)):
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        # the monic irreducibles of degrees 1 and 2
        pool = [P(f"z + {c}", field) for c in range(p)] + [
            P(f"z^2 + {b}*z + {c}", field) for b in range(p) for c in range(p)
            if all((x * x + b * x + c) % p for x in range(p))]
        for _ in range(25):
            factors = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            f = P(str(rng.randint(1, p - 1)), field)
            expected = P("1", field)
            for g in factors:
                # multiplicities from 1 to 2p + 1, so some are >= p and
                # some are divisible by p
                f = f * g ** rng.randint(1, 2 * p + 1)
                expected = expected * g
            assert radical(f) == expected, (p, f)


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
