"""Hypothesis properties of the text syntax: printed values re-parse to
themselves, and "(a) op (b)" parses to a op b; the ring laws of Q[z] and
F_p[z], on operands long enough to reach both product routes; the field
laws of F_p; and RatFun arithmetic with Poly, int and scalar operands on
either side."""

import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from funcfield.fields import (FieldMismatchError, FpElement,  # noqa: E402
                              PrimeField, QQ)
from funcfield.poly import Poly, poly_gcd  # noqa: E402
from funcfield.ratfun import RatFun  # noqa: E402
from funcfield.textio import ParseError, parse_poly, parse_ratfun  # noqa: E402

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(97)]

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}
# fixed examples and no example database, so runs repeat and leave no files
examples = settings(deadline=None, max_examples=60, derandomize=True,
                    database=None)


def coefficients(field):
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.fractions(max_denominator=12).filter(
        lambda c: abs(c) <= 50)


@st.composite
def polys(draw, field, max_degree=5):
    cs = draw(st.lists(coefficients(field), max_size=max_degree + 1))
    return Poly(cs, field)


@st.composite
def ratfuns(draw, field):
    den = draw(polys(field, 4).filter(lambda p: not p.is_zero))
    return RatFun(draw(polys(field)), den)


fields = st.sampled_from(FIELDS)


@examples
@given(st.data(), fields)
def test_printed_polynomials_reparse(data, field):
    p = data.draw(polys(field))
    assert parse_poly(str(p), field) == p


@examples
@given(st.data(), fields)
def test_printed_rational_functions_reparse(data, field):
    f = data.draw(ratfuns(field))
    assert parse_ratfun(str(f), field) == f


@examples
@given(st.data(), fields, st.sampled_from("+-*/"))
def test_binary_operation_text_parses_to_the_operation(data, field, op):
    a, b = data.draw(ratfuns(field)), data.draw(ratfuns(field))
    text = f"({a}) {op} ({b})"
    if op == "/" and b.is_zero:
        with pytest.raises(ParseError, match="division by zero"):
            parse_ratfun(text, field)
        return
    assert parse_ratfun(text, field) == OPS[op](a, b)


@examples
@given(st.fractions(max_denominator=1000), st.integers(-3, 3))
def test_rational_powers_parse_exactly(c, n):
    if c == 0 and n < 0:
        with pytest.raises(ParseError, match="negative power of zero"):
            parse_ratfun(f"({c})^{n}")
        return
    assert parse_ratfun(f"({c})^{n}") == RatFun.constant(Fraction(c) ** n)


# -- ring laws of Q[z] --------------------------------------------------------

# numerators up to 300 bits over small denominators; lengths up to 24 put
# products on both sides of the schoolbook/Kronecker crossover
q_coefficients = st.builds(Fraction, st.integers(-2 ** 300, 2 ** 300),
                           st.integers(1, 2 ** 20))
q_polys = st.lists(q_coefficients, max_size=24).map(
    lambda cs: Poly(cs, QQ))


@examples
@given(q_polys, q_polys, q_polys)
def test_q_products_are_commutative_and_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * a == a * Poly(a.coeffs, QQ)


@examples
@given(q_polys, q_polys, q_polys)
def test_q_products_distribute_over_sums(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a - b) * c == a * c - b * c


@examples
@given(q_polys, q_polys.filter(bool), q_polys)
def test_q_division_undoes_a_product(a, b, r):
    assert (a * b) // b == a and ((a * b) % b).is_zero
    quot, rem = divmod(a * b + r, b)
    assert quot * b + rem == a * b + r and rem.degree < b.degree


# -- ring laws of F_p[z] ------------------------------------------------------

# the lengths put F_p products on both sides of the crossover Q uses too
fp_fields = st.sampled_from([f for f in FIELDS if f.characteristic])
fp_lengths = st.sampled_from((0, 1, 3, 6, 13, 24))


@st.composite
def fp_triples(draw):
    field = draw(fp_fields)
    triple = []
    for _ in range(3):
        n = draw(fp_lengths)
        cs = draw(st.lists(coefficients(field), min_size=n, max_size=n))
        triple.append(Poly(cs, field))
    return triple


@examples
@given(fp_triples())
def test_fp_products_are_commutative_associative_and_distributive(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * a == a * Poly(a.coeffs, a.field)
    assert a * (b + c) == a * b + a * c
    assert (a - b) * c == a * c - b * c


@examples
@given(fp_triples())
def test_fp_division_undoes_a_product(triple):
    a, b, r = triple
    if b.is_zero:
        return
    assert (a * b) // b == a and ((a * b) % b).is_zero
    quot, rem = divmod(a * b + r, b)
    assert quot * b + rem == a * b + r and rem.degree < b.degree


def inflate(p, a, d):
    """z^a p(z^d)."""
    cs = [0] * (a + d * p.degree + 1)
    cs[a::d] = p.coeffs
    return Poly(cs, QQ)


# U(0) != 0, so that z^a U(z^d) has offset a
q_units_at_zero = q_polys.filter(lambda p: p.coefficient(0))


@examples
@given(q_units_at_zero, q_units_at_zero, q_units_at_zero,
       st.sampled_from((2, 3, 5)), st.integers(0, 4), st.integers(0, 4))
def test_q_products_and_gcds_commute_with_z_to_z_power_d(u, v, w, d, a, b):
    u, v = u * w, v * w
    x, y = inflate(u, a, d), inflate(v, b, d)
    assert x * y == inflate(u * v, a + b, d)
    assert x * x == inflate(u * u, 2 * a, d)
    assert poly_gcd(x, y) \
        == Poly.gen(QQ) ** min(a, b) * inflate(poly_gcd(u, v), 0, d)


# -- field laws of F_p ---------------------------------------------------------


@st.composite
def fp_elements(draw, count):
    p = draw(st.sampled_from([2, 3, 5, 97]))
    return [FpElement(draw(st.integers(-300, 300)), p) for _ in range(count)]


@examples
@given(fp_elements(3))
def test_fp_field_laws(elements):
    a, b, c = elements
    p = a.p
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b) and (a - b) + b == a
    if b != 0:
        assert (a / b) * b == a
        assert b ** -1 == 1 / b and b ** (p - 1) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
        with pytest.raises(ZeroDivisionError):
            b ** -1


@examples
@given(fp_elements(1), st.integers(-10 ** 6, 10 ** 6))
def test_fp_int_operands_on_either_side(elements, n):
    (a,) = elements
    m = FpElement(n, a.p)
    results = [(n + a, m + a), (a + n, a + m), (n - a, m - a),
               (a - n, a - m), (n * a, m * a), (a * n, a * m)]
    if a != 0:
        results.append((n / a, m / a))
    if m != 0:
        results.append((a / n, a / m))
    for mixed, lifted in results:
        assert isinstance(mixed, FpElement) and mixed.p == a.p
        assert mixed.v == lifted.v and 0 <= mixed.v < a.p


@pytest.mark.parametrize("other", [object(), 1.5, Fraction(1, 2)],
                         ids=["object", "float", "fraction"])
@pytest.mark.parametrize("op", sorted(OPS))
def test_fp_foreign_operands_are_refused(op, other):
    a = FpElement(3, 5)
    with pytest.raises(TypeError):
        OPS[op](a, other)
    with pytest.raises(TypeError):
        OPS[op](other, a)
    with pytest.raises(FieldMismatchError):
        OPS[op](a, FpElement(1, 7))


# -- RatFun with mixed operands -----------------------------------------------


def scalars(field):
    """Plain ints, and coefficients as the field's own elements."""
    return st.one_of(st.integers(-60, 60),
                     coefficients(field).map(field.coerce))


@examples
@given(st.data(), fields, st.sampled_from("+-*/"))
def test_ratfun_with_a_poly_operand(data, field, op):
    f, p = data.draw(ratfuns(field)), data.draw(polys(field))
    if op == "/" and p.is_zero:
        with pytest.raises(ZeroDivisionError):
            f / p
        return
    assert OPS[op](f, p) == OPS[op](f, RatFun.from_poly(p))


@examples
@given(st.data(), fields, st.sampled_from("+-*/"))
def test_poly_with_a_ratfun_operand(data, field, op):
    p, f = data.draw(polys(field)), data.draw(ratfuns(field))
    if op == "/" and f.is_zero:
        with pytest.raises(ZeroDivisionError):
            p / f
        return
    assert OPS[op](p, f) == OPS[op](RatFun.from_poly(p), f)


@pytest.mark.parametrize("op", sorted(OPS))
def test_poly_and_ratfun_of_different_fields_are_refused(op):
    with pytest.raises(FieldMismatchError):
        OPS[op](Poly.one(PrimeField(5)), parse_ratfun("1/z"))


@examples
@given(st.data(), fields, st.sampled_from("+-*/"))
def test_ratfun_with_a_scalar_on_either_side(data, field, op):
    f, c = data.draw(ratfuns(field)), data.draw(scalars(field))
    lifted = RatFun.constant(field.coerce(c), field)
    if op != "/" or not lifted.is_zero:
        assert OPS[op](f, c) == OPS[op](f, lifted)
    if op != "/" or not f.is_zero:
        assert OPS[op](c, f) == OPS[op](lifted, f)
    if op == "-":
        assert c - f == -(f - c)


@examples
@given(st.data(), fields, st.integers(-3, 3))
def test_ratfun_integer_powers(data, field, n):
    f = data.draw(ratfuns(field))
    if f.is_zero and n < 0:
        with pytest.raises(ZeroDivisionError):
            f ** n
        return
    power = RatFun.one(field)
    for _ in range(abs(n)):
        power = power * f
    assert f ** n == (power if n >= 0 else 1 / power)


@pytest.mark.parametrize("op", sorted(OPS))
def test_ratfun_foreign_operands_are_refused(op):
    f = parse_ratfun("1/z")
    for other in (object(), 1.5):
        with pytest.raises(TypeError):
            OPS[op](f, other)
        with pytest.raises(TypeError):
            OPS[op](other, f)
    with pytest.raises(FieldMismatchError):
        OPS[op](f, Poly.one(PrimeField(5)))
