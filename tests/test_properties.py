"""Hypothesis properties of the text syntax: printed values re-parse to
themselves, and "(a) op (b)" parses to a op b; and the ring laws of Q[z],
on operands long enough to reach both product routes."""

import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from funcfield.fields import PrimeField, QQ  # noqa: E402
from funcfield.poly import Poly  # noqa: E402
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
