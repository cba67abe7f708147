"""Small requests on the stored integer form: constants, division by a
leading coefficient and printing, checked against references built from
`Fraction` and `FpElement` values, and the guarantee that these paths and
the parser's atoms build no field element."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from funcfield import elliptic, poly, ratfun  # noqa: E402
from funcfield.fields import (FieldMismatchError, FpElement,  # noqa: E402
                              PrimeField, QQ, RationalField)
from funcfield.poly import Poly  # noqa: E402
from funcfield.ratfun import RatFun  # noqa: E402
from funcfield.textio import parse_poly, parse_ratfun  # noqa: E402

FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(2 ** 61 - 1)]
examples = settings(deadline=None, max_examples=80, derandomize=True,
                    database=None)


def coefficients(field):
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    big = st.integers(-2 ** 70, 2 ** 70)
    return st.one_of(st.fractions(max_denominator=30).filter(
        lambda c: abs(c) <= 60), st.builds(Fraction, big, big.filter(bool)))


@st.composite
def polys(draw, field, max_degree=6):
    return Poly(draw(st.lists(coefficients(field), max_size=max_degree + 1)),
                field)


fields = st.sampled_from(FIELDS)


def reference_str(f: Poly) -> str:
    """The printing rule on field elements, term by term from the top."""
    parts = []
    for d in range(f.degree, -1, -1):
        c = f.coeffs[d]
        if not c:
            continue
        negative = isinstance(c, Fraction) and c < 0
        mag = -c if negative else c
        if d == 0:
            body = str(mag)
        else:
            zpow = "z" if d == 1 else f"z^{d}"
            body = zpow if mag == 1 else f"{mag}*{zpow}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"{'-' if negative else '+'} {body}")
    return " ".join(parts) or "0"


def reference_over_lc(f: Poly, g: Poly) -> Poly:
    """f / lc(g) by field-element division."""
    return Poly([c / g.lc for c in f.coeffs], f.field)


@examples
@given(st.data(), fields)
def test_printing_matches_the_field_element_rule(data, field):
    f = data.draw(polys(field))
    assert str(f) == reference_str(f)
    assert parse_poly(str(f), field) == f


@examples
@given(st.data(), fields)
def test_monic_and_monic_den_match_field_element_division(data, field):
    f = data.draw(polys(field))
    g = data.draw(polys(field).filter(bool))
    if f:
        assert f.monic() == reference_over_lc(f, f)
        assert f.monic().is_monic
    else:
        assert f.monic() is f
    num, den = ratfun._monic_den(f, g)
    if f:
        assert (num, den) == (reference_over_lc(f, g),
                              reference_over_lc(g, g))
    else:
        assert (num, den) == (f, Poly.one(field))
    assert den.is_monic


@examples
@given(st.data(), fields, st.integers(1, 3))
def test_over_lc_powers(data, field, k):
    f = data.draw(polys(field))
    g = data.draw(polys(field).filter(bool))
    expected = Poly([c / g.lc ** k for c in f.coeffs], field)
    assert poly._over_lc(f, g, k) == expected


@examples
@given(st.data(), fields)
def test_constants_are_stored_directly(data, field):
    c = data.draw(st.integers(-2 ** 70, 2 ** 70))
    expected = Poly([c], field)
    assert Poly.constant(c, field) == expected
    assert str(Poly.constant(c, field)) == str(expected)
    assert RatFun.constant(c, field) == RatFun(expected)
    # a constant's power is one power of its ints
    product = Poly.one(field)
    for k in range(1, 6):
        product = product * expected
        assert expected ** k == product


def test_constructors_and_edges():
    f5 = PrimeField(5)
    assert str(Poly.constant(-1, f5)) == "4"
    assert str(Poly.constant(-7, QQ)) == "-7"
    for field in FIELDS:
        assert Poly.constant(0, field).is_zero
        assert Poly.constant(0, field) == Poly.zero(field)
        assert Poly.zero(field) == Poly([], field)
        assert Poly.one(field) == Poly([1], field)
        assert Poly.gen(field) == Poly([0, 1], field)
    assert Poly.constant(10, f5).is_zero
    assert Poly.constant(2 ** 61, PrimeField(2 ** 61 - 1)) == Poly.one(
        PrimeField(2 ** 61 - 1))
    # values that are not ints go through the validating constructor
    assert str(Poly.constant(True, QQ)) == "1"
    assert str(Poly.constant(Fraction(-3, 4), QQ)) == "-3/4"
    assert str(Poly.constant(FpElement(3, 5), f5)) == "3"
    with pytest.raises(FieldMismatchError):
        Poly.constant(FpElement(1, 7), f5)
    with pytest.raises(FieldMismatchError):
        RatFun.constant(FpElement(1, 7), f5)
    with pytest.raises(TypeError):
        Poly.constant(0.5, QQ)
    # printing cancels each coefficient against the one denominator
    f = Poly([Fraction(1, 6), Fraction(-2, 3), Fraction(1, 2)], QQ)
    assert str(f) == "1/2*z^2 - 2/3*z + 1/6"
    assert str(f.monic()) == "z^2 - 4/3*z + 1/3"
    assert str(Poly([Fraction(-1, 2), 0, -1], QQ)) == "-z^2 - 1/2"
    assert str(Poly([3, 1, 4], f5).monic()) == "z^2 + 4*z + 2"


def _refuse(*args, **kwargs):
    raise AssertionError("a field element was built")


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_int_paths_build_no_field_element(field, monkeypatch):
    f = Poly([3, -2, 0, 5] if not field.characteristic else [3, 1, 0, 4],
             field)
    g = Poly([Fraction(1, 2), 7, -3] if not field.characteristic
             else [1, 3, 3], field)
    expected = (str(f), f.monic(), ratfun._monic_den(f, g))
    texts = ["z", "3", "-1/((z + 4)^2*(z + 5)^3*(z - 2)^3*(z + 3)^3)",
             "(z^2 + 1)/(z - 5)", "3/7*z^2 - z + 1", "2*z^3 + z - 7"]
    parsed = [parse_ratfun(text, field) for text in texts]
    printed = [str(value) for value in parsed]
    polys_parsed = [parse_poly(text, field) for text in texts[4:]]
    made = [Poly.zero(field), Poly.one(field), Poly.gen(field),
            Poly.constant(-4, field), RatFun.constant(-4, field),
            RatFun.one(field)]
    monkeypatch.setattr(RationalField, "coerce", _refuse)
    monkeypatch.setattr(PrimeField, "coerce", _refuse)
    monkeypatch.setattr(Poly, "coefficient", _refuse)
    assert (str(f), f.monic(), ratfun._monic_den(f, g)) == expected
    assert [parse_ratfun(text, field) for text in texts] == parsed
    assert [str(value) for value in parsed] == printed
    assert [parse_poly(text, field) for text in texts[4:]] == polys_parsed
    assert [Poly.zero(field), Poly.one(field), Poly.gen(field),
            Poly.constant(-4, field), RatFun.constant(-4, field),
            RatFun.one(field)] == made


def test_lowest_weighted_scales_by_the_leading_coefficient_on_ints(
        monkeypatch):
    # 3P = (N / z^4, M / z^6), handed over with Z3 = -2/3 z^2
    n, m = parse_poly("8*z^3 + 64"), parse_poly("3*z^6 + 96*z^3 + 512")
    expected = elliptic.ECPoint.affine(
        RatFun(n, parse_poly("z^4")), RatFun(m, parse_poly("z^6")))
    monkeypatch.setattr(RationalField, "coerce", _refuse)
    monkeypatch.setattr(Poly, "coefficient", _refuse)
    # c = -2/3: X3 = c^2 N, Y3 = c^3 M, Z3 = c z^2
    x3 = parse_poly("4/9*(8*z^3 + 64)")
    y3 = parse_poly("-8/27*(3*z^6 + 96*z^3 + 512)")
    z3 = parse_poly("-2/3*z^2")
    assert elliptic._lowest_weighted(x3, y3, z3) == expected


def _horner_multiplicity(p, a):
    """The root multiplicity by Horner evaluation at a field element and
    division by z - a built with the validating constructor."""
    linear, count = Poly((-a, p.field.one), p.field), 0
    while not p.is_zero and not p(a):
        p, count = p // linear, count + 1
    return count


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_strip_root_divides_out_each_multiplicity(field, monkeypatch):
    rest = parse_poly("z^2 + z + 2", field)  # 8 != 0 at z = 2, also mod 5
    a = field.coerce(2)
    cases = {m: parse_poly(f"(z - 2)^{m}", field) * rest for m in (0, 1, 3)}
    zero = Poly.zero(field)
    monkeypatch.setattr(RationalField, "coerce", _refuse)
    monkeypatch.setattr(PrimeField, "coerce", _refuse)
    monkeypatch.setattr(Poly, "coefficient", _refuse)
    for m, f in cases.items():
        assert poly._strip_root(f, a) == (m, rest)
    assert poly._strip_root(rest * rest, a) == (0, rest * rest)
    assert poly._strip_root(zero, a) == (0, zero)


def test_strip_root_at_a_non_integral_point():
    rest = parse_poly("z^2 + 1")
    f = parse_poly("(3*z - 2)^3") * rest  # 27 (z - 2/3)^3 (z^2 + 1)
    assert poly._strip_root(f, Fraction(2, 3)) == (3, rest.scale(27))
    assert poly._strip_root(f, Fraction(3, 2)) == (0, f)
    assert poly._strip_root(f, Fraction(-2, 3)) == (0, f)


@examples
@given(fields.flatmap(lambda field: st.tuples(
    st.just(field), polys(field, 4), coefficients(field),
    st.integers(0, 3))))
def test_strip_root_matches_horner(case):
    field, g, c, m = case
    a = field.coerce(c)
    linear = Poly((-a, field.one), field)
    f = linear ** m * g
    count, rest = poly._strip_root(f, a)
    assert count == _horner_multiplicity(f, a)
    assert linear ** count * rest == f
    if f:
        assert count >= m and rest(a)
