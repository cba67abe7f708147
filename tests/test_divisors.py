"""Divisors on P^1 and the pole-behaviour membership predicates."""

import random
from fractions import Fraction
from math import inf

import pytest

from funcfield.divisors import (Divisor, Place, campana_member,
                                divisor_from_json, divisor_to_json,
                                geometric_degree, mult_at, pn_member,
                                pole_divisor, support_point_count,
                                veps_member, y_set_member, z_set_member)
from funcfield.fields import QQ
from funcfield.poly import poly_gcd
from funcfield.ratfun import INFINITY, RatFun
from funcfield.textio import parse_poly, parse_ratfun
from funcfield.verify import random_ratfun


def P(text):
    return parse_poly(text)


def R(text):
    return parse_ratfun(text)


def D(*pairs):
    return Divisor([(Place.finite(P(t)), m) if t != "inf"
                    else (Place.infinity(), m) for t, m in pairs])


# -- construction and invariants -------------------------------------------


def test_place_validation():
    with pytest.raises(ValueError):
        Place.finite(P("(z-1)^2"))
    with pytest.raises(ValueError):
        Place.finite(P("5"))
    assert Place.finite(P("2*z - 2")).poly == P("z - 1")  # monicized
    assert Place.infinity().degree == 1
    assert Place.finite(P("z^2 + 1")).degree == 2


def test_divisor_validation():
    with pytest.raises(ValueError):
        D(("z - 1", 0))
    with pytest.raises(ValueError):
        D(("z^2 - 1", 1), ("z - 1", 2))  # blocks share the root 1
    with pytest.raises(ValueError):
        D(("inf", 1), ("inf", 2))


def test_divisor_addition_refines_blocks():
    total = D(("z^2 - 1", 1)) + D(("z - 1", 2), ("inf", 1))
    assert mult_at(total, Fraction(1)) == 3
    assert mult_at(total, Fraction(-1)) == 1
    assert mult_at(total, INFINITY) == 1
    assert geometric_degree(total) == 5
    blocks = [p.poly for p, _ in total.entries if not p.is_infinity]
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            assert poly_gcd(a, b).degree == 0


# -- pole divisors ----------------------------------------------------------


def test_pole_divisor_read_off_denominator():
    divisor = pole_divisor(R("1/((z-1)^2*(z+2))"))
    assert divisor == D(("z + 2", 1), ("z - 1", 2))
    assert mult_at(divisor, INFINITY) == 0


def test_pole_divisor_polynomial():
    assert pole_divisor(R("z^3")) == D(("inf", 3))


def test_pole_divisor_quadratic_block():
    divisor = pole_divisor(R("z/(z^2+1)"))
    assert divisor == D(("z^2 + 1", 1))
    assert geometric_degree(divisor) == 2 == R("z/(z^2+1)").map_degree()


def test_pole_divisor_zero_rejected():
    with pytest.raises(ValueError):
        pole_divisor(RatFun.zero(QQ))


def test_geometric_degree_cases():
    assert geometric_degree(Divisor.empty()) == 0
    assert geometric_degree(D(("z^2 + 1", 3))) == 6
    assert geometric_degree(D(("z - 1", 2), ("inf", 1))) == 3


def test_support_point_count_cases():
    assert support_point_count(D(("z - 1", 5))) == 1
    assert support_point_count(D(("z^2 + 1", 1), ("z - 3", 1))) == 3
    assert support_point_count(D(("inf", 4))) == 1


def test_mult_at_cases():
    assert mult_at(D(("z - 1", 2)), Fraction(1)) == 2
    assert mult_at(D(("z^2 + 1", 3)), Fraction(1)) == 0
    assert mult_at(D(("inf", 7)), INFINITY) == 7


# -- predicates -------------------------------------------------------------


def test_pn_member():
    assert pn_member(R("1/(z-1)^5"), 1)
    assert not pn_member(R("1/((z^2+1)*(z-3))"), 2)
    assert pn_member(R("1/((z^2+1)*(z-3))"), 3)
    assert pn_member(R("z^2"), 1)
    with pytest.raises(ValueError):
        pn_member(RatFun.zero(QQ), 1)


def test_veps_member():
    assert veps_member(R("z^3 + 1"), Fraction(1))
    assert veps_member(R("z^3/(z-1)"), Fraction(2, 3))
    assert not veps_member(R("z^3/(z-1)"), Fraction(3, 4))
    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        assert not veps_member(R("1/z"), eps)
    with pytest.raises(ValueError):
        veps_member(R("z"), Fraction(0))
    with pytest.raises(ValueError):
        veps_member(R("z"), Fraction(5, 4))
    with pytest.raises(ValueError):
        veps_member(RatFun.zero(QQ), Fraction(1, 2))


def test_veps_monotone(rng=random.Random(99)):
    for _ in range(60):
        f = random_ratfun(rng, nonzero=True)
        if veps_member(f, Fraction(1, 2)):
            assert veps_member(f, Fraction(1, 4))


def test_campana_ell_one_accepts_everything():
    for text in ("z^5 + 2", "1/(z-5)", "(z^2+1)/(z-1)^3"):
        assert campana_member(R(text), [], 1)
        assert campana_member(R(text), [INFINITY, Fraction(2)], 1)


def test_campana_polynomials_at_infinity():
    assert campana_member(R("z^5 + 2"), [INFINITY], inf)
    assert not campana_member(R("1/(z-5)"), [INFINITY], inf)


def test_campana_multiplicity_threshold():
    assert campana_member(R("1/(z-5)^2"), [], 2)
    assert not campana_member(R("1/(z-5)"), [], 2)


def test_campana_removes_exact_point_from_block():
    f = R("1/(z^2 - 1)")  # simple poles at 1 and -1
    assert campana_member(f, [Fraction(1), Fraction(-1), INFINITY], inf)
    assert not campana_member(f, [Fraction(1), INFINITY], inf)
    # removing one point of the block keeps the other at multiplicity 1
    assert not campana_member(f, [Fraction(1), INFINITY], 2)


def test_campana_validation():
    with pytest.raises(ValueError):
        campana_member(RatFun.zero(QQ), [], 1)
    with pytest.raises(ValueError):
        campana_member(R("z"), [], 0)


def test_y_set_member():
    assert y_set_member(D(("z - 1", 4)), 1, 4)
    assert not y_set_member(D(("z - 1", 1), ("z - 2", 1)), 1, 2)
    assert y_set_member(Divisor.empty(), 1, 0)


def test_z_set_member():
    assert z_set_member(D(("inf", 3)), Fraction(1), 3)
    assert not z_set_member(D(("z - 1", 3), ("inf", 1)), Fraction(1, 2), 4)
    assert z_set_member(D(("z - 1", 1), ("inf", 1)), Fraction(1, 2), 2)


# -- random properties ------------------------------------------------------


def _places_are_valid_blocks(divisor):
    """Every finite place is what `Place.finite` makes of its block."""
    return all(place == Place.finite(place.poly)
               for place, _ in divisor.entries if not place.is_infinity)


def test_divisor_sum_is_additive(rng=random.Random(31337)):
    from funcfield.verify import random_divisor

    for _ in range(40):
        a = random_divisor(rng)
        b = random_divisor(rng)
        total = a + b
        assert _places_are_valid_blocks(total)
        assert geometric_degree(total) == \
            geometric_degree(a) + geometric_degree(b)
        for point in [Fraction(v) for v in range(-7, 8)] + [INFINITY]:
            assert mult_at(total, point) == \
                mult_at(a, point) + mult_at(b, point)


def test_pole_degree_equals_map_degree(rng=random.Random(1234)):
    for _ in range(120):
        f = random_ratfun(rng, nonzero=True)
        assert geometric_degree(pole_divisor(f)) == f.map_degree()
        assert _places_are_valid_blocks(pole_divisor(f))


def test_zero_pole_symmetry(rng=random.Random(4321)):
    for _ in range(60):
        f = random_ratfun(rng, nonzero=True)
        if f.is_constant or poly_gcd(f.num, f.den).degree != 0:
            continue
        total = geometric_degree(pole_divisor(f)) + \
            geometric_degree(pole_divisor(1 / f))
        assert total == 2 * f.map_degree()


def test_veps_multiplicity_chain(rng=random.Random(555)):
    from funcfield.verify import _random_veps_member

    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        for _ in range(25):
            f = _random_veps_member(rng, eps)
            assert veps_member(f, eps)
            assert Fraction(mult_at(pole_divisor(f), INFINITY)) \
                >= eps * f.map_degree()


def test_multiplicity_contradiction(rng=random.Random(8080)):
    from funcfield.verify import _contradiction_case_fails

    assert all(_contradiction_case_fails(rng) for _ in range(25))


# -- serialization ----------------------------------------------------------


def test_divisor_str():
    assert str(Divisor.empty()) == "0"
    divisor = D(("z^2 + 1", 1), ("z - 1", 2), ("inf", 3))
    assert str(divisor) == "2*(z - 1) + (z^2 + 1) + 3*(inf)"
    assert str(pole_divisor(R("z^3/((z - 1)^2*(z^2 + 1))"))) \
        == "2*(z - 1) + (z^2 + 1)"


def test_serialization_roundtrip_and_order():
    divisor = D(("z^2 + 1", 1), ("z - 1", 2), ("inf", 3))
    items = divisor_to_json(divisor)
    assert [item["place"] for item in items] == ["z - 1", "z^2 + 1", "inf"]
    assert divisor_from_json(items, QQ) == divisor
    assert divisor_to_json(divisor_from_json(items, QQ)) == items
