"""Group law, heights, fibers and rank of the reference elliptic surface."""

import random
from fractions import Fraction

import pytest

from funcfield import elliptic
from funcfield.divisors import Place
from funcfield.elliptic import (Curve, ECPoint, FiberReport,
                                NonMinimalModelError, NotRationalSurfaceError,
                                OffCurveError, TorsionPointError, bad_fibers,
                                canonical_height_estimate, default_curve,
                                degree_growth_report, delta_degree_total,
                                discriminant_and_c_invariants, ec_add,
                                ec_multiply, fiber_components, generator_point,
                                kodaira_classify, mordell_weil_lattice,
                                naive_height, on_curve, shioda_tate_rank)
from funcfield.fields import QQ
from funcfield.ratfun import RatFun
from funcfield.textio import parse_poly, parse_ratfun


def R(text):
    return parse_ratfun(text)


CURVE = default_curve()
P1 = generator_point()
# duplication by hand: lambda = (3*0^2 + z)/(2*1) = z/2,
# x2 = (z/2)^2 - 0 - 0, y2 = (z/2)(0 - x2) - 1
P2_ORACLE = ECPoint.affine(R("z^2/4"), R("-z^3/8 - 1"))


# -- curve and point basics -------------------------------------------------


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        Curve(RatFun.zero(QQ), RatFun.zero(QQ))


def test_on_curve():
    assert on_curve(CURVE, P1)
    assert not on_curve(CURVE, ECPoint.affine(RatFun.zero(QQ), RatFun.zero(QQ)))
    assert on_curve(CURVE, ECPoint.identity())


def test_off_curve_rejected():
    bad = ECPoint.affine(R("1"), R("1"))
    with pytest.raises(OffCurveError):
        ec_add(CURVE, bad, P1)
    with pytest.raises(OffCurveError):
        ec_multiply(CURVE, 3, bad)


def test_off_curve_rejected_at_every_entry_point():
    bad = ECPoint.affine(R("1"), R("1"))
    entry_points = [
        lambda: ec_add(CURVE, P1, bad),
        lambda: ec_multiply(CURVE, 2, bad),
        lambda: naive_height(CURVE, bad),
        lambda: canonical_height_estimate(CURVE, bad, 2),
        lambda: degree_growth_report(CURVE, bad, 3),
    ]
    for call in entry_points:
        with pytest.raises(OffCurveError):
            call()


def test_library_computed_points_are_not_checked_again(monkeypatch):
    calls = []

    def counting_on_curve(curve, point):
        calls.append(point)
        return on_curve(curve, point)

    monkeypatch.setattr(elliptic, "on_curve", counting_on_curve)
    assert canonical_height_estimate(CURVE, P1, 3) == Fraction(32, 64)
    assert calls == [P1]
    calls.clear()
    assert [row[1] for row in degree_growth_report(CURVE, P1, 5)] \
        == [0, 2, 4, 8, 12]
    assert calls == [P1]


# -- group law ---------------------------------------------------------------


def test_identity_and_inverse_laws():
    assert ec_add(CURVE, P1, ECPoint.identity()) == P1
    assert ec_add(CURVE, P1, -P1).is_identity


def test_duplication_oracle():
    assert ec_add(CURVE, P1, P1) == P2_ORACLE
    assert ec_multiply(CURVE, 2, P1) == P2_ORACLE
    assert on_curve(CURVE, P2_ORACLE)


def test_multiply_edge_cases():
    assert ec_multiply(CURVE, 0, P1).is_identity
    assert ec_multiply(CURVE, -1, P1) == ECPoint.affine(R("0"), R("-1"))
    assert ec_multiply(CURVE, -3, P1) == -ec_multiply(CURVE, 3, P1)


def test_group_law_properties(rng=random.Random(606)):
    multiples = {n: ec_multiply(CURVE, n, P1) for n in range(-4, 5)}
    for _ in range(12):
        a, b, c = (rng.randint(-2, 3) for _ in range(3))
        pa, pb, pc = multiples[a], multiples[b], multiples[c]
        assert ec_add(CURVE, pa, pb) == ec_add(CURVE, pb, pa)
        left = ec_add(CURVE, ec_add(CURVE, pa, pb), pc)
        right = ec_add(CURVE, pa, ec_add(CURVE, pb, pc))
        assert left == right
        assert left == multiples.get(a + b + c, left)
        assert on_curve(CURVE, left)


def test_multiply_additivity():
    multiples = {n: ec_multiply(CURVE, n, P1) for n in range(-10, 11)}
    for m in range(-5, 6):
        for n in range(-5, 6):
            assert ec_add(CURVE, multiples[m], multiples[n]) \
                == multiples[m + n]


# -- heights -----------------------------------------------------------------


def test_naive_height():
    assert naive_height(CURVE, P1) == 0
    assert naive_height(CURVE, ec_multiply(CURVE, 2, P1)) == 2
    assert naive_height(CURVE, -P1) == 0
    with pytest.raises(ValueError):
        naive_height(CURVE, ECPoint.identity())


def test_canonical_height_estimates():
    assert canonical_height_estimate(CURVE, P1, 1) == Fraction(1, 2)
    for k in (2, 3):
        value = canonical_height_estimate(CURVE, P1, k)
        assert Fraction(45, 100) <= value <= Fraction(55, 100)
    with pytest.raises(ValueError):
        canonical_height_estimate(CURVE, P1, 0)


def test_canonical_height_torsion_report():
    curve = Curve(RatFun.zero(QQ), RatFun.one(QQ))  # y^2 = x^3 + 1
    two_torsion = ECPoint.affine(R("-1"), R("0"))
    assert on_curve(curve, two_torsion)
    with pytest.raises(TorsionPointError):
        canonical_height_estimate(curve, two_torsion, 2)


# -- degree growth -----------------------------------------------------------


def test_degree_growth_small():
    rows = degree_growth_report(CURVE, P1, 4)
    assert rows[0][:2] == (1, 0)
    assert rows[1][:2] == (2, 2) and rows[1][2] == 1
    n4_degree = rows[3][1]
    assert 6 <= n4_degree <= 10
    # two independent routes to 4P
    via_additions = P1
    for _ in range(3):
        via_additions = ec_add(CURVE, via_additions, P1)
    via_doubling = ec_add(CURVE, P2_ORACLE, P2_ORACLE)
    assert via_additions == via_doubling
    assert naive_height(CURVE, via_doubling) == n4_degree


def test_degree_growth_rows_match_per_n_multiples(monkeypatch):
    rng = random.Random(4407)
    # a member of the family y^2 = x^3 + A x + B with A = alpha z + beta
    # through the constant point (c, d)
    alpha, beta = rng.choice((1, -1)), rng.randint(-1, 1)
    c, d = rng.choice((1, -1)), rng.choice((1, 2))
    a = R(f"{alpha}*z + {beta}")
    family = Curve(a, R(f"{d * d - c ** 3}") - a * c)
    point = ECPoint.affine(R(str(c)), R(str(d)))
    add = elliptic._add
    steps = []

    def counting_add(curve, p, q):
        steps.append(1)
        return add(curve, p, q)

    for curve, base, n_max in ((CURVE, P1, 10), (family, point, 8)):
        expected = []
        for n in range(1, n_max + 1):
            degree = elliptic._multiply(curve, n, base).x.map_degree()
            expected.append((n, degree, Fraction(2 * degree, n * n)))
        assert [row[1] for row in expected] \
            == [n * n // 2 for n in range(1, n_max + 1)]
        with monkeypatch.context() as patch:
            patch.setattr(elliptic, "_add", counting_add)
            steps.clear()
            assert degree_growth_report(curve, base, n_max) == expected
        assert len(steps) == n_max


def test_degree_growth_torsion_detected():
    curve = Curve(RatFun.zero(QQ), RatFun.one(QQ))
    two_torsion = ECPoint.affine(R("-1"), R("0"))
    with pytest.raises(TorsionPointError):
        degree_growth_report(curve, two_torsion, 3)


# -- discriminant and invariants --------------------------------------------


def test_discriminant_reference_curve():
    delta, c4, c6 = discriminant_and_c_invariants(CURVE)
    assert delta == R("-16*(4*z^3 + 27)")
    assert c4 == R("-48*z")
    assert c6 == R("-864")


def test_discriminant_constant_curve():
    delta, _, _ = discriminant_and_c_invariants(
        Curve(RatFun.zero(QQ), RatFun.one(QQ)))
    assert delta == R("-432")


# -- Kodaira classification ---------------------------------------------------


def test_kodaira_table_entries():
    assert kodaira_classify(0, 0, 1) == "I1"
    assert kodaira_classify(3, 5, 9) == "III*"
    assert kodaira_classify(0, 0, 0) == "I0"
    assert kodaira_classify(0, 0, 5) == "I5"
    assert kodaira_classify(1, 1, 2) == "II"
    assert kodaira_classify(1, 2, 3) == "III"
    assert kodaira_classify(2, 2, 4) == "IV"
    assert kodaira_classify(2, 3, 6) == "I0*"
    assert kodaira_classify(2, 3, 8) == "I2*"
    assert kodaira_classify(3, 4, 8) == "IV*"
    assert kodaira_classify(4, 5, 10) == "II*"
    assert kodaira_classify(None, 3, 6) == "I0*"  # c4 identically zero


def test_kodaira_must_minimalize():
    with pytest.raises(NonMinimalModelError):
        kodaira_classify(4, 6, 12)
    with pytest.raises(NonMinimalModelError):
        kodaira_classify(None, 6, 12)


def test_kodaira_invalid_triples():
    for triple in ((1, 1, 5), (0, 1, 3), (1, 1, 1), (2, 3, 5)):
        with pytest.raises(ValueError):
            kodaira_classify(*triple)


def test_fiber_components():
    assert fiber_components("I1") == 1
    assert fiber_components("I7") == 7
    assert fiber_components("III*") == 8
    assert fiber_components("I0*") == 5
    assert fiber_components("I3*") == 8
    assert fiber_components("II*") == 9


# -- bad fibers ---------------------------------------------------------------


def test_bad_fibers_reference_curve():
    fibers = bad_fibers(CURVE)
    assert len(fibers) == 2
    finite, infinite = fibers
    assert finite.place.poly == parse_poly("4*z^3 + 27").monic()
    assert finite.place.degree == 3
    assert (finite.v_c4, finite.v_c6, finite.v_delta) == (0, 0, 1)
    assert finite.kodaira == "I1"
    assert infinite.place.is_infinity
    assert (infinite.v_c4, infinite.v_c6, infinite.v_delta) == (3, 6, 9)
    assert infinite.kodaira == "III*"
    assert delta_degree_total(fibers) == 12


def test_bad_fibers_constant_curve_regression():
    # y^2 = x^3 + 1: constant discriminant, smooth fibers everywhere
    fibers = bad_fibers(Curve(RatFun.zero(QQ), RatFun.one(QQ)))
    assert fibers == []


def test_bad_fibers_minimalization_reduces():
    # (x, y) -> (z^2 x, z^3 y) rescaling of the reference curve: the block
    # at z = 0 carries (v_c4, v_delta) = (5, 12) before reduction and is
    # good afterwards, so the fiber data must match the reference curve.
    scaled = Curve(R("z^5"), R("z^6"))
    fibers = bad_fibers(scaled)
    reference = bad_fibers(CURVE)
    assert [f.to_json() for f in fibers] == [f.to_json() for f in reference]
    assert shioda_tate_rank(fibers) == 1


def test_bad_fibers_separates_block_valuations():
    # delta of y^2 = x^3 + z*x has blocks z (type III) and 4z^2+27... here:
    # delta = -16 z^2 (4z + 27)... build A = z, B = 0: delta = -64 z^3
    curve = Curve(R("z"), RatFun.zero(QQ))
    fibers = bad_fibers(curve)
    finite = [f for f in fibers if not f.place.is_infinity]
    assert len(finite) == 1
    assert finite[0].place.poly == parse_poly("z")
    assert finite[0].kodaira == "III"  # (v_c4, v_c6, v_delta) = (1, inf, 3)
    assert finite[0].v_c6 is None


def test_bad_fibers_splits_mixed_multiplicity_block():
    # 4A^3 + 27B^2 vanishes doubly at both 0 and 1, so the squarefree
    # block z(z - 1) has exponent 2; the c4 valuations differ (A(0) != 0,
    # A(1) = 0), forcing the block to split into I2 at 0 and II at 1.
    curve = Curve(R("2*z^2 + z - 3"), R("-z^2 - z + 2"))
    fibers = {str(f.place): f for f in bad_fibers(curve)}
    assert fibers["z"].kodaira == "I2"
    assert fibers["z - 1"].kodaira == "II"
    assert fibers["z - 1"].v_c4 == 1
    assert fibers["z^2 + 7/2*z + 99/32"].kodaira == "I1"
    assert fibers["inf"].kodaira == "I0*"
    assert delta_degree_total(fibers.values()) == 12
    assert shioda_tate_rank(list(fibers.values())) == 3


def test_bad_fibers_zero_c4_surface():
    # y^2 = x^3 + z^5: II* at z = 0 and II at infinity, both with c4 = 0
    curve = Curve(RatFun.zero(QQ), R("z^5"))
    fibers = {str(f.place): f for f in bad_fibers(curve)}
    assert set(fibers) == {"z", "inf"}
    assert fibers["z"].kodaira == "II*"
    assert fibers["z"].v_c4 is None and fibers["z"].v_delta == 10
    assert fibers["inf"].kodaira == "II"
    assert fibers["inf"].v_delta == 2
    assert shioda_tate_rank(list(fibers.values())) == 0


def test_bad_fibers_requires_polynomial_coefficients():
    with pytest.raises(ValueError):
        bad_fibers(Curve(R("1/z"), RatFun.one(QQ)))


# -- Shioda-Tate rank ---------------------------------------------------------


def _report(place_text, kodaira, v_delta):
    place = Place.infinity() if place_text == "inf" \
        else Place.finite(parse_poly(place_text))
    return FiberReport(place, 0, 0, v_delta, kodaira)


def test_rank_reference_configuration():
    fibers = bad_fibers(CURVE)
    assert shioda_tate_rank(fibers) == 1
    lattice = mordell_weil_lattice(fibers)
    assert lattice is not None
    assert (lattice.name, lattice.rank, lattice.minimal_norm) \
        == ("A1*", 1, Fraction(1, 2))
    # no identification is attempted for other configurations
    other = [_report(f"z - {a}", "I1", 1) for a in range(12)]
    assert mordell_weil_lattice(other) is None


def test_rank_twelve_nodal_fibers():
    reports = [_report(f"z - {a}", "I1", 1) for a in range(12)]
    assert shioda_tate_rank(reports) == 8


def test_rank_extremal_configuration():
    reports = [_report("inf", "II*", 10),
               _report("z - 1", "I1", 1), _report("z - 2", "I1", 1)]
    assert shioda_tate_rank(reports) == 0


def test_rank_requires_rational_surface():
    with pytest.raises(NotRationalSurfaceError):
        shioda_tate_rank([_report("z - 1", "I1", 1)])
    with pytest.raises(NotRationalSurfaceError):
        # three nodal fibers too many alongside II*
        shioda_tate_rank([_report("inf", "II*", 10)]
                         + [_report(f"z - {a}", "I1", 1) for a in range(3)])
