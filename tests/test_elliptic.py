"""Group law, heights, fibers and rank of the reference elliptic surface."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from funcfield import elliptic, ratfun
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
from funcfield.fields import PrimeField, QQ
from funcfield.poly import Poly, poly_gcd
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
    # delta = -16(4A^3 + 27B^2) vanishes in characteristic 2, where the
    # short Weierstrass form is always singular
    with pytest.raises(ValueError):
        default_curve(PrimeField(2))
    # in characteristic 3, delta = -A^3: A != 0 is a curve, A = 0 is not
    f3 = PrimeField(3)
    assert default_curve(f3).A == RatFun.gen(f3)
    with pytest.raises(ValueError):
        Curve(RatFun.zero(f3), RatFun.one(f3))
    assert Curve(parse_ratfun("z^2 + 1/z", f3),
                 parse_ratfun("z/(z + 1)", f3)).field == f3
    # 4(-3)^3 + 27(2)^2 = 0, scaled by z^-6 and by z^6
    for a, b in (("-3/z^2", "2/z^3"), ("-3*z^2", "2*z^3"),
                 ("-3/(z+1)^2", "2/(z+1)^3")):
        with pytest.raises(ValueError):
            Curve(R(a), R(b))
    # the ec-heights family: A = alpha z + beta, B = d^2 - c^3 - c A
    for alpha, beta, c, d in itertools.product((1, -1), (-1, 0, 1),
                                               (1, -1), (1, 2)):
        a = R(f"{alpha}*z + {beta}")
        curve = Curve(a, R(f"{d * d - c ** 3}") - a * c)
        assert curve.A == a
    assert Curve(R("1/z"), R("1")).B == RatFun.one(QQ)


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


# -- multiples from the division values ------------------------------------


_WEIGHTED_ADD = elliptic._add


def chord_tangent_multiple(curve, n, point):
    """nP by chord-tangent double-and-add: the reference every multiple
    from the division values is checked against.  The group law is `_add`
    (bound at import, so `_chord_tangent_steps` does not count it) on a
    curve with polynomial A and B, and `affine_sum` on any other."""
    add = _WEIGHTED_ADD if curve.A.is_polynomial and curve.B.is_polynomial \
        else affine_sum
    if n < 0:
        n, point = -n, -point
    result = ECPoint.identity()
    while n:
        if n & 1:
            result = add(curve, result, point)
        n >>= 1
        if n:
            point = add(curve, point, point)
    return result


def _chord_tangent_steps(monkeypatch):
    """A list that grows by one at every later chord-tangent step."""
    add = elliptic._add
    steps = []

    def counting_add(curve, p, q):
        steps.append(1)
        return add(curve, p, q)

    monkeypatch.setattr(elliptic, "_add", counting_add)
    return steps


def _family_curve(rng, field=QQ):
    """A seeded member of the ec-heights family y^2 = x^3 + A x + B,
    A = alpha z + beta, through the constant point (c, d)."""
    alpha, beta = rng.choice((1, -1)), rng.randint(-1, 1)
    c, d = rng.choice((1, -1)), rng.choice((1, 2))
    a = parse_ratfun(f"{alpha}*z + {beta}", field)
    return Curve(a, parse_ratfun(f"{d * d - c ** 3}", field) - a * c), \
        ECPoint.affine(parse_ratfun(str(c), field),
                       parse_ratfun(str(d), field))


# y^2 = x^3 - 3x + 2 - 2z^2 - z^3 through P = (1 + z, z): at z = 0 the
# fiber is y^2 = (x - 1)^2 (x + 2) and P passes through its node (1, 0)
NODE_CURVE = Curve(R("-3"), R("2 - 2*z^2 - z^3"))
NODE_POINT = ECPoint.affine(R("1 + z"), R("z"))


def test_division_route_matches_chord_tangent_on_the_reference_point(
        monkeypatch):
    expected = {n: chord_tangent_multiple(CURVE, n, P1) for n in range(-6, 25)}
    steps = _chord_tangent_steps(monkeypatch)
    for n in range(-6, 25):
        steps.clear()
        assert ec_multiply(CURVE, n, P1) == expected[n]
        assert not steps or abs(n) < 2
    assert ec_multiply(CURVE, 2, P1) == P2_ORACLE


def test_division_route_matches_chord_tangent_on_family_curves(monkeypatch):
    rng = random.Random(1501)
    for _ in range(4):
        curve, point = _family_curve(rng)
        ns = [n for n in range(-4, 13) if abs(n) >= 2]
        expected = [chord_tangent_multiple(curve, n, point) for n in ns]
        heights = [Fraction(chord_tangent_multiple(curve, 2 ** k, point)
                            .x.map_degree(), 4 ** k) for k in (1, 2, 3)]
        with monkeypatch.context() as patch:
            steps = _chord_tangent_steps(patch)
            assert [ec_multiply(curve, n, point) for n in ns] == expected
            assert [canonical_height_estimate(curve, point, k)
                    for k in (1, 2, 3)] == heights
            assert not steps


def test_division_route_through_a_node_reduces_by_full_gcd():
    assert on_curve(NODE_CURVE, NODE_POINT)
    w = elliptic._division_values(NODE_CURVE, NODE_POINT)
    for n in range(3, 13):
        assert poly_gcd(w(n), w(n - 1)).degree >= 1
        assert poly_gcd(w(n), w(n + 1)).degree >= 1
        assert elliptic._division_x(w, NODE_POINT.x.num, n)[1] is False
    for n in range(-4, 13):
        assert ec_multiply(NODE_CURVE, n, NODE_POINT) \
            == chord_tangent_multiple(NODE_CURVE, n, NODE_POINT)
    for k in (1, 2, 3):
        assert canonical_height_estimate(NODE_CURVE, NODE_POINT, k) \
            == Fraction(chord_tangent_multiple(NODE_CURVE, 2 ** k, NODE_POINT)
                        .x.map_degree(), 4 ** k)


def test_division_route_on_torsion_points():
    curve = Curve(RatFun.zero(QQ), RatFun.one(QQ))  # y^2 = x^3 + 1
    for point, order in ((ECPoint.affine(R("0"), R("1")), 3),
                         (ECPoint.affine(R("2"), R("3")), 6)):
        w = elliptic._division_values(curve, point)
        for n in range(-7, 14):
            multiple = ec_multiply(curve, n, point)
            assert multiple == chord_tangent_multiple(curve, n, point)
            assert multiple.is_identity == (n % order == 0)
            assert w(n).is_zero == (n % order == 0)
        # no power of two is a multiple of 3 or 6
        assert canonical_height_estimate(curve, point, 3) == 0
    # (2, 4) on y^2 = x^3 + 4x has order 4: W_4 = 0 on the division route
    curve = Curve(R("4"), RatFun.zero(QQ))
    point = ECPoint.affine(R("2"), R("4"))
    assert ec_multiply(curve, 2, point) == ECPoint.affine(R("0"), R("0"))
    assert ec_multiply(curve, -4, point).is_identity
    assert canonical_height_estimate(curve, point, 1) == 0
    with pytest.raises(TorsionPointError):
        canonical_height_estimate(curve, point, 2)


def test_rational_and_fp_points_take_the_division_values(monkeypatch):
    p3 = ec_multiply(CURVE, 3, P1)  # x = (8z^3 + 64)/z^4
    fp_curve = default_curve(PrimeField(101))
    fp_point = generator_point(PrimeField(101))
    rational_a = Curve(R("1/z"), R("1"))  # through (0, 1)
    cases = [(CURVE, p3), (fp_curve, fp_point), (rational_a, P1)]
    # the models scale by u = z^2 (the pole of x(3P)), 1 and z (A's pole)
    assert [elliptic._integral_model(curve, point)[0] for curve, point
            in cases] == [parse_poly("z^2"), None, parse_poly("z")]
    expected = [chord_tangent_multiple(curve, 5, point)
                for curve, point in cases]
    steps = _chord_tangent_steps(monkeypatch)
    assert ec_multiply(CURVE, 2, p3) == ec_multiply(CURVE, 6, P1)
    for (curve, point), five_p in zip(cases, expected):
        assert ec_multiply(curve, 5, point) == five_p
        assert on_curve(curve, five_p)
    assert not steps


def test_canonical_height_of_a_rational_point(monkeypatch):
    # 3P has a rational x; its doublings come from the division values
    # of (z^4 x(3P), z^6 y(3P)) on the model with u = z^2
    p3 = ec_multiply(CURVE, 3, P1)
    expected = Fraction(chord_tangent_multiple(CURVE, 4, p3).x.map_degree(),
                        16)
    assert expected == Fraction(
        naive_height(CURVE, ec_multiply(CURVE, 12, P1)), 16)
    steps = _chord_tangent_steps(monkeypatch)
    assert canonical_height_estimate(CURVE, p3, 2) == expected
    assert not steps


def _seeded_w(rng, field):
    """A seeded monic w of degree 1 or 2."""
    cs = [rng.randrange(-2, 3) for _ in range(rng.randint(1, 2))]
    return RatFun.from_poly(Poly(cs + [1], field))


def _scaled(curve, point, w):
    """The curve and point moved by (x, y) -> (x / w^2, y / w^3), onto
    y^2 = x^3 + (A / w^4) x + B / w^6."""
    return Curve(curve.A / w ** 4, curve.B / w ** 6), \
        ECPoint.affine(point.x / w ** 2, point.y / w ** 3)


def _sweep_points(rng):
    """P, 2P and 3P of the reference point over F_3, F_5, F_7 and F_101,
    and P and 2P over Q, each also on the model scaled by 1/w for a seeded
    monic w (so A and B are rational); a rational-A curve; a 2-torsion
    point; and the identity."""
    cases = []
    for field, ms in ((QQ, (1, 2)), (PrimeField(3), (1, 2, 3)),
                      (PrimeField(5), (1, 2, 3)), (PrimeField(7), (1, 2, 3)),
                      (PrimeField(101), (1, 2, 3))):
        curve, point = default_curve(field), generator_point(field)
        w = _seeded_w(rng, field)
        for m in ms:
            q = chord_tangent_multiple(curve, m, point)
            scaled, moved = _scaled(curve, q, w)
            # B = 1 has no zero, so the least model of the scaled point
            # undoes the scaling exactly
            u = elliptic._integral_model(curve, q)[0]
            assert elliptic._integral_model(scaled, moved)[0] \
                == (w.num if u is None else w.num * u)
            cases += [(curve, q), (scaled, moved)]
    cubic = Curve(RatFun.zero(QQ), RatFun.one(QQ))  # y^2 = x^3 + 1
    return cases + [(Curve(R("1/z"), R("1")), P1),
                    (cubic, ECPoint.affine(R("-1"), R("0"))),
                    (CURVE, ECPoint.identity())]


def test_every_multiple_comes_from_the_division_values(
        monkeypatch, rng=random.Random(2101)):
    ns = range(-5, 11)
    for curve, point in _sweep_points(rng):
        assert on_curve(curve, point)
        expected = [chord_tangent_multiple(curve, n, point) for n in ns]
        heights = []
        if not point.is_identity:
            for k in (1, 2):
                multiple = chord_tangent_multiple(curve, 2 ** k, point)
                heights.append(None if multiple.is_identity else Fraction(
                    multiple.x.map_degree(), 4 ** k))
        with monkeypatch.context() as patch:
            steps = _chord_tangent_steps(patch)
            assert [ec_multiply(curve, n, point) for n in ns] == expected
            for k, height in enumerate(heights, 1):
                if height is None:
                    with pytest.raises(TorsionPointError):
                        canonical_height_estimate(curve, point, k)
                else:
                    assert canonical_height_estimate(curve, point, k) \
                        == height
            assert not steps


def test_on_curve_compares_numerators_and_denominators():
    def ratfun_check(curve, point):
        return point.y ** 2 == point.x ** 3 + curve.A * point.x + curve.B

    p3 = ec_multiply(CURVE, 3, P1)
    x, y = p3.x, p3.y
    shifted = y.den + Poly.one(QQ)  # same degree, other poles
    off = [
        # right numerator, wrong denominator of the same degree
        ECPoint.affine(x, RatFun(y.num, shifted)),
        # wrong numerator, right denominator
        ECPoint.affine(x, RatFun(y.num + y.den, y.den)),
        # denominators of mismatched degree
        ECPoint.affine(x, RatFun(y.num, y.den * shifted)),
        ECPoint.affine(x + 1, y),
    ]
    for point in [p3] + off:
        assert on_curve(CURVE, point) == ratfun_check(CURVE, point)
    assert on_curve(CURVE, p3)
    assert not any(on_curve(CURVE, point) for point in off)
    # rational A: the same test on the model (u = z)
    rational_a = Curve(R("1/z"), R("1"))
    assert on_curve(rational_a, P1)
    assert not on_curve(rational_a, ECPoint.affine(R("1/z"), R("1")))


# -- curves with rational A or B -------------------------------------------

# the reference curve and point moved by (x, y) -> (x / w^2, y / w^3) with
# w = z + 1, and a curve whose A has a pole at 0 (u = z)
TWISTED = (Curve(R("z/(z+1)^4"), R("1/(z+1)^6")),
           ECPoint.affine(R("0"), R("1/(z+1)^3")))
POLE_AT_ZERO = (Curve(R("1/z"), R("1")), P1)


def _rational_cases(field, rng):
    """As in `_sweep_points`, the reference point scaled by 1/w for a
    seeded monic w, and so the 2-torsion point (z, 0) of
    y^2 = x^3 + x - z^3 - z: two curves whose A is rational."""
    w, z = _seeded_w(rng, field), RatFun.gen(field)
    cases = [_scaled(default_curve(field), generator_point(field), w),
             _scaled(Curve(RatFun.one(field), -z ** 3 - z),
                     ECPoint.affine(z, RatFun.zero(field)), w)]
    assert not any(curve.A.is_polynomial for curve, _ in cases)
    return cases


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5),
                                   PrimeField(101)], ids=str)
def test_ec_add_on_rational_curves_matches_the_affine_law(field):
    rng = random.Random(2701 + field.characteristic)
    for curve, point in _rational_cases(field, rng):
        multiples = affine_multiples(curve, point, 4)
        # chords, doublings (m = n), the identity (m = 0), P + (-P) and
        # differences; for the 2-torsion point 2P = O and 3P = P
        pairs = [(m, n) for m in range(5) for n in range(m, 5)]
        pairs += [(m, -n) for m in range(1, 5) for n in range(1, 5)]
        for m, n in pairs:
            p = multiples[m]
            q = multiples[n] if n >= 0 else -multiples[-n]
            assert ec_add(curve, p, q) == affine_sum(curve, p, q), (m, n)
        if point.y.is_zero:
            assert ec_add(curve, point, point).is_identity


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5),
                                   PrimeField(101)], ids=str)
def test_on_curve_on_rational_curves_matches_the_equation(field):
    def equation(curve, point):
        return point.y ** 2 == point.x ** 3 + curve.A * point.x + curve.B

    rng = random.Random(2801 + field.characteristic)
    one, z = RatFun.one(field), RatFun.gen(field)
    for curve, point in _rational_cases(field, rng):
        for multiple in affine_multiples(curve, point, 3)[1:]:
            if multiple.is_identity:
                continue
            x, y = multiple.x, multiple.y
            moved = [ECPoint.affine(x + one, y), ECPoint.affine(x, y + one),
                     ECPoint.affine(x * z, y), ECPoint.affine(x, y / z)]
            assert on_curve(curve, multiple) and equation(curve, multiple)
            # (x z and y / z leave x = 0 and y = 0 where they are)
            for bad in [point for point in moved if point != multiple]:
                assert on_curve(curve, bad) == equation(curve, bad)
                assert not on_curve(curve, bad)
                with pytest.raises(OffCurveError):
                    ec_add(curve, multiple, bad)


def test_growth_report_on_rational_curves_matches_chord_tangent():
    for curve, point in (TWISTED, POLE_AT_ZERO):
        expected = []
        for n in range(1, 9):
            degree = chord_tangent_multiple(curve, n, point).x.map_degree()
            expected.append((n, degree, Fraction(2 * degree, n * n)))
        assert degree_growth_report(curve, point, 8) == expected


def test_group_law_runs_only_on_polynomial_models(monkeypatch):
    add = elliptic._add

    def polynomial_add(curve, p, q):
        assert curve.A.is_polynomial and curve.B.is_polynomial
        return add(curve, p, q)

    monkeypatch.setattr(elliptic, "_add", polynomial_add)
    for curve, point in (TWISTED, POLE_AT_ZERO):
        double = affine_sum(curve, point, point)
        assert ec_add(curve, point, point) == double
        assert ec_add(curve, double, point) \
            == affine_sum(curve, double, point)
        assert degree_growth_report(curve, point, 5)[-1][1] \
            == chord_tangent_multiple(curve, 5, point).x.map_degree()


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


# -- the weighted group law --------------------------------------------------


def affine_sum(curve, p, q):
    """P + Q by the affine law on `RatFun`s, on any curve: the reference
    for the weighted law and for every entry point on a curve with
    rational A or B."""
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    if p.x == q.x and p.y == -q.y:
        return ECPoint.identity()
    if p.x == q.x:
        slope = (3 * p.x ** 2 + curve.A) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope ** 2 - p.x - q.x
    return ECPoint.affine(x3, slope * (p.x - x3) - p.y)


def affine_multiples(curve, point, n):
    """[O, P, 2P, ..., nP] by the affine law."""
    multiples = [ECPoint.identity()]
    for _ in range(n):
        multiples.append(affine_sum(curve, multiples[-1], point))
    return multiples


@pytest.fixture
def gcds(monkeypatch):
    """Counts of the gcds taken in `elliptic` (the certificate of
    `_lowest_weighted` and its two fallback gcds) and in `ratfun` (none,
    on a polynomial curve)."""
    counts = {"elliptic": 0, "ratfun": 0}
    for module in (elliptic, ratfun):
        def counting_gcd(a, b, gcd=module.poly_gcd,
                         name=module.__name__.split(".")[-1]):
            counts[name] += 1
            return gcd(a, b)
        monkeypatch.setattr(module, "poly_gcd", counting_gcd)
    return counts


def _weighted_sums(curve, multiples, pairs, gcds):
    """Check `_add` against the affine law on multiples[m] + multiples[n]
    for each (m, n), a negative index standing for the negated multiple,
    and return how many sums took the fallback (three gcds, not one)."""
    fallbacks = 0
    for m, n in pairs:
        p = multiples[m] if m >= 0 else -multiples[-m]
        q = multiples[n] if n >= 0 else -multiples[-n]
        expected = affine_sum(curve, p, q)
        gcds.update(elliptic=0, ratfun=0)
        total = elliptic._add(curve, p, q)
        # RatFun equality is structural: a pair left unreduced differs
        assert total == expected, (m, n)
        trivial = p.is_identity or q.is_identity or expected.is_identity
        assert gcds["elliptic"] in ((0,) if trivial else (1, 3)), (m, n)
        assert not gcds["ratfun"]
        fallbacks += gcds["elliptic"] == 3
    return fallbacks


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5),
                                   PrimeField(101)], ids=str)
def test_weighted_law_matches_the_affine_law(field, gcds):
    rng = random.Random(2301 + field.characteristic)
    fallbacks = 0
    for curve, point in ((default_curve(field), generator_point(field)),
                         _family_curve(rng, field)):
        multiples = affine_multiples(curve, point, 6)
        # every chord and tangent (m = n) among P..6P, then seeded
        # differences and sums with a negated multiple
        pairs = [(m, n) for m in range(1, 7) for n in range(m, 7)]
        pairs += [(rng.randint(1, 6), -rng.randint(1, 6)) for _ in range(6)]
        fallbacks += _weighted_sums(curve, multiples, pairs, gcds)
    assert fallbacks  # e.g. 2P + 6P: c and Z share a factor


def test_weighted_law_on_rational_points_inverses_and_2_torsion(gcds):
    # 3P = ((8z^3 + 64)/z^4, (3z^6 + 96z^3 + 512)/z^6), Z = z^2, and its
    # multiples up to 12P
    multiples = affine_multiples(CURVE, affine_multiples(CURVE, P1, 3)[3], 4)
    assert multiples[1] == ECPoint.affine(
        R("(8*z^3 + 64)/z^4"), R("(3*z^6 + 96*z^3 + 512)/z^6"))
    pairs = [(m, n) for m in range(1, 5) for n in range(m, 5)]
    pairs += [(m, -m) for m in range(1, 5)] + [(1, 0), (0, -2), (0, 0)]
    assert _weighted_sums(CURVE, multiples, pairs, gcds)
    # doubling a point (r, 0) gives O, with a constant and a moving root
    for curve, point in ((Curve(RatFun.zero(QQ), RatFun.one(QQ)),
                          ECPoint.affine(R("-1"), R("0"))),
                         (Curve(R("1"), R("-z^3 - z")),
                          ECPoint.affine(R("z"), R("0")))):
        assert on_curve(curve, point)
        assert elliptic._add(curve, point, point).is_identity
        assert elliptic._add(curve, point, -point).is_identity


def test_weighted_law_through_a_node(gcds):
    multiples = affine_multiples(NODE_CURVE, NODE_POINT, 6)
    pairs = [(m, n) for m in range(1, 7) for n in range(m, 7)]
    assert _weighted_sums(NODE_CURVE, multiples, pairs, gcds)


def test_lowest_weighted_falls_back_when_c_and_z_share_a_factor(gcds):
    # 3P = (N / Z^2, M / Z^3) in lowest terms, planted as (c^2 N, c^3 M,
    # c Z): the certificate g^2 | X3 holds exactly when c is prime to Z
    n, m = parse_poly("8*z^3 + 64"), parse_poly("3*z^6 + 96*z^3 + 512")
    z = parse_poly("z^2")
    p3 = ec_multiply(CURVE, 3, P1)
    assert p3 == ECPoint.affine(RatFun(n, z * z), RatFun(m, z * z * z))
    for text, fallback in (("1", False), ("-2/3", False), ("z + 1", False),
                           ("z^2 - 5", False), ("z", True), ("3*z^2", True),
                           ("z*(z + 1)", True), ("z^3*(z - 2)^2", True)):
        c = parse_poly(text)
        gcds.update(elliptic=0, ratfun=0)
        assert elliptic._lowest_weighted(c * c * n, c * c * c * m, c * z) \
            == p3, text
        assert gcds == {"elliptic": 3 if fallback else 1, "ratfun": 0}, text


def test_growth_report_takes_one_gcd_per_step(gcds):
    p3 = ec_multiply(CURVE, 3, P1)
    for base, n_max in ((P1, 10), (p3, 5)):
        expected = [(n, q.x.map_degree(), Fraction(2 * q.x.map_degree(),
                                                     n * n)) for n, q in
                    enumerate(affine_multiples(CURVE, base, n_max)) if n]
        gcds.update(elliptic=0, ratfun=0)
        assert degree_growth_report(CURVE, base, n_max) == expected
        # one certificate per step but the first (P + O), and two more
        # for each fallback, which only the multiples of 3P take
        extra = gcds["elliptic"] - (n_max - 1)
        assert extra % 2 == 0 and bool(extra) == (base is p3)
        assert not gcds["ratfun"]


# -- degree growth -----------------------------------------------------------


def test_growth_report_derives_each_z_once(monkeypatch):
    derivations = []
    weight_den = elliptic._weight_den

    def counting_weight_den(point):
        if point._z is None:
            derivations.append(point)
        return weight_den(point)

    monkeypatch.setattr(elliptic, "_weight_den", counting_weight_den)
    p3 = ec_multiply(CURVE, 3, P1)
    for point, n_max in ((P1, 12), (p3, 5)):
        base = ECPoint(point.x, point.y)  # with no Z kept yet
        derivations.clear()
        degree_growth_report(CURVE, base, n_max)
        # the base point's Z; every sum carries its own from the step
        assert len(derivations) == 1 and derivations[0] is base


def test_cached_z_is_not_part_of_the_point():
    p3 = ec_multiply(CURVE, 3, P1)
    total = elliptic._add(CURVE, p3, P1)
    assert total._z == total.y.den // total.x.den
    bare = ECPoint(total.x, total.y)
    assert bare._z is None
    assert bare == total and hash(bare) == hash(total)
    assert repr(bare) == repr(total) and "_z" not in repr(total)
    assert elliptic._weight_den(bare) == total._z == bare._z
    moved = dataclasses.replace(total, y=-total.y)
    assert moved._z is None and moved == -total
    assert elliptic._weight_den(moved) == total._z


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
    family, point = _family_curve(random.Random(4407))
    for curve, base, n_max in ((CURVE, P1, 10), (family, point, 8)):
        expected = []
        for n in range(1, n_max + 1):
            degree = chord_tangent_multiple(curve, n, base).x.map_degree()
            expected.append((n, degree, Fraction(2 * degree, n * n)))
        assert [row[1] for row in expected] \
            == [n * n // 2 for n in range(1, n_max + 1)]
        with monkeypatch.context() as patch:
            steps = _chord_tangent_steps(patch)
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
    for triple in ((1, 1, 5), (0, 1, 3), (1, 1, 1), (2, 3, 5),
                   (-2, -3, 1), (-1, 0, 0)):
        with pytest.raises(ValueError):
            kodaira_classify(*triple)


def _chain_kodaira(v_c4, v_c6, v_delta):
    """The hand-written case chain `kodaira_classify` once was, kept as a
    reference: it agrees with the identity rule on every attainable triple
    but accepts some triples that violate 1728 delta = c4^3 - c6^2."""
    if (v_c4 is None or v_c4 >= 4) and v_delta >= 12:
        raise NonMinimalModelError("non-minimal")
    if v_delta < 0:
        raise ValueError("v(delta) must be >= 0")
    invalid = ValueError("no fiber type")
    if v_delta == 0:
        return "I0"
    if v_c4 == 0:
        if v_c6 != 0:
            raise invalid
        return f"I{v_delta}"
    if v_delta == 2:
        if v_c6 != 1:
            raise invalid
        return "II"
    if v_delta == 3:
        if v_c4 != 1 or (v_c6 is not None and v_c6 < 2):
            raise invalid
        return "III"
    if v_delta == 4:
        if v_c6 != 2:
            raise invalid
        return "IV"
    if v_delta == 6:
        if (v_c4 is not None and v_c4 < 2) or (v_c6 is not None and v_c6 < 3):
            raise invalid
        return "I0*"
    if v_c4 == 2 and v_c6 == 3 and v_delta >= 7:
        return f"I{v_delta - 6}*"
    if v_delta == 8:
        if v_c6 != 4 or (v_c4 is not None and v_c4 < 3):
            raise invalid
        return "IV*"
    if v_delta == 9:
        if v_c4 != 3 or (v_c6 is not None and v_c6 < 5):
            raise invalid
        return "III*"
    if v_delta == 10:
        if v_c6 != 5 or (v_c4 is not None and v_c4 < 4):
            raise invalid
        return "II*"
    raise invalid


def _outcome(classify, triple):
    try:
        return classify(*triple)
    except NonMinimalModelError:
        return NonMinimalModelError
    except ValueError:
        return ValueError


def _attainable(v_c4, v_c6, v_delta):
    """v(1728 delta) = v(c4^3 - c6^2): the least of 3 v(c4) and 2 v(c6)
    when they differ, at least that when they tie; c4 = c6 = 0 would make
    delta = 0, so no finite v(delta) goes with two infinite valuations."""
    three = None if v_c4 is None else 3 * v_c4
    two = None if v_c6 is None else 2 * v_c6
    finite = [v for v in (three, two) if v is not None]
    if not finite:
        return False
    if three == two:
        return v_delta >= three
    return v_delta == min(finite)


def test_kodaira_rule_matches_chain_on_attainable_triples():
    valuations = [None] + list(range(8))
    disagreements = []
    for v_c4 in valuations:
        for v_c6 in valuations:
            for v_delta in range(16):
                triple = (v_c4, v_c6, v_delta)
                rule = _outcome(kodaira_classify, triple)
                chain = _outcome(_chain_kodaira, triple)
                if NonMinimalModelError in (rule, chain):
                    assert rule is chain, triple
                elif _attainable(*triple):
                    assert rule == chain != ValueError, triple
                else:
                    assert rule is ValueError, triple
                if rule != chain:
                    disagreements.append(triple)
    # each disagreement is an unattainable triple the chain classified
    assert len(disagreements) == 95
    for triple in ((1, 2, 4), (3, 4, 6), (3, 5, 0), (None, None, 6)):
        assert triple in disagreements
        with pytest.raises(ValueError, match="no fiber type has valuations"):
            kodaira_classify(*triple)


def test_fiber_components():
    # the table the counts were once looked up in
    table = {"I0": 1, "II": 1, "III": 2, "IV": 3,
             "IV*": 7, "III*": 8, "II*": 9}
    table.update({f"I{n}": n for n in range(1, 20)})
    table.update({f"I{n}*": n + 5 for n in range(20)})
    for name, components in table.items():
        assert fiber_components(name) == components, name
    for name in ("", "V", "Ix", "I*", "i1"):
        with pytest.raises(ValueError):
            fiber_components(name)


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
