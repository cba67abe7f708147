"""Integer kernels of Q[z] and F_p[z] against per-coefficient references.

`schoolbook_mul`, `schoolbook_divmod` and `euclid_gcd` are the loops over
`Fraction` and `FpElement` coefficients that the integer kernels replaced;
the kernels must agree with them exactly.  The heuristic gcd is checked
against the primitive PRS route it falls back on, and against sympy where
it is installed.  Q polynomials are stored in one canonical form, so equal
values built by different routes must compare and hash equal.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from funcfield import poly
from funcfield.fields import FieldMismatchError, FpElement, PrimeField, QQ
from funcfield.poly import Poly, poly_gcd

F5 = PrimeField(5)


def schoolbook_mul(a, b, zero=Fraction(0)):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def schoolbook_divmod(a, b, zero=Fraction(0)):
    if len(a) < len(b):
        return [], list(a)
    rem = list(a)
    quot = [zero] * (len(a) - len(b) + 1)
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


# (degree, bits); products of two shapes fall on both sides of the
# schoolbook/Kronecker crossover, 12 x 12 terms being its last schoolbook one
SHAPES = [(-1, 5), (0, 1), (0, 700), (1, 3), (2, 64), (5, 700), (11, 64),
          (13, 200), (40, 30), (64, 700)]


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


# -- the routes of a Q product and of a division by a constant ------------


def random_ints(rng, length, bits):
    """Signed integer coefficients of up to `bits` bits with some interior
    zeros and a nonzero last one."""
    cs = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, bits))
          if rng.random() < 0.8 else 0 for _ in range(length)]
    cs[-1] = cs[-1] or rng.choice((-1, 1)) << rng.randint(0, bits)
    return cs


def schoolbook_route(la, lb):
    return (min(la, lb) <= poly._SCHOOLBOOK_SHORT
            or la * lb <= poly._SCHOOLBOOK_TERMS)


# (length of a, length of b): length 1, the edges of both thresholds, and
# products well past them
ROUTE_SHAPES = [(1, 1), (1, 40), (40, 1), (2, 200), (5, 5), (5, 80), (6, 6),
                (6, 24), (6, 25), (12, 12), (12, 13), (13, 12), (8, 18),
                (7, 21), (16, 16), (33, 17), (64, 64)]


def test_q_products_take_the_route_their_lengths_select(
        monkeypatch, rng=random.Random(4410)):
    routes = []
    kronecker = poly._kronecker_mul

    def recording(u, v):
        routes.append((len(u), len(v)))
        return kronecker(u, v)

    monkeypatch.setattr(poly, "_kronecker_mul", recording)
    for la, lb in ROUTE_SHAPES:
        for bits in (1, 40, 700):
            u, v = random_ints(rng, la, bits), random_ints(rng, lb, bits)
            routes.clear()
            product = Poly(u, QQ) * Poly(v, QQ)
            assert (routes == []) == schoolbook_route(la, lb)
            assert list(product._ints) == kronecker(u, v) \
                == poly._mul(u, v, 0) == schoolbook_mul(u, v, 0)
    assert schoolbook_route(5, 1000) and schoolbook_route(12, 12)
    assert not schoolbook_route(6, 25) and not schoolbook_route(12, 13)


def test_q_square_equals_the_product_with_an_equal_copy(
        rng=random.Random(4412)):
    for length in (1, 2, 5, 6, 12, 13, 40, 150):
        for bits in (1, 64, 700):
            u = random_ints(rng, length, bits)
            a = Poly([Fraction(c, 3) for c in u], QQ)
            copy = Poly(a.coeffs, QQ)
            assert copy == a and copy._ints is not a._ints
            assert a * a == a * copy == copy * a
            assert (a * a).coeffs == stripped(schoolbook_mul(a.coeffs,
                                                             a.coeffs))
            assert poly._kronecker_mul(u, u) == poly._kronecker_mul(u, list(u))
            assert a ** 3 == a * copy * copy


def pseudo_division_route(a, b):
    """divmod over Q through fraction-free pseudo-division by the primitive
    part of b, the route of every nonconstant divisor."""
    w = poly._int_primitive(list(b._ints))
    quot, rem, d = poly._pseudo_divmod(list(a._ints), w)
    d *= a._den
    return (poly._normal([c * b._den for c in quot],
                         d * (b._ints[-1] // w[-1]), QQ),
            poly._normal(poly._trim(rem), d, QQ))


def test_q_division_by_a_constant_matches_pseudo_division(
        rng=random.Random(4413)):
    divisors = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-6, 35),
                Fraction(2 ** 700 + 1, 3), Fraction(-1, 2 ** 300)]
    divisors += [random_coeff(rng, 200) or Fraction(5) for _ in range(10)]
    for c in divisors:
        b = Poly([c], QQ)
        for degree in (0, 1, 7, 60):
            a = Poly(random_poly(rng, degree, 300), QQ)
            quot, rem = divmod(a, b)
            assert (quot, rem) == pseudo_division_route(a, b)
            assert rem.is_zero and quot == a.scale(1 / c)
            assert quot.coeffs == stripped(schoolbook_divmod(a.coeffs,
                                                             b.coeffs)[0])
            assert_canonical(quot)
        assert divmod(Poly.zero(QQ), b) == (Poly.zero(QQ), Poly.zero(QQ))


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


@pytest.mark.parametrize("width", [1, 2, 9])
def test_unpack_reads_back_the_shift_evaluation(width, rng=random.Random(4408)):
    half = 1 << (8 * width - 1)
    cases = [[], [0], [0, 0], [-half], [half - 1], [-half, half - 1],
             [half - 1, -half], [7, 0, 0, -half, 0, 0], [0, 0, 0, 1],
             [-1], [half - 1, -1], [0, -half, 0, half - 1, -half]]
    cases += [[rng.randrange(-half, half) for _ in range(rng.randint(1, 40))]
              for _ in range(50)]
    for cs in cases:
        n = poly._evaluate(cs, 8 * width)
        assert poly._unpack(n, width) == poly._trim(list(cs))
    # a negative leading coefficient gives a negative value
    assert poly._evaluate([half - 1, 0, -1], 8 * width) < 0


def test_pseudo_divmod_scales_the_quotient_and_remainder_together(
        rng=random.Random(4409)):
    def ints(length, bits):
        cs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]
        cs[-1] = cs[-1] or rng.choice((-3, 2))
        return cs

    for _ in range(300):
        v = ints(rng.randint(1, 8), rng.randint(0, 60))
        u = ints(len(v) + rng.randint(0, 12), rng.randint(0, 60))
        for monic in (False, True):
            if monic:
                v = v[:-1] + [1]
            q, r, d = poly._pseudo_divmod(u, v)
            assert [d * c for c in u] == list(stripped(
                [x + y for x, y in zip(schoolbook_mul(q, v, 0),
                                       r + [0] * len(u))]))
            assert len(poly._trim(list(r))) < len(v)
            if monic:
                assert d == 1
        w = ints(rng.randint(1, 8), rng.randint(0, 60))
        q, r, d = poly._pseudo_divmod(schoolbook_mul(w, v, 0), v)
        assert (q, poly._trim(r), d) == (w, [], 1)


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


# -- products and gcds over Q on the stride of the support ------------------

STRIDES = (2, 3, 5)
OFFSETS = (0, 1, 4)


def inflated(cs, a, d):
    """The coefficient list of z^a U(z^d), where cs is that of U."""
    out = [0] * (a + d * (len(cs) - 1) + 1)
    out[a::d] = cs
    return out


def strided_ints(rng, a, d, length, bits):
    """z^a U(z^d) for a random U of the given length with U(0) != 0, so
    that a is the offset and d divides the stride."""
    cs = random_ints(rng, length, bits)
    cs[0] = cs[0] or rng.choice((-1, 1)) << rng.randint(0, bits)
    return inflated(cs, a, d)


def common_stride(u, v):
    """gcd of the strides of two nonzero lists (0 for two single terms)."""
    return gcd(poly._stride(u)[1], poly._stride(v)[1])


@pytest.fixture
def kronecker_calls(monkeypatch):
    """The operand pairs `_kronecker_mul` packs."""
    calls = []
    kronecker = poly._kronecker_mul

    def recording(u, v):
        calls.append((list(u), list(v)))
        return kronecker(u, v)

    monkeypatch.setattr(poly, "_kronecker_mul", recording)
    return calls


def dense_gcd(u, v, monkeypatch):
    """poly_gcd with every support taken as dense."""
    with monkeypatch.context() as patch:
        patch.setattr(poly, "_stride", lambda cs: (0, 1))
        return poly_gcd(u, v)


def test_stride_reads_offset_and_stride():
    cases = [([5], (0, 0)), ([0, 0, 7], (2, 0)), ([1, 1], (0, 1)),
             ([0, 3, 0, 0, 0, 2], (1, 4)), ([2, 0, 0, 0, 0, 0, 1], (0, 6)),
             ([1, 0, 1, 0, 0, 0, 1], (0, 2)), ([1, 0, 0, 1, 0, 1], (0, 1)),
             (inflated([3, 0, -1, 4], 4, 5), (4, 5))]
    for cs, expected in cases:
        assert poly._stride(cs) == poly._stride(tuple(cs)) == expected


def test_q_strided_products_match_schoolbook(kronecker_calls,
                                             rng=random.Random(4414)):
    lengths = (1, 2, 6, 13, 30)
    for d in STRIDES:
        for a in OFFSETS:
            for b in OFFSETS:
                for la in lengths:
                    for bits in (1, 700):
                        lb = rng.choice(lengths)
                        u = strided_ints(rng, a, d, la, bits)
                        v = strided_ints(rng, b, d, lb, bits)
                        pu, pv = Poly(u, QQ), Poly(v, QQ)
                        expected = stripped(schoolbook_mul(u, v, 0))
                        assert (pu * pv)._ints == (pv * pu)._ints == expected
                        square = pu * pu
                        assert square._ints == stripped(
                            schoolbook_mul(u, u, 0))
                        assert square == pu * Poly(u, QQ)
    # the strides meet: no packed pair shares a stride above 1, and the
    # deflated pairs are routed by their own lengths
    assert kronecker_calls
    assert all(common_stride(u, v) == 1 for u, v in kronecker_calls)
    assert not any(schoolbook_route(len(u), len(v))
                   for u, v in kronecker_calls)


def test_q_mixed_strides_and_single_terms(kronecker_calls,
                                          rng=random.Random(4415)):
    for bits in (1, 700):
        # strides 2 and 3 share none: the product is packed dense
        u = strided_ints(rng, 1, 2, 20, bits)
        v = strided_ints(rng, 0, 3, 20, bits)
        kronecker_calls.clear()
        assert (Poly(u, QQ) * Poly(v, QQ))._ints == stripped(
            schoolbook_mul(u, v, 0))
        assert [(len(x), len(y)) for x, y in kronecker_calls] \
            == [(len(u), len(v))]
        # a single term has every stride: it takes the other's
        c = rng.choice((-1, 1)) << rng.randint(0, bits)
        for k in (0, 1, 12, 40):
            term = [0] * k + [c]
            for other in (u, v):
                expected = stripped(schoolbook_mul(term, other, 0))
                assert (Poly(term, QQ) * Poly(other, QQ))._ints == expected
                g = poly_gcd(Poly(term, QQ), Poly(other, QQ))
                low = next(i for i, x in enumerate(other) if x)
                assert g == (Z ** min(k, low) if k else Poly.one(QQ))
        # two single terms: z^12 and z^40
        assert poly_gcd((Z ** 12).scale(c), Z ** 40) == Z ** 12
        assert Z ** 12 * (Z ** 40).scale(c) == (Z ** 52).scale(c)
        # past the length rule a single term is a shift and a scale: on
        # either side of a strided or another single term, and on the
        # left of a dense one (whose support is not read)
        big = [0] * 10 ** 4 + [c]
        dense = random_ints(rng, 30, bits)
        dense[0] = dense[1] = 1
        kronecker_calls.clear()
        for other in (u, v, big, dense):
            expected = tuple([0] * 10 ** 4 + [c * x for x in other])
            assert (Poly(big, QQ) * Poly(other, QQ))._ints == expected
            if other is not dense:
                assert (Poly(other, QQ) * Poly(big, QQ))._ints == expected
        assert (Poly(big, QQ) ** 2)._ints == (0,) * (2 * 10 ** 4) + (c * c,)
        assert not kronecker_calls


def test_dense_times_a_single_term_in_both_orders(kronecker_calls,
                                                  rng=random.Random(4423)):
    # a single term is a shift and a scale on the right of a dense
    # operand too; dense times dense, or times a strided list, still packs
    for field in (QQ, PrimeField(97)):
        p = field.characteristic
        for bits in (1, 700):
            dense = random_ints(rng, 30, 6 if p else bits)
            dense[0] = dense[1] = 1
            if p:
                dense = [x % p or 1 for x in dense]
            c = 3 if p else rng.choice((-1, 1)) << rng.randint(0, bits)
            for k in (0, 7, 40, 2 * 10 ** 4):
                term = [0] * k + [c]
                expected = stripped(x % p if p else x for x in
                                    schoolbook_mul(dense, term, 0))
                kronecker_calls.clear()
                assert (Poly(dense, field) * Poly(term, field))._ints \
                    == expected
                assert (Poly(term, field) * Poly(dense, field))._ints \
                    == expected
                assert not kronecker_calls
            other = random_ints(rng, 30, 6)
            other[-2] = 0
            for v in (dense, [0, 0, 1] * 10 + [1], other):
                kronecker_calls.clear()
                expected = stripped(x % p if p else x for x in
                                    schoolbook_mul(dense, v, 0))
                assert (Poly(dense, field) * Poly(v, field))._ints == expected
                assert len(kronecker_calls) == 1


def strided_gcd_pairs(rng):
    """z^a (G C1)(z^d) and z^b (G C2)(z^d) over Q, G of 1 to 4 terms."""
    for d in STRIDES:
        for a in OFFSETS:
            for b in OFFSETS:
                for bits in (1, 700):
                    g = strided_ints(rng, 0, 1, rng.randint(1, 4), bits)
                    c1 = strided_ints(rng, 0, 1, rng.randint(1, 12), bits)
                    c2 = strided_ints(rng, 0, 1, rng.randint(1, 12), bits)
                    u = Poly(inflated(schoolbook_mul(g, c1, 0), a, d), QQ)
                    v = Poly(inflated(schoolbook_mul(g, c2, 0), b, d), QQ)
                    yield u.scale(Fraction(1, 3)), v.scale(Fraction(-2, 5))


def test_q_strided_gcds_match_the_dense_route(monkeypatch, prs_calls,
                                              rng=random.Random(4416)):
    for u, v in strided_gcd_pairs(rng):
        g = poly_gcd(u, v)
        assert g == poly_gcd(v, u) == dense_gcd(u, v, monkeypatch)
        assert g.lc == 1 and (u % g).is_zero and (v % g).is_zero
        assert_canonical(g)
    assert not prs_calls


def test_q_strided_gcds_match_sympy(rng=random.Random(4417)):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)], z, domain=sympy.QQ)

    for u, v in strided_gcd_pairs(rng):
        ref = sympy.gcd(to_sympy(u), to_sympy(v)).all_coeffs()
        assert poly_gcd(u, v) == monic_of([Fraction(int(c.p), int(c.q))
                                           for c in reversed(ref)])


@pytest.mark.parametrize("p", (2, 3, 5))
def test_fp_strided_gcds_match_plain_euclid(p, monkeypatch,
                                            rng=random.Random(4424)):
    """gcd(z^a (G C1)(z^d), z^b (G C2)(z^d)) over F_p, with strides d prime
    to p and multiples of p, against `_gcd` run on the inflated lists; the
    gcd itself runs on the deflated ones."""
    field = PrimeField(p)
    sizes = []
    euclid = poly._gcd

    def recording(u, v, p):
        sizes.append(len(u) + len(v))
        return euclid(u, v, p)

    monkeypatch.setattr(poly, "_gcd", recording)

    def factor(length):
        # nonzero at 0 and at the top, so the offsets stay a and b
        return ([rng.randrange(1, p)] + [rng.randrange(p) for _ in
                                         range(length - 2)]
                + [rng.randrange(1, p)])[:length]

    for d in sorted({2, 3, p, 2 * p, p + 1}):
        for a in OFFSETS:
            for b in OFFSETS:
                g = factor(rng.randint(1, 4))
                u = inflated(poly._mul(g, factor(rng.randint(2, 12)), p),
                             a, d)
                v = inflated(poly._mul(g, factor(rng.randint(2, 12)), p),
                             b, d)
                pu, pv = Poly(u, field), Poly(v, field)
                sizes.clear()
                got = poly_gcd(pu, pv)
                e = common_stride(u, v)  # a multiple of d; over F_2 often 2d
                assert e % d == 0 and sizes == [
                    (len(u) - a - 1) // e + (len(v) - b - 1) // e + 2]
                assert got._ints == tuple(euclid(u, v, p))
                assert got == poly_gcd(pv, pu) == dense_gcd(pu, pv,
                                                              monkeypatch)
                assert (pu % got).is_zero and (pv % got).is_zero


# -- F_p[z] against FpElement loops -----------------------------------------

FP_FIELDS = [PrimeField(p) for p in (2, 3, 5, 97, 10 ** 9 + 7)]
FP_DEGREES = (-1, 0, 0, 1, 2, 5, 13, 30)


def euclid_gcd(a, b, field):
    """Monic gcd of FpElement lists by the Euclidean algorithm."""
    a, b = stripped(a), stripped(b)
    while b:
        a, b = b, stripped(schoolbook_divmod(a, b, field.zero)[1])
    return tuple(c / a[-1] for c in a)


def horner(cs, x, field):
    acc = field.zero
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def random_fp(rng, field, degree):
    """FpElement coefficients of the given degree (-1: zero polynomial)."""
    p = field.p
    if degree < 0:
        return []
    cs = [field.coerce(rng.randrange(p)) for _ in range(degree)]
    return cs + [field.coerce(rng.randrange(1, p))]


@pytest.mark.parametrize("field", FP_FIELDS, ids=lambda f: f"F{f.p}")
def test_fp_arithmetic_matches_fpelement_loops(field, rng=random.Random(4407)):
    zero = field.zero
    for da in FP_DEGREES:
        for db in FP_DEGREES:
            a, b = random_fp(rng, field, da), random_fp(rng, field, db)
            pa, pb = Poly(a, field), Poly(b, field)
            assert (pa * pb).coeffs == stripped(schoolbook_mul(a, b, zero))
            if b:
                quot, rem = divmod(pa, pb)
                q_ref, r_ref = schoolbook_divmod(a, b, zero)
                assert quot.coeffs == stripped(q_ref)
                assert rem.coeffs == stripped(r_ref)
            if a or b:
                assert poly_gcd(pa, pb).coeffs == euclid_gcd(a, b, field)
            total = [x + y for x, y in zip(a + [zero] * len(b),
                                           b + [zero] * len(a))]
            assert (pa + pb).coeffs == stripped(total)
            assert (pa - pb) + pb == pa and (-pa).coeffs == \
                stripped(-c for c in a)


@pytest.mark.parametrize("field", FP_FIELDS, ids=lambda f: f"F{f.p}")
def test_fp_pow_derivative_and_evaluation_match_fpelement_loops(
        field, rng=random.Random(4408)):
    points = [field.coerce(rng.randrange(field.p)) for _ in range(4)]
    points += [field.zero, field.one]
    for degree in FP_DEGREES:
        a = random_fp(rng, field, degree)
        f = Poly(a, field)
        power = [field.one]
        for n in range(6):
            assert (f ** n).coeffs == stripped(power)
            power = schoolbook_mul(power, a, field.zero)
        derivative = [i * c for i, c in enumerate(a)][1:]
        assert f.derivative().coeffs == stripped(derivative)
        for x in points:
            assert f(x) == horner(a, x, field)
            assert isinstance(f(x), FpElement)
        assert f.monic().coeffs == (euclid_gcd(a, [], field) if a else ())


@pytest.mark.parametrize("p", (2, 3, 97, 2 ** 61 - 1))
def test_fp_products_match_fpelement_loops_on_every_route(
        p, kronecker_calls, rng=random.Random(4420)):
    """Over F_p a product runs the integer route of Q, then reduces, both
    in Poly and on the residue lists of `definability` (`_monomials` and
    `_powmod`, whose operands range from a few terms to deg m)."""
    field = PrimeField(p)
    lengths = (1, 2, 5, 6, 13, 30, 120)
    for la in lengths:
        for lb in lengths:
            a = random_fp(rng, field, la - 1)
            b = random_fp(rng, field, lb - 1)
            pa, pb = Poly(a, field), Poly(b, field)
            expected = stripped(schoolbook_mul(a, b, field.zero))
            assert (pa * pb).coeffs == (pb * pa).coeffs == expected
            u, v = [c.v for c in a], [c.v for c in b]
            assert poly._mul(u, v, p) == poly._mul(v, u, p) \
                == [c.v for c in expected]
        square = Poly(a, field) * Poly(a, field)
        assert (Poly(a, field) ** 2) == square
        assert square.coeffs == stripped(schoolbook_mul(a, a, field.zero))
        assert poly._mul(u, u, p) == [c.v for c in square.coeffs]
    assert kronecker_calls
    # a single term past the length rule on the left: a shift, not packed
    kronecker_calls.clear()
    term = Poly([0] * 200 + [p - 1], field)
    dense = Poly(random_fp(rng, field, 40), field)
    assert term * dense == Poly(
        [0] * 200 + [(p - 1) * c.v for c in dense.coeffs], field)
    assert term * term == Poly([0] * 400 + [1], field)
    assert not kronecker_calls
    assert dense * term == term * dense


def test_fp_coefficients_are_canonical_residues():
    f = Poly([-1, 7, FpElement(3, 5), 0, 10], F5)  # 10 = 0 in F_5
    assert f.coeffs == (4, 2, 3) and f.degree == 2
    assert all(isinstance(c, FpElement) and 0 <= c.v < 5 for c in f.coeffs)
    assert f.lc == 3 and f.coefficient(7) == 0 and f.coefficient(-1) == 0
    assert f == Poly([4, 2, 3], F5) and hash(f) == hash(Poly([4, 2, 3], F5))
    with pytest.raises(FieldMismatchError):
        Poly([FpElement(1, 3)], F5)


def test_normal_form_edges():
    # sums that cancel, in whole or at the top
    for field, a, b in ((F5, [1, 2], [4, 3]),
                        (QQ, [Fraction(1, 3), Fraction(1, 2)],
                         [Fraction(-1, 3), Fraction(-1, 2)])):
        pa, pb = Poly(a, field), Poly(b, field)
        for total in (pa + pb, pa - (-pb), pb - pa.scale(-1)):
            assert total.is_zero and total._ints == () and total._den == 1
    top = Poly([1, 2, 3], F5) + Poly([0, 0, 2], F5)
    assert top._ints == (1, 2) and top._den == 1
    # a negative denominator moves its sign to the numerators
    assert poly._normal([2, -4], -6, QQ) == Poly([Fraction(-1, 3),
                                                  Fraction(2, 3)], QQ)
    half = Poly([1, Fraction(1, 2)], QQ)
    for f in (poly._normal([3, -6], -9, QQ), half.scale(Fraction(-2, 3)),
              half // Poly([Fraction(-3, 2)], QQ), -half):
        assert_canonical(f)
    assert (half // Poly([-3], QQ)) == Poly([Fraction(-1, 3),
                                             Fraction(-1, 6)], QQ)
    # over F_p the derivative of z^p vanishes, and of z^(p+1) it is z^p
    for field in (PrimeField(2), PrimeField(3), F5):
        p = field.p
        z = Poly.gen(field)
        assert (z ** p).derivative() == Poly.zero(field)
        assert (z ** (p + 1)).derivative() == z ** p
        assert (z ** p).derivative()._den == 1


# -- Q canonical form -------------------------------------------------------


def assert_canonical(f):
    """Stored ints without trailing zeros over d > 0 with no common factor."""
    ints, den = f._ints, f._den
    assert den > 0 and gcd(den, *ints) == 1
    assert not ints or ints[-1]
    assert den == 1 or ints


def test_q_equal_values_from_different_routes_compare_and_hash_equal(
        rng=random.Random(4409)):
    half = Poly([Fraction(1, 2), 1], QQ)
    routes = [
        (half, Poly([1, 2], QQ).scale(Fraction(1, 2))),
        (half, Poly([3, 6], QQ).scale(Fraction(1, 6))),
        (Poly([3, -6], QQ).monic(), Poly([Fraction(-1, 2), 1], QQ)),
        (Poly([Fraction(2, 3), Fraction(-4, 9)], QQ).monic(),
         Poly([Fraction(-3, 2), 1], QQ)),
        (Poly([0, 0], QQ), Poly.zero(QQ)),
        (half - half, Poly.zero(QQ)),
        (Poly([Fraction(4, 2)], QQ), Poly.constant(2, QQ)),
    ]
    for _ in range(20):
        a = Poly(random_poly(rng, rng.randint(0, 8), 40), QQ)
        b = Poly(random_poly(rng, rng.randint(0, 8), 40), QQ)
        routes.append(((a * b) // b, a))
        routes.append(((a + b) - b, a))
        routes.append((a.scale(Fraction(-3, 7)).scale(Fraction(-7, 3)), a))
        routes.append((divmod(a * b + a, b)[1], a % b))
        routes.append((a.derivative(), Poly([i * c for i, c in
                                             enumerate(a.coeffs)][1:], QQ)))
    for left, right in routes:
        assert_canonical(left)
        assert_canonical(right)
        assert left == right and hash(left) == hash(right)
        assert len({left, right}) == 1


def test_q_coefficients_are_fractions_as_given():
    f = Poly([Fraction(1, 2), 0, Fraction(-3, 4), 5, 0], QQ)
    assert f.coeffs == (Fraction(1, 2), Fraction(0), Fraction(-3, 4),
                        Fraction(5))
    assert all(type(c) is Fraction for c in f.coeffs)
    assert f.lc == 5 and type(f.lc) is Fraction
    assert f.coefficient(2) == Fraction(-3, 4) and f.coefficient(9) == 0
    assert Poly.zero(QQ).coeffs == () and Poly.zero(QQ).lc == 0
    assert f(Fraction(-2, 3)) == Fraction(1, 2) - Fraction(1, 3) - Fraction(40, 27)
    assert str(f) == "5*z^3 - 3/4*z^2 + 1/2"
    for bad in ("1", 0.5, FpElement(1, 5)):
        with pytest.raises(TypeError):
            Poly([bad], QQ)
