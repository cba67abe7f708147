"""Slice enumeration, zero sets, Hermite reduction, Frobenius splitting."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from funcfield import definability
from funcfield.definability import (DEFAULT_CANDIDATE_BUDGET, BudgetError,
                                    DioSystem, enumerate_slice,
                                    frobenius_decompose, hermite_reduce,
                                    is_derivative, nonsquare_pair_check,
                                    slice_union, zero_set)
from funcfield.fields import FieldMismatchError, PrimeField, QQ, is_prime
from funcfield.poly import Poly, poly_gcd
from funcfield.ratfun import RatFun
from funcfield.textio import parse_poly, parse_ratfun
from funcfield.verify import random_ratfun, square_slice_system

F2 = PrimeField(2)


def R(text, field=QQ):
    return parse_ratfun(text, field)


def P(text, field=QQ):
    return parse_poly(text, field)


def single_equation_system(p, n, m, terms):
    field = PrimeField(p)
    packed = tuple((tuple(e), P(c, field)) for e, c in terms)
    return DioSystem(field, n, m, (packed,))


# -- slice enumeration --------------------------------------------------------


def test_square_system_slice():
    result = enumerate_slice(square_slice_system(), 2, 1)
    projection = {xs[0] for xs in result.projection}
    assert projection == {P(t, F2) for t in ("0", "1", "z^2", "z^2 + 1")}
    assert not result.stabilized  # beta=0 only reaches the constants
    # every y of degree <= 0 would give squares of constants only
    smaller = enumerate_slice(square_slice_system(), 2, 0)
    assert {xs[0] for xs in smaller.projection} == {P("0", F2), P("1", F2)}
    # degree-2 witnesses add nothing inside the alpha = 2 window
    settled = enumerate_slice(square_slice_system(), 2, 2)
    assert settled.stabilized


def test_forced_zero_system():
    system = single_equation_system(2, 1, 1, [([1, 0], "1")])  # F = x
    result = enumerate_slice(system, 2, 1)
    assert [xs[0] for xs in result.projection] == [P("0", F2)]


def test_unsatisfiable_system():
    system = single_equation_system(2, 1, 1, [([0, 0], "1")])  # F = 1
    result = enumerate_slice(system, 2, 1)
    assert result.projection == ()
    assert result.solutions == ()


def test_slice_soundness_and_monotonicity():
    system = square_slice_system()
    previous = set()
    for beta in range(3):
        result = enumerate_slice(system, 2, beta)
        for xs, ys in result.solutions:
            values = system.evaluate(xs + ys)
            assert all(v.is_zero for v in values)
        current = {xs[0] for xs in result.projection}
        assert previous <= current
        previous = current


def test_budget_error_reports_required_count():
    with pytest.raises(BudgetError) as info:
        enumerate_slice(square_slice_system(), 2, 1, max_candidates=10)
    assert info.value.required == 2 ** 5


def test_a_count_too_long_to_print_is_refused_on_its_exponent():
    # 3^10000003 has about 4.8 million digits; building it took seconds
    system = single_equation_system(3, 1, 1, [([1, 0], "1"), ([0, 2], "1")])
    start = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        enumerate_slice(system, 10 ** 7, 1)
    assert time.perf_counter() - start < 1.0
    # the lower bound 2^(e (bits(3) - 1)) with e = 10^7 + 1 + 2
    assert info.value.required is None
    assert info.value.reported == "at least 2^10000003"
    # a count that prints is still exact
    with pytest.raises(BudgetError) as info:
        enumerate_slice(system, 2, 1, max_candidates=10)
    assert info.value.required == 3 ** 5


def test_slice_union_stabilization():
    union = slice_union(square_slice_system(), 2, 3)
    assert union.stabilized_at == 1
    assert {xs[0] for xs in union.members} == \
        {P(t, F2) for t in ("0", "1", "z^2", "z^2 + 1")}


def test_slice_union_identity_system():
    system = single_equation_system(2, 1, 1, [([1, 0], "1"), ([0, 1], "1")])
    union = slice_union(system, 0, 2)  # F = x - y, constants only
    assert {xs[0] for xs in union.members} == {P("0", F2), P("1", F2)}
    assert union.stabilized_at == 0


def test_slice_union_unsatisfiable():
    system = single_equation_system(2, 1, 1, [([0, 0], "1")])
    union = slice_union(system, 1, 2)
    assert union.members == ()
    assert union.stabilized_at == 0


# -- slice enumeration against the per-candidate reference --------------------


def _key(polys):
    return tuple(tuple(c.v for c in q.coeffs) for q in polys)


def reference_slice(system, alpha, beta):
    """Every candidate tuple through DioSystem.evaluate, one at a time."""
    field = system.field

    def space(degree):
        return [Poly(cs, field) for cs in
                itertools.product(range(field.p), repeat=degree + 1)]

    solutions = [(xs, ys)
                 for xs in itertools.product(space(alpha), repeat=system.n)
                 for ys in itertools.product(space(beta), repeat=system.m)
                 if all(v.is_zero for v in system.evaluate(xs + ys))]
    solutions.sort(key=lambda pair: (_key(pair[0]), _key(pair[1])))
    projection = sorted({_key(xs): xs for xs, _ in solutions}.values(),
                        key=_key)
    previous = {_key(xs) for xs, ys in solutions
                if all(y.degree <= beta - 1 for y in ys)}
    stabilized = beta > 0 and previous == {_key(xs) for xs in projection}
    return tuple(solutions), tuple(projection), stabilized


def reference_union(system, alpha, beta_max):
    members, previous, stabilized_at = {}, None, None
    for beta in range(beta_max + 1):
        _, projection, _ = reference_slice(system, alpha, beta)
        keys = {_key(xs) for xs in projection}
        for xs in projection:
            members.setdefault(_key(xs), xs)
        if previous is not None and stabilized_at is None \
                and keys == previous:
            stabilized_at = beta - 1
        previous = keys
    return tuple(sorted(members.values(), key=_key)), stabilized_at


def random_system(rng, p, n, m):
    """x_1 against random terms in the other unknowns, and sometimes a
    second random equation.  Coefficients have degree <= 2 and exponents
    reach 3; a term may repeat an exponent vector or have a zero
    coefficient."""
    field = PrimeField(p)
    width = n + m

    def coeff():
        return Poly([rng.randrange(p) for _ in range(rng.randint(1, 3))],
                    field)

    def exponents(free_of_x1):
        return tuple(0 if free_of_x1 and i == 0 else rng.randint(0, 3)
                     for i in range(width))

    first = [((1,) + (0,) * (width - 1), Poly([1], field))]
    first += [(exponents(True), coeff()) for _ in range(rng.randint(1, 3))]
    polys = [tuple(first)]
    if rng.random() < 0.4:
        polys.append(tuple((exponents(False), coeff())
                           for _ in range(rng.randint(1, 2))))
    return DioSystem(field, n, m, tuple(polys))


# (p, n, m, alpha, beta): at most 5^4 candidates each
DIFFERENTIAL_SHAPES = [
    (2, 1, 0, 3, 1), (2, 1, 1, 2, 2), (2, 1, 2, 1, 1), (2, 2, 0, 2, 1),
    (2, 2, 1, 1, 2), (2, 2, 2, 1, 1), (3, 1, 0, 2, 1), (3, 1, 1, 1, 1),
    (3, 1, 2, 1, 1), (3, 2, 1, 0, 1), (3, 2, 2, 0, 0), (3, 2, 0, 1, 1),
    (5, 1, 0, 1, 2), (5, 1, 1, 1, 1), (5, 1, 1, 0, 2), (5, 1, 2, 0, 0),
    (5, 2, 1, 0, 1), (5, 2, 0, 1, 1), (2, 1, 1, 3, 1), (3, 1, 1, 2, 0),
]


def assert_slice_matches_reference(system, alpha, beta):
    result = enumerate_slice(system, alpha, beta)
    solutions, projection, stabilized = reference_slice(system, alpha, beta)
    assert result.solutions == solutions
    assert result.projection == projection
    assert result.stabilized == stabilized


def test_slice_matches_per_candidate_reference(rng=random.Random(31337)):
    for p, n, m, alpha, beta in DIFFERENTIAL_SHAPES:
        for _ in range(3):
            system = random_system(rng, p, n, m)
            assert_slice_matches_reference(system, alpha, beta)


def test_slice_union_matches_per_candidate_reference(
        rng=random.Random(27182)):
    for p, n, m, alpha, beta in DIFFERENTIAL_SHAPES:
        if p ** ((alpha + 1) * n + (beta + 1) * m) > 128:
            continue
        system = random_system(rng, p, n, m)
        for beta_max in range(beta + 1):
            union = slice_union(system, alpha, beta_max)
            assert (union.members, union.stabilized_at) == \
                reference_union(system, alpha, beta_max)


def test_slice_union_enumerates_only_the_beta_max_slice(monkeypatch):
    calls = []

    def counted(system, alpha, beta, *rest):
        calls.append(beta)
        return enumerate_slice(system, alpha, beta, *rest)

    monkeypatch.setattr(definability, "enumerate_slice", counted)
    union = slice_union(square_slice_system(), 2, 3)
    assert calls == [3]
    assert union.stabilized_at == 1


@pytest.mark.parametrize("alpha,beta_max,max_candidates", [
    (1, 40, DEFAULT_CANDIDATE_BUDGET),  # beta = 0..17 fit the budget
    (2, 3, 2 ** 7 - 1),  # beta = 0..2 fit the budget
])
def test_slice_union_refuses_on_the_beta_max_count_before_any_candidate(
        monkeypatch, alpha, beta_max, max_candidates):
    def visited(*args):
        raise AssertionError("a candidate was visited")

    monkeypatch.setattr(definability, "_vanishes", visited)
    system = square_slice_system()
    p, n, m = system.field.p, system.n, system.m
    with pytest.raises(BudgetError) as info:
        slice_union(system, alpha, beta_max, max_candidates)
    assert info.value.required == p ** ((alpha + 1) * n + (beta_max + 1) * m)


def test_slice_edge_systems_match_reference():
    f3 = PrimeField(3)
    cases = [
        # a nonzero constant-only equation: no solutions at all
        (2, 1, 1, [[([1, 0], "1"), ([0, 2], "1")], [([0, 0], "z + 1")]]),
        # a zero constant-only equation vanishes identically
        (3, 1, 1, [[([1, 0], "1"), ([0, 3], "2*z^2 + 1")], [([0, 0], "0")]]),
        # x = y^3 over F_3 with a repeated exponent vector
        (3, 1, 1, [[([1, 0], "1"), ([0, 3], "1"), ([0, 3], "1")]]),
        # two y-free equations: x1 = x2 and x1 * x2 = z * x1
        (3, 2, 0, [[([1, 0], "1"), ([0, 1], "2")],
                   [([1, 1], "1"), ([1, 0], "2*z")]]),
    ]
    for p, n, m, polys in cases:
        field = PrimeField(p)
        system = DioSystem(field, n, m, tuple(
            tuple((tuple(e), P(c, field)) for e, c in poly)
            for poly in polys))
        for beta in range(3):
            assert_slice_matches_reference(system, 1, beta)
    # the y-free system has the diagonal x1 = x2 in {0, z} as solutions
    assert [_key(xs) for xs in enumerate_slice(system, 1, 0).projection] \
        == [((), ()), ((0, 1), (0, 1))]
    assert enumerate_slice(system, 1, 0).solutions[1][0][0] == P("z", f3)


def test_system_json_roundtrip():
    system = square_slice_system()
    assert DioSystem.from_json(system.to_json()) == system


@pytest.mark.parametrize("exponents", [(-1, 0), (0, -1), (2, -3)])
def test_negative_exponents_are_rejected(exponents):
    with pytest.raises(ValueError, match="negative"):
        single_equation_system(2, 1, 1, [(exponents, "1"), ((0, 1), "1")])


# -- zero sets ----------------------------------------------------------------


def test_zero_set_examples():
    family = [P(t, F2) for t in ("0", "1", "z^2", "z^2 + 1")]
    assert zero_set(family) == {F2.coerce(0), F2.coerce(1)}
    assert zero_set([P("1", F2)]) == frozenset()
    assert zero_set([P("z", F2)]) == {F2.zero}
    assert zero_set([]) == frozenset()
    with pytest.raises(ValueError):
        zero_set([P("z")])  # rationals are not enumerable


def horner_zero_set(family, field):
    return {a for a in field.elements() if any(not f(a) for f in family)}


def random_family(rng, field):
    """Products of linear factors with multiplicities, irreducible
    quadratics and random polynomials."""
    p = field.p
    z = Poly.gen(field)
    nonresidue = next((v for v in range(2, p)
                       if pow(v, (p - 1) // 2, p) == p - 1), None)
    quadratic = (z * z + z + Poly.one(field) if p == 2
                 else z * z - Poly.constant(nonresidue, field))
    family = []
    for _ in range(rng.randint(1, 3)):
        f = Poly.constant(rng.randrange(1, p), field)
        for _ in range(rng.randint(0, 3)):
            f = f * (z - Poly.constant(rng.randrange(p), field)) \
                ** rng.randint(1, 3)
        if rng.random() < 0.5:
            f = f * quadratic ** rng.randint(1, 2)
        if rng.random() < 0.3:
            f = f * Poly([rng.randrange(p) for _ in range(5)] + [1], field)
        family.append(f)
    return family


def test_zero_set_matches_horner_evaluation(rng=random.Random(4242)):
    for p in (2, 3, 5, 7, 11, 13, 31, 101, 197, 199):
        field = PrimeField(p)
        for _ in range(8):
            family = random_family(rng, field)
            assert zero_set(family) == horner_zero_set(family, field)
        z = Poly.gen(field)
        everything = set(field.elements())
        assert zero_set([z, Poly.zero(field)]) == everything
        assert zero_set([Poly.constant(1, field)]) == frozenset()
        assert zero_set([(z - Poly.one(field)) ** 5]) == {field.one}
        if p > 2:
            assert zero_set([z ** p - z], field) == everything


def test_zero_set_of_the_zero_polynomial_above_the_budget_refuses():
    p = 2000003  # the least prime above the default candidate budget
    assert p > DEFAULT_CANDIDATE_BUDGET
    assert all(not is_prime(q) for q in range(DEFAULT_CANDIDATE_BUDGET + 1, p))
    field = PrimeField(p)
    start = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        zero_set([Poly.gen(field), Poly.zero(field)])
    assert time.perf_counter() - start < 1.0
    assert info.value.required == p
    assert info.value.budget == DEFAULT_CANDIDATE_BUDGET
    # nonzero families at the same p are answered
    assert zero_set([Poly.gen(field)]) == {field.zero}


def test_zero_set_family_over_mixed_fields_raises():
    f3 = PrimeField(3)
    with pytest.raises(FieldMismatchError):
        zero_set([P("z", F2), P("z", f3)])
    with pytest.raises(FieldMismatchError):
        zero_set([P("0", F2), P("z", f3)])
    with pytest.raises(FieldMismatchError):
        zero_set([P("z", f3)], F2)


def test_zero_set_matches_sympy_at_large_p(rng=random.Random(777)):
    sympy = pytest.importorskip("sympy")
    p = 10 ** 9 + 7
    field = PrimeField(p)
    t = sympy.Symbol("z")
    for _ in range(12):
        (f,) = random_family(rng, field)[:1]
        if f.degree < 1:
            continue
        oracle = sympy.Poly([c.v for c in reversed(f.coeffs)], t, modulus=p)
        _, factors = oracle.factor_list()
        expected = set()
        for factor, _ in factors:
            coeffs = [int(c) % p for c in factor.all_coeffs()]
            if len(coeffs) == 2:
                expected.add(-coeffs[1] * pow(coeffs[0], -1, p) % p)
        assert {a.v for a in zero_set([f])} == expected


# -- Hermite reduction ---------------------------------------------------------


def test_hermite_double_pole():
    h, remainder = hermite_reduce(R("1/(z-2)^2"))
    assert h == R("-1/(z-2)")
    assert remainder.is_zero


def test_hermite_simple_pole_untouched():
    h, remainder = hermite_reduce(R("1/z"))
    assert h.is_zero
    assert remainder == R("1/z")


def test_hermite_arctan_like_integrand():
    g = R("z/(z^2+1)^2")
    h, remainder = hermite_reduce(g)
    assert h == R("-1/(2*(z^2+1))")
    assert remainder.is_zero
    assert h.derivative() == g


def test_hermite_identity_random(rng=random.Random(13331)):
    for _ in range(60):
        g = random_ratfun(rng, max_degree=4, nonzero=True)
        h, remainder = hermite_reduce(g)
        assert h.derivative() + remainder == g
        assert poly_gcd(remainder.den,
                        remainder.den.derivative()).degree == 0


def _solve_linear(rows, rhs):
    """Gaussian elimination over Q for a system with a unique solution."""
    size = len(rows)
    aug = [list(row) + [value] for row, value in zip(rows, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [value * inv for value in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def reference_hermite(g):
    """Ostrogradsky's dense route, independent of the library's loop.

    With den = e * s (e = gcd(den, den'), s the radical), t = s e' / e and
    proper numerator A, solve A = C' s - C t + B e for deg C < deg e,
    deg B < deg s as one linear system; then h = C / e and the remainder
    is the polynomial part plus B / s.
    """
    field = g.field
    poly_part, proper_num = divmod(g.num, g.den)
    e = poly_gcd(g.den, g.den.derivative())
    if proper_num.is_zero or e.degree == 0:
        return RatFun.zero(field), g
    s = g.den // e
    t = (s * e.derivative()) // e
    size = e.degree + s.degree

    def column(poly):
        return [poly.coefficient(i) for i in range(size)]

    def monomial(j):
        return Poly([0] * j + [1], field)

    columns = ([column(monomial(j).derivative() * s - monomial(j) * t)
                for j in range(e.degree)]
               + [column(monomial(j) * e) for j in range(s.degree)])
    rows = [[col[r] for col in columns] for r in range(size)]
    solution = _solve_linear(rows, column(proper_num))
    h = RatFun(Poly(solution[:e.degree], field), e)
    return h, (RatFun.from_poly(poly_part)
               + RatFun(Poly(solution[e.degree:], field), s))


def hermite_inputs(rng):
    """Random functions, repeated factors up to multiplicity 5 (linear,
    irreducible quadratic and cubic blocks), polynomial parts, squarefree
    denominators, constants and zero."""
    blocks = [P("z - 2"), P("z + 1/3"), P("z^2 + 1"), P("z^2 + z + 7"),
              P("z^3 - 2"), P("z^3 + z + 1")]
    inputs = [R("0"), R("5"), R("-3/7"), R("z^3 - 2*z"),
              R("1/(z^2 + 1)"), R("(z^4 + 1)/(z^3 - 2)")]
    inputs += [random_ratfun(rng, max_degree=5) for _ in range(80)]
    for _ in range(80):
        den = Poly.one(QQ)
        for block in rng.sample(blocks, rng.randint(1, 3)):
            den = den * block ** rng.randint(1, 5)
        extra = rng.randint(-2, 3)  # > 0: a polynomial part
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(max(1, den.degree + extra))]
        inputs.append(RatFun(Poly(coeffs, QQ), den))
    for _ in range(20):  # squarefree denominators
        den = Poly.one(QQ)
        for block in rng.sample(blocks, rng.randint(1, 4)):
            den = den * block
        inputs.append(RatFun(Poly([rng.randint(-9, 9) for _ in range(
            den.degree + rng.randint(-1, 2))], QQ), den))
    return inputs


def test_hermite_matches_ostrogradsky_reference(rng=random.Random(8086)):
    for g in hermite_inputs(rng):
        h, remainder = hermite_reduce(g)
        assert (h, remainder) == reference_hermite(g), str(g)
        assert h.is_zero or h.num.degree < h.den.degree


def test_hermite_matches_sympy_ratint_ratpart(rng=random.Random(6502)):
    sympy = pytest.importorskip("sympy")
    from sympy.integrals.rationaltools import ratint_ratpart
    z = sympy.Symbol("z")

    def to_sympy(poly):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(poly.coeffs)], z)

    def from_sympy(expr):
        num, den = sympy.fraction(sympy.cancel(expr))
        return RatFun(*(Poly([Fraction(int(c.p), int(c.q)) for c in reversed(
            sympy.Poly(e, z).all_coeffs())], QQ) for e in (num, den)))

    checked = 0
    for g in hermite_inputs(rng):
        proper = g.num % g.den
        if proper.is_zero or g.den.degree > 8:  # sympy's solve is slow
            continue
        rational, logarithmic = ratint_ratpart(
            to_sympy(proper), to_sympy(g.den), z)
        h, remainder = hermite_reduce(RatFun(proper, g.den))
        assert h == from_sympy(rational), str(g)
        assert remainder == from_sympy(logarithmic), str(g)
        checked += 1
    assert checked > 100


def test_hermite_char_p_rejected():
    with pytest.raises(ValueError):
        hermite_reduce(R("z", PrimeField(3)))


# -- derivative membership -------------------------------------------------------


def test_simple_pole_is_not_a_derivative():
    ok, certificate = is_derivative(R("1/(z-3)"))
    assert not ok and certificate is None


def test_polynomials_are_derivatives():
    for text in ("0", "7", "z^4 - z", "3/4*z^2 + 1"):
        ok, certificate = is_derivative(R(text))
        assert ok
        assert certificate.derivative() == R(text)


def test_double_pole_certificate():
    ok, certificate = is_derivative(R("1/(z-3)^2"))
    assert ok and certificate == R("-1/(z-3)")
    assert certificate.derivative() == R("1/(z-3)^2")


def test_derivative_closure(rng=random.Random(9999)):
    for _ in range(50):
        f = random_ratfun(rng, max_degree=4, nonzero=True)
        g = f.derivative()
        ok, certificate = is_derivative(g)
        assert ok
        assert certificate.derivative() == g


# -- square pairs -----------------------------------------------------------------


def test_symmetric_laurent_family_excluded():
    for lam in (Fraction(1), Fraction(2), Fraction(3, 5), Fraction(7)):
        lz = RatFun.constant(lam, QQ) * RatFun.gen(QQ)
        f = lz ** -2 - 2 + lz ** 2
        report = nonsquare_pair_check(f)
        assert report.f_is_square and report.shifted_is_square
        assert not report.member


def test_constants_are_members():
    report = nonsquare_pair_check(R("7"))
    assert report.is_constant and report.member


def test_odd_multiplicity_member():
    report = nonsquare_pair_check(R("z"))
    assert not report.f_is_square and not report.shifted_is_square
    assert report.member
    with pytest.raises(ValueError):
        nonsquare_pair_check(RatFun.zero(QQ))


# -- Frobenius decomposition -------------------------------------------------------


def test_frobenius_z_over_f2():
    result = frobenius_decompose(R("z", F2))
    assert [str(c) for c in result.components] == ["0", "1"]
    assert result.in_d


def test_frobenius_z_squared_over_f2():
    result = frobenius_decompose(R("z^2", F2))
    assert [str(c) for c in result.components] == ["z", "0"]
    assert not result.in_d


def test_frobenius_f3_example_with_reassembly():
    f3 = PrimeField(3)
    f = R("z^4 + z", f3)
    result = frobenius_decompose(f)
    assert result.components[0].is_zero
    assert result.components[1] == R("z + 1", f3)
    assert result.components[2].is_zero
    assert result.in_d
    z = RatFun.gen(f3)
    reassembled = sum((z ** j * comp ** 3
                       for j, comp in enumerate(result.components)),
                      RatFun.zero(f3))
    assert reassembled == f


def test_frobenius_roundtrip_random(rng=random.Random(24601)):
    for p in (2, 3):
        field = PrimeField(p)
        z = RatFun.gen(field)
        for _ in range(30):
            f = random_ratfun(rng, max_degree=4, field=field, nonzero=True)
            result = frobenius_decompose(f)
            reassembled = sum((z ** j * comp ** p
                               for j, comp in enumerate(result.components)),
                              RatFun.zero(field))
            assert reassembled == f
            # membership in k(z^p) is exactly "no component above j = 0"
            power = f ** p
            assert not frobenius_decompose(power).in_d
            assert frobenius_decompose(z * power).in_d


def test_frobenius_refuses_above_the_budget_before_any_work():
    p = 100003
    f = R("z^3/(z^2 + 1)", PrimeField(p))
    with pytest.raises(BudgetError) as info:
        frobenius_decompose(f)
    # p components, (p - 1) deg den + deg num coefficients beyond the first
    assert info.value.required == p + (p - 1) * 2 + 3
    assert info.value.budget == definability.FROBENIUS_BUDGET
    assert frobenius_decompose(RatFun.zero(PrimeField(1009))).components \
        == (RatFun.zero(PrimeField(1009)),) * 1009


def test_frobenius_char_zero_rejected():
    with pytest.raises(ValueError):
        frobenius_decompose(R("z"))
