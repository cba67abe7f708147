"""The computable transcendental function and its enumeration machinery."""

import random
from collections import deque
from fractions import Fraction
from itertools import count, islice
from math import factorial

import pytest

from funcfield import analytic as an
from funcfield import definability
from funcfield.budget import BudgetError


# -- Calkin-Wilf enumeration -------------------------------------------------


def bfs_calkin_wilf(count):
    """Independent breadth-first traversal of the Calkin-Wilf tree."""
    queue = deque([(1, 1)])
    out = []
    while len(out) < count:
        a, b = queue.popleft()
        out.append(Fraction(a, b))
        queue.append((a, a + b))
        queue.append((a + b, b))
    return out


def test_cw_matches_breadth_first_oracle():
    oracle = bfs_calkin_wilf(128)
    assert [an.cw_rational(i) for i in range(1, 129)] == oracle


def test_cw_index_inverts_value():
    for i in range(1, 3000):
        assert an.cw_index(an.cw_rational(i)) == i
    # deep, lopsided paths stay fast because runs of steps are batched
    # through the continued-fraction quotients
    for deep in (Fraction(1, 10**5), Fraction(10**5), Fraction(2, 99991)):
        assert an.cw_rational(an.cw_index(deep)) == deep


def test_q_n_values():
    assert an.q_n(1) == 0
    assert an.q_n(2) == 1
    assert an.q_n(3) == Fraction(1, 4)
    assert an.q_n(4) == 4
    with pytest.raises(ValueError):
        an.q_n(0)


def test_square_index():
    assert an.square_index(0) == 1
    assert an.square_index(1) == 2
    assert an.square_index(-1) == 2
    assert an.square_index(Fraction(1, 2)) == 3
    for n in range(1, 200):
        assert an.square_index(an.enumerated_rational(n)) == n


def test_enumeration_completeness_desk_scale():
    seen = {}
    for n in range(1, 10_001):
        value = an.q_n(n)
        assert value not in seen  # each square appears at most once
        seen[value] = n
    for numerator in range(0, 21):
        for denominator in range(1, 21):
            a = Fraction(numerator, denominator)
            m = an.square_index(a)
            assert an.q_n(m) == a * a
            if m <= 10_000:
                assert seen[a * a] == m


def test_terms_walk_the_enumeration():
    for n, s, r, _ in islice(an._terms(), 500):
        assert Fraction(s, r) == an.q_n(n)
        assert (s, r) == (an.q_n(n).numerator, an.q_n(n).denominator)


# -- coefficient bounds --------------------------------------------------------


def reference_terms():
    """(n, q_n, A_n) with A_n from a running, reduced Fraction product."""
    product = Fraction(1)
    for n in count(1):
        qn = an.q_n(n)
        product *= qn + 1
        yield n, qn, 1 + -((-product.numerator) // product.denominator)


def test_a_bound_matches_the_fraction_ceiling():
    expected = [a_n for _, _, a_n in islice(reference_terms(), 200)]
    assert [an.a_bound(n) for n in range(1, 201)] == expected
    assert [a_n for *_, a_n in islice(an._terms(), 200)] == expected


def test_a_bound_values():
    assert an.a_bound(1) == 2  # 1 + ceil(0 + 1)
    assert an.a_bound(2) == 3  # 1 + ceil((0+1)(1+1))
    values = [an.a_bound(n) for n in range(1, 31)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        an.a_bound(0)


def test_product_bound_certificate(rng=random.Random(314159)):
    for _ in range(40):
        re = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        im = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        for n in (1, 4, 9):
            assert an.product_bound_holds(re, im, n)


# -- exact evaluation ----------------------------------------------------------


def reference_eval_exact(a):
    """f(a) term by term: a running Fraction product and a Fraction sum."""
    a = Fraction(a)
    a2 = a * a
    total = Fraction(0)
    product = Fraction(1)
    for n, qn, a_n in islice(reference_terms(), an.square_index(a) - 1):
        product *= qn - a2
        total += product / (factorial(2 * n) * a_n)
    return total


def test_binary_splitting_matches_the_term_by_term_sum():
    assert an.eval_exact(0) == reference_eval_exact(0) == 0
    for n in range(1, 81):
        a = an.enumerated_rational(n)
        expected = reference_eval_exact(a)
        assert an.eval_exact(a) == expected, n
        assert an.eval_exact(-a) == expected, n


@pytest.mark.parametrize("index", [250, 333, 399])
def test_binary_splitting_matches_deep_in_the_enumeration(index):
    a = an.enumerated_rational(index)
    assert an.eval_exact(a) == reference_eval_exact(a)


def test_eval_exact_base_cases():
    assert an.eval_exact(0) == 0
    assert an.eval_exact(1) == Fraction(-1, 4)
    assert an.eval_exact(-1) == an.eval_exact(1)


def test_eval_exact_half_by_hand():
    # m = square_index(1/2) = 3, so two terms survive:
    # P_1(1/2)/(2! A_1) = (0 - 1/4)/4        = -1/16
    # P_2(1/2)/(4! A_2) = (-1/4)(1 - 1/4)/72 = -1/384
    assert an.eval_exact(Fraction(1, 2)) == \
        Fraction(-1, 16) + Fraction(-3, 16 * 72)
    assert an.eval_exact(Fraction(1, 2)) == Fraction(-25, 384)


def test_eval_exact_tail_terms_vanish(rng=random.Random(2718)):
    for _ in range(25):
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        m = an.square_index(a)
        product = Fraction(1)
        for i in range(1, m + 1):
            product *= an.q_n(i) - a * a
        assert product == 0
        for extra in range(1, 4):
            product *= an.q_n(m + extra) - a * a
            assert product == 0


# -- interval evaluation --------------------------------------------------------


def test_interval_contains_exact_values():
    for n in range(1, 15):
        a = an.enumerated_rational(n)
        exact = an.eval_exact(a)
        for terms in (1, 2, 5):
            enclosure = an.eval_interval(a, a, terms)
            assert enclosure.contains(exact)


def test_interval_over_a_window():
    enclosure = an.eval_interval(0, 1, 5)
    assert enclosure.contains(an.eval_exact(0))
    assert enclosure.contains(an.eval_exact(1))
    assert enclosure.contains(an.eval_exact(Fraction(1, 2)))


def test_interval_soundness_fuzz(rng=random.Random(60847)):
    # sample points with small enumeration index: eval_exact sums
    # square_index(a) terms, so far-out rationals are intractable by design
    pool = [an.enumerated_rational(n) for n in range(1, 40)]
    pool += [-a for a in pool]
    for _ in range(25):
        a, b = rng.choice(pool), rng.choice(pool)
        lo, hi = min(a, b), max(a, b)
        enclosure = an.eval_interval(lo, hi, rng.randint(1, 5))
        for point in (lo, hi):
            assert enclosure.contains(an.eval_exact(point))


def test_interval_widths_shrink():
    widths = [an.eval_interval(1, 1, terms).width for terms in range(1, 9)]
    assert all(later <= earlier for earlier, later in zip(widths, widths[1:]))
    with pytest.raises(ValueError):
        an.eval_interval(0, 0, 0)
    with pytest.raises(ValueError):
        an.RatInterval(Fraction(1), Fraction(0))


def reference_eval_interval(lo, hi, n_terms):
    """The enclosure by Fraction interval arithmetic, term by term."""
    lo, hi = Fraction(lo), Fraction(hi)
    m = max(abs(lo), abs(hi))
    x2 = an.RatInterval(lo, hi).square()
    low = high = Fraction(0)
    p_lo = p_hi = Fraction(1)
    for n, qn, a_n in islice(reference_terms(), n_terms):
        c, d = qn - x2.hi, qn - x2.lo
        ends = (p_lo * c, p_lo * d, p_hi * c, p_hi * d)
        p_lo, p_hi = min(ends), max(ends)
        scale = Fraction(1, factorial(2 * n) * a_n)
        low, high = low + p_lo * scale, high + p_hi * scale
    tail = reference_tail_bound(m, n_terms + 1, an._tail_end(m, n_terms + 1))
    return an.RatInterval(low - tail, high + tail)


def reference_tail_bound(m, n_from, n_end):
    """The tail majorant term by term: a Fraction sum of (M^2n + 1)/(2n)!
    for n_from <= n < n_end, plus twice the term at n_end."""
    def term(n):
        return (m ** (2 * n) + 1) / factorial(2 * n)

    total = Fraction(0)
    for n in range(n_from, n_end):
        total += term(n)
    return total + 2 * term(n_end)


def test_tail_bound_matches_the_fraction_sum(rng=random.Random(1913)):
    cases = [(Fraction(0), 2, 2), (Fraction(0), 2, 9), (Fraction(5), 7, 7),
             (Fraction(1, 3), 4, 40), (Fraction(-7, 2), 2, 3),
             (Fraction(1410), 2, an._tail_end(Fraction(1410), 2)),
             (Fraction(2821, 2), 3, 999)]
    for _ in range(60):
        m = Fraction(rng.randint(0, 400), rng.randint(1, 40))
        n_from = rng.randint(2, 60)
        n_end = rng.choice([n_from, an._tail_end(m, n_from),
                            n_from + rng.randint(0, 80)])
        cases.append((m, n_from, n_end))
    assert any(m == 0 for m, _, _ in cases)
    assert any(n_end >= 990 for *_, n_end in cases)
    for m, n_from, n_end in cases:
        assert an._tail_bound(m, n_from, n_end) == \
            reference_tail_bound(m, n_from, n_end), (m, n_from, n_end)


def test_interval_matches_the_fraction_interval_sum(rng=random.Random(5)):
    windows = [(0, 1, 5), (1, 1, 8), (-7, Fraction(3, 2), 2),
               (Fraction(-99, 2), 3, 30), (Fraction(-3, 7), Fraction(-1, 5), 40),
               (Fraction(1, 3), Fraction(2000, 7), 12), (Fraction(2, 3), 3, 90)]
    for _ in range(60):
        lo = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        hi = lo + Fraction(rng.randint(0, 60), rng.randint(1, 20))
        windows.append((lo, hi, rng.randint(1, 45)))
    for lo, hi, n_terms in windows:
        assert an.eval_interval(lo, hi, n_terms) == \
            reference_eval_interval(lo, hi, n_terms), (lo, hi, n_terms)


# -- the even series of g(t) = f(it) ---------------------------------------------


def test_series_parity_and_positivity():
    series = an.series_of_g(20)
    assert series.coefficient(0) == 0
    assert all(series.coefficient(k) == 0 for k in range(1, 21, 2))
    assert all(series.coefficient(k) > 0 for k in range(2, 21, 2))
    # the n = 1 term contributes exactly t^2/(2! A_1) = t^2/4
    assert series.coefficient(2) > Fraction(1, 4)


def test_series_leading_term_value():
    series = an.series_of_g(4)
    # degree-4 contributions: n = 2 leading term 1/(4! A_2) plus n >= 3 tails
    assert series.coefficient(4) > Fraction(1, factorial(4) * 3)
    with pytest.raises(ValueError):
        an.series_of_g(7)
    with pytest.raises(ValueError):
        an.series_of_g(0)


def test_series_buffer_terms_feed_low_degrees():
    # every product past n = 1 contains (q_1 + t^2) = t^2, so longer sums
    # strictly increase the degree-2 coefficient
    assert an.series_of_g(2).coefficient(2) > Fraction(1, 4)


def reference_series(cutoff):
    """The even series by a truncated Fraction convolution, term by term."""
    half = cutoff // 2
    acc = [Fraction(0)] * (half + 1)
    product = [Fraction(1)]
    for n, qn, a_n in islice(reference_terms(), half + an._SERIES_BUFFER):
        updated = [Fraction(0)] * min(len(product) + 1, half + 1)
        for j, c in enumerate(product):
            if j < len(updated):
                updated[j] += qn * c
            if j + 1 < len(updated):
                updated[j + 1] += c
        product = updated
        scale = Fraction(1, factorial(2 * n) * a_n)
        for j, c in enumerate(product):
            acc[j] += c * scale
    coefficients = [Fraction(0)] * (cutoff + 1)
    coefficients[::2] = acc
    return tuple(coefficients)


def test_series_matches_truncated_convolution():
    for cutoff in range(2, 121, 2):
        series = an.series_of_g(cutoff)
        assert series.cutoff == cutoff
        assert series.coefficients == reference_series(cutoff), cutoff


# -- graph enumeration ------------------------------------------------------------


def test_graph_points():
    assert an.graph_points(1) == [(Fraction(0), Fraction(0))]
    assert an.graph_points(2) == [(Fraction(0), Fraction(0)),
                                  (Fraction(1), Fraction(-1, 4))]
    assert an.graph_points(5) == an.graph_points(5)
    assert an.graph_points(0) == []
    with pytest.raises(ValueError):
        an.graph_points(-1)


# -- term budgets ------------------------------------------------------------------


@pytest.fixture
def no_terms(monkeypatch):
    """Fail any test that sums a term: refusals must come before the work."""
    def summed(*args):
        raise AssertionError("a term was summed before the budget check")
    monkeypatch.setattr(an, "_terms", summed)
    monkeypatch.setattr(an, "_tail_bound", summed)
    return summed


def test_budget_error_is_one_class():
    assert an.BudgetError is definability.BudgetError is BudgetError


def test_eval_exact_refuses_over_budget(no_terms):
    required = an.square_index(22) - 1
    with pytest.raises(BudgetError) as info:
        an.eval_exact(22)
    assert info.value.required == required
    assert info.value.budget == an.TERM_BUDGET
    assert str(info.value) == (f"evaluation needs {required} series terms "
                               f"(budget {an.TERM_BUDGET})")


def test_index_bits_is_the_bit_length_of_the_index():
    rng = random.Random(1505)
    values = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
              for _ in range(300)]
    for q in values + [Fraction(1), Fraction(2), Fraction(1, 7), 22]:
        q = Fraction(q)
        assert an._index_bits(q) == an.cw_index(q).bit_length()


def test_eval_exact_refusals_near_the_digit_limit_are_unchanged(no_terms):
    # the index of an integer a has a bits; 14283 bits print as 4300
    # digits, the most str() allows by default, and 14284 bits do not
    for a in range(14270, 14300):
        required = an.square_index(a) - 1
        direct = BudgetError(required, an.TERM_BUDGET, "evaluation",
                             "series terms")
        with pytest.raises(BudgetError) as info:
            an.eval_exact(a)
        assert str(info.value) == str(direct)
        assert info.value.reported == direct.reported


def test_eval_exact_refuses_unprintable_indices_unbuilt(no_terms, monkeypatch):
    def built(q):
        raise AssertionError("the index was built")
    monkeypatch.setattr(an, "cw_index", built)
    with pytest.raises(BudgetError) as info:
        an.eval_exact(-10 ** 9)
    assert info.value.required is None
    assert info.value.reported == "at least 2^999999999"
    assert str(info.value) == ("evaluation needs at least 2^999999999 series "
                               f"terms (budget {an.TERM_BUDGET})")


def test_eval_exact_budget_is_the_term_count(monkeypatch):
    a = an.enumerated_rational(50)
    required = an.square_index(a) - 1
    monkeypatch.setattr(an, "TERM_BUDGET", required)
    assert an.eval_exact(a) == reference_eval_exact(a)
    monkeypatch.setattr(an, "TERM_BUDGET", required - 1)
    with pytest.raises(BudgetError) as info:
        an.eval_exact(a)
    assert info.value.required == required
    monkeypatch.setattr(an, "TERM_BUDGET", 0)
    assert an.eval_exact(0) == 0


def reference_interval_terms(lo, hi, n_terms):
    """Explicit terms plus the terms the tail loop adds, by the loop itself."""
    m = max(abs(Fraction(lo)), abs(Fraction(hi)))
    n = n_terms + 1
    while (m * m + 1) / ((2 * n + 1) * (2 * n + 2)) >= Fraction(1, 2):
        n += 1
    # n_terms explicit terms, then the tail terms n_terms + 1 .. n
    return n


@pytest.mark.parametrize("lo,hi,n_terms", [
    (0, 1, 5), (-7, Fraction(3, 2), 2), (0, 40, 4), (Fraction(-99, 2), 3, 30),
    (0, 10**4, 1), (Fraction(1, 3), Fraction(2000, 7), 12),
    # 2(M^2 + 1) = 30 + 1/8 sits just above (2n+1)(2n+2) = 30 at n = 2
    (Fraction(-15, 4), 1, 1)])
def test_eval_interval_budget_predicts_the_tail(lo, hi, n_terms, monkeypatch):
    required = reference_interval_terms(lo, hi, n_terms)
    if required <= 200:
        monkeypatch.setattr(an, "TERM_BUDGET", required)
        enclosure = an.eval_interval(lo, hi, n_terms)
        assert enclosure.contains(an.eval_exact(1))  # 1 is in every window
    monkeypatch.setattr(an, "TERM_BUDGET", required - 1)
    with pytest.raises(BudgetError) as info:
        an.eval_interval(lo, hi, n_terms)
    assert info.value.required == required


def test_eval_interval_refuses_over_budget(no_terms):
    with pytest.raises(BudgetError) as info:
        an.eval_interval(0, 3000, 4)
    assert info.value.required == reference_interval_terms(0, 3000, 4)
    assert info.value.budget == an.TERM_BUDGET
    with pytest.raises(BudgetError) as info:
        an.eval_interval(0, 1, an.TERM_BUDGET)
    assert info.value.required == an.TERM_BUDGET + 1


def series_coefficients(cutoff):
    """Coefficients of the polynomial terms summed: term n has n + 1."""
    return sum(n + 1 for n in range(1, cutoff // 2 + an._SERIES_BUFFER + 1))


def test_series_refuses_over_budget(no_terms):
    cutoff = 1984  # 1000 polynomial terms
    with pytest.raises(BudgetError) as info:
        an.series_of_g(cutoff)
    assert info.value.required == series_coefficients(cutoff)
    assert info.value.budget == an.COEFFICIENT_BUDGET
    assert str(info.value) == (
        f"series needs {series_coefficients(cutoff)} polynomial coefficients "
        f"(budget {an.COEFFICIENT_BUDGET})")


def test_series_budget_is_the_coefficient_count(monkeypatch):
    required = series_coefficients(10)
    expected = an.series_of_g(10)
    monkeypatch.setattr(an, "COEFFICIENT_BUDGET", required)
    assert an.series_of_g(10) == expected
    monkeypatch.setattr(an, "COEFFICIENT_BUDGET", required - 1)
    with pytest.raises(BudgetError):
        an.series_of_g(10)


def test_series_budget_admits_the_benchmark_cutoffs():
    # bench/wl_analytic.py draws cutoffs up to 120
    assert series_coefficients(120) <= an.COEFFICIENT_BUDGET


def test_graph_points_refuse_over_budget(no_terms, monkeypatch):
    monkeypatch.setattr(an, "eval_exact", no_terms)
    # point n sums square_index - 1 = n - 1 terms
    required = sum(an.square_index(an.enumerated_rational(n)) - 1
                   for n in range(1, 401))
    with pytest.raises(BudgetError) as info:
        an.graph_points(400)
    assert info.value.required == required
    assert info.value.budget == an.TERM_BUDGET
    monkeypatch.setattr(an, "TERM_BUDGET", 0)
    assert an.graph_points(0) == []


def test_graph_points_budget_is_the_total_term_count(monkeypatch):
    expected = an.graph_points(5)
    monkeypatch.setattr(an, "TERM_BUDGET", 0 + 1 + 2 + 3 + 4)
    assert an.graph_points(5) == expected
    monkeypatch.setattr(an, "TERM_BUDGET", 9)
    with pytest.raises(BudgetError) as info:
        an.graph_points(5)
    assert info.value.required == 10
